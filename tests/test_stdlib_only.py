"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_loads_only_stdlib_modules():
    """Import the CLI, which pulls in every module of the package, in a
    fresh interpreter and list the top-level modules it loaded.

    The child runs without ``site`` (``-S``): ``.pth`` hooks of installed
    packages import modules of their own at start-up, which says nothing
    about this package.  A third-party import in the package then fails
    outright, since site-packages is not on the path, or shows up in the
    list.
    """
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import semimeasures.cli\n"
        "print(' '.join(sorted({name.partition('.')[0] for name in sys.modules})))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "semimeasures" in loaded
    foreign = [name for name in loaded if name not in sys.stdlib_module_names and name not in ("semimeasures", "__main__")]
    assert foreign == []
