"""Exception types shared across the package, and its one rule for counts.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies rather than bare ValueError whenever
the failure is about input data instead of programmer error.

Every stage, level, depth and budget is a count: an ``int`` that is not a
``bool``, and non-negative.  :func:`_index` checks the type, :func:`_count`
the sign too, and :func:`_stage` clips a stage to the last stage of a
finite enumeration; each raises a ValueError that names the argument, so
no count is truncated, read as a flag or compared as a float.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed textual input: bad dyadic literal, bad bit string, bad JSON shape."""


class PreconditionError(ValueError):
    """A documented caller obligation (certificate, strictness, cap) does not hold."""


class CertificateError(PreconditionError):
    """A caller-supplied certificate was checked on concrete data and failed."""

    def __init__(self, message: str, witness: str | None = None):
        super().__init__(message)
        self.witness = witness


class AmbiguityError(PreconditionError):
    """Both children of a node reached the decoding threshold at the same stage."""

    def __init__(self, message: str, node: str, stage: int):
        super().__init__(message)
        self.node = node
        self.stage = stage


class BudgetExhaustedError(RuntimeError):
    """A stage budget ran out before the wanted event was observed."""

    def __init__(self, message: str, position: int, max_stage: int):
        super().__init__(message)
        self.position = position
        self.max_stage = max_stage


def _index(value, what: str) -> int:
    """``value`` when it is an ``int`` and not a ``bool``; otherwise a
    ValueError that names it, so no index is truncated or read as a flag."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _count(value, what: str) -> int:
    """``_index(value, what)`` that is also non-negative."""
    if _index(value, what) < 0:
        raise ValueError(f"{what} must be non-negative")
    return value


def _stage(s, last: int | None) -> int:
    """Stage ``s`` as a count, clipped to ``last`` when that is set: every
    stage past the last of a finite enumeration is the last one."""
    s = _count(s, "stage")
    return s if last is None else min(s, last)
