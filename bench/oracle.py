"""Independent reference computations for every benchmarked operation.

Everything here works on the plain specs from :mod:`gen` with
``fractions.Fraction`` and exhaustive enumeration, straight from the
definitions in the README: a component's value is its table entry, or the
frontier entry times one tail fraction per extra bit, times 2^-(tilt * j)
for j leading ones; a level sum is the sum of values over all extensions
of one length; the trim is the limit of the level sums.  Nothing is
imported from the package or from its tests.
"""

from __future__ import annotations

from fractions import Fraction

from gen import F0, CompSpec, StageSpec, all_strings, strings_up_to


def frac(d) -> Fraction:
    """A library Dyadic (or anything with numerator/exponent) as a Fraction."""
    return Fraction(d.numerator, 1 << d.exponent)


def leading_ones(s: str) -> int:
    n = 0
    while n < len(s) and s[n] == "1":
        n += 1
    return n


def comp_value(c: CompSpec, sigma: str) -> Fraction:
    if len(sigma) <= c.depth:
        v = c.table[sigma]
    else:
        f = sigma[: c.depth]
        v = c.table[f]
        z, o = c.tails[f]
        for bit in sigma[c.depth:]:
            v *= z if bit == "0" else o
    if c.tilt and v:
        v /= 1 << (c.tilt * leading_ones(sigma))
    return v


def value(spec: StageSpec, sigma: str) -> Fraction:
    return sum((c.weight * comp_value(c, sigma) for c in spec.comps), F0)


def values_up_to(spec: StageSpec, depth: int) -> dict[str, Fraction]:
    return {s: value(spec, s) for s in strings_up_to(depth)}


def sort_key(s: str):
    return (len(s), s)


# -- validation ---------------------------------------------------------------


def superadditivity_violations(spec: StageSpec, table: dict[str, Fraction]) -> list[str]:
    """Every node (length, lex order) whose children outweigh it."""
    top = spec.max_depth
    return [s for s in strings_up_to(top - 1) if top > 0 and table[s + "0"] + table[s + "1"] > table[s]]


def validate_expected(spec: StageSpec) -> tuple[bool, str | None]:
    """(ok, first violating node) as documented for ``validate``."""
    table = values_up_to(spec, spec.max_depth)
    root = table[""]
    if spec.strict and root != 1:
        return False, ""
    if root > 1:
        return False, ""
    bad = superadditivity_violations(spec, table)
    return (False, bad[0]) if bad else (True, None)


def measure_violations(spec: StageSpec) -> tuple[bool, set]:
    """(ok, nodes that witness a failure of the measure axioms)."""
    ok, node = validate_expected(spec)
    if not ok:
        return False, {node}
    table = values_up_to(spec, spec.max_depth)
    bad = set()
    for c in spec.comps:
        for f, (z, o) in c.tails.items():
            if z + o != 1 and c.table[f] != 0:
                bad.add(f)
    top = spec.max_depth
    bad.update(s for s in strings_up_to(top - 1) if top > 0 and table[s + "0"] + table[s + "1"] != table[s])
    return not bad, bad


# -- level sums and trims -----------------------------------------------------


def level_sum(spec: StageSpec, sigma: str, n: int) -> Fraction:
    """Sum of values over every extension of sigma of length n (enumerated)."""
    return sum((value(spec, sigma + t) for t in all_strings(n - len(sigma))), F0)


def comp_trim(c: CompSpec, sigma: str) -> Fraction:
    """lim_n of the untilted level sums of one component below sigma.

    Past the frontier every extension of a frontier node f carries
    table[f] times (zero + one)^k in total at k extra levels; the limit
    keeps table[f] when zero + one == 1 and drops it when it is below 1.
    """
    assert c.tilt == 0
    if len(sigma) >= c.depth:
        f = sigma[: c.depth]
        z, o = c.tails[f]
        return comp_value(c, sigma) if z + o == 1 else F0
    total = F0
    for t in all_strings(c.depth - len(sigma)):
        z, o = c.tails[sigma + t]
        if z + o == 1:
            total += c.table[sigma + t]
    return total


def trim(spec: StageSpec, sigma: str) -> Fraction:
    return sum((c.weight * comp_trim(c, sigma) for c in spec.comps), F0)


def trims_up_to(spec: StageSpec, depth: int) -> dict[str, Fraction]:
    """trim at every node of length <= depth, bottom-up from the deepest level."""
    out = {s: trim(spec, s) for s in all_strings(depth)}
    for n in range(depth - 1, -1, -1):
        for s in all_strings(n):
            out[s] = out[s + "0"] + out[s + "1"]
    return out


def lebesgue_expected(spec: StageSpec, depth: int) -> tuple[Fraction | None, str | None]:
    """(alpha, witness) as documented for ``lebesgue_like_check``."""
    trims = trims_up_to(spec, depth)
    alpha = trims[""]
    if alpha == 0:
        return None, ""
    for s in strings_up_to(depth):
        if trims[s] != alpha / (1 << len(s)):
            return None, s
    return alpha, None


# -- completion ---------------------------------------------------------------


def pushdown(spec: StageSpec, depth: int) -> dict[str, Fraction]:
    """The mixture's completed table: each node's surplus goes to its
    children in equal halves, so the table becomes additive and dominates."""
    v = values_up_to(spec, depth)
    mu = {"": v[""]}
    for s in strings_up_to(depth - 1) if depth > 0 else ():
        surplus = mu[s] - v[s + "0"] - v[s + "1"]
        mu[s + "0"] = v[s + "0"] + surplus / 2
        mu[s + "1"] = v[s + "1"] + surplus / 2
    return mu


class _FracView:
    """Read-only view converting a library mapping's values on access."""

    def __init__(self, mapping, conv):
        self._m, self._conv = mapping, conv

    def __getitem__(self, key):
        return self._conv(self._m[key])


def stage_to_spec(stage) -> StageSpec:
    """Read a library presentation's fields (no library calls) into a spec."""
    comps = []
    for c in stage.components:
        comps.append(CompSpec(
            frac(c.weight), c.depth,
            _FracView(c.table, frac),
            _FracView(c.tails, lambda r: (frac(r.zero), frac(r.one))),
            c.tilt,
        ))
    return StageSpec(comps, strict=stage.strict)


def completion_ok(spec: StageSpec, expected: dict[str, Fraction], depth: int, out, probe: list[str]) -> bool:
    """The completed presentation matches the pushed-down table on the
    nodes in ``probe`` (all nodes when short enough), and is strict,
    additive and dominating on the probe's deeper nodes."""
    got = stage_to_spec(out)
    if not out.strict:
        return False
    for s in probe:
        v = value(got, s)
        if len(s) <= depth and v != expected[s]:
            return False
        if value(got, s + "0") + value(got, s + "1") != v:
            return False
        if v < value(spec, s):
            return False
    return True


# -- ML tests -----------------------------------------------------------------


def normalize(strings) -> list[str]:
    """Minimal members (drop extensions of members), in (length, lex) order."""
    kept: set[str] = set()
    out = []
    for s in sorted(set(strings), key=sort_key):
        if not any(s[:k] in kept for k in range(len(s) + 1)):
            kept.add(s)
            out.append(s)
    return out


def set_mass(spec: StageSpec, strings) -> Fraction:
    return sum((value(spec, s) for s in normalize(strings)), F0)


def lebesgue(strings) -> Fraction:
    return sum((Fraction(1, 1 << len(s)) for s in normalize(strings)), F0)


def intersect_families(families: list[list[str]], n: int) -> list[str]:
    """Minimal strings lying in every family's cylinder union, each extended
    by n more levels, in (length, lex) order."""
    sets = [set(f) for f in families[: n + 1]]

    def covered(tau: str) -> bool:
        return all(any(tau[:k] in g for k in range(len(tau) + 1)) for g in sets)

    common = normalize(tau for f in sets for tau in f if covered(tau))
    return sorted({c + t for c in common for t in all_strings(n)}, key=sort_key)
