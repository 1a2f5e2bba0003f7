"""Seeded input generators for the benchmark workloads.

Every generated object exists twice: as a plain *spec* (``fractions.Fraction``
values in dicts and tuples) that the oracle reads, and as the library object
or JSON document built from that spec.  The library only ever sees the built
form, and the oracle only ever sees the spec, so a wrong library result
cannot leak into its own check.

All randomness comes from the ``random.Random`` passed in; the same seed
gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import semimeasures as sm

F0 = Fraction(0)
F1 = Fraction(1)
HALF = Fraction(1, 2)


def all_strings(n: int) -> list[str]:
    if n == 0:
        return [""]
    return [format(k, f"0{n}b") for k in range(1 << n)]


def strings_up_to(n: int) -> list[str]:
    return [s for k in range(n + 1) for s in all_strings(k)]


def dyadic(fr: Fraction) -> "sm.Dyadic":
    exp = fr.denominator.bit_length() - 1
    return sm.Dyadic(fr.numerator, exp)


def literal(fr: Fraction) -> str:
    """The library's canonical ``m/2^n`` text for a dyadic Fraction."""
    exp = fr.denominator.bit_length() - 1
    if (1 << exp) != fr.denominator or fr < 0:
        raise ValueError(f"not a non-negative dyadic: {fr}")
    return f"{fr.numerator}/2^{exp}"


def rand_frac(rng: random.Random, bits: int, lo: int = 0, hi: int | None = None) -> Fraction:
    """Uniform draw from {lo, ..., hi} / 2^bits (hi defaults to 2^bits)."""
    top = (1 << bits) if hi is None else hi
    return Fraction(rng.randint(lo, top), 1 << bits)


# -- presentation specs -------------------------------------------------------


@dataclass
class CompSpec:
    weight: Fraction
    depth: int
    table: dict[str, Fraction]
    tails: dict[str, tuple[Fraction, Fraction]]  # frontier node -> (zero, one)
    tilt: int = 0


@dataclass
class StageSpec:
    comps: list[CompSpec]
    strict: bool = True
    known_defect: str | None = None

    @property
    def max_depth(self) -> int:
        return max((c.depth for c in self.comps), default=0)


def random_table(rng: random.Random, depth: int, root: Fraction = F1, additive: bool = False,
                 step_bits: int = 2) -> dict[str, Fraction]:
    """Super-additive (or additive) table: children split a random share of the parent."""
    table = {"": root}
    unit = 1 << step_bits
    for node in strings_up_to(depth - 1) if depth > 0 else ():
        v = table[node]
        a = rng.randint(1, unit - 1)  # no zero children: cost does not hinge on where zeros fall
        b = unit - a if additive else rng.randint(1, unit - a)
        table[node + "0"] = v * Fraction(a, unit)
        table[node + "1"] = v * Fraction(b, unit)
    return table


TAIL_KINDS = ("vanish", "uniform", "geometric", "split")


def random_tail(rng: random.Random, kind: str | None = None, conserving: bool | None = None
                ) -> tuple[Fraction, Fraction]:
    if conserving is True:
        kind = rng.choice(("uniform", "split-conserving"))
    elif conserving is False:
        kind = rng.choice(("vanish", "geometric", "split"))
    elif kind is None:
        kind = rng.choice(TAIL_KINDS)
    if kind == "vanish":
        return (F0, F0)
    if kind == "uniform":
        return (HALF, HALF)
    if kind == "geometric":
        beta = rng.choice((Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)))
        return (beta, beta)
    if kind == "split-conserving":
        z = rand_frac(rng, 3)
        return (z, F1 - z)
    # lossy split: zero + one < 1
    z = rand_frac(rng, 3, hi=7)
    return (z, rand_frac(rng, 3, hi=7 - int(z * 8)))


def random_component(rng: random.Random, depth: int, weight: Fraction, *, additive: bool = False,
                     conserving: bool | None = None, tilt: int = 0) -> CompSpec:
    table = random_table(rng, depth, additive=additive)
    if rng.random() < 0.5:
        rule = random_tail(rng, conserving=conserving)
        tails = {f: rule for f in all_strings(depth)}
    else:
        tails = {f: random_tail(rng, conserving=conserving) for f in all_strings(depth)}
    return CompSpec(weight, depth, table, tails, tilt)


def split_weights(rng: random.Random, n: int, total: Fraction = F1, bits: int = 4) -> list[Fraction]:
    """n positive dyadic weights summing to ``total``."""
    unit = 1 << bits
    cuts = sorted(rng.sample(range(1, unit), n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [unit])]
    return [total * Fraction(p, unit) for p in parts]


# depth of component k below the mixture's depth: fixed, so the cost of an
# operation depends on the depth schedule and not on the seed
DEPTH_STEPS = (0, 2, 1, 3)


def random_mixture(rng: random.Random, depth: int, ncomp: int, *, tilted: bool = False) -> StageSpec:
    """Strict mixture; every component is super-additive on its own."""
    weights = split_weights(rng, ncomp)
    comps = []
    for k, w in enumerate(weights):
        d = max(0, depth - DEPTH_STEPS[k])
        comps.append(random_component(rng, d, w, tilt=(rng.randint(1, 2) if tilted and k == ncomp - 1 else 0)))
    return StageSpec(comps, strict=True)


def random_measure(rng: random.Random, depth: int, ncomp: int) -> StageSpec:
    """Strict additive mixture with conserving tails: validate_measure accepts it."""
    weights = split_weights(rng, ncomp)
    comps = [random_component(rng, max(0, depth - DEPTH_STEPS[k]), w, additive=True, conserving=True)
             for k, w in enumerate(weights)]
    return StageSpec(comps, strict=True)


def lebesgue_like(rng: random.Random, depth: int, ncomp: int) -> StageSpec:
    """Fair-coin component plus lossy components: the trim is w * 2^-|sigma|."""
    weights = split_weights(rng, ncomp)
    uniform = CompSpec(weights[0], depth, {s: Fraction(1, 1 << len(s)) for s in strings_up_to(depth)},
                       {f: (HALF, HALF) for f in all_strings(depth)})
    comps = [uniform] + [random_component(rng, max(0, depth - DEPTH_STEPS[k + 1]), w, conserving=False)
                         for k, w in enumerate(weights[1:])]
    rng.shuffle(comps)
    return StageSpec(comps, strict=True)


def jointly_valid_mixture(rng: random.Random, depth: int, ncomp: int) -> StageSpec:
    """ROADMAP defect 1: valid as a mixture, not component by component.

    Component A over-commits at its root (children sum above the root);
    component B leaves enough room that the weighted mixture stays
    super-additive.  ``validate`` accepts it; completing components one at
    a time goes negative at A's root.
    """
    wa = wb = HALF / 2 if ncomp > 2 else HALF
    rest = split_weights(rng, ncomp - 2, F1 - wa - wb) if ncomp > 2 else []
    excess = Fraction(rng.randint(1, 4), 8)  # A's children sum to 1 + excess
    a0 = Fraction(rng.randint(int(excess * 8), 8), 8)
    a1 = F1 + excess - a0
    # B's children must leave at least `excess` (wa == wb) of room at the root
    room = Fraction(rng.randint(int(excess * 8), 8), 8)
    b0 = Fraction(rng.randint(0, int((F1 - room) * 8)), 8)
    b1 = F1 - room - b0
    comps = []
    for w, (c0, c1) in ((wa, (a0, a1)), (wb, (b0, b1))):
        left = random_table(rng, depth - 1, root=c0)
        right = random_table(rng, depth - 1, root=c1)
        table = {"": F1}
        table.update({"0" + k: v for k, v in left.items()})
        table.update({"1" + k: v for k, v in right.items()})
        rule = random_tail(rng)
        comps.append(CompSpec(w, depth, table, {f: rule for f in all_strings(depth)}))
    comps += [random_component(rng, max(0, depth - DEPTH_STEPS[k + 2]), w) for k, w in enumerate(rest)]
    return StageSpec(comps, strict=True, known_defect="defect-1")


def build_stage(spec: StageSpec) -> "sm.SemiMeasureStage":
    comps = []
    for c in spec.comps:
        table = {k: dyadic(v) for k, v in c.table.items()}
        tails = {k: sm.TailRule(dyadic(z), dyadic(o)) for k, (z, o) in c.tails.items()}
        comps.append(sm.Component.build(dyadic(c.weight), table, tails=tails, tilt=c.tilt))
    return sm.SemiMeasureStage(tuple(comps), strict=spec.strict)


def stage_json(spec: StageSpec) -> dict:
    """The documented presentation file format for a spec."""
    comps = []
    for c in spec.comps:
        obj: dict = {
            "weight": literal(c.weight),
            "depth": c.depth,
            "table": [[literal(c.table[s]) for s in all_strings(n)] for n in range(c.depth + 1)],
        }
        rules = {c.tails[f] for f in all_strings(c.depth)}
        if len(rules) == 1:
            obj["tail"] = tail_json(next(iter(rules)))
        else:
            obj["tails"] = {f: tail_json(c.tails[f]) for f in all_strings(c.depth)}
        if c.tilt:
            obj["tilt"] = c.tilt
        comps.append(obj)
    return {"components": comps, "strict": spec.strict}


def tail_json(rule: tuple[Fraction, Fraction]) -> dict:
    z, o = rule
    if z == o == 0:
        return {"kind": "vanish"}
    if z == o == HALF:
        return {"kind": "uniform"}
    if z == o:
        return {"kind": "geometric", "beta": literal(z)}
    return {"kind": "split", "zero": literal(z), "one": literal(o)}


# -- planted atoms ------------------------------------------------------------


@dataclass
class AtomSpec:
    """A point mass of final weight ``alpha`` on ``path`` (then 0^inf) over a
    background of root mass ``bg_mass``; the spine weight ramps by ``delta``
    per stage."""

    path: str
    alpha: Fraction
    delta: Fraction
    q: Fraction
    background: StageSpec
    bg_mass: Fraction

    def spine(self) -> CompSpec:
        depth = len(self.path)
        table = {s: (F1 if self.path.startswith(s) else F0) for s in strings_up_to(depth)}
        tails = {f: ((F1, F0) if f == self.path else (F0, F0)) for f in all_strings(depth)}
        return CompSpec(F1, depth, table, tails)

    def spine_weight(self, s: int) -> Fraction:
        return min(self.alpha, s * self.delta)


def random_atom(rng: random.Random, bits: int, delta_bits: int) -> AtomSpec:
    """alpha = 7/8, background 1/8, q = 3/4: alpha/2 < q < alpha and the
    root stays below 2q, so exactly one child ever reaches q."""
    path = "".join(rng.choice("01") for _ in range(bits))
    bg = random_mixture(rng, 4, 2)
    for c in bg.comps:  # no background below the path's first bit: each bit is decided at stage q / delta
        c.table.update((s, F0) for s in c.table if s[:1] == path[0])
    return AtomSpec(path, Fraction(7, 8), Fraction(1, 1 << delta_bits), Fraction(3, 4), bg, Fraction(1, 8))


def ramp_stage_fn(atom: AtomSpec, max_stage: int):
    """Stage function of the ramp: stage s weights the spine by min(alpha, s * delta).

    Built once per fixture; each decode wraps it in a fresh
    ``LeftCeSemiMeasure``, so no stage is cached across operations.
    """
    spine = build_stage(StageSpec([atom.spine()])).components[0]
    bg = tuple(build_stage(atom.background).scaled(dyadic(atom.bg_mass)).components)
    weights = [atom.spine_weight(s) for s in range(max_stage + 1)]
    heads = [sm.Component(weight=dyadic(w), depth=spine.depth, table=spine.table, tails=spine.tails)
             for w in weights]

    def stage_fn(s: int) -> "sm.SemiMeasureStage":
        return sm.SemiMeasureStage((heads[s],) + bg, strict=(weights[s] + atom.bg_mass == 1))

    return stage_fn


def atom_constant_spec(atom: AtomSpec) -> StageSpec:
    """The final stage of a ramp as one presentation (for the CLI)."""
    spine = atom.spine()
    spine.weight = atom.alpha
    bg = [CompSpec(c.weight * atom.bg_mass, c.depth, c.table, c.tails, c.tilt) for c in atom.background.comps]
    return StageSpec([spine] + bg, strict=True)


# -- antichains ---------------------------------------------------------------


def density_cap(spec: StageSpec) -> Fraction:
    """Upper bound on value(s) * 2^|s| over all s for :func:`antichain_base`
    specs: a child keeps at most 3/4 of its parent and a tail at most half.
    It depends on the depth only, so member lengths (and costs) do not
    depend on the seed."""
    cap = Fraction(3, 2) ** spec.max_depth
    for c in spec.comps:
        assert all(max(z, o) <= HALF for z, o in c.tails.values())
        assert c.weight * max(v * (1 << len(s)) for s, v in c.table.items()) <= c.weight * cap
    return cap


def antichain_base(rng: random.Random, depth: int, ncomp: int, tilted: bool = False) -> StageSpec:
    """Mixture base for tests: tails halve or shrink the mass below the frontier."""
    weights = split_weights(rng, ncomp)
    comps = []
    for k, w in enumerate(weights):
        d = max(1, depth - DEPTH_STEPS[k])
        rule_kinds = ("vanish", "uniform", "geometric")
        table = random_table(rng, d)
        tails = {f: random_tail(rng, kind=rng.choice(rule_kinds)) for f in all_strings(d)}
        comps.append(CompSpec(w, d, table, tails, 1 if tilted and k == 0 else 0))
    return StageSpec(comps, strict=True)


def random_level(rng: random.Random, n: int, length: int, gate: str = "", gate_share: float = 0.0) -> list[str]:
    """n distinct strings of one length; about gate_share of them behind ``gate``."""
    out: set[str] = set()
    free = length - len(gate)
    while len(out) < n:
        if gate and rng.random() < gate_share:
            out.add(gate + format(rng.getrandbits(free), f"0{free}b"))
        else:
            out.add(format(rng.getrandbits(length), f"0{length}b"))
    return sorted(out)


def length_for(n: int, density: Fraction, level: int) -> int:
    """Smallest length at which n members stay within mass 2^-level."""
    length = 1
    while n * density > Fraction(1 << length, 1 << level):
        length += 1
    return max(length, (n - 1).bit_length())
