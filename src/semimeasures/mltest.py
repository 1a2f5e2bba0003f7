"""Effective null-cover tests over a semi-measure, and their algebra.

A test is an indexed family of string sets over a base semi-measure.  A
generalized test declares a decay modulus: an explicit map sending each
accuracy k to a level index whose mass is at most 2^-k, after prefix-free
normalisation.  A standard (Martin-Loef) test is the case of the identity
modulus: level i has base mass at most 2^-i.

The transformations here move tests between semi-measures: pulling a test
back through a functional onto the uniform measure, re-indexing under a
pointwise domination certificate, filtering behind a ones-prefix to undo a
tilt, and intersecting level families into a single family covering the
common nulls.  Each transformation re-verifies its mass bounds on the
concrete sets it produces instead of trusting the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .dyadic import Dyadic, ONE
from .errors import CertificateError, PreconditionError
from .functional import MonotoneFunctional
from .semimeasure import SemiMeasureStage, uniform_measure
from .strings import (
    StringSet,
    canon,
    extend_set,
    intersect_sets,
    is_prefix_free,
    lebesgue_of_set,
    prefix_free_normalize,
)


def _canon_levels(levels: Mapping[int, Iterable[str]]) -> dict[int, StringSet]:
    out = {}
    for i, members in levels.items():
        if i < 0:
            raise ValueError("level indices must be non-negative")
        out[int(i)] = canon(members)
    return out


@dataclass(frozen=True)
class MLTest:
    """Levels U_i with base mass at most 2^-k at level decay[k] (checked, not
    assumed); ``decay`` None is the identity modulus of a standard test."""

    levels: Mapping[int, StringSet]
    base: SemiMeasureStage
    decay: Mapping[int, int] | None = None

    @classmethod
    def build(
        cls,
        levels: Mapping[int, Iterable[str]],
        base: SemiMeasureStage,
        decay: Mapping[int, int] | None = None,
    ) -> "MLTest":
        return cls(levels=_canon_levels(levels), base=base, decay=None if decay is None else dict(decay))

    def members(self) -> StringSet:
        return canon(s for level in self.levels.values() for s in level)


GeneralizedTest = MLTest


@dataclass(frozen=True)
class LevelViolation:
    level: int
    mass: Dyadic
    bound: Dyadic


def validate_ml_test(test: MLTest) -> LevelViolation | None:
    """First accuracy k, in increasing order, whose level's normalised base
    mass exceeds 2^-k, if any."""
    decay = test.decay if test.decay is not None else {i: i for i in test.levels}
    for k in sorted(decay):
        i = decay[k]
        if i not in test.levels:
            raise ValueError(f"decay modulus points at missing level {i}")
        mass = test.base.set_mass(test.levels[i])
        if mass > Dyadic.pow2(-k):
            return LevelViolation(level=i, mass=mass, bound=Dyadic.pow2(-k))
    return None


validate_generalized_test = validate_ml_test


def pullback_test(test: MLTest, phi: MonotoneFunctional, stage: int) -> MLTest:
    """Pull a test over phi's induced semi-measure back onto the fair coin.

    Level i becomes the union of preimages of its members.  Requires the
    test's base to agree with phi's induced semi-measure on every member
    (checked exactly); the pulled-back masses are bounded by the original
    ones because distinct members have disjoint preimage cylinders inside
    the common preimage.

    One pass over phi's pairs puts each input into the bucket of every
    member its output extends; a member's induced value is the Lebesgue
    mass of its bucket and its preimage is the bucket normalised.
    """
    members = test.members()
    buckets: dict[str, list[str]] = {s: [] for s in members}
    lengths = sorted({len(s) for s in members})
    for i, o in phi.pairs_at(stage):
        for n in lengths:
            if n > len(o):
                break
            bucket = buckets.get(o[:n])
            if bucket is not None:
                bucket.append(i)
    nums, e = test.base.values(members)
    for s, num in zip(members, nums):
        induced = lebesgue_of_set(buckets[s])
        if num << induced.exponent != induced.numerator << e:
            raise CertificateError(
                f"test base disagrees with the induced semi-measure at {s!r}", witness=s
            )
    new_levels = {}
    for i, level in test.levels.items():
        new_level = prefix_free_normalize(x for s in level for x in buckets[s])
        if lebesgue_of_set(new_level) > test.base.set_mass(level):
            raise AssertionError("pullback gained mass")  # pragma: no cover
        new_levels[i] = new_level
    return MLTest.build(new_levels, uniform_measure())


def shift_for_domination(test: MLTest, c: Dyadic, dominated: SemiMeasureStage) -> MLTest:
    """Re-index a test over M for a semi-measure rho <= c * M.

    With k the least integer satisfying 2^k >= c, new level i is old level
    i + k; then rho(U_{i+k}) <= c * 2^-(i+k) <= 2^-i.  The domination
    certificate is checked on every string occurring in the test.
    """
    if c < ONE:
        raise ValueError("domination constant must be at least 1")
    k = 0
    while Dyadic.pow2(k) < c:
        k += 1
    members = test.members()
    (rho, rho_e), (base, base_e) = dominated.values(members), test.base.values(members)
    # rho / 2**rho_e against c * base / 2**(c.exponent + base_e), both over 2**e
    e = max(rho_e, c.exponent + base_e)
    shift, scale = e - rho_e, c.numerator << (e - c.exponent - base_e)
    for s, r, b in zip(members, rho, base):
        if r << shift > scale * b:
            raise CertificateError(f"domination fails at {s!r}", witness=s)
    new_levels = {}
    for i in sorted(test.levels):
        if i - k < 0:
            continue
        level = test.levels[i]
        mass = dominated.set_mass(level)
        if mass > c * Dyadic.pow2(-i):
            raise CertificateError(f"shifted level {i} has mass {mass}", witness=None)
        new_levels[i - k] = level
    return MLTest.build(new_levels, dominated)


def ones_prefix_filter(test: MLTest, j: int, base: SemiMeasureStage) -> MLTest:
    """Restrict a test over the tilted ``base`` to strings behind 1^j 0.

    There the tilt factor is exactly 2^-j, so the filtered level i + j has
    base mass 2^j times its tilted mass, still at most 2^-i.  Both the
    factor identity and the resulting bound are checked exactly.
    """
    if j < 0:
        raise ValueError("spine length must be non-negative")
    gate = "1" * j + "0"
    new_levels = {}
    for i in sorted(test.levels):
        if i - j < 0:
            continue
        kept = tuple(s for s in test.levels[i] if s.startswith(gate))
        mass = base.set_mass(kept)
        tilted_mass = test.base.set_mass(kept)
        if mass != Dyadic.pow2(j) * tilted_mass:
            raise CertificateError(
                f"level {i}: base mass {mass} is not 2^{j} times the tilted mass {tilted_mass}"
            )
        if mass > Dyadic.pow2(-(i - j)):
            raise CertificateError(f"filtered level {i} has mass {mass} over the base")
        new_levels[i - j] = kept
    return MLTest.build(new_levels, base)


def intersect_tests(families: Sequence[Iterable[str]], n: int | None = None) -> StringSet:
    """Single antichain covering exactly the intersection of n+1 level sets.

    Each family must be prefix-free, so through any covered sequence each
    family has a unique member; the qualifying strings are the common
    refinements extended by n more levels.  The result is the set of sigma
    such that every family holds some tau_i <= sigma with
    |sigma| = max |tau_i| + n.
    """
    if n is None:
        n = len(families) - 1
    if n < 0 or n >= len(families):
        raise ValueError("need families 0..n")
    sets = []
    for idx in range(n + 1):
        members = canon(families[idx])
        if not is_prefix_free(members):
            raise PreconditionError(f"family {idx} is not prefix-free")
        sets.append(members)
    common = sets[0]
    for members in sets[1:]:
        common = intersect_sets(common, members)
    return extend_set(common, n)


@dataclass(frozen=True)
class LevelStatus:
    level: int
    status: str  # "captured" | "escaped" | "undetermined"
    mass: Dyadic


def passes_at_depth(test: MLTest, prefix: str) -> tuple[LevelStatus, ...]:
    """Three-valued verdict per level for sequences starting with ``prefix``.

    captured: some member is a prefix of ``prefix`` (every extension is
    covered); escaped: ``prefix`` is incomparable with every member (no
    extension is covered); undetermined otherwise.  Extending the prefix
    never downgrades captured and never revokes escaped.
    """
    out = []
    for i in sorted(test.levels):
        members = test.levels[i]
        if prefix.startswith(members):  # members is a tuple: any member a prefix
            status = "captured"
        elif any(m.startswith(prefix) for m in members):
            status = "undetermined"
        else:
            status = "escaped"
        out.append(LevelStatus(level=i, status=status, mass=test.base.set_mass(members)))
    return tuple(out)
