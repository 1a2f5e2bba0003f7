"""Trimming a semi-measure down to its largest dominated measure.

The level sums sum_{tau >= sigma, |tau| = n} value(tau) are non-increasing
in n; their limit is the derived measure, the largest measure sitting below
the semi-measure.  For presentations from this package's closed family the
limit has an exact closed form: a frontier node's subtree survives trimming
iff its tail rule conserves mass (zero + one == 1), all other subtrees trim
to nothing, and mixtures trim summand by summand because the level sums
converge monotonically.  Tilted components fall outside the closed family
(their limit is not dyadic in general), so they only get certified upper
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .dyadic import Dyadic, ZERO
from .errors import AmbiguityError, BudgetExhaustedError, PreconditionError
from .semimeasure import LeftCeSemiMeasure, SemiMeasureStage
from .strings import EPSILON, canon, check_bits, is_prefix_free, string_at


def partial_trim(stage: SemiMeasureStage, sigma: str, n: int) -> Dyadic:
    """Mass at level n above sigma: exact, via per-component closed sums."""
    check_bits(sigma)
    if n < len(sigma):
        raise ValueError(f"level {n} is above the string (length {len(sigma)})")
    return stage.level_mass(sigma, n)


@dataclass(frozen=True)
class TrimResult:
    """``value`` is exact when ``stabilized``; otherwise an upper bound
    computed as the level sum at ``depth``."""

    value: Dyadic
    depth: int
    stabilized: bool


def derived_measure(stage: SemiMeasureStage, sigma: str, probe_depth: int | None = None) -> TrimResult:
    """Trim limit at sigma.

    Exact (stabilized) whenever every component is untilted; the reported
    depth is then the level from which only decaying terms remain.  With a
    tilted component present the result is the level sum at ``probe_depth``
    (default |sigma| + 16), a certified upper bound.  Either way the value
    is cross-checked against a concrete level sum before being returned.
    """
    check_bits(sigma)
    settled = max(len(sigma), stage.max_depth)
    if all(c.tilt == 0 for c in stage.components):
        total = stage.limit_mass(sigma)
        if total > partial_trim(stage, sigma, settled):
            raise AssertionError("closed-form trim exceeded a level sum")  # pragma: no cover
        return TrimResult(value=total, depth=settled, stabilized=True)
    depth = probe_depth if probe_depth is not None else len(sigma) + 16
    depth = max(depth, len(sigma))
    return TrimResult(value=partial_trim(stage, sigma, depth), depth=depth, stabilized=False)


@dataclass(frozen=True)
class OpenSetTrim:
    masses: tuple[Dyadic, ...]  # mass of the m-level refinement, m = 0..m_max
    limit: TrimResult


def open_set_derived(stage: SemiMeasureStage, members: Iterable[str], m_max: int) -> OpenSetTrim:
    """Refinement masses of an antichain and their certified limit.

    The m-th entry is the stage's mass on the set with every member extended
    by m levels; the sequence is non-increasing and tends to the summed
    derived measure of the members.
    """
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    items = canon(members)
    if not is_prefix_free(items):
        raise PreconditionError("the open set must be given as a prefix-free antichain")
    masses = []
    for m in range(m_max + 1):
        total = ZERO
        for s in items:
            total = total + stage.level_mass(s, len(s) + m)
        masses.append(total)
    value = ZERO
    depth = 0
    stabilized = True
    for s in items:
        r = derived_measure(stage, s)
        value = value + r.value
        depth = max(depth, r.depth)
        stabilized = stabilized and r.stabilized
    return OpenSetTrim(masses=tuple(masses), limit=TrimResult(value, depth, stabilized))


@dataclass(frozen=True)
class LebesgueLikeReport:
    """alpha set when the trim is alpha * 2^-|sigma| with alpha > 0 on the
    whole inspected table; otherwise a witness node (the root witnesses a
    vanishing trim)."""

    alpha: Dyadic | None
    witness: str | None

    @property
    def is_lebesgue_like(self) -> bool:
        return self.alpha is not None


def _trims_and_sums(stage: SemiMeasureStage, n: int) -> tuple[list[int], list[int], int]:
    """Trimmed masses and values of the length-n strings, n at or below
    every frontier, over one common 2**e."""
    trims, te = stage.level_row(n, limit=True)
    sums, se = stage.level_row(n)
    e = max(te, se)
    return [t << (e - te) for t in trims], [v << (e - se) for v in sums], e


def lebesgue_like_check(stage: SemiMeasureStage, depth: int) -> LebesgueLikeReport:
    """Decide proportionality of the derived measure to the fair coin.

    Down to the deepest frontier the trims and the level sums are taken
    once, at that frontier's level, and summed in pairs up the tree; below
    it each level's trims and values come from its own rows.  Levels are
    scanned top-down: each node's trim is cross-checked against its level
    sum, and the first node in (length, lex) order whose trim is not
    alpha * 2^-|s| is the witness.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if any(c.tilt for c in stage.components):
        raise PreconditionError("exact trimming unavailable for this presentation")
    top = stage.max_depth
    trims, sums, e = _trims_and_sums(stage, top)
    levels = [(trims, sums)]
    for _ in range(top):
        trims = [a + b for a, b in zip(trims[0::2], trims[1::2])]
        sums = [a + b for a, b in zip(sums[0::2], sums[1::2])]
        levels.append((trims, sums))
    levels.reverse()
    alpha = levels[0][0][0]
    if alpha == 0:
        return LebesgueLikeReport(alpha=None, witness=EPSILON)
    for n in range(depth + 1):
        if n <= top:
            (trims, sums), row_e = levels[n], e
        else:
            trims, sums, row_e = _trims_and_sums(stage, n)
        if any(t > v for t, v in zip(trims, sums)):
            raise AssertionError("closed-form trim exceeded a level sum")  # pragma: no cover
        # t / 2**row_e == alpha / 2**(e + n)
        target = alpha << row_e
        for i, t in enumerate(trims):
            if t << (e + n) != target:
                return LebesgueLikeReport(alpha=None, witness=string_at(n, i))
    return LebesgueLikeReport(alpha=Dyadic(alpha, e), witness=None)


def decode_atom(
    rho: LeftCeSemiMeasure,
    q: Dyadic,
    seed: str,
    bits: int,
    max_stage: int = 256,
) -> str:
    """Extend ``seed`` bit by bit along the unique atom of mass above q.

    The caller certifies that the limit semi-measure has exactly one atom
    through ``seed``, with mass alpha satisfying alpha/2 < q < alpha and
    rho(seed) < 2q; then at each position exactly one child ever reaches q.
    Stages are advanced until a child's value reaches q: that bit is
    emitted.  If both children qualify at that first stage the certificate
    was wrong and AmbiguityError reports the node; if no child qualifies
    within ``max_stage`` stages BudgetExhaustedError reports the position.
    Returns the ``bits`` emitted bits (seed excluded).
    """
    check_bits(seed)
    if not ZERO < q:
        raise ValueError("threshold must be positive")
    if bits < 0:
        raise ValueError("bit budget must be non-negative")
    current = seed
    out: list[str] = []
    for _ in range(bits):
        emitted = None
        for s in range(max_stage + 1):
            (low, high), e = rho.stage_at(s).values((current + "0", current + "1"))
            # low / 2**e >= q exactly when low * 2**q.exponent >= q.numerator * 2**e
            bar = q.numerator << e
            low_hit, high_hit = low << q.exponent >= bar, high << q.exponent >= bar
            if low_hit and high_hit:
                raise AmbiguityError(
                    f"both children of {current!r} reached {q} at stage {s}",
                    node=current,
                    stage=s,
                )
            if low_hit or high_hit:
                emitted = "0" if low_hit else "1"
                break
        if emitted is None:
            raise BudgetExhaustedError(
                f"no child of {current!r} reached {q} within {max_stage} stages",
                position=len(current),
                max_stage=max_stage,
            )
        current += emitted
        out.append(emitted)
    return "".join(out)
