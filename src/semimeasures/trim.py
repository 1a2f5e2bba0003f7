"""Trimming a semi-measure down to its largest dominated measure.

The level sums sum_{tau >= sigma, |tau| = n} value(tau) are non-increasing
in n; their limit is the derived measure, the largest measure sitting below
the semi-measure.  For presentations from this package's closed family the
limit has an exact closed form: a frontier node's subtree survives trimming
iff its tail rule conserves mass (zero + one == 1), all other subtrees trim
to nothing, and mixtures trim summand by summand because the level sums
converge monotonically.  Tilted components fall outside the closed family
(their limit is not dyadic in general), so they only get certified upper
bounds.  Level sums and trims are taken on integer ``(numerator, e)`` pairs,
added and aligned by ``dyadic.add`` and ``dyadic.common``, and one ``Dyadic``
is built per value returned.  A single level, or the limit, is one read of
the frontier under sigma per component, in closed form at any depth; a run
of levels is one ``SemiMeasureStage.level_masses`` pass, which reads that
frontier once and then costs a constant number of integer powers per level
and tail rule, the tilted 1-spine included.  Every member of
``open_set_derived`` and the ``trim`` command take one pass for their
levels, and ``derived_measure`` for their trim.  ``lebesgue_like_check``
scans each level's trims once, in C, for the first that differs from the
one numerator alpha * 2**-n can have over that level's power of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt
from typing import Iterable

from .dyadic import Dyadic, ZERO, add, common
from .errors import AmbiguityError, BudgetExhaustedError, PreconditionError, _count, _index, _stage
from .semimeasure import LeftCeSemiMeasure, SemiMeasureStage, _first, summed_rows
from .strings import EPSILON, CylinderSet, check_bits, string_at


def partial_trim(stage: SemiMeasureStage, sigma: str, n: int) -> Dyadic:
    """Mass at level n above sigma: exact, via per-component closed sums."""
    return Dyadic(*stage.level_mass(sigma, n))


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
    depth is then the level from which only decaying terms remain, and the
    value is cross-checked against the level sum there.  With a tilted
    component present the value is the level sum at ``probe_depth``
    (default |sigma| + 16), a certified upper bound: there the value *is*
    that level sum, and nothing is cross-checked.  A given ``probe_depth``
    must be an ``int`` either way.  Each of these reads is one closed-form
    read of the frontier under sigma per component.
    """
    check_bits(sigma)  # its length is read before any level sum checks it
    if probe_depth is not None:
        _index(probe_depth, "probe depth")
    settled = max(len(sigma), stage.max_depth)
    if all(c.tilt == 0 for c in stage.components):
        (t, te), (v, ve) = stage.level_mass(sigma, None), stage.level_mass(sigma, settled)
        if t << ve > v << te:
            raise AssertionError("closed-form trim exceeded a level sum")  # pragma: no cover
        return TrimResult(value=Dyadic(t, te), depth=settled, stabilized=True)
    depth = len(sigma) + 16 if probe_depth is None else max(probe_depth, len(sigma))
    return TrimResult(value=partial_trim(stage, sigma, depth), depth=depth, stabilized=False)


@dataclass(frozen=True)
class OpenSetTrim:
    masses: tuple[Dyadic, ...]  # mass of the m-level refinement, m = 0..m_max
    limit: TrimResult


def open_set_derived(stage: SemiMeasureStage, members: Iterable[str], m_max: int) -> OpenSetTrim:
    """Refinement masses of an antichain and their certified limit.

    The m-th entry is the stage's mass on the set with every member extended
    by m levels; the sequence is non-increasing and tends to the summed
    derived measure of the members.  Each member takes one ``level_masses``
    pass for its refinement masses; a tilted member's bound is probed
    max(m_max, 16) levels below it, so it never exceeds the last mass.
    """
    _count(m_max, "m_max")
    items = CylinderSet(members)
    if items.minimal is not items:
        raise PreconditionError("the open set must be given as a prefix-free antichain")
    sums: list[list[tuple[int, int]]] = [[] for _ in range(m_max + 1)]
    for s in items:
        for terms, level in zip(sums, stage.level_masses(s, len(s) + m_max)):
            terms.append(level)
    limits = [derived_measure(stage, s, len(s) + max(m_max, 16)) for s in items]
    value = sum((r.value for r in limits), ZERO)
    limit = TrimResult(value, max((r.depth for r in limits), default=0), all(r.stabilized for r in limits))
    return OpenSetTrim(masses=tuple(Dyadic(*add(terms)) for terms in sums), limit=limit)


@dataclass(frozen=True)
class LebesgueLikeReport:
    """alpha set when the trim is alpha * 2^-|sigma| with alpha > 0 on the
    whole inspected table; otherwise a witness node (the root witnesses a
    vanishing trim)."""

    alpha: Dyadic | None
    witness: str | None


def lebesgue_like_check(stage: SemiMeasureStage, depth: int) -> LebesgueLikeReport:
    """Decide proportionality of the derived measure to the fair coin.

    Down to the deepest frontier the trims and the level sums are taken
    once, at that frontier's level, and summed in pairs up the tree; below
    it each level's trims and values come from its own rows.  Levels are
    scanned top-down: each node's trim is cross-checked against its level
    sum, and the first node in (length, lex) order whose trim is not
    alpha * 2^-|s| is the witness.
    """
    _count(depth, "depth")
    if any(c.tilt for c in stage.components):
        raise PreconditionError("exact trimming unavailable for this presentation")
    top = stage.max_depth
    (trims, sums), e = common(stage.level_row(top, limit=True), stage.level_row(top))
    levels = list(zip(summed_rows(trims, top), summed_rows(sums, top)))
    alpha = levels[0][0][0]
    if alpha == 0:
        return LebesgueLikeReport(alpha=None, witness=EPSILON)
    for n in range(depth + 1):
        if n <= top:
            (trims, sums), row_e = levels[n], e
        else:
            (trims, sums), row_e = common(stage.level_row(n, limit=True), stage.level_row(n))
        if any(map(gt, trims, sums)):
            raise AssertionError("closed-form trim exceeded a level sum")  # pragma: no cover
        # t / 2**row_e == alpha / 2**(e + n) for every t equal to want; when
        # the shift is not exact no integer t is, and the first node witnesses
        target = alpha << row_e
        want = target >> (e + n)
        bad = 0 if want << (e + n) != target else _first(map(want.__ne__, trims))
        if bad is not None:
            return LebesgueLikeReport(alpha=None, witness=string_at(n, bad))
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
    A scan stops at rho's ``last`` stage, when that comes first, since no
    later stage differs.
    Returns the ``bits`` emitted bits (seed excluded).  Every stage must be
    super-additive (:func:`validate`): each bit's scan starts at the stage that
    decided the previous bit; before it the node was below q, so its children were.
    """
    check_bits(seed)
    if not ZERO < q:
        raise ValueError("threshold must be positive")
    _count(bits, "bit budget")
    _count(max_stage, "stage budget")
    current, start = seed, 0
    out: list[str] = []
    for _ in range(bits):
        emitted = None
        end = max(start, _stage(max_stage, rho.last))
        for s in range(start, end + 1):
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
                emitted, start = "0" if low_hit else "1", s
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
