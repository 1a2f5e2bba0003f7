"""Every count argument -- a stage, level, depth or budget -- takes a
non-negative ``int`` that is not a ``bool``.  Anything else raises
``ValueError`` naming the argument; a negative count keeps its own message."""

from __future__ import annotations

import pytest

from semimeasures import (
    HALF,
    ONE,
    Component,
    Dyadic,
    LeftCeSemiMeasure,
    MLTest,
    MonotoneFunctional,
    StagedFamily,
    decode_atom,
    derived_measure,
    dirac_spine,
    domain_clopen_approx,
    expansion_bits,
    extend_set,
    from_infimum_sequence,
    from_semimeasure,
    geometric_semimeasure,
    induced_semimeasure,
    infimum_semimeasure,
    intersect_tests,
    lebesgue_like_check,
    ones_prefix_filter,
    open_set_derived,
    partial_trim,
    reach_set,
    tilt_by_ones,
    uniform_measure,
)
from semimeasures import test_defeating_semimeasure as defeating_semimeasure

UNIFORM = uniform_measure()
PHI = MonotoneFunctional.constant([("0", "1")])
RHO = LeftCeSemiMeasure.constant(UNIFORM)
SPINE = LeftCeSemiMeasure.constant(dirac_spine("0"))
TILTED = MLTest.build({0: [""]}, tilt_by_ones(UNIFORM))

# (site, call with the count, the name it is reported under, the message of
# -1, or None where -1 is a valid value)
SITES = [
    ("pairs_at", lambda x: PHI.pairs_at(x), "stage", "stage must be non-negative"),
    ("from_events", lambda x: MonotoneFunctional.from_events([(x, "0", "0")]), "stage", "stage must be non-negative"),
    ("induced_semimeasure", lambda x: induced_semimeasure(PHI, 0, x), "depth", "depth must be non-negative"),
    ("reach_set", lambda x: reach_set(PHI, x, 0), "output length", "output length must be non-negative"),
    ("from_semimeasure.stage", lambda x: from_semimeasure(RHO, x, 1), "stage", "stage must be non-negative"),
    ("from_semimeasure.depth", lambda x: from_semimeasure(RHO, 0, x), "depth", "depth must be non-negative"),
    (
        "from_semimeasure.granularity_cap",
        lambda x: from_semimeasure(RHO, 0, 0, granularity_cap=x),
        "granularity cap",
        "granularity cap must be non-negative",
    ),
    (
        "domain_clopen_approx.e",
        lambda x: domain_clopen_approx(PHI, x, 0, lambda k, j: 0),
        "index",
        "index and length must be non-negative",
    ),
    (
        "domain_clopen_approx.ell",
        lambda x: domain_clopen_approx(PHI, 0, x, lambda k, j: 0),
        "length",
        "index and length must be non-negative",
    ),
    ("MLTest.build", lambda x: MLTest.build({x: ["0"]}, UNIFORM), "level index", "level index must be non-negative"),
    ("ones_prefix_filter", lambda x: ones_prefix_filter(TILTED, x, UNIFORM), "spine length", "spine length must be non-negative"),
    ("intersect_tests", lambda x: intersect_tests([["0"], ["00"]], x), "n", "need families 0..n"),
    ("Component.tilt", lambda x: Component.build(ONE, {"": ONE}, tilt=x), "tilt power", "tilt power must be non-negative"),
    ("level_row", lambda x: UNIFORM.level_row(x), "level", "level must be non-negative"),
    ("level_mass", lambda x: UNIFORM.level_mass("", x), "level", "level -1 is above the string (length 0)"),
    ("level_masses", lambda x: list(UNIFORM.level_masses("", x)), "level", "level -1 is above the string (length 0)"),
    ("partial_trim", lambda x: partial_trim(UNIFORM, "", x), "level", "level -1 is above the string (length 0)"),
    ("derived_measure.probe_depth", lambda x: derived_measure(TILTED.base, "", x), "probe depth", None),
    ("derived_measure.probe_depth.untilted", lambda x: derived_measure(UNIFORM, "", x), "probe depth", None),
    ("geometric_semimeasure", lambda x: geometric_semimeasure(Dyadic(1, 2), x), "depth", "depth must be non-negative"),
    ("uniform_measure", lambda x: uniform_measure(x), "depth", "depth must be non-negative"),
    ("stage_at", lambda x: RHO.stage_at(x), "stage", "stage must be non-negative"),
    ("from_infimum_sequence.depth", lambda x: from_infimum_sequence([[ONE]], 0, x), "depth", "depth must be non-negative"),
    (
        "from_infimum_sequence.stage",
        lambda x: from_infimum_sequence([[ONE, HALF]], x, 0),
        "stage",
        "stage must be non-negative",
    ),
    ("infimum_semimeasure", lambda x: infimum_semimeasure([[ONE]], x), "depth", "depth must be non-negative"),
    (
        "test_defeating_semimeasure",
        lambda x: defeating_semimeasure([StagedFamily.from_events([(0, 2, "0")])], x),
        "stage",
        "stage must be non-negative",
    ),
    ("extend_set", lambda x: extend_set(["0"], x), "extension depth", "extension depth must be non-negative"),
    ("open_set_derived", lambda x: open_set_derived(UNIFORM, ["0"], x), "m_max", "m_max must be non-negative"),
    ("lebesgue_like_check", lambda x: lebesgue_like_check(UNIFORM, x), "depth", "depth must be non-negative"),
    ("decode_atom.bits", lambda x: decode_atom(SPINE, Dyadic(3, 2), "", x), "bit budget", "bit budget must be non-negative"),
    (
        "decode_atom.max_stage",
        lambda x: decode_atom(SPINE, Dyadic(3, 2), "", 2, max_stage=x),
        "stage budget",
        "stage budget must be non-negative",
    ),
    ("expansion_bits", lambda x: expansion_bits(Dyadic(1, 1), x), "digit count", "digit count must be non-negative"),
]


@pytest.mark.parametrize("value", [1.5, True, "1"], ids=repr)
@pytest.mark.parametrize("call, what", [(call, what) for _site, call, what, _neg in SITES], ids=[s[0] for s in SITES])
def test_a_count_must_be_an_int(call, what, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{what} must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "call, message",
    [(call, neg) for _site, call, _what, neg in SITES if neg is not None],
    ids=[s[0] for s in SITES if s[3] is not None],
)
def test_a_negative_count_keeps_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call(-1)
    assert str(info.value) == message


@pytest.mark.parametrize("call", [call for _site, call, _what, _neg in SITES], ids=[s[0] for s in SITES])
def test_zero_is_a_count(call):
    call(0)
