"""Exact computations on dyadic semi-measure presentations.

Everything is exact dyadic arithmetic (m/2^n); floats never appear.  The
building blocks: finite presentations of semi-measures on the binary tree
(`semimeasure`), the monotone functionals that induce them (`functional`),
the largest dominated measure obtained by trimming (`trim`), and an algebra
of randomness tests over those measures (`mltest`).
"""

from .dyadic import Dyadic, HALF, ONE, ZERO, expansion_bits
from .errors import (
    AmbiguityError,
    BudgetExhaustedError,
    CertificateError,
    ParseError,
    PreconditionError,
)
from .functional import (
    ConsistencyReport,
    DomainApprox,
    MonotoneFunctional,
    consistency_check,
    domain_clopen_approx,
    eval_on_string,
    from_semimeasure,
    induced_semimeasure,
    mirror_pair,
    pad_with_identity,
    preimage_set,
    reach_set,
    universal_functional,
)
from .mltest import (
    GeneralizedTest,
    LevelStatus,
    LevelViolation,
    MLTest,
    intersect_tests,
    ones_prefix_filter,
    passes_at_depth,
    pullback_test,
    shift_for_domination,
    validate_generalized_test,
    validate_ml_test,
)
from .semimeasure import (
    Component,
    LeftCeSemiMeasure,
    SemiMeasureStage,
    TailRule,
    ValidationReport,
    check_domination,
    complete_to_measure,
    default_family,
    dirac_spine,
    enumerate_limsup,
    from_infimum_sequence,
    geometric_semimeasure,
    infimum_semimeasure,
    mix_stages,
    mixture,
    table_semimeasure,
    test_defeating_semimeasure,
    tilt_by_ones,
    uniform_measure,
    validate,
    validate_measure,
)
from .serialize import (
    component_from_json,
    component_to_json,
    dumps,
    dyadic_from_text,
    dyadic_to_text,
    functional_from_json,
    functional_to_json,
    level_statuses_to_json,
    stage_from_json,
    stage_to_json,
    staged_from_json,
    tail_from_json,
    tail_to_json,
    test_from_json,
    test_to_json,
    trim_result_to_json,
)
from .strings import (
    EPSILON,
    StagedFamily,
    all_strings,
    extend_set,
    intersect_sets,
    is_prefix_free,
    lebesgue_of_set,
    leading_ones,
    prefix_free_normalize,
    strings_up_to,
)
from .trim import (
    LebesgueLikeReport,
    OpenSetTrim,
    TrimResult,
    decode_atom,
    derived_measure,
    lebesgue_like_check,
    open_set_derived,
    partial_trim,
)

__version__ = "0.1.0"
