"""Weighted closed testing with parametric intersection tests.

The closure principle turns any family of intersection tests into a
multiple test procedure with strong familywise error control: an
elementary hypothesis is rejected exactly when every intersection
containing it is rejected at level alpha. This package provides the
intersection tests (weighted Bonferroni and exact multivariate normal
variants with full or block-structured correlation knowledge), weighting
schemes including graph-derived ones, the closure engine with adjusted
p-values, consonance diagnostics, shortcut procedures, and a Monte Carlo
harness for verifying error control.
"""

from .closure import (
    METHODS,
    ClosureReport,
    ConsonanceReport,
    ConsonanceViolation,
    TestProblem,
    check_consonance,
    decision_thresholds,
    run_closure,
    weighted_dunnett_single_step,
    xie_shortcut,
)
from .exceptions import BracketError, InputError, NumericError
from .intersection import (
    CorrelationModel,
    IntersectionResult,
    bonferroni_pvalue,
    derived_seed,
    parametric_c,
    parametric_pvalue,
    partitioned_common_scale,
    partitioned_pvalue_subsets,
    partitioned_subset_scales,
    xie_pvalue,
)
from .mvnorm import (
    CorrelationMatrix,
    ProbEstimate,
    solve_monotone,
    union_exceedance,
)
from .simulation import SimReport, SimScenario, simulate
from .weighting import (
    GraphSpec,
    WeightingScheme,
    constant_scheme,
    rescale_proportional,
    scheme_from_graph,
    validate,
    xie_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ClosureReport",
    "ConsonanceReport",
    "ConsonanceViolation",
    "CorrelationMatrix",
    "CorrelationModel",
    "GraphSpec",
    "METHODS",
    "InputError",
    "IntersectionResult",
    "NumericError",
    "ProbEstimate",
    "SimReport",
    "SimScenario",
    "TestProblem",
    "WeightingScheme",
    "bonferroni_pvalue",
    "check_consonance",
    "constant_scheme",
    "decision_thresholds",
    "derived_seed",
    "parametric_c",
    "parametric_pvalue",
    "partitioned_common_scale",
    "partitioned_pvalue_subsets",
    "partitioned_subset_scales",
    "rescale_proportional",
    "run_closure",
    "scheme_from_graph",
    "simulate",
    "solve_monotone",
    "union_exceedance",
    "validate",
    "weighted_dunnett_single_step",
    "xie_pvalue",
    "xie_scheme",
    "xie_shortcut",
]
