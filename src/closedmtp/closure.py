"""Closed testing: every nonempty intersection is tested, and an
elementary hypothesis is rejected only when all intersections containing
it are.

Every method tests J at local levels c * w_j(J) * alpha, with c = 1
(Bonferroni), one common c (also for xie, on its one block), or one c
per correlation block, and gives J the p-value p_J, the smallest alpha
at which those levels reject J: J is rejected when p_J <= alpha. One
record per method (``_METHODS``) holds its level and p-value functions
and what it needs of its inputs; run_closure decides through its
p-values, decision_thresholds through its levels, both read from one
table (``_level_table``). Every intersection test, the shortcuts'
included, goes through ``intersection``, the only module outside
``mvnorm`` that calls the kernel, except Bonferroni's in run_closure,
which needs no kernel and is one array step over all intersections.

The exposed pieces:

- TestProblem bundles scheme, correlation model, p-values, alpha, method.
- run_closure produces per-intersection results plus adjusted p-values
  and final rejections.
- decision_thresholds precomputes, per intersection and hypothesis, the
  p-value cutoff that rejects the intersection; these depend on the
  scheme and alpha but not on observed p-values, which is what makes
  error-rate simulation affordable.
- check_consonance finds every subset pair whose local level drops, the
  condition under which closure collapses to a sequentially rejective
  shortcut: per hypothesis the least level over each set's subsets, in m
  array steps, and a listing only where a level lies above it.
- xie_shortcut and weighted_dunnett_single_step are two such shortcuts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .intersection import (
    _COARSE_POINTS,
    CorrelationModel,
    IntersectionResult,
    _check_alpha,
    _check_seed,
    _check_subset_args,
    _closed_form_scales,
    _common_estimate,
    _subsets_estimate,
    _weight_total,
    _xie_estimate,
    as_model,
    parametric_c,
    parametric_pvalue,
    partitioned_common_scale,
    partitioned_subset_scales,
    xie_pvalue,
)
from .mvnorm import (
    DEFAULT_MAX_POINTS,
    DEFAULT_ROOT_TOL,
    DEFAULT_TARGET_ERROR,
    ProbEstimate,
    _check_accuracy_args,
    _check_root_tol,
    union_exceedance,  # not called here; perfbench/smoke.py checks that tracing wraps it
)
from .subsets import iter_masks, mask_of, member_table, members
from .weighting import WeightingScheme, _invalid_masks, validate

# the consonance check holds the (2^m, m) levels twice and lists each
# violating subset pair; at m = 12 a listing can run to thousands of pairs
MAX_CONSONANCE_M = 12

_PROPORTIONAL_TOL = 1e-9


def _check_solve_args(target_error: float, root_tol: float, max_points: int) -> int:
    """max_points rounded as the kernel rounds it; checked up front, since
    bonferroni and singleton blocks never reach a solve."""
    _check_root_tol(root_tol)
    return _check_accuracy_args(target_error, max_points)


def _check_pvalues(pvalues, m: int) -> np.ndarray:
    p = np.array(pvalues, dtype=float)
    if p.shape != (m,):
        raise InputError(f"need {m} p-values, got shape {p.shape}")
    if np.any(np.isnan(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise InputError("p-values must lie in [0, 1]")
    p.setflags(write=False)
    return p


def _check_shortcut(weights, pvalues, corr, alpha: float, label: str):
    """(model, weights, p-values) of a shortcut, checked; ``label`` names the weights."""
    model = as_model(corr)
    w = np.asarray(weights, dtype=float)
    if w.shape != (model.m,):
        raise InputError(f"need {model.m} {label}, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise InputError(f"{label} must be finite and strictly positive")
    _check_alpha(alpha)
    return model, w, _check_pvalues(pvalues, model.m)


def _common_levels(mem, w, alpha, model, *solve):
    c = partitioned_common_scale(mem, w, alpha, model, *solve)
    return c, None, c * alpha * w


def _block_levels(mem, w, alpha, model, *solve):
    scales = partitioned_subset_scales(mem, w, alpha, model, *solve)
    scale_of = {j: c for block_mem, c in scales for j in block_mem}
    return None, scales, np.array([scale_of[j] * alpha * wj for j, wj in zip(mem, w)])


@dataclass(frozen=True)
class _Method:
    """What one method does to test an intersection.

    ``levels`` maps (members, weights, alpha, model, seed, target_error,
    root_tol, max_points) to (scale, block scales, local levels), and
    looks the intersection tests up in this module's globals per call, so
    wrappers on those bindings (tracing) see every call. ``pvalue`` maps
    (members, weights, p-values, model, seed, target_error, max_points) to
    (p-value estimate, whether every kernel fit met its target, in which
    case a fit capped at _COARSE_POINTS gives what one at any larger
    max_points would). ``scales``: "one" (c = 1), "common" (one c per
    intersection) or "block" (one c per correlation block).
    ``proportional``: needs a proportional scheme, correlation known.
    ``pvalues``, set in place of ``pvalue``, maps (the scheme's rows,
    p-values) to every intersection's exact p-value in one array step.
    """

    levels: Callable
    pvalue: Callable | None
    scales: str
    proportional: bool = False
    pvalues: Callable | None = None


def _bonferroni_pvalues(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """bonferroni_pvalue of every row of ``rows`` (weights, 0.0 off the
    members): min(1, min over positive-weight j of p_j / w_j), the same
    floats, as division and minimum are exact per element."""
    # a ratio past the float range is inf, capped at 1 like any above it
    with np.errstate(over="ignore"):
        ratios = np.divide(p, rows, out=np.full(rows.shape, np.inf), where=rows > 0.0)
    return np.minimum(ratios.min(axis=1), 1.0)


_METHODS = {
    "bonferroni": _Method(
        lambda mem, w, alpha, *_: (1.0, None, alpha * w),
        None,
        "one",
        pvalues=_bonferroni_pvalues,
    ),
    "parametric-common": _Method(_common_levels, _common_estimate, "common"),
    "parametric-subsets": _Method(_block_levels, _subsets_estimate, "block"),
    "xie": _Method(_common_levels, _xie_estimate, "common", proportional=True),
}
# the method names every entry point accepts
METHODS = tuple(_METHODS)


def _check_procedure(
    scheme: WeightingScheme, corr, alpha: float, method: str, validate_scheme: bool = True
) -> tuple[CorrelationModel, float]:
    """The checks every closed procedure shares: scheme (fully validated only
    with ``validate_scheme``), model size, alpha, method and what the
    method needs of scheme and model. Returns the model and alpha."""
    if not isinstance(scheme, WeightingScheme):
        raise InputError("scheme must be a WeightingScheme")
    if validate_scheme and not validate(scheme)["valid"]:
        raise InputError(
            "scheme is not valid: every subset needs nonnegative weights "
            "with a positive sum of at most 1"
        )
    model = as_model(corr)
    if model.m != scheme.m:
        raise InputError(f"correlation model covers {model.m} hypotheses, scheme covers {scheme.m}")
    alpha = _check_alpha(alpha)
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; choose one of {METHODS}")
    if _METHODS[method].proportional:
        if np.any(scheme.weights_for((1 << scheme.m) - 1) <= 0.0):
            raise InputError("the proportional method needs strictly positive full-set weights")
        if not scheme.is_proportional(_PROPORTIONAL_TOL):
            raise InputError(
                "the proportional method needs subset weights proportional to the "
                "full-set weights; rescale_proportional produces such a scheme"
            )
        if not model.covers(range(scheme.m)):
            raise InputError(
                "the proportional method needs the correlation fully known; "
                "the model must consist of a single block"
            )
    return model, alpha


@dataclass(frozen=True, eq=False)
class TestProblem:
    """One closed-testing run: weights, correlation knowledge, data, level, method.

    ``seed`` feeds every per-subset integration stream; two runs of the
    same problem are bit-identical.
    """

    # not a pytest class, despite the name
    __test__ = False

    scheme: WeightingScheme
    model: CorrelationModel
    pvalues: np.ndarray
    alpha: float
    method: str
    seed: int = 0

    def __post_init__(self) -> None:
        model, alpha = _check_procedure(self.scheme, self.model, self.alpha, self.method)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "pvalues", _check_pvalues(self.pvalues, self.scheme.m))
        object.__setattr__(self, "seed", _check_seed(self.seed))

    @property
    def m(self) -> int:
        return self.scheme.m


@dataclass(frozen=True, eq=False)
class ClosureReport:
    """Full closure outcome.

    ``adjusted`` holds per-hypothesis adjusted p-values; H_j is rejected
    when its adjusted p-value is at most alpha. ``intersections`` is
    ordered by subset bitmask.
    """

    m: int
    alpha: float
    method: str
    adjusted: np.ndarray
    rejected: np.ndarray
    intersections: tuple[IntersectionResult, ...]

    def intersection(self, subset) -> IntersectionResult:
        mask = mask_of(subset, self.m)
        if mask == 0:
            raise InputError("subset must be nonempty")
        return self.intersections[mask - 1]


def run_closure(
    problem: TestProblem,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
    compute_scales: bool = True,
) -> ClosureReport:
    """Test every intersection and combine the outcomes.

    Every intersection is decided by its p-value alone, p_J <= alpha, and
    H_j's adjusted p-value is the largest p_J over the J containing j.
    ``target_error`` bounds the adjusted p-values, the decisions and each
    intersection's ``reject``: every p-value is first fitted on one pass
    of _COARSE_POINTS, and only those that could still set an adjusted
    p-value or fall on the other side of alpha are fitted again to
    ``target_error`` (``_refits``), giving the floats a fit of every
    p-value to the target gives. Every other intersection keeps its
    first-pass ``p_value``, with its error in ``p_error``. Scales and
    local levels come from ``decision_thresholds``'s table
    (``_level_table``); with ``compute_scales`` off the root solves are
    skipped and scale/levels stay unset on every intersection.
    """
    max_points = _check_solve_args(target_error, root_tol, max_points)
    m, p, alpha, model = problem.m, problem.pvalues, problem.alpha, problem.model
    method = _METHODS[problem.method]
    solve = (problem.seed, target_error, root_tol, max_points)
    rows, inside = problem.scheme.rows, member_table(m)[1:]

    def fit(mask: int, points: int) -> tuple[ProbEstimate, bool]:
        mem = members(mask)
        w = rows[mask - 1][inside[mask - 1]]
        return method.pvalue(mem, w, p[list(mem)], model, problem.seed, target_error, points)

    # every intersection's p-value and its error, in mask order; final:
    # the first pass is already the fit to max_points
    if method.pvalues is not None:
        values = method.pvalues(rows, p)
        errors = np.zeros(values.size)
        final = np.ones(values.size, dtype=bool)
    else:
        first = [fit(mask, min(max_points, _COARSE_POINTS)) for mask in iter_masks(m)]
        values = np.array([est.value for est, _ in first])
        errors = np.array([est.error for est, _ in first])
        final = np.array([met or max_points <= _COARSE_POINTS for _, met in first])
    # a refit is the fit to max_points on the same stream, so each J is refit at most once
    while not final.all():
        todo = _refits(values, errors, final, m, alpha)
        if todo.size == 0:
            break
        for mask in todo.tolist():
            est = fit(mask, max_points)[0]
            values[mask - 1], errors[mask - 1] = est.value, est.error
        final[todo - 1] = True
    # the member table in row order: each intersection's members, and
    # their levels, are one slice of it
    cols, ends = np.nonzero(inside)[1].tolist(), np.cumsum(inside.sum(axis=1)).tolist()
    if compute_scales:
        table, scale_table = _level_table(problem.scheme, model, alpha, method, solve)
        member_levels = table[inside]
    results: list[IntersectionResult] = []
    ranges = zip([0] + ends, ends)
    for mask, value, error, (start, end) in zip(iter_masks(m), values.tolist(), errors.tolist(), ranges):
        mem = tuple(cols[start:end])
        scale = scales = levels = None
        if compute_scales:
            levels, row = member_levels[start:end], scale_table[mask - 1]
            if method.scales == "block":
                split = (tuple(j for j in block if mask >> j & 1) for block in model.blocks)
                scales = tuple((inner, float(row[inner[0]])) for inner in split if inner)
            else:
                scale = float(row[mem[0]])
        results.append(IntersectionResult(
            mem, problem.method, value, scale, scales, levels, value <= alpha, error
        ))
    # H_j falls when every intersection containing it does; adjusted = their largest p
    adjusted = np.where(inside, values[:, None], 0.0).max(axis=0)
    rejected = adjusted <= alpha
    for out in (adjusted, rejected):
        out.setflags(write=False)
    return ClosureReport(
        m=m,
        alpha=alpha,
        method=problem.method,
        adjusted=adjusted,
        rejected=rejected,
        intersections=tuple(results),
    )


def _refits(v: np.ndarray, e: np.ndarray, final: np.ndarray, m: int, alpha: float) -> np.ndarray:
    """Masks of the intersections J, not final, whose p-value v_J within
    its error e_J could still change an answer (both in mask order):
    v_J + e_J reaches lo_j, the largest v_K - e_K over the K containing
    j, for some member j (J may set H_j's adjusted p-value), or
    [v_J - e_J, v_J + e_J] holds alpha."""
    masks = np.arange(1, 1 << m)
    low = v - e
    # per J, the smallest lo_j over its members
    reach = np.full(masks.size, np.inf)
    for j in range(m):
        has = (masks >> j & 1).astype(bool)
        reach[has] = np.minimum(reach[has], low[has].max())
    high = v + e
    return masks[~final & ((high >= reach) | ((low <= alpha) & (alpha <= high)))]


def decision_thresholds(
    scheme: WeightingScheme,
    corr,
    alpha: float,
    method: str,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> np.ndarray:
    """Rejection cutoffs t[mask-1, j]: intersection `mask` is rejected
    exactly when some member j has p_j <= t[mask-1, j].

    Non-members carry the sentinel -1.0; zero-weight members carry 0.0.
    The cutoffs do not depend on observed p-values, so one pass serves
    any number of simulated replications. They are the local levels
    ``run_closure`` reports, from the same table (``_level_table``).
    ``run_closure`` decides by the p-values instead; the cutoffs reproduce
    its decisions up to the root solve's tolerance and the integration
    error.
    """
    _check_solve_args(target_error, root_tol, max_points)
    seed = _check_seed(seed)
    # the table checks the weights; the rest of validate is left to TestProblem and SimScenario
    model, alpha = _check_procedure(scheme, corr, alpha, method, validate_scheme=False)
    solve = (seed, target_error, root_tol, max_points)
    return _level_table(scheme, model, alpha, _METHODS[method], solve)[0]


def _level_table(scheme, model, alpha: float, method: _Method, solve: tuple):
    """(levels, scales) per mask - 1 and hypothesis: for each member j
    the local level c * alpha * w_j (-1.0 off the members) and the scaling
    c of j's block or of the whole intersection; the floats the method's
    levels give. ``solve`` is (seed, target_error, root_tol,
    max_points); the weights are checked as each intersection test checks
    its own (``_invalid_masks``). A row in which no block holds two
    positive-weight members is alpha * w (scale 1); the rows in which
    none holds more than two are solved in one array pass
    (``_closed_form_scales``); only a row with a block of three or more,
    or one that pass leaves NaN, calls the levels.
    """
    for mask in _invalid_masks(scheme)[:1].tolist():  # raise the intersection tests' error
        _check_subset_args(members(mask), scheme.table[mask])
        _weight_total(scheme.table[mask])
    masks = np.arange(1, 1 << scheme.m)
    inside = member_table(scheme.m)[1:]
    t = np.where(inside, scheme.rows, -1.0)
    # per row, the most positive-weight members any block holds
    most = np.zeros(len(t), dtype=int)
    if method.scales != "one":
        positive = t > 0.0
        for block in model.blocks:
            if len(block) > 1:
                np.maximum(most, positive[:, list(block)].sum(axis=1), out=most)
    scale = np.ones(t.shape)
    closed = np.flatnonzero(most == 2)
    common = method.scales == "common"
    scale[closed] = _closed_form_scales(t[closed], model, alpha, common, solve[2])
    # a row the pass could not settle is solved alone, to raise its error in mask order
    alone = (most > 2) | np.isnan(scale).any(axis=1)
    np.multiply(scale * alpha, t, out=t, where=inside & ~alone[:, None])
    for mask in masks[alone].tolist():
        mem = members(mask)
        c, block_scales, levels = method.levels(mem, scheme.table[mask], alpha, model, *solve)
        t[mask - 1, list(mem)] = levels
        for block, c in block_scales or ((mem, c),):
            scale[mask - 1, list(block)] = c
    return t, scale


@dataclass(frozen=True)
class ConsonanceViolation:
    """A local level that drops when the intersection shrinks.

    ``excess`` is the drop measured on the scale*weight product scale
    (levels divided by alpha).
    """

    superset: tuple[int, ...]
    subset: tuple[int, ...]
    hypothesis: int
    excess: float


@dataclass(frozen=True, eq=False)
class ConsonanceReport:
    consonant: bool
    violations: tuple[ConsonanceViolation, ...]


def check_consonance(
    scheme: WeightingScheme,
    corr,
    alpha: float,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
    tolerance: float = 1e-4,
) -> ConsonanceReport:
    """Check whether common-scale local levels only grow as the
    intersection shrinks: c(J) w_j(J) <= c(J') w_j(J') for every j in
    J' inside J.

    When this holds, closure never rejects an intersection without also
    rejecting some elementary hypothesis inside it, and sequentially
    rejective shortcuts reproduce the closed procedure. ``tolerance``
    absorbs root-finding and integration noise on the scale*weight
    products; it must be finite and nonnegative.
    """
    m = scheme.m
    if m > MAX_CONSONANCE_M:
        raise InputError(
            f"consonance sweep is limited to {MAX_CONSONANCE_M} hypotheses, got {m}"
        )
    if not 0.0 <= tolerance < np.inf:
        raise InputError(f"consonance tolerance must be finite and nonnegative, got {tolerance}")
    seed = _check_seed(seed)
    t = decision_thresholds(scheme, corr, alpha, "parametric-common", seed, target_error, root_tol)
    # compare on the scale*weight product scale
    t = np.where(t >= 0.0, t / alpha, -1.0)
    # least[J, j]: the least level of j over the subsets of J that hold it
    # (J included; inf where there are none), one hypothesis bit at a time
    least = np.vstack((np.full(m, np.inf), np.where(t >= 0.0, t, np.inf)))
    for i in range(m):
        # rows mask with bit i set, above the same rows without it
        pairs = least.reshape(-1, 2, 1 << i, m)
        np.minimum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    # x -> x + tolerance rounds monotonically, so a level exceeds some subset's
    # by the tolerance exactly when it exceeds the least one (J's own level
    # never does); only those J are listed
    flagged = (t > least[1:] + tolerance).any(axis=1)
    violations = []
    for mask in (np.flatnonzero(flagged) + 1).tolist():
        mem = np.array(members(mask))
        # the proper submasks, descending: the bits of 2^k - 2 .. 1 placed on the members
        bits = np.arange((1 << mem.size) - 2, 0, -1)[:, None] >> np.arange(mem.size) & 1
        subs = bits @ (1 << mem)
        row = t[mask - 1]
        sub_rows = t[subs - 1]
        # a subset's members carry levels >= 0, the others the sentinel -1
        hit = (sub_rows >= 0.0) & (row > sub_rows + tolerance)
        excess = row - sub_rows
        violations += [
            ConsonanceViolation(members(mask), members(int(subs[i])), int(j), float(excess[i, j]))
            for i, j in zip(*np.nonzero(hit))
        ]
    return ConsonanceReport(consonant=not violations, violations=tuple(violations))


def xie_shortcut(
    initial_weights,
    pvalues,
    corr,
    alpha: float,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    max_points: int = DEFAULT_MAX_POINTS,
) -> dict:
    """Sequentially rejective proportional-weights procedure.

    At each step the still-active hypotheses are tested as one
    intersection with proportionally rescaled weights; the hypothesis
    with the smallest weighted p-value leaves, carrying the running
    maximum of intersection p-values as its adjusted p-value. All m
    steps run so every hypothesis gets an adjusted p-value; rejection
    stops at the first step whose intersection p-value exceeds alpha.

    Matches full closure under proportional weights because rescaling
    makes the greedy chain's p-values dominate all other intersections.
    """
    model, w0, p = _check_shortcut(initial_weights, pvalues, corr, alpha, "initial weights")
    seed = _check_seed(seed)
    m = model.m
    active = list(range(m))
    order: list[int] = []
    adjusted = np.empty(m)
    running = 0.0
    for _ in range(m):
        mem = tuple(active)
        pv = xie_pvalue(mem, w0[list(mem)], p[list(mem)], model, seed, target_error, max_points)
        running = max(running, pv)
        ratios = p[list(mem)] / w0[list(mem)]
        star = mem[int(np.argmin(ratios))]  # argmin takes the first, so ties go low
        adjusted[star] = running
        order.append(star)
        active.remove(star)
    adjusted.setflags(write=False)
    # the running maximum is nondecreasing along the order, so the
    # rejected set is a prefix of it
    return {
        "adjusted": adjusted,
        "rejected": adjusted <= alpha,
        "order": tuple(order),
    }


def weighted_dunnett_single_step(
    weights,
    pvalues,
    corr,
    alpha: float,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> dict:
    """Single-step test with fully known correlation: one scaling c for
    the complete set, rejection when p_i <= c * w_i * alpha.

    Weights must be strictly positive and sum to 1 (within 1e-9; they
    are renormalized exactly). The adjusted p-value of H_i is the
    probability that any weighted p-value falls below its share of
    p_i / w_i, which is the smallest alpha at which H_i would be
    rejected. Coincides with closure under weights held constant across
    subsets.
    """
    model, w, p = _check_shortcut(weights, pvalues, corr, alpha, "weights")
    seed = _check_seed(seed)
    m = model.m
    if abs(w.sum() - 1.0) > 1e-9:
        raise InputError(f"weights must sum to 1, got {w.sum()}")
    w = w / w.sum()
    full = tuple(range(m))
    if not model.covers(full):
        raise InputError("single-step test needs the correlation fully known")
    c = parametric_c(full, w, alpha, model, seed, target_error, root_tol, max_points)
    # adjusted p_i: the full set's p-value with the other p-values at 1, i.e. the
    # union at thresholds w * min(p_i / w_i, 1 / w_j for j != i)
    adjusted = np.array([
        parametric_pvalue(full, w, p_i, model, seed, target_error, max_points)
        for p_i in np.where(np.eye(m, dtype=bool), p, 1.0)
    ])
    adjusted.setflags(write=False)
    return {
        "adjusted": adjusted,
        "rejected": p <= c * alpha * w,
        "c_I": c,
    }
