"""Tests of a single intersection hypothesis.

Given the subset J, its weight vector, the observed p-values and a
block-structured correlation model, these routines produce p-values,
critical scalings and local significance levels under four methods:

- weighted Bonferroni (no correlation knowledge needed),
- fully parametric / proportional ("xie") for a completely known joint
  distribution,
- partitioned methods for block-diagonal knowledge: either one common
  scaling solved across blocks, whose p-value sums the per-block unions
  at one common threshold ratio, or per-block scalings whose minimum
  block p-value is the intersection p-value.

Weight and p-value vectors are aligned with the ascending member order
of J. Zero-weight members get rejection threshold 0: they never enter a
union, a minimum, or a rejection decision.

The fully known tests are the one-block case of the partitioned ones
(``parametric_pvalue`` returns ``partitioned_pvalue_subsets``,
``parametric_c`` returns ``partitioned_common_scale``). One helper
(``_blocks``) splits J by block and hands each block the correlation of
its active members and the salt of its random stream, its place in the
split: a subset inside one block gets salt 0, the whole subset's. Every
parametric p-value is built from per-block unions at thresholds w_j * q,
q the smallest p/w of the block (of J, for the common scaling, which sums
them), over a weight total; every critical scaling is one root solve over
per-block unions (``_solve_scale``), or, for the rows of a threshold table
in which every block holds at most two active members, the same solve run
for all of them in one array pass (``_solve_scales``); both run the one
bracket search (``_bracket_scales``) and Illinois loop (``_illinois``). This
module is the only one outside ``mvnorm`` that calls the kernel: the closure,
its shortcuts and the simulation test intersections through the functions here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .mvnorm import (
    DEFAULT_MAX_POINTS,
    DEFAULT_ROOT_TOL,
    DEFAULT_TARGET_ERROR,
    MAX_EXACT_DIM,
    _START_POINTS,
    CorrelationMatrix,
    ProbEstimate,
    UnionRule,
    _check_accuracy_args,
    _check_root_tol,
    _illinois,
    _pair_unions,
    as_correlation,
    solve_monotone,
    union_exceedance,
)
from .subsets import as_indices, check_m, mask_of, members

_U64 = (1 << 64) - 1
_MIX = 0x9E3779B97F4A7C15
# added to a block's salt for the independent check of a solved scaling
_CHECK_SALT = 1 << 32
# points per randomization of the coarse rules a sampled root solve
# brackets its root on, before the full rules polish it: the first pass
# of every QMC fit
_COARSE_POINTS = _START_POINTS
# full-rule evaluations the secant finish of a sampled root solve may spend
_SECANT_STEPS = 2
# the correlation of every single hypothesis
_UNIT = CorrelationMatrix(np.eye(1))


def _check_seed(seed, name: str = "seed") -> int:
    """The seed as an int; every report's schema takes a nonnegative
    integer seed, and a bool or a float is none."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise InputError(f"{name} must be a nonnegative integer")
    return int(seed)


def derived_seed(seed: int, mask: int, salt: int = 0) -> int:
    """Per-subset RNG seed: base seed combined with the subset's bitmask."""
    return (int(seed) ^ int(mask) ^ (salt * _MIX)) & _U64


@dataclass(frozen=True, eq=False)
class CorrelationModel:
    """Partition of the hypotheses into blocks with known within-block correlation.

    Correlations across blocks are treated as unknown. A single block
    covering everything is the fully known case; all-singleton blocks
    mean no correlation knowledge at all. Blocks are canonicalized to
    ascending member order and sorted by first member.
    """

    m: int
    blocks: tuple[tuple[int, ...], ...]
    matrices: tuple[CorrelationMatrix | None, ...]

    def __post_init__(self) -> None:
        m = check_m(self.m)
        if len(self.blocks) != len(self.matrices):
            raise InputError("need exactly one correlation entry per block")
        blocks = []
        for i, raw in enumerate(self.blocks):
            mem = tuple(members(mask_of(raw, m)))
            if not mem:
                raise InputError(f"correlation block {i + 1} is empty")
            blocks.append(mem)
        flat = [j for mem in blocks for j in mem]
        if len(set(flat)) != len(flat):
            raise InputError("correlation blocks must be disjoint")
        if len(flat) != m:
            raise InputError("correlation blocks must cover every hypothesis")
        blocks, matrices = zip(*sorted(zip(blocks, self.matrices), key=lambda bm: bm[0][0]))
        # each hypothesis's block and its place in that block
        block_of = np.empty(m, dtype=int)
        pos = np.empty(m, dtype=int)
        fixed: list[CorrelationMatrix | None] = []
        for h, (mem, mat) in enumerate(zip(blocks, matrices)):
            block_of[list(mem)] = h
            pos[list(mem)] = np.arange(len(mem))
            label = tuple(j + 1 for j in mem)
            cm = None if mat is None else as_correlation(mat)
            if len(mem) == 1:
                if cm is not None and cm.dim != 1:
                    raise InputError("singleton blocks take no correlation matrix")
                cm = None
            elif cm is None:
                raise InputError(f"block {label} needs a correlation matrix")
            elif cm.dim != len(mem):
                raise InputError(
                    f"correlation matrix for block {label} has dimension {cm.dim}, "
                    f"expected {len(mem)}"
                )
            fixed.append(cm)
        block_of.setflags(write=False)
        pos.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "matrices", tuple(fixed))
        object.__setattr__(self, "_block_of", block_of)
        object.__setattr__(self, "_pos", pos)

    @classmethod
    def full(cls, corr) -> "CorrelationModel":
        """Single block: the joint distribution is completely known."""
        cm = as_correlation(corr)
        return cls(cm.dim, (tuple(range(cm.dim)),), (cm,) if cm.dim > 1 else (None,))

    @classmethod
    def independent_blocks(cls, m: int) -> "CorrelationModel":
        """All-singleton partition: no correlation knowledge."""
        return cls(m, tuple((j,) for j in range(m)), (None,) * m)

    def block_of(self, j: int) -> int:
        (j,) = as_indices((j,))
        if not 0 <= j < self.m:
            raise InputError(f"hypothesis index {j + 1} outside 1..{self.m}")
        return int(self._block_of[j])

    def covers(self, subset: Sequence[int]) -> bool:
        """True when one block contains the whole (nonempty) subset."""
        blocks = {self.block_of(j) for j in as_indices(subset)}
        if not blocks:
            raise InputError("subset must be nonempty")
        return len(blocks) == 1


@dataclass(frozen=True, eq=False)
class IntersectionResult:
    """Outcome of testing one intersection hypothesis.

    ``p_error`` is the reported absolute error of ``p_value``: 0 for
    Bonferroni, about 1e-13 where no block has more than two active
    members (closed forms) and mostly where none has more than three,
    the graded quadrature's error (at least 1e-13, within the target)
    where none has more than six, the QMC bound otherwise. The closure
    fits ``p_value`` to its target error only where that can change an
    adjusted p-value or a decision; elsewhere it is the first-pass
    estimate, and ``p_error`` may exceed the target.
    ``scale`` is the single critical scaling where the method has one
    (1.0 for Bonferroni); ``block_scales`` carries per-block scalings
    for the per-subset method. ``local_levels`` and the scalings are None
    when the closure ran with ``compute_scales`` off.
    """

    members: tuple[int, ...]
    method: str
    p_value: float
    scale: float | None
    block_scales: tuple[tuple[tuple[int, ...], float], ...] | None
    local_levels: np.ndarray | None
    reject: bool
    p_error: float = 0.0


def as_model(corr) -> CorrelationModel:
    """The model itself, or one fully known block for a plain correlation."""
    return corr if isinstance(corr, CorrelationModel) else CorrelationModel.full(corr)


def _check_subset_args(subset, weights, pvalues=None):
    mem = as_indices(subset)
    if len(mem) == 0:
        raise InputError("intersection subset must be nonempty")
    if sorted(set(mem)) != list(mem):
        raise InputError("subset members must be strictly ascending and unique")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(mem),):
        raise InputError("weights must align with the subset members")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise InputError("weights must be finite and nonnegative")
    if pvalues is None:
        return mem, w
    p = np.asarray(pvalues, dtype=float)
    if p.shape != (len(mem),):
        raise InputError("p-values must align with the subset members")
    if np.any(np.isnan(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise InputError("p-values must lie in [0, 1]")
    return mem, w, p


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie strictly in (0, 1), got {alpha}")
    return float(alpha)


# how far a subset's weight total may exceed 1
_TOTAL_TOL = 1e-12


def _weight_total(w: np.ndarray) -> float:
    total = float(w.sum())
    if not total > 0.0:
        raise InputError("all weights in the subset are zero")
    if total > 1.0 + _TOTAL_TOL:
        raise InputError(f"weights sum to {total}, exceeding 1")
    return total


def bonferroni_pvalue(subset, weights, pvalues) -> float:
    """Weighted Bonferroni p-value: min over positive-weight j of p_j / w_j, capped at 1."""
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    _weight_total(w)
    act = w > 0.0
    with np.errstate(over="ignore"):
        return float(min(1.0, np.min(p[act] / w[act])))


def _blocks(mem: tuple[int, ...], w: np.ndarray, model: CorrelationModel) -> list[tuple]:
    """The subset split by correlation block, in block order: per block
    (salt, block members, positions in ``mem`` of its active (positive-
    weight) members, their correlation or None, weight total of all its
    members). The salt is the block's place in this list. ``mem`` must be
    ascending and inside the model, as every caller's ``mask_of`` checks."""
    groups: dict[int, list[int]] = {}
    for i, h in enumerate(model._block_of[list(mem)].tolist()):
        groups.setdefault(h, []).append(i)
    positive = (w > 0.0).tolist()
    out = []
    for salt, h in enumerate(sorted(groups)):
        idx = groups[h]
        act = [i for i in idx if positive[i]]
        if len(act) > 1:
            corr = model.matrices[h].submatrix(model._pos[[mem[i] for i in act]])
        else:
            corr = _UNIT if act else None
        total = float(w[idx[0]]) if len(idx) == 1 else float(w[idx].sum())
        out.append((salt, tuple(mem[i] for i in idx), np.array(act, dtype=int), corr, total))
    return out


def parametric_pvalue(
    subset,
    weights,
    pvalues,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Exact-distribution p-value when the correlation over J is fully known.

    The smallest observed weighted p-value q sets thresholds w_j * q;
    the probability that any P_j falls below its threshold, divided by
    the total weight, is the p-value (capped at 1).
    """
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    model = _one_block(mem, corr, "parametric p-value")
    # the one-block case of the per-block minimum
    return _subsets_estimate(mem, w, p, model, seed, target_error, max_points)[0].value


def _one_block(mem: tuple[int, ...], corr, what: str) -> CorrelationModel:
    """The model of ``corr``, checked to know the correlation over all of ``mem``."""
    model = as_model(corr)
    if not model.covers(mem):
        raise InputError(f"{what} needs the correlation fully known over the subset")
    return model


def _linear(c: float, alpha: float, w: np.ndarray) -> float:
    """The union of a block with one active member at threshold c*alpha*w:
    min(1, c*alpha*w), exact, the float a one-member rule gives."""
    return min(1.0, c * alpha * float(w[0]))


def _union_sum(rules, groups, alpha: float, known: dict):
    """The per-block unions at thresholds c*alpha*w summed in block order,
    as a function of c that reads and fills ``known``. A block with one
    active member has no rule (None): it adds its linear term."""

    def total(c: float) -> float:
        if c not in known:
            known[c] = sum(
                _linear(c, alpha, w) if rule is None
                else rule(np.minimum(1.0, c * alpha * w)).value
                for rule, (_, _, w) in zip(rules, groups)
            )
        return known[c]

    return total


def _bracket_scales(total, target, at_one, cap, root_tol: float) -> tuple[np.ndarray, ...]:
    """(lo, hi, sum at lo, sum at hi): per problem, one state each, a
    bracket in [1, cap] of the smallest c with total(rows, c) = target >
    at_one, the sum at 1. The first trial is a quarter past the line from
    (0, 0) through (1, at_one); the step doubles until the sum reaches
    the target or hi the cap."""
    step = np.maximum(1.25 * (target / at_one - 1.0), root_tol)
    lo, f_lo = np.ones(target.size), at_one.copy()
    hi = np.minimum(1.0 + step, cap)
    f_hi = total(np.arange(target.size), hi)
    grow = (hi < cap) & (f_hi < target)
    while grow.any():
        i = np.flatnonzero(grow)
        step[i] *= 2.0
        lo[i], f_lo[i] = hi[i], f_hi[i]
        hi[i] = np.minimum(1.0 + step[i], cap[i])
        f_hi[i] = total(i, hi[i])
        grow[i] = (hi[i] < cap[i]) & (f_hi[i] < target[i])
    return lo, hi, f_lo, f_hi


def _crossing_slope(known: dict, target: float) -> float | None:
    """Slope of the secant across the tightest bracket of the target among
    the values in ``known``; None without a bracket or a rising secant."""
    lo = max((c for c, v in known.items() if v < target), default=None)
    hi = min((c for c, v in known.items() if v >= target), default=None)
    if lo is None or hi is None or hi <= lo or known[hi] <= known[lo]:
        return None
    return (known[hi] - known[lo]) / (hi - lo)


def _secant_root(
    total, c: float, slope: float, target: float, cap: float, root_tol: float
) -> float | None:
    """Root of total(c) = target near c by secant steps, the first along
    ``slope``; None when _SECANT_STEPS evaluations leave the next step
    above root_tol / 2."""
    g = total(c) - target
    for evaluations in range(_SECANT_STEPS + 1):
        if c == 1.0 and g >= 0.0:
            return 1.0
        step = -g / slope
        if abs(step) <= 0.5 * root_tol:
            return max(1.0, c + step)
        if evaluations == _SECANT_STEPS:
            return None
        x = min(max(c + step, 1.0), cap)
        gx = total(x) - target
        if x != c and (gx - g) / (x - c) > 0.0:
            slope = (gx - g) / (x - c)
        c, g = x, gx


def _solve_scale(
    groups: list[tuple[int, CorrelationMatrix, np.ndarray]], target: float, alpha: float,
    seed: int, mask: int, target_error: float, root_tol: float, max_points: int,
) -> float:
    """Smallest c >= 1 at which the per-block unions at thresholds
    c*alpha*w sum to the target.

    groups holds (salt, correlation, active weights) per block; a block
    with one active member gets no rule and contributes the exact linear
    term min(1, c*alpha*w) (``_linear``), and when every block has at
    most one the equation is linear and c = 1. Every other block gets one
    UnionRule kept fixed while c moves, so the sum is a deterministic,
    continuous function of c; the QMC error budget is split across the
    blocks that sample.

    The rules are first fitted at c = 1, capped at _COARSE_POINTS (the
    first pass of any fit). When every block is exact, max_points is at
    most _COARSE_POINTS, or every sampled rule meets its error target,
    these are the full rules, and the bracket search and Illinois steps
    of a table's array pass, run on this one problem, find the root.
    Otherwise that solve runs on them as coarse rules; the full rules are
    fitted at the coarse root c0, whose estimate is the sum at c0, and
    secant steps starting along the coarse slope polish the root (the
    bracketed solve takes over if they do not settle). The solved c is
    checked against one independent re-estimate (salt + _CHECK_SALT) while
    some sampled rule is below max_points; a miss beyond the combined
    error refines every such rule and solves again.

    The sum at c=1 never exceeds the target (Bonferroni inequality), so
    an estimate already at or above it means c=1 within noise.
    """
    # checked before the linear case returns, so every entry checks them
    max_points = _check_accuracy_args(target_error, max_points)
    root_tol = _check_root_tol(root_tol)
    if all(w.size <= 1 for _, _, w in groups):
        return 1.0
    sampled = sum(1 for _, _, w in groups if w.size > MAX_EXACT_DIM)
    block_error = target_error / max(sampled, 1)
    w_active = np.concatenate([w for _, _, w in groups])
    # the sum grows at most at rate alpha * total weight, which bounds how
    # far the estimate at the solved c can sit from the target
    slack = alpha * float(w_active.sum()) * root_tol

    def fit(c: float, points: int) -> tuple[list[UnionRule | None], list[UnionRule]]:
        """(per block its rule or None, the rules) fitted at c."""
        rules = [
            None if w.size == 1
            else UnionRule(c * alpha * w, corr, derived_seed(seed, mask, salt), block_error, points)
            for salt, corr, w in groups
        ]
        return rules, [rule for rule in rules if rule is not None]

    def bracketed(total) -> float:
        """The root of total(c) = target; ``total`` keeps what it evaluates."""
        at_one = total(1.0)
        if at_one >= target:
            return 1.0
        lo, hi, _, _ = _bracket_scales(
            lambda _, cs: np.array([total(float(c)) for c in cs]),
            np.array([target]), np.array([at_one]), np.array([cap]), root_tol,
        )
        return solve_monotone(total, target, (lo[0], hi[0]), root_tol)

    def fitted_sum(rules: list[UnionRule | None], c: float) -> float:
        """The sum at the c the rules were fitted at, from their estimates."""
        return sum(
            _linear(c, alpha, w) if rule is None else rule.estimate.value
            for rule, (_, _, w) in zip(rules, groups)
        )

    c0, slope = 1.0, None
    # a first pass of _COARSE_POINTS: where every rule meets its target
    # there, these are the rules a fit to max_points makes
    rules, built = fit(c0, min(max_points, _COARSE_POINTS))
    # at c = 1/(alpha * max weight) the largest threshold saturates at 1;
    # the fit has checked that alpha * w > 0, so this is finite
    cap = 1.0 / (alpha * float(w_active.max()))
    if max_points > _COARSE_POINTS and any(
        rule.sampled and rule.estimate.error > block_error for rule in built
    ):
        known = {1.0: fitted_sum(rules, 1.0)}
        c0 = bracketed(_union_sum(rules, groups, alpha, known))
        slope = _crossing_slope(known, target)
        if slope is None or c0 * alpha * float(w_active.max()) >= 1.0:
            c0, slope = 1.0, None
        rules, built = fit(c0, max_points)
    while True:
        known = {c0: fitted_sum(rules, c0)}
        total = _union_sum(rules, groups, alpha, known)
        c = None if slope is None else _secant_root(total, c0, slope, target, cap, root_tol)
        if c is None:
            c = bracketed(total)
        # the re-estimate can only lead to a refinement: none once no rule can refine
        if not any(rule.can_refine(max_points) for rule in built):
            return c
        check = err = 0.0
        for rule, (salt, _, w) in zip(rules, groups):
            if rule is None:
                check += _linear(c, alpha, w)
                continue
            est = rule(np.minimum(1.0, c * alpha * w), derived_seed(seed, mask, salt + _CHECK_SALT))
            check += est.value
            err += est.error + rule.estimate.error
        if abs(check - target) <= err + slack:
            return c
        for rule in built:
            rule.refine(max_points)


def _solve_scales(w, rho, target, alpha: float, root_tol: float) -> np.ndarray:
    """``_solve_scale`` for many problems in one array pass, where no
    block holds more than two active members, so every block is exact.

    ``w`` (n, B, 2) holds per problem and block, in block order, the
    weights of the block's active members (0 where it has fewer than
    two); ``rho`` (n, B) is each pair's correlation. A problem's sum adds,
    in block order from 0, the linear term min(1, c*alpha*w) of each
    single member and the exact bivariate union of each pair
    (``_pair_unions``). The loops ``_solve_scale`` runs on one problem run
    on all of them, so each c is the float it gives; a problem on which
    it would raise (a pair threshold outside (0, 1) at c = 1, a bracket
    that does not straddle) gets NaN, for its caller to solve alone.
    """
    pair = w[..., 1] > 0.0

    def total(rows: np.ndarray, c: np.ndarray) -> np.ndarray:
        u = np.minimum(1.0, (c * alpha)[:, None, None] * w[rows])
        terms = u[..., 0]
        on = pair[rows]
        at = u[on]
        # a threshold of 1 makes the union certain
        live = (at < 1.0).all(axis=1)
        union = np.ones(len(at))
        union[live] = _pair_unions(at[live, 0], at[live, 1], rho[rows][on][live])
        terms[on] = union
        out = terms[:, 0].copy()
        for b in range(1, terms.shape[1]):
            out += terms[:, b]
        return out

    n = len(target)
    # UnionRule's check of a pair's thresholds at c = 1, where its rule is fitted
    u1 = alpha * w
    fits = ~(pair & ((u1 <= 0.0) | (u1 >= 1.0)).any(axis=2)).any(axis=1)
    c = np.where(fits, 1.0, np.nan)
    at_one = total(np.arange(n), np.ones(n))
    todo = np.flatnonzero(fits & (at_one < target))
    tgt = target[todo]
    # at c = 1/(alpha * max weight) the largest threshold saturates
    cap = 1.0 / (alpha * w[todo].max(axis=(1, 2)))
    lo, hi, f_lo, f_hi = _bracket_scales(
        lambda i, x: total(todo[i], x), tgt, at_one[todo], cap, root_tol
    )
    # solve_monotone's checks of the bracket, then the Illinois steps
    g_lo, g_hi = f_lo - tgt, f_hi - tgt
    ok = (lo < hi) & (g_lo <= 0.0) & (g_hi >= 0.0)
    c[todo[~ok]] = np.nan
    rows, tgt = todo[ok], tgt[ok]
    c[rows] = _illinois(
        lambda i, x: total(rows[i], x) - tgt[i], lo[ok], hi[ok], g_lo[ok], g_hi[ok], root_tol
    )
    return c


def _closed_form_scales(w, model: CorrelationModel, alpha: float, common: bool, root_tol: float):
    """The scales of weight-table rows (n, m; non-members -1) in which no
    block holds more than two positive-weight members, in one
    ``_solve_scales`` pass: with ``common`` each row's common scaling as
    an (n, 1) column, else each member's block scaling (n, m); NaN where
    the pass cannot settle a row."""
    n, blocks = len(w), model.blocks
    rows = np.arange(n)
    active = np.zeros((n, len(blocks), 2))
    rho = np.zeros((n, len(blocks)))
    for b, (mem, corr) in enumerate(zip(blocks, model.matrices)):
        mem = np.array(mem)
        positive = w[:, mem] > 0.0
        # the first and the last positive-weight member: the pair in member order
        first = positive.argmax(axis=1)
        last = mem.size - 1 - positive[:, ::-1].argmax(axis=1)
        count = positive.sum(axis=1)
        active[:, b, 0] = np.where(count > 0, w[rows, mem[first]], 0.0)
        active[:, b, 1] = np.where(count > 1, w[rows, mem[last]], 0.0)
        if corr is not None:
            rho[:, b] = corr.values[first, last]
    if common:
        # the weight total over the members, as _weight_total sums them
        total = np.array([row[row >= 0.0].sum() for row in w])
        return _solve_scales(active, rho, alpha * total, alpha, root_tol)[:, None]
    at = np.nonzero(active[..., 1] > 0.0)
    pairs = active[at]
    scales = np.ones((n, len(blocks)))
    scales[at] = _solve_scales(
        pairs[:, None], rho[at][:, None], alpha * (pairs[:, 0] + pairs[:, 1]), alpha, root_tol
    )
    return scales[:, model._block_of]


def parametric_c(
    subset,
    weights,
    alpha: float,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Critical scaling c >= 1 making the union of level-c*w_j*alpha events exact.

    With at most one positively weighted member the defining equation is
    linear and c = 1 exactly.
    """
    mem, w = _check_subset_args(subset, weights)
    model = _one_block(mem, corr, "critical scaling")
    # the one-block case of the common scaling
    return partitioned_common_scale(
        mem, w, alpha, model, seed, target_error, root_tol, max_points
    )


def xie_pvalue(
    subset,
    initial_weights,
    pvalues,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Proportional-weights p-value: the parametric p-value after rescaling
    the positive initial weights to sum to 1 over the subset.

    The rescaling leaves every threshold w_j * q unchanged and drops the
    1/total factor, which is the proportional method's defining
    simplification.
    """
    return _xie_estimate(
        subset, initial_weights, pvalues, corr, seed, target_error, max_points
    )[0].value


def _xie_estimate(
    subset, initial_weights, pvalues, corr, seed, target_error, max_points
) -> tuple[ProbEstimate, bool]:
    """``xie_pvalue`` as ``_subsets_estimate`` gives it: (estimate, target met)."""
    mem, w, p = _check_subset_args(subset, initial_weights, pvalues)
    if np.any(w <= 0.0):
        raise InputError("proportional method needs strictly positive initial weights")
    model = _one_block(mem, corr, "parametric p-value")
    return _subsets_estimate(mem, w / w.sum(), p, model, seed, target_error, max_points)


def partitioned_common_scale(
    subset,
    weights,
    alpha: float,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Common scaling c across blocks: the sum of per-block union
    probabilities at thresholds c*w_j*alpha is pinned to alpha times the
    total weight. When every block holds at most one active member the
    equation is linear and c = 1 exactly.
    """
    mem, w = _check_subset_args(subset, weights)
    total = _weight_total(w)
    _check_alpha(alpha)
    model = as_model(corr)
    mask = mask_of(mem, model.m)
    groups = [
        (salt, corr_act, w[act]) for salt, _, act, corr_act, _ in _blocks(mem, w, model) if act.size
    ]
    return _solve_scale(
        groups, alpha * total, alpha, seed, mask, target_error, root_tol, max_points
    )


def partitioned_pvalue_subsets(
    subset,
    weights,
    pvalues,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Per-block p-value minimum: each block is tested parametrically at
    its own share of the weight and the smallest block p-value is the
    intersection p-value. No root-finding is involved.
    """
    return _subsets_estimate(
        subset, weights, pvalues, corr, seed, target_error, max_points
    )[0].value


def _subsets_estimate(
    subset, weights, pvalues, corr, seed, target_error, max_points
) -> tuple[ProbEstimate, bool]:
    """``partitioned_pvalue_subsets`` with its error, the largest block
    error over that block's weight total, and whether every block met its
    target. A kernel fit that meets its target on the first pass of
    _COARSE_POINTS stops there, so then a fit capped at _COARSE_POINTS
    gives the floats of one at any larger max_points."""
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    _weight_total(w)
    model = as_model(corr)
    mask = mask_of(mem, model.m)
    block_p, error, met = [], 0.0, True
    for salt, _, act, corr_act, total in _blocks(mem, w, model):
        if act.size:
            # the union at thresholds w_j * min(p / w) over the block's weight total
            with np.errstate(over="ignore"):
                q = float(np.min(p[act] / w[act]))
            if q >= 1.0 / float(np.max(w[act])):
                # the heaviest threshold is 1, however its product rounds:
                # the union is certain
                block_p.append(1.0)
                continue
            est = union_exceedance(
                np.minimum(1.0, w[act] * q), corr_act, derived_seed(seed, mask, salt),
                target_error, max_points,
            )
            block_p.append(min(1.0, est.value / total))
            error = max(error, est.error / total)
            met = met and est.error <= target_error
    return ProbEstimate(float(min(block_p)), error), met


def partitioned_pvalue_common(
    subset,
    weights,
    pvalues,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Common-scale p-value: the per-block unions at thresholds w_j * q,
    q = min(p / w), summed over the subset's weight total (capped at 1).

    The common scaling rejects J when q <= c * alpha, and the union sum at
    thresholds t * w grows with t, so this is the smallest alpha at which
    ``partitioned_common_scale``'s levels reject J. No root-finding is
    involved; the error budget is split across the blocks that sample, as
    in the root solve. For one block it is ``parametric_pvalue``.
    """
    return _common_estimate(
        subset, weights, pvalues, corr, seed, target_error, max_points
    )[0].value


def _common_estimate(
    subset, weights, pvalues, corr, seed, target_error, max_points
) -> tuple[ProbEstimate, bool]:
    """``partitioned_pvalue_common`` with its error, the block errors
    summed over the weight total, and whether every block met its share
    of the target (as in ``_subsets_estimate``)."""
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    total = _weight_total(w)
    model = as_model(corr)
    mask = mask_of(mem, model.m)
    live = w > 0.0
    with np.errstate(over="ignore"):
        q = float(np.min(p[live] / w[live]))
    if q >= 1.0 / float(np.max(w)):
        # some block's heaviest threshold is 1: its union alone reaches the total
        return ProbEstimate(1.0, 0.0), True
    groups = [
        (salt, act, corr_act) for salt, _, act, corr_act, _ in _blocks(mem, w, model) if act.size
    ]
    block_error = target_error / max(1, sum(1 for _, act, _ in groups if act.size > MAX_EXACT_DIM))
    union = error = 0.0
    met = True
    for salt, act, corr_act in groups:
        est = union_exceedance(
            np.minimum(1.0, w[act] * q), corr_act, derived_seed(seed, mask, salt),
            block_error, max_points,
        )
        union += est.value
        error += est.error
        met = met and est.error <= block_error
    return ProbEstimate(float(min(1.0, union / total)), error / total), met


def partitioned_subset_scales(
    subset,
    weights,
    alpha: float,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Per-block critical scalings matching partitioned_pvalue_subsets.

    Each block solves its own exactness equation at its share of the
    weight; blocks with at most one active member scale by exactly 1.
    Returned as ((block members, scale), ...) over blocks intersecting
    the subset.
    """
    mem, w = _check_subset_args(subset, weights)
    _weight_total(w)
    _check_alpha(alpha)
    model = as_model(corr)
    mask = mask_of(mem, model.m)
    return tuple(
        (block_mem, _solve_scale(
            [(salt, corr_act, w[act])], alpha * total, alpha, seed, mask,
            target_error, root_tol, max_points,
        ))
        for salt, block_mem, act, corr_act, total in _blocks(mem, w, model)
    )
