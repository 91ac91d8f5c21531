"""Tests of a single intersection hypothesis.

Given the subset J, its weight vector, the observed p-values and a
block-structured correlation model, these routines produce p-values,
critical scalings and local significance levels under four methods:

- weighted Bonferroni (no correlation knowledge needed),
- fully parametric / proportional ("xie") for a completely known joint
  distribution,
- partitioned methods for block-diagonal knowledge: either one common
  scaling solved across blocks, or per-block scalings whose minimum
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
parametric p-value is a union at thresholds w_j * min(p/w) over the block's
weight total; every critical scaling is one root solve over per-block
unions (``_solve_scale``).
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
    CorrelationMatrix,
    UnionRule,
    as_correlation,
    solve_monotone,
    union_exceedance,
)
from .subsets import check_m, mask_of, members

_U64 = (1 << 64) - 1
_MIX = 0x9E3779B97F4A7C15
# added to a block's salt for the independent check of a solved scaling
_CHECK_SALT = 1 << 32
# the correlation of every single hypothesis
_UNIT = CorrelationMatrix(np.eye(1))

METHODS = ("bonferroni", "parametric-common", "parametric-subsets", "xie")


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
        if not 0 <= int(j) < self.m:
            raise InputError(f"hypothesis index {j + 1} outside 1..{self.m}")
        return int(self._block_of[j])

    def split_by_block(self, subset: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
        """(block index, members of the subset in that block), ascending."""
        groups: dict[int, list[int]] = {}
        for j in subset:
            groups.setdefault(self.block_of(j), []).append(j)
        return [(h, tuple(sorted(mem))) for h, mem in sorted(groups.items())]

    def corr_for(self, subset: Sequence[int]) -> CorrelationMatrix:
        """Correlation restricted to a subset that lies inside one block: a
        slice of the block's matrix, validated when the model was built and
        not again; every single hypothesis shares one 1x1 identity."""
        mem = tuple(sorted(subset))
        if not self.covers(mem):
            raise InputError(
                f"indices {tuple(j + 1 for j in mem)} span several correlation blocks"
            )
        if len(mem) == 1:
            return _UNIT
        return self.matrices[self._block_of[mem[0]]].submatrix(self._pos[list(mem)])

    def covers(self, subset: Sequence[int]) -> bool:
        """True when one block contains the whole subset."""
        mem = tuple(subset)
        h = self.block_of(mem[0])
        return all(self.block_of(j) == h for j in mem)


@dataclass(frozen=True, eq=False)
class IntersectionResult:
    """Outcome of testing one intersection hypothesis.

    ``scale`` is the single critical scaling where the method has one
    (1.0 for Bonferroni); ``block_scales`` carries per-block scalings
    for the per-subset method. ``p_value`` is None for the common-scale
    method, which yields only a decision. ``local_levels`` and the scalings
    are None for the per-subset and proportional methods when the closure
    ran with ``compute_scales`` off.
    """

    members: tuple[int, ...]
    method: str
    p_value: float | None
    scale: float | None
    block_scales: tuple[tuple[tuple[int, ...], float], ...] | None
    local_levels: np.ndarray | None
    reject: bool | None


def as_model(corr, m: int | None = None) -> CorrelationModel:
    if isinstance(corr, CorrelationModel):
        return corr
    model = CorrelationModel.full(corr)
    if m is not None and model.m != m:
        raise InputError("correlation dimension does not match the hypothesis count")
    return model


def _check_subset_args(subset, weights, pvalues=None):
    mem = tuple(int(j) for j in subset)
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


def _weight_total(w: np.ndarray) -> float:
    total = float(w.sum())
    if not total > 0.0:
        raise InputError("all weights in the subset are zero")
    if total > 1.0 + 1e-12:
        raise InputError(f"weights sum to {total}, exceeding 1")
    return total


def bonferroni_pvalue(subset, weights, pvalues) -> float:
    """Weighted Bonferroni p-value: min over positive-weight j of p_j / w_j, capped at 1."""
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    _weight_total(w)
    act = w > 0.0
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
    model = as_model(corr)
    if not model.covers(mem):
        raise InputError(
            "parametric p-value needs the correlation fully known over the subset"
        )
    # the one-block case of the per-block minimum
    return partitioned_pvalue_subsets(mem, w, p, model, seed, target_error, max_points)


def _solve_scale(
    groups: list[tuple[int, CorrelationMatrix, np.ndarray]],
    target: float,
    alpha: float,
    seed: int,
    mask: int,
    target_error: float,
    root_tol: float,
    max_points: int,
) -> float:
    """Smallest c >= 1 at which the per-block unions at thresholds
    c*alpha*w sum to the target.

    groups holds (salt, correlation, active weights) per block; a block
    with one active member contributes a linear term, and when every
    block has at most one the equation is linear and c = 1. Each block gets
    one UnionRule, fixed at c = 1 and kept for the whole solve, so the
    sum is a deterministic, continuous function of c; the QMC error
    budget is split across the blocks that sample. The solved c is then
    checked against one independent re-estimate (salt + _CHECK_SALT). A
    miss beyond the combined error refines every sampled rule and
    solves again, until the rules reach max_points.

    The sum at c=1 never exceeds the target (Bonferroni inequality), so
    an estimate already at or above it means c=1 within noise.
    """
    if all(w.size <= 1 for _, _, w in groups):
        return 1.0
    sampled = sum(1 for _, _, w in groups if w.size > MAX_EXACT_DIM)
    block_error = target_error / max(sampled, 1)
    rules = [
        UnionRule(alpha * w, corr, derived_seed(seed, mask, salt), block_error, max_points)
        for salt, corr, w in groups
    ]
    w_active = np.concatenate([w for _, _, w in groups])
    # at c = 1/(alpha * max weight) the largest threshold saturates at 1,
    # forcing the defining probability to its ceiling
    cap = 1.0 / (alpha * float(w_active.max()))
    # the sum grows at most at rate alpha * total weight, which bounds how
    # far the estimate at the solved c can sit from the target
    slack = alpha * float(w_active.sum()) * root_tol
    while True:
        # solve_monotone re-reads the bracket ends; every value is kept
        known = {1.0: sum(rule.estimate.value for rule in rules)}

        def total_union(c: float) -> float:
            if c not in known:
                known[c] = sum(
                    rule(np.minimum(1.0, c * alpha * w)).value
                    for rule, (_, _, w) in zip(rules, groups)
                )
            return known[c]

        if known[1.0] >= target:
            c = 1.0
        else:
            # first trial: a quarter past the linear extrapolation from
            # (0, 0) through (1, sum at 1), then doubling the step
            step = max(1.25 * (target / known[1.0] - 1.0), root_tol)
            lo, hi = 1.0, min(1.0 + step, cap)
            while hi < cap and total_union(hi) < target:
                step *= 2.0
                lo, hi = hi, min(1.0 + step, cap)
            c = solve_monotone(total_union, target, (lo, hi), root_tol)
        if not any(rule.sampled for rule in rules):
            return c
        check = err = 0.0
        for rule, (salt, _, w) in zip(rules, groups):
            est = rule(np.minimum(1.0, c * alpha * w), derived_seed(seed, mask, salt + _CHECK_SALT))
            check += est.value
            err += est.error + rule.estimate.error
        if abs(check - target) <= err + slack:
            return c
        if not any([rule.refine() for rule in rules]):
            return c


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
    model = as_model(corr)
    if not model.covers(mem):
        raise InputError("critical scaling needs the correlation fully known over the subset")
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
    mem, w, p = _check_subset_args(subset, initial_weights, pvalues)
    if np.any(w <= 0.0):
        raise InputError("proportional method needs strictly positive initial weights")
    return parametric_pvalue(mem, w / w.sum(), p, corr, seed, target_error, max_points)


@dataclass(frozen=True)
class CommonScaleResult:
    """Common-scale test outcome: the scaling, the decision, and the levels."""

    scale: float
    reject: bool
    local_levels: np.ndarray


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


def partitioned_pvalue_common(
    subset,
    weights,
    pvalues,
    corr,
    alpha: float,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> CommonScaleResult:
    """Common-scale test: solve for the scaling, then compare each p_j
    against its local level c*w_j*alpha.

    Yields a scaling and a rejection decision, not a p-value.
    """
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    c = partitioned_common_scale(
        mem, w, alpha, corr, seed, target_error, root_tol, max_points
    )
    levels = c * alpha * w
    reject = bool(np.any((w > 0.0) & (p <= levels)))
    return CommonScaleResult(scale=c, reject=reject, local_levels=levels)


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
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    _weight_total(w)
    model = as_model(corr)
    mask = mask_of(mem, model.m)
    block_p = []
    for salt, _, act, corr_act, total in _blocks(mem, w, model):
        if act.size:
            # the union at thresholds w_j * min(p / w) over the block's weight total
            q = float(np.min(p[act] / w[act]))
            est = union_exceedance(
                np.minimum(1.0, w[act] * q), corr_act, derived_seed(seed, mask, salt),
                target_error, max_points,
            )
            block_p.append(min(1.0, est.value / total))
    return float(min(block_p))


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
