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
``parametric_c`` returns ``partitioned_common_scale``). Every parametric
p-value comes from one array pass over weight rows and their subsets'
masks (``_common_pvalues``, ``_subsets_pvalues``, ``_xie_pvalues``): per
row and block the union at thresholds w_j * q, q the smallest p/w
(``_block_unions``); the common scaling's p-value sums them over the
weight total, the per-block test takes each block over its own total
and the smallest. The closure runs it on every intersection at once,
the shortcut on its chain and each public p-value function on one row.
A block with one active member makes no kernel call: its union is its
threshold. A block of more than MAX_EXACT_DIM active members is one
kernel call on a random stream salted by the block's place among the
blocks that meet the subset (``_group``; a subset inside one block gets
salt 0, the whole subset's). Every critical scaling comes from one path,
``_scales``, on a table's rows or on one row: one array pass
(``_solve_scales``) solves every problem whose blocks hold at most
MAX_EXACT_DIM active members, and one root solve over per-block unions
(``_solve_scale``) each other one, with the same bracket search
(``_bracket_scales``) and Illinois loop (``_illinois``). The array
p-values and scales gather their blocks' problems alike (``_problems``).
This module is the only one outside ``mvnorm`` that calls the kernel:
the closure, its shortcuts and the simulation test intersections
through the functions here.
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
    _EXACT_ERROR,
    _START_POINTS,
    CorrelationMatrix,
    ProbEstimate,
    UnionRule,
    _check_accuracy_args,
    _check_root_tol,
    _illinois,
    _pair_unions,
    _plackett_fits,
    _plackett_values,
    as_correlation,
    solve_monotone,
    union_exceedance,
)
from .subsets import _member_sums, as_indices, check_m, mask_of, member_table, members

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
    Bonferroni and where every block holds one active member at most (the
    union of one event is its threshold), about 1e-13 where none has more
    than two (closed forms) and mostly where none has more than three,
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


def _ratios(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p_j / w_j per row of a weight table (n, m; 0.0 off the members),
    inf where w_j is not positive; a ratio past the float range is inf."""
    with np.errstate(over="ignore"):
        return np.divide(p, rows, out=np.full(rows.shape, np.inf), where=rows > 0.0)


def _problems(values: np.ndarray, live: np.ndarray, model: CorrelationModel) -> dict[int, tuple]:
    """Per number of events k = 1..MAX_EXACT_DIM, every (row, block) of
    ``model`` whose block holds k members where ``live`` (n, m) holds,
    blocks in order and rows ascending within each: (rows, blocks, those
    members' entries of ``values`` (n, m) as an (N, k) array in member
    order, their correlations (N, k, k), None at k = 1). A block with
    more live members is in none; a k with no problem is left out."""
    parts: dict[int, list] = {k: [] for k in range(1, MAX_EXACT_DIM + 1)}
    for b, (mem, corr) in enumerate(zip(model.blocks, model.matrices)):
        cols = np.array(mem)
        on = live[:, cols]
        size = on.sum(axis=1)
        for k, part in parts.items():
            at = np.flatnonzero(size == k)
            if at.size:
                pos = np.nonzero(on[at])[1].reshape(-1, k)
                sub = None if k == 1 else corr.values[pos[:, :, None], pos[:, None, :]]
                part.append((at, np.full(at.size, b), values[at[:, None], cols[pos]], sub))
    return {
        k: tuple(None if x[0] is None else np.concatenate(x) for x in zip(*part))
        for k, part in parts.items() if part
    }


def _group(row: np.ndarray, mask: int, model: CorrelationModel, b: int) -> tuple:
    """(salt, correlation, None for fewer than two, weights) of the
    positive-weight members of block b in the weight row ``row`` of the
    subset ``mask``: the salt is the block's place among the blocks that
    meet the mask, zero-weight members included."""
    mem = np.array(model.blocks[b])
    act = np.flatnonzero(row[mem] > 0.0)
    salt = sum(1 for other in model.blocks[:b] if any(mask >> j & 1 for j in other))
    return salt, model.matrices[b].submatrix(act) if act.size > 1 else None, row[mem[act]]


def _block_unions(w, masks, q, need, model: CorrelationModel, seed: int, target_error: float,
                  max_points: int, split: bool) -> tuple[np.ndarray, ...]:
    """(unions, errors, met): per row of a weight table w (n, m; 0.0 off
    the members of its mask in ``masks``) and block b of ``model`` where
    ``need`` (n, B) holds, the union of the block's active members' events
    at thresholds min(1, w_j * q[row, b]) and its error, 0.0 elsewhere;
    per row, whether every block met its target. With ``split`` a row's
    target is split across its blocks of more than MAX_EXACT_DIM active
    members, the blocks that sample; else each block gets all of it.

    One event is its threshold, every pair is one ``_pair_unions`` call,
    and every problem of k = 3 to MAX_EXACT_DIM events joins one
    ``_plackett_fits`` call per k and target. A larger block, or one whose
    quadrature finds no node count, is one ``union_exceedance`` call at
    max_points, in mask order, on the stream derived_seed(seed, mask,
    salt), salt the block's place among the blocks that meet the row.
    Each union is the float ``union_exceedance`` gives it alone; a fit
    that meets its target on its first pass of _COARSE_POINTS stops
    there, giving the floats of a fit at any larger max_points."""
    unions, errors = np.zeros(need.shape), np.zeros(need.shape)
    u, live = np.zeros(w.shape), np.zeros(w.shape, dtype=bool)
    alone, sampled = np.zeros(need.shape, dtype=bool), np.zeros(len(w), dtype=int)
    for b, mem in enumerate(model.blocks):
        mem = list(mem)
        wb = w[:, mem]
        active = (wb > 0.0) & need[:, b, None]
        ub = np.minimum(1.0, np.multiply(wb, q[:, b, None], out=np.zeros(wb.shape), where=active))
        count = active.sum(axis=1)
        several, big = count > 1, count > MAX_EXACT_DIM
        sampled += big
        # a threshold of 1 makes the union certain; a zero threshold is a
        # zero-probability event, dropped
        certain = several & (active & (ub == 1.0)).any(axis=1)
        unions[certain, b] = 1.0
        alone[:, b] = big & ~certain
        fitted = (several & ~certain & ~big)[:, None]
        u[:, mem] = ub
        live[:, mem] = np.where((count == 1)[:, None], active, active & (ub > 0.0) & fitted)
    shares = np.maximum(1, sampled) if split else np.ones(len(w), dtype=int)
    block_error = target_error / shares
    for k, (rows, blocks, uk, corr) in _problems(u, live, model).items():
        if k == 1:
            value, error = uk[:, 0], np.zeros(len(uk))
        elif k == 2:
            value, error = _pair_unions(uk[:, 0], uk[:, 1], corr[:, 0, 1]), np.full(len(uk), _EXACT_ERROR)
        else:
            # one fit per share of the target: each column's floats are those it gets alone
            value, error, share = np.empty(len(uk)), np.empty(len(uk)), shares[rows]
            split_by = np.flatnonzero(np.bincount(share))
            for n in split_by.tolist():
                at = slice(None) if split_by.size == 1 else share == n
                fit = _plackett_fits(uk[at].T, corr[at].transpose(1, 2, 0), target_error / n)
                value[at], error[at] = fit[0], fit[1]
            # no node count: the quadrature hands over to QMC
            alone[rows[np.isnan(value)], blocks[np.isnan(value)]] = True
        unions[rows, blocks], errors[rows, blocks] = value, error
    for row, b in zip(*np.nonzero(alone)):
        mask = int(masks[row])
        salt, corr, wb = _group(w[row], mask, model, b)
        est = union_exceedance(
            np.minimum(1.0, wb * q[row, b]), corr, derived_seed(seed, mask, salt), block_error[row],
            max_points,
        )
        unions[row, b], errors[row, b] = est.value, est.error
    return unions, errors, (errors <= block_error[:, None]).all(axis=1)


def _common_pvalues(rows, masks, p, model: CorrelationModel, seed, target_error, max_points):
    """``partitioned_pvalue_common`` of every row of a weight table (n, m;
    0.0 off the members of its mask in ``masks``) at p-values p (m,), as
    arrays (values, errors, met): the per-block unions at thresholds
    w_j * q, q the row's smallest p/w, summed in block order over the
    row's weight total (capped at 1), the errors too; 1 where the
    heaviest threshold is 1, however its product rounds."""
    q = _ratios(rows, p).min(axis=1)
    saturated = q >= 1.0 / rows.max(axis=1)
    need = np.repeat(~saturated[:, None], len(model.blocks), axis=1)
    unions, errors, met = _block_unions(
        rows, masks, np.broadcast_to(q[:, None], need.shape), need, model, seed, target_error, max_points, True
    )
    union, error = np.zeros(len(rows)), np.zeros(len(rows))
    for b in range(need.shape[1]):
        union += unions[:, b]
        error += errors[:, b]
    total = _member_sums(rows, member_table(rows.shape[1], masks))
    values = np.where(saturated, 1.0, np.minimum(1.0, union / total))
    return values, np.where(saturated, 0.0, error / total), met


def _subsets_pvalues(rows, masks, p, model: CorrelationModel, seed, target_error, max_points):
    """``partitioned_pvalue_subsets`` of every row, as ``_common_pvalues``
    takes and gives them: per block with an active member the union at
    thresholds w_j * q_b, q_b the block's smallest p/w, over the block's
    weight total (1 where the block saturates), the smallest value and
    the largest error."""
    shape = (len(rows), len(model.blocks))
    q, has, saturated = np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    totals, inside = np.empty(shape), member_table(rows.shape[1], masks)
    for b, mem in enumerate(model.blocks):
        top = rows[:, list(mem)].max(axis=1)
        q[:, b] = _ratios(rows[:, list(mem)], p[list(mem)]).min(axis=1)
        has[:, b] = top > 0.0
        with np.errstate(divide="ignore"):
            saturated[:, b] = has[:, b] & (q[:, b] >= 1.0 / top)
        # the block's weight total, the float w.sum() gives on its members; 1.0 with none active
        totals[:, b] = np.where(has[:, b], _member_sums(rows[:, list(mem)], inside[:, list(mem)]), 1.0)
    unions, errors, met = _block_unions(
        rows, masks, q, has & ~saturated, model, seed, target_error, max_points, False
    )
    value, error = np.full(len(rows), np.inf), np.zeros(len(rows))
    for b in range(len(model.blocks)):
        total, sat, off = totals[:, b], saturated[:, b], ~has[:, b]
        block = np.where(sat, 1.0, np.minimum(1.0, unions[:, b] / total))
        value = np.minimum(value, np.where(off, np.inf, block))
        error = np.maximum(error, np.where(sat | off, 0.0, errors[:, b] / total))
    return value, error, met


def _xie_pvalues(rows, masks, p, model: CorrelationModel, seed, target_error, max_points):
    """``xie_pvalue`` of every row, as ``_common_pvalues`` takes and gives
    them: the rows rescaled to sum to 1 over their members, then
    ``_subsets_pvalues``."""
    total = _member_sums(rows, member_table(rows.shape[1], masks))
    return _subsets_pvalues(rows / total[:, None], masks, p, model, seed, target_error, max_points)


def _one_row(pvalues, mem, w, p, corr, seed: int, target_error: float, max_points: int) -> float:
    """The p-value the array function ``pvalues`` gives the intersection
    ``mem`` at member weights w and p-values p, after the checks every
    public p-value makes of the weights, model, subset and accuracy."""
    _weight_total(w)
    model = as_model(corr)
    mask = np.array([mask_of(mem, model.m)])
    max_points = _check_accuracy_args(target_error, max_points)
    row, full = np.zeros((1, model.m)), np.zeros(model.m)
    row[0, list(mem)], full[list(mem)] = w, p
    return float(pvalues(row, mask, full, model, seed, target_error, max_points)[0][0])


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
    seed = _check_seed(seed)
    # the one-block case of the per-block minimum
    return _one_row(_subsets_pvalues, mem, w, p, model, seed, target_error, max_points)


def _one_block(mem: tuple[int, ...], corr, what: str) -> CorrelationModel:
    """The model of ``corr``, checked to know the correlation over all of ``mem``."""
    model = as_model(corr)
    if not model.covers(mem):
        raise InputError(f"{what} needs the correlation fully known over the subset")
    return model


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
    groups: list[tuple[int, CorrelationMatrix | None, np.ndarray]], target: float, alpha: float,
    seed: int, mask: int, target_error: float, root_tol: float, max_points: int,
) -> float:
    """Smallest c >= 1 at which the per-block unions at thresholds
    c*alpha*w sum to the target: one problem that the array pass of
    ``_scales`` does not settle, its arguments checked there.

    groups holds (salt, correlation, active weights) per block, at least
    one with a correlation; a block with one active member has none and
    no rule: its union is its threshold min(1, c*alpha*w), exact. Every
    other block gets one UnionRule kept fixed while c moves, so the sum is
    a deterministic, continuous function of c; the QMC error budget is
    split across the blocks that sample. The sum reads each rule's value
    alone (``UnionRule.value``); only the closing check below reads errors.

    The rules are first fitted at c = 1, capped at _COARSE_POINTS (the
    first pass of any fit). When max_points is at most _COARSE_POINTS or
    every sampled rule meets its error target (or none samples, as in a
    problem the pass left NaN for a threshold or a bracket), these are
    the full rules, and the bracket search and Illinois steps of the array
    pass, run on this one problem, find the root or raise. Otherwise that
    solve runs on them as coarse rules; the full rules are fitted at the
    coarse root c0, whose estimate is the sum at c0, and secant steps
    starting along the coarse slope polish the root (the bracketed solve
    takes over if they do not settle). The solved c is checked against one
    independent re-estimate (salt + _CHECK_SALT) while some sampled rule
    is below max_points; a miss beyond the combined error refines every
    such rule and solves again.

    The sum at c=1 never exceeds the target (Bonferroni inequality), so
    an estimate already at or above it means c=1 within noise.
    """
    sampled = sum(1 for _, _, w in groups if w.size > MAX_EXACT_DIM)
    block_error = target_error / max(sampled, 1)
    w_active = np.concatenate([w for _, _, w in groups])
    # the sum grows at most at rate alpha * total weight, which bounds how
    # far the estimate at the solved c can sit from the target
    slack = alpha * float(w_active.sum()) * root_tol

    def fit(c: float, points: int) -> tuple[list[UnionRule | None], list[UnionRule]]:
        """(per block its rule or None, the rules) fitted at c."""
        rules = [
            None if corr is None
            else UnionRule(c * alpha * w, corr, derived_seed(seed, mask, salt), block_error, points)
            for salt, corr, w in groups
        ]
        return rules, [rule for rule in rules if rule is not None]

    def unions(rules, c: float, fitted: bool) -> list[ProbEstimate]:
        """The per-block unions at thresholds c*alpha*w, in block order:
        min(1, c*alpha*w) for a block with no rule, else the rule's
        ``estimate`` when ``fitted`` (c is where it was fitted: no kernel
        pass), or else its independent re-estimate there."""
        t = c * alpha
        return [
            ProbEstimate(min(1.0, t * float(w[0])), 0.0) if rule is None
            else rule.estimate if fitted
            else rule(np.minimum(1.0, t * w), derived_seed(seed, mask, salt + _CHECK_SALT))
            for rule, (salt, _, w) in zip(rules, groups)
        ]

    def union_sum(rules, c0: float):
        """(total, known): the sum of the unions' values as a function of
        c, which keeps what it evaluates in ``known``, starting from the
        rules' estimates at c0, where they were fitted."""
        known = {c0: sum(est.value for est in unions(rules, c0, fitted=True))}

        def total(c: float) -> float:
            if c not in known:
                t = c * alpha
                known[c] = sum(
                    min(1.0, t * float(w[0])) if rule is None else rule.value(np.minimum(1.0, t * w))
                    for rule, (_, _, w) in zip(rules, groups)
                )
            return known[c]

        return total, known

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
        total, known = union_sum(rules, c0)
        c0 = bracketed(total)
        slope = _crossing_slope(known, target)
        if slope is None or c0 * alpha * float(w_active.max()) >= 1.0:
            c0, slope = 1.0, None
        rules, built = fit(c0, max_points)
    while True:
        total, _ = union_sum(rules, c0)
        c = None if slope is None else _secant_root(total, c0, slope, target, cap, root_tol)
        if c is None:
            c = bracketed(total)
        # the re-estimate can only lead to a refinement: none once no rule can refine
        if not any(rule.can_refine(max_points) for rule in built):
            return c
        ests = unions(rules, c, fitted=False)
        check = sum(est.value for est in ests)
        err = sum(est.error + rule.estimate.error for est, rule in zip(ests, rules) if rule is not None)
        if abs(check - target) <= err + slack:
            return c
        for rule in built:
            rule.refine(max_points)


def _solve_scales(parts: dict[int, tuple], target, alpha: float, target_error: float, root_tol: float):
    """``_solve_scale`` for many problems in one array pass, where no
    block holds more than MAX_EXACT_DIM active members, so every block is
    exact or a quadrature.

    ``parts`` holds per number of events k the blocks of k active members
    of every problem, as ``_problems`` gathers them: (problem, term,
    weights (N, k), correlations (N, k, k)), ``term`` the block's place
    in its problem's sum. A problem's sum adds, in term order from 0, the
    linear term min(1, c*alpha*w) of each single member, the exact
    bivariate union of each pair (``_pair_unions``) and Plackett's
    reduction of each block of three or more (``_plackett_values``) at
    the node count ``_plackett_fits`` fits at c = 1, whose fitted value
    is the block's term there. The loops ``_solve_scale`` runs on one
    problem run on all of them, so each c is the float it gives; a
    problem on which it would raise or sample (a threshold outside (0, 1)
    at c = 1, a fit that finds no node count, a bracket that does not
    straddle) gets NaN, for its caller to solve alone.
    """
    n = target.size
    width = 1 + max(int(term.max()) for _, term, _, _ in parts.values())
    fits = np.ones(n, dtype=bool)
    top = np.zeros(n)
    # per k of three or more: the node counts, the fitted values and the
    # correlations as the kernel takes them, (k, k, N)
    nodes, fitted, corrs = {}, {}, {}
    for k, (problem, _, w, corr) in parts.items():
        np.maximum.at(top, problem, w.max(axis=1))
        if k == 1:
            continue
        # UnionRule's check of a block's thresholds at c = 1, where its rule is fitted
        u = alpha * w
        ok = ((u > 0.0) & (u < 1.0)).all(axis=1)
        if k > 2:
            corrs[k] = corr.transpose(1, 2, 0)
            fitted[k], nodes[k] = np.full(ok.size, np.nan), np.zeros(ok.size, dtype=int)
            fitted[k][ok], _, nodes[k][ok] = _plackett_fits(u[ok].T, corrs[k][:, :, ok], target_error)
            ok &= nodes[k] > 0
        fits[problem[~ok]] = False

    def total(rows: np.ndarray, c: np.ndarray, at_fit: bool = False) -> np.ndarray:
        """The sums of problems ``rows`` at scales c; with ``at_fit`` (c =
        1) each block of three or more adds its fitted value."""
        place = np.full(n, -1)
        place[rows] = np.arange(rows.size)
        terms = np.zeros((rows.size, width))
        for k, (problem, term, w, corr) in parts.items():
            on = np.flatnonzero(place[problem] >= 0)
            i = place[problem[on]]
            u = np.minimum(1.0, (c[i] * alpha)[:, None] * w[on])
            if k == 1:
                union = u[:, 0]
            elif k == 2:
                # a threshold of 1 makes the union certain
                union = np.ones(on.size)
                live = (u < 1.0).all(axis=1)
                union[live] = _pair_unions(u[live, 0], u[live, 1], corr[on[live], 0, 1])
            elif at_fit:
                union = fitted[k][on]
            else:
                union = _plackett_values(u.T, corrs[k][:, :, on], nodes[k][on])
            terms[i, term[on]] = union
        out = terms[:, 0].copy()
        for b in range(1, width):
            out += terms[:, b]
        return out

    c = np.where(fits, 1.0, np.nan)
    rows = np.flatnonzero(fits)
    at_one = np.full(n, np.nan)
    at_one[rows] = total(rows, np.ones(rows.size), at_fit=True)
    todo = rows[at_one[rows] < target[rows]]
    tgt = target[todo]
    # at c = 1/(alpha * max weight) the largest threshold saturates
    cap = 1.0 / (alpha * top[todo])
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


def _scales(w, masks, model: CorrelationModel, alpha: float, common: bool, seed: int,
            target_error: float, root_tol: float, max_points: int) -> np.ndarray:
    """The scalings of the local levels of every row of a weight table w
    (n, m; -1 off the members of its mask in ``masks``), per hypothesis
    (n, m): with ``common`` one per row, pinning the sum of its blocks'
    unions to alpha times its weight total, else one per block, pinning
    the block's union to alpha times the block's weight total; the caller
    checks the arguments. A problem (a row, or a (row, block)) in which no
    block holds two positive-weight members scales by 1. Those in which
    none holds more than MAX_EXACT_DIM are solved in one ``_solve_scales``
    pass; every other one, and each the pass leaves NaN, alone by
    ``_solve_scale``, in mask order, then block order."""
    inside, positive = w >= 0.0, w > 0.0
    # each block's column of problems: the one of a common scaling, or one
    # per block of two or more members, then one, holding none, for the rest
    multi = np.array([len(mem) > 1 for mem in model.blocks])
    col = np.zeros(multi.size, dtype=int) if common else np.where(multi, np.cumsum(multi) - 1, multi.sum())
    # per row and column, the most positive-weight members one block holds
    counts = np.zeros((len(w), col.max() + 1), dtype=int)
    for b in np.flatnonzero(multi).tolist():
        counts[:, col[b]] = np.maximum(counts[:, col[b]], positive[:, list(model.blocks[b])].sum(axis=1))
    several, exact = counts > 1, (counts > 1) & (counts <= MAX_EXACT_DIM)
    column = col[model._block_of]
    # the weight totals the problems pin: the float w.sum() gives on their members
    totals = np.ones(counts.shape)
    for i in range(counts.shape[1]):
        need = np.flatnonzero(several[:, i])
        totals[need, i] = _member_sums(w[need], inside[need] & (column == i))
    scales = np.ones(counts.shape)
    rows, cols = np.nonzero(exact)
    if rows.size:
        # each problem's number in the pass, in row-major order; a row's
        # blocks are the terms of its common sum, a block a problem of its own
        number = np.cumsum(exact).reshape(exact.shape) - 1
        parts = {
            k: (number[r, col[b]], b if common else np.zeros_like(b), wk, corr)
            for k, (r, b, wk, corr) in _problems(w, positive & exact[:, column], model).items()
        }
        scales[rows, cols] = _solve_scales(parts, alpha * totals[rows, cols], alpha, target_error, root_tol)
    for row, i in zip(*np.nonzero(several & (~exact | np.isnan(scales)))):
        mask = int(masks[row])
        # the column's blocks that hold a positive weight
        groups = [g for g in (_group(w[row], mask, model, b) for b in np.flatnonzero(col == i)) if g[2].size]
        scales[row, i] = _solve_scale(groups, alpha * totals[row, i], alpha, seed, mask, target_error,
                                      root_tol, max_points)
    return scales[:, column]


def _one_scale(mem, w, alpha: float, model: CorrelationModel, common: bool, seed, target_error: float,
               root_tol: float, max_points: int) -> np.ndarray:
    """The scalings ``_scales`` gives the one row ``mem`` at member weights
    w, per hypothesis, after the public scale functions' checks."""
    mask = mask_of(mem, model.m)
    seed = _check_seed(seed)
    max_points = _check_accuracy_args(target_error, max_points)
    root_tol = _check_root_tol(root_tol)
    row = np.full((1, model.m), -1.0)
    row[0, list(mem)] = w
    return _scales(row, np.array([mask]), model, alpha, common, seed, target_error, root_tol, max_points)[0]


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
        mem, w, alpha, model, _check_seed(seed), target_error, root_tol, max_points
    )


def _summable(w: np.ndarray) -> np.ndarray:
    """w, or w over its largest entry where w.sum() overflows."""
    with np.errstate(over="ignore"):
        return w if np.isfinite(w.sum()) else w / w.max()


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
    seed = _check_seed(seed)
    mem, w, p = _check_subset_args(subset, initial_weights, pvalues)
    if np.any(w <= 0.0):
        raise InputError("proportional method needs strictly positive initial weights")
    model = _one_block(mem, corr, "parametric p-value")
    w = _summable(w)
    return _one_row(_subsets_pvalues, mem, w / w.sum(), p, model, seed, target_error, max_points)


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
    _weight_total(w)
    _check_alpha(alpha)
    scales = _one_scale(mem, w, alpha, as_model(corr), True, seed, target_error, root_tol, max_points)
    return float(scales[mem[0]])


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
    seed = _check_seed(seed)
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    return _one_row(_subsets_pvalues, mem, w, p, corr, seed, target_error, max_points)


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
    seed = _check_seed(seed)
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    return _one_row(_common_pvalues, mem, w, p, corr, seed, target_error, max_points)


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
    seed = _check_seed(seed)
    model = as_model(corr)
    scales = _one_scale(mem, w, alpha, model, False, seed, target_error, root_tol, max_points)
    split = (tuple(j for j in block if j in mem) for block in model.blocks)
    return tuple((inner, float(scales[inner[0]])) for inner in split if inner)
