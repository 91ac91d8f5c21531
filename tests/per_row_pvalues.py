"""The closure's intersection p-values and critical scalings computed
one intersection at a time: an oracle for the array p-values and the
array scales in ``closedmtp.intersection``.

A subset is split by correlation block (``_blocks``), each block salted
by its place in the split. Each p-value estimate gives (ProbEstimate,
whether every kernel fit met its target): every block with two or more
active members is one ``union_exceedance`` call at thresholds w_j * q on
the stream derived_seed(seed, mask, salt). The kernel is called through
``closedmtp.mvnorm``, so a wrapper on ``closedmtp.intersection``'s
binding counts only the library's own calls. Each scale (``common_scale``,
``subset_scales``) is 1 where no block holds two active members, the
equation being linear there, and otherwise one call of
``closedmtp.intersection._solve_scale`` on the split's blocks.
"""

import numpy as np

import closedmtp.intersection as intersection
from closedmtp.exceptions import InputError
from closedmtp.intersection import (
    CorrelationModel,
    _check_alpha,
    _check_seed,
    _check_subset_args,
    _one_block,
    _weight_total,
    as_model,
    derived_seed,
)
from closedmtp.mvnorm import (
    DEFAULT_MAX_POINTS,
    DEFAULT_ROOT_TOL,
    DEFAULT_TARGET_ERROR,
    MAX_EXACT_DIM,
    ProbEstimate,
    _check_accuracy_args,
    _check_root_tol,
    union_exceedance,
)
from closedmtp.subsets import mask_of


def _blocks(mem: tuple[int, ...], w: np.ndarray, model: CorrelationModel) -> list[tuple]:
    """The subset split by correlation block, in block order: per block
    (salt, block members, positions in ``mem`` of its active (positive-
    weight) members, their correlation, None for fewer than two, weight
    total of all its members). The salt is the block's place in this list.
    ``mem`` must be ascending and inside the model, as every caller's
    ``mask_of`` checks."""
    groups: dict[int, list[int]] = {}
    for i, h in enumerate(model._block_of[list(mem)].tolist()):
        groups.setdefault(h, []).append(i)
    positive = (w > 0.0).tolist()
    out = []
    for salt, h in enumerate(sorted(groups)):
        idx = groups[h]
        act = [i for i in idx if positive[i]]
        corr = None
        if len(act) > 1:
            corr = model.matrices[h].submatrix(model._pos[[mem[i] for i in act]])
        total = float(w[idx[0]]) if len(idx) == 1 else float(w[idx].sum())
        out.append((salt, tuple(mem[i] for i in idx), np.array(act, dtype=int), corr, total))
    return out


def _union_estimate(
    blocks, w: np.ndarray, p: np.ndarray, total: float, seed: int, mask: int,
    target_error: float, max_points: int,
) -> tuple[ProbEstimate, bool]:
    """(estimate, whether every block met its share of the target): the
    unions of ``blocks`` (``_blocks``'s entries) at thresholds w_j * q, q
    the smallest p/w of their active members, summed in block order over
    ``total`` (capped at 1), the errors too. The target is split across
    the blocks that sample. A block with one active member adds
    min(1, w * q), error 0, with no kernel call: the union of one event.
    A kernel fit that meets its target on the first pass of
    _COARSE_POINTS stops there, so then a fit capped at _COARSE_POINTS
    gives the floats of one at any larger max_points."""
    # checked here, since a one-member block never reaches the kernel's checks
    max_points = _check_accuracy_args(target_error, max_points)
    act = np.concatenate([block[2] for block in blocks])
    with np.errstate(over="ignore"):
        q = float(np.min(p[act] / w[act]))
    if q >= 1.0 / float(np.max(w[act])):
        # the heaviest threshold is 1, however its product rounds: the union is certain
        return ProbEstimate(1.0, 0.0), True
    block_error = target_error / max(1, sum(1 for b in blocks if b[2].size > MAX_EXACT_DIM))
    union = error = 0.0
    met = True
    for salt, _, act, corr, _ in blocks:
        if corr is not None:
            est = union_exceedance(
                np.minimum(1.0, w[act] * q), corr, derived_seed(seed, mask, salt),
                block_error, max_points,
            )
            union += est.value
            error += est.error
            met = met and est.error <= block_error
        elif act.size:
            union += min(1.0, float(w[act[0]]) * q)
    return ProbEstimate(min(1.0, union / total), error / total), met


def _xie_estimate(
    subset, initial_weights, pvalues, corr, seed, target_error, max_points
) -> tuple[ProbEstimate, bool]:
    """``xie_pvalue`` as ``_subsets_estimate`` gives it: (estimate, target met)."""
    mem, w, p = _check_subset_args(subset, initial_weights, pvalues)
    if np.any(w <= 0.0):
        raise InputError("proportional method needs strictly positive initial weights")
    model = _one_block(mem, corr, "parametric p-value")
    return _subsets_estimate(mem, w / w.sum(), p, model, seed, target_error, max_points)


def _subsets_estimate(
    subset, weights, pvalues, corr, seed, target_error, max_points
) -> tuple[ProbEstimate, bool]:
    """``partitioned_pvalue_subsets`` with its error and whether every
    block met its target: ``_union_estimate`` of each block alone, the
    smallest value, the largest error."""
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    _weight_total(w)
    model = as_model(corr)
    mask = mask_of(mem, model.m)
    blocks = [
        _union_estimate([block], w, p, block[4], seed, mask, target_error, max_points)
        for block in _blocks(mem, w, model) if block[2].size
    ]
    value = min(est.value for est, _ in blocks)
    return ProbEstimate(value, max(est.error for est, _ in blocks)), all(met for _, met in blocks)


def _common_estimate(
    subset, weights, pvalues, corr, seed, target_error, max_points
) -> tuple[ProbEstimate, bool]:
    """``partitioned_pvalue_common`` with its error and whether every
    block met its share of the target: ``_union_estimate`` of all blocks."""
    mem, w, p = _check_subset_args(subset, weights, pvalues)
    total = _weight_total(w)
    model = as_model(corr)
    mask = mask_of(mem, model.m)
    return _union_estimate(_blocks(mem, w, model), w, p, total, seed, mask, target_error, max_points)


# the per-row estimate of each method that fits a kernel
ESTIMATES = {
    "xie": _xie_estimate,
    "parametric-common": _common_estimate,
    "parametric-subsets": _subsets_estimate,
}


def _solve(groups, target, alpha, seed, mask, target_error, root_tol, max_points) -> float:
    """c = 1 when no block of ``groups`` ((salt, correlation, active
    weights) each) has a correlation, else ``_solve_scale``'s root."""
    if all(corr is None for _, corr, _ in groups):
        return 1.0
    return intersection._solve_scale(
        groups, target, alpha, seed, mask, target_error, root_tol, max_points
    )


def _scale_args(subset, weights, alpha, corr, seed, target_error, root_tol, max_points):
    """(members, weights, model, mask, seed, max_points, root_tol), after
    the checks the public scale functions make."""
    mem, w = _check_subset_args(subset, weights)
    _weight_total(w)
    _check_alpha(alpha)
    model = as_model(corr)
    mask = mask_of(mem, model.m)
    seed = _check_seed(seed)
    max_points = _check_accuracy_args(target_error, max_points)
    return mem, w, model, mask, seed, max_points, _check_root_tol(root_tol)


def common_scale(
    subset, weights, alpha, corr, seed=0, target_error=DEFAULT_TARGET_ERROR,
    root_tol=DEFAULT_ROOT_TOL, max_points=DEFAULT_MAX_POINTS,
) -> float:
    """``partitioned_common_scale`` solved alone: one root over the sum
    of the unions of every block with an active member."""
    mem, w, model, mask, seed, max_points, root_tol = _scale_args(
        subset, weights, alpha, corr, seed, target_error, root_tol, max_points
    )
    groups = [(salt, c, w[act]) for salt, _, act, c, _ in _blocks(mem, w, model) if act.size]
    return _solve(groups, alpha * float(w.sum()), alpha, seed, mask, target_error, root_tol, max_points)


def subset_scales(
    subset, weights, alpha, corr, seed=0, target_error=DEFAULT_TARGET_ERROR,
    root_tol=DEFAULT_ROOT_TOL, max_points=DEFAULT_MAX_POINTS,
) -> tuple:
    """``partitioned_subset_scales`` solved alone: ((block members, c),
    ...) over the blocks meeting the subset, each block's root at its
    own weight total."""
    mem, w, model, mask, seed, max_points, root_tol = _scale_args(
        subset, weights, alpha, corr, seed, target_error, root_tol, max_points
    )
    return tuple(
        (block, _solve([(salt, c, w[act])], alpha * total, alpha, seed, mask, target_error, root_tol,
                       max_points))
        for salt, block, act, c, total in _blocks(mem, w, model)
    )
