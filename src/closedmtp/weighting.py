"""Weighting schemes over all nonempty index subsets.

A scheme assigns each nonempty J subset of {0..m-1} a weight vector
(w_j(J), j in J). Schemes can be built from a propagation graph (initial
weights plus a transition matrix that redistributes the weight of a
removed hypothesis to its neighbours), from proportional rescaling of
the initial weights, or supplied explicitly. A scheme is one array with
a row per subset, and is built, checked and rescaled as a whole.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .intersection import _TOTAL_TOL
from .subsets import _member_sums, check_m, iter_masks, mask_of, member_table, members

_SUM_TOL = 1e-12


class _Table(Mapping):
    """Read-only {mask: weights in ascending member order} view of a
    scheme's (2^m, m) array, whose row mask holds w_j(J) at the members
    j of J and 0.0 elsewhere (row 0 is the empty set)."""

    def __init__(self, full: np.ndarray) -> None:
        full.setflags(write=False)
        self.full = full

    def __getitem__(self, mask) -> np.ndarray:
        if not isinstance(mask, (int, np.integer)) or not 0 < mask < len(self.full):
            raise KeyError(mask)
        w = self.full[mask, list(members(int(mask)))]
        w.setflags(write=False)
        return w

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self.full)))

    def __len__(self) -> int:
        return len(self.full) - 1


@dataclass(frozen=True, eq=False)
class WeightingScheme:
    """Weights for every nonempty subset, held as one read-only array.

    ``rows`` is that (2^m - 1, m) array: row mask - 1 holds w_j(J) at
    each member j of J = mask and 0.0 elsewhere. ``table`` views it as
    {mask: weights in ascending member order}; it may be given as any
    mapping over all 2^m - 1 subsets, or as another scheme's ``table``.
    Schemes are immutable and safe to share across threads.
    """

    m: int
    table: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        m = check_m(self.m)
        table = self.table
        if not (isinstance(table, _Table) and table.full.shape == (1 << m, m)):
            vectors = []
            for mask in iter_masks(m):
                try:
                    w = np.asarray(table[mask], dtype=float)
                except KeyError:
                    raise InputError(
                        f"weighting scheme is missing subset {members(mask)} (mask {mask})"
                    ) from None
                if w.shape != (mask.bit_count(),):
                    raise InputError(f"weight vector for subset {members(mask)} has wrong length")
                if not np.all(np.isfinite(w)):
                    raise InputError("weights must be finite")
                vectors.append(w)
            if len(table) != len(vectors):
                raise InputError("weighting scheme contains entries for invalid subsets")
            full = np.zeros((1 << m, m))
            # a boolean assignment fills row by row, each row in ascending member order
            full[member_table(m)] = np.concatenate(vectors)
            table = _Table(full)
        elif not np.all(np.isfinite(table.full)):
            raise InputError("weights must be finite")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "table", table)

    @property
    def rows(self) -> np.ndarray:
        return self.table.full[1:]

    def weights_for(self, subset) -> np.ndarray:
        """Weight vector for a subset given as bitmask (any integer but a
        bool, NumPy's included) or index iterable."""
        if isinstance(subset, (int, np.integer)) and not isinstance(subset, bool):
            mask = int(subset)
        else:
            mask = mask_of(subset, self.m)
        if not 1 <= mask < (1 << self.m):
            raise InputError(f"mask {mask} out of range for m={self.m}")
        return self.table[mask]

    def entries(self) -> Iterator[tuple[int, tuple[int, ...], np.ndarray]]:
        """(mask, members, weights) triples in canonical order."""
        for mask in iter_masks(self.m):
            yield mask, members(mask), self.table[mask]

    def is_proportional(self, tol: float = 1e-9) -> bool:
        """True when w_j(J) = w_j / sum over J of the full-set weights.

        This is the structure produced by xie_scheme; it requires all
        full-set weights to be positive.
        """
        init = self.rows[-1]
        if np.any(init <= 0.0):
            return False
        return bool(np.abs(self.rows - xie_scheme(init).rows).max() <= tol)


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """Initial weights plus a propagation matrix.

    transitions[j][l] is the fraction of H_j's weight handed to H_l when
    H_j is removed. Rows must sum to at most 1 and the diagonal must be
    zero; the initial weights must be nonnegative with sum at most 1.
    """

    m: int
    initial_weights: np.ndarray
    transitions: np.ndarray

    def __post_init__(self) -> None:
        m = check_m(self.m)
        w = np.array(self.initial_weights, dtype=float)
        g = np.array(self.transitions, dtype=float)
        if w.shape != (m,):
            raise InputError(f"initial weights must have length {m}")
        if g.shape != (m, m):
            raise InputError(f"transition matrix must be {m}x{m}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(g))):
            raise InputError("graph entries must be finite")
        if np.any(w < -_SUM_TOL) or np.any(g < -_SUM_TOL):
            raise InputError("graph weights and transitions must be nonnegative")
        w = np.clip(w, 0.0, None)
        g = np.clip(g, 0.0, None)
        if w.sum() > 1.0 + _SUM_TOL:
            raise InputError(f"initial weights sum to {w.sum()}, exceeding 1")
        if np.abs(np.diag(g)).max() > _SUM_TOL:
            raise InputError("transition matrix must have a zero diagonal")
        np.fill_diagonal(g, 0.0)
        rows = g.sum(axis=1)
        if rows.max() > 1.0 + _SUM_TOL:
            bad = int(rows.argmax())
            raise InputError(f"transition row {bad} sums to {rows[bad]}, exceeding 1")
        w.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "initial_weights", w)
        object.__setattr__(self, "transitions", g)


def _remove_node(w: np.ndarray, g: np.ndarray, j: int, rewire: bool = True):
    """Delete node j, redistributing its weight and (unless ``rewire`` is
    off, giving None) rewiring transitions; leading axes batch states."""
    w2 = w + w[..., j, None] * g[..., j, :]
    w2[..., j] = 0.0
    if not rewire:
        return w2, None
    into, out = g[..., :, j], g[..., j, :]
    denom = 1.0 - into * out  # l -> j -> l round-trip fraction per row l
    safe = denom > _SUM_TOL
    g2 = g + into[..., :, None] * out[..., None, :]
    g2 /= np.where(safe, denom, 1.0)[..., None]
    g2[~safe] = 0.0
    g2[..., j, :] = g2[..., :, j] = 0.0
    diag = np.arange(g.shape[-1])
    g2[..., diag, diag] = 0.0
    return w2, g2


# transition floats (512 kB) per batch of states in scheme_from_graph: at
# m = 20 its transient arrays stay near 20 MB beside the 168 MB scheme
_BATCH_FLOATS = 1 << 16


def scheme_from_graph(graph: GraphSpec) -> WeightingScheme:
    """Propagate the graph's weights to every nonempty subset.

    Each subset's weights come from removing its complement one node at
    a time in ascending order; the update rule makes the result
    independent of removal order, so that one order suffices. Node by
    node, every state so far also loses node j: the state of J is that
    of J plus c, the largest node outside J, with c removed. A batch of
    states takes the elementwise operations one state would. Once a
    batch reaches _BATCH_FLOATS transition floats, the half that lost
    node j is set aside to go through the later nodes on its own.
    """
    m = graph.m
    full = np.zeros((1 << m, m))
    # batches of states (weights, transitions, masks, next node to remove)
    todo = [(graph.initial_weights[None], graph.transitions[None], np.array([(1 << m) - 1]), 0)]
    while todo:
        w, g, masks, start = todo.pop()
        for j in range(start, m):
            # the last removal ends every walk: its transitions are never read
            w2, g2 = _remove_node(w, g, j, rewire=j < m - 1)
            masks2 = masks & ~(1 << j)
            if len(masks) * m * m >= _BATCH_FLOATS:
                todo.append((w2, g2, masks2, j + 1))
                continue
            w, masks = np.concatenate((w, w2)), np.concatenate((masks, masks2))
            g = g if g2 is None else np.concatenate((g, g2))
        full[masks] = w
    full[0] = 0.0  # the empty set the last removal reaches
    return WeightingScheme(m, _Table(full))


def _invalid_masks(scheme: WeightingScheme) -> np.ndarray:
    """The masks, ascending, whose weights every intersection test rejects
    (``_check_subset_args``, ``_weight_total``): a negative weight, or a
    total, as the test sums it, outside (0, 1 + 1e-12]."""
    full = scheme.table.full
    total = _member_sums(full)
    bad = (full < 0.0).any(axis=1) | ~(total > 0.0) | (total > 1.0 + _TOTAL_TOL)
    return np.flatnonzero(bad[1:]) + 1


def validate(scheme: WeightingScheme) -> dict[str, bool]:
    """Check validity, exhaustiveness and monotonicity of a scheme.

    valid: no subset's weights are rejected by the intersection tests
    (``_invalid_masks``), so a closed test runs exactly on a valid scheme.
    exhaustive: every subset's weights sum to 1 within 1e-12.
    monotone: w_j(J) <= w_j(J') + 1e-12 whenever J' is a subset of J;
    checked on immediate-child pairs, which covers all pairs by
    transitivity: per hypothesis i, every J holding i against J minus i.
    """
    full = scheme.table.full
    monotone = True
    for i in range(scheme.m):
        # the rows of the masks with bit i set, above the same masks without it
        pairs = full.reshape(-1, 2, 1 << i, scheme.m)
        drop = pairs[:, 1] > pairs[:, 0] + _SUM_TOL
        drop[..., i] = False  # i is not in the child
        if drop.any():
            monotone = False
            break
    return {
        "valid": _invalid_masks(scheme).size == 0,
        "exhaustive": bool(np.all(np.abs(_member_sums(full)[1:] - 1.0) <= _SUM_TOL)),
        "monotone": monotone,
    }


def rescale_proportional(scheme: WeightingScheme) -> WeightingScheme:
    """Scale each subset's weights to sum to 1, preserving their ratios."""
    total = _member_sums(scheme.table.full)
    total[0] = 1.0  # the empty row
    for mask in np.flatnonzero(~(total > 0.0))[:1].tolist():
        raise InputError(
            f"subset {members(mask)} has zero total weight; cannot rescale proportionally"
        )
    return WeightingScheme(scheme.m, _Table(scheme.table.full / total[:, None]))


def xie_scheme(initial: Sequence[float]) -> WeightingScheme:
    """Scheme fully determined by positive initial weights: w_j(J) = w_j / sum over J."""
    init = np.asarray(initial, dtype=float)
    check_m(init.shape[0])
    if not np.all(np.isfinite(init)) or np.any(init <= 0.0):
        raise InputError("initial weights must all be strictly positive")
    return rescale_proportional(constant_scheme(init))


def constant_scheme(weights: Sequence[float]) -> WeightingScheme:
    """Scheme that keeps the same weights on every subset (no reallocation).

    Valid whenever the weights are nonnegative with 0 < sum <= 1; not
    exhaustive on proper subsets unless m = 1.
    """
    w0 = np.asarray(weights, dtype=float)
    m = check_m(w0.shape[0])
    if not np.all(np.isfinite(w0)) or np.any(w0 < 0.0) or not w0.sum() > 0.0:
        raise InputError("weights must be nonnegative with a positive sum")
    return WeightingScheme(m, _Table(np.where(member_table(m), w0, 0.0)))
