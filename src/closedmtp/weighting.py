"""Weighting schemes over all nonempty index subsets.

A scheme assigns each nonempty J subset of {0..m-1} a weight vector
(w_j(J), j in J). Schemes can be built from a propagation graph (initial
weights plus a transition matrix that redistributes the weight of a
removed hypothesis to its neighbours), from proportional rescaling of
the initial weights, or supplied explicitly.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InputError
from .subsets import check_m, iter_masks, mask_of, members

_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightingScheme:
    """Weights for every nonempty subset, keyed by bitmask.

    The table must cover all 2^m - 1 subsets; each entry is aligned with
    the ascending member order of its mask. Schemes are immutable and
    safe to share across threads.
    """

    m: int
    table: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        m = check_m(self.m)
        tab = {}
        for mask in iter_masks(m):
            try:
                w = self.table[mask]
            except KeyError:
                raise InputError(
                    f"weighting scheme is missing subset {members(mask)} (mask {mask})"
                ) from None
            w = np.array(w, dtype=float)
            if w.shape != (mask.bit_count(),):
                raise InputError(
                    f"weight vector for subset {members(mask)} has wrong length"
                )
            if not np.all(np.isfinite(w)):
                raise InputError("weights must be finite")
            w.setflags(write=False)
            tab[mask] = w
        if len(self.table) != len(tab):
            raise InputError("weighting scheme contains entries for invalid subsets")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "table", tab)

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
        init = self.table[(1 << self.m) - 1]
        if np.any(init <= 0.0):
            return False
        for mask, mem, w in self.entries():
            ref = init[list(mem)]
            if np.abs(w - ref / ref.sum()).max() > tol:
                return False
        return True


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


def _remove_node(w: np.ndarray, g: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Delete node j, redistributing its weight and rewiring transitions."""
    w2 = w + w[j] * g[j]
    w2[j] = 0.0
    loop = g[:, j] * g[j, :]  # l -> j -> l round-trip fraction per row l
    denom = 1.0 - loop
    g2 = g + np.outer(g[:, j], g[j, :])
    safe = denom > _SUM_TOL
    g2 = np.where(safe[:, None], g2 / np.where(safe, denom, 1.0)[:, None], 0.0)
    g2[j, :] = 0.0
    g2[:, j] = 0.0
    np.fill_diagonal(g2, 0.0)
    return w2, g2


def scheme_from_graph(graph: GraphSpec) -> WeightingScheme:
    """Propagate the graph's weights to every nonempty subset.

    Each subset's weights come from removing the complement one node at
    a time; the update rule makes the result independent of removal
    order, so a single canonical (ascending) order per subset suffices.
    The walk shares prefixes, visiting each of the 2^m - 1 subsets once.
    """
    m = graph.m
    table: dict[int, np.ndarray] = {}

    def visit(mask: int, w: np.ndarray, g: np.ndarray, start: int) -> None:
        mem = members(mask)
        table[mask] = w[list(mem)].copy()
        for j in mem:
            if j < start or mask == (1 << j):
                continue
            w2, g2 = _remove_node(w, g, j)
            visit(mask & ~(1 << j), w2, g2, j + 1)

    visit((1 << m) - 1, graph.initial_weights.copy(), graph.transitions.copy(), 0)
    return WeightingScheme(m, table)


def validate(scheme: WeightingScheme) -> dict[str, bool]:
    """Check validity, exhaustiveness and monotonicity of a scheme.

    valid: all weights nonnegative with 0 < sum <= 1 for every subset.
    exhaustive: every subset's weights sum to exactly 1.
    monotone: w_j(J) <= w_j(J') whenever J' is a subset of J; checked on
    immediate-child pairs, which covers all pairs by transitivity.
    All comparisons use a 1e-12 absolute tolerance.
    """
    valid = True
    exhaustive = True
    for _, _, w in scheme.entries():
        total = float(w.sum())
        if np.any(w < -_SUM_TOL) or not _SUM_TOL < total <= 1.0 + _SUM_TOL:
            valid = False
        if abs(total - 1.0) > _SUM_TOL:
            exhaustive = False
    monotone = True
    for mask, mem, w in scheme.entries():
        if len(mem) == 1:
            continue
        pos = {j: idx for idx, j in enumerate(mem)}
        for i in mem:
            child = mask & ~(1 << i)
            cw = scheme.table[child]
            for idx, j in enumerate(members(child)):
                if w[pos[j]] > cw[idx] + _SUM_TOL:
                    monotone = False
                    break
            if not monotone:
                break
        if not monotone:
            break
    return {"valid": valid, "exhaustive": exhaustive, "monotone": monotone}


def rescale_proportional(scheme: WeightingScheme) -> WeightingScheme:
    """Scale each subset's weights to sum to 1, preserving their ratios."""
    table = {}
    for mask, mem, w in scheme.entries():
        total = float(w.sum())
        if not total > 0.0:
            raise InputError(
                f"subset {mem} has zero total weight; cannot rescale proportionally"
            )
        table[mask] = w / total
    return WeightingScheme(scheme.m, table)


def xie_scheme(initial: Sequence[float]) -> WeightingScheme:
    """Scheme fully determined by positive initial weights: w_j(J) = w_j / sum over J."""
    init = np.asarray(initial, dtype=float)
    m = check_m(init.shape[0])
    if not np.all(np.isfinite(init)) or np.any(init <= 0.0):
        raise InputError("initial weights must all be strictly positive")
    table = {}
    for mask in iter_masks(m):
        w = init[list(members(mask))]
        table[mask] = w / w.sum()
    return WeightingScheme(m, table)


def constant_scheme(weights: Sequence[float]) -> WeightingScheme:
    """Scheme that keeps the same weights on every subset (no reallocation).

    Valid whenever the weights are nonnegative with 0 < sum <= 1; not
    exhaustive on proper subsets unless m = 1.
    """
    w0 = np.asarray(weights, dtype=float)
    m = check_m(w0.shape[0])
    if not np.all(np.isfinite(w0)) or np.any(w0 < 0.0) or not w0.sum() > 0.0:
        raise InputError("weights must be nonnegative with a positive sum")
    table = {mask: w0[list(members(mask))] for mask in iter_masks(m)}
    return WeightingScheme(m, table)
