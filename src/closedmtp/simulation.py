"""Monte Carlo check of familywise error control and power.

The procedure's rejection thresholds depend on the weights and alpha but
not on observed p-values, so they are solved once up front; each
replication then reduces to threshold comparisons. A p-value is
computed only where it may reach one of its hypothesis's cutoffs. Two
exact bounds per hypothesis, read once from those thresholds, settle
most replications with a few comparisons per hypothesis; only the
replications they leave open go through the per-hypothesis lookup
tables over every intersection. Each replication's outcome is one
32-bit mask of hypotheses. Replications are drawn in fixed-size chunks
with counter-derived seeds, making the run deterministic for a given
master seed and independent of chunk order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .closure import _check_procedure, decision_thresholds
from .exceptions import InputError
from .intersection import CorrelationModel, _check_seed
from .mvnorm import DEFAULT_ROOT_TOL, DEFAULT_TARGET_ERROR, CorrelationMatrix, as_correlation
from .weighting import WeightingScheme


@dataclass(frozen=True, eq=False)
class SimScenario:
    """A data-generating configuration plus the procedure under test.

    ``generator`` is the true m x m correlation of the test statistics;
    ``model`` is the (possibly coarser) block knowledge the procedure is
    allowed to use. The two are deliberately not checked against each
    other: running a procedure under a misspecified model is a
    legitimate thing to study. Shifts must be exactly zero on true
    nulls, so the null hypotheses hold exactly.
    """

    scheme: WeightingScheme
    model: CorrelationModel
    generator: CorrelationMatrix
    alpha: float
    method: str
    true_nulls: np.ndarray
    mean_shifts: np.ndarray
    replications: int
    master_seed: int = 0

    def __post_init__(self) -> None:
        model, alpha = _check_procedure(self.scheme, self.model, self.alpha, self.method)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "alpha", alpha)
        m = self.scheme.m
        gen = as_correlation(self.generator)
        if gen.dim != m:
            raise InputError(f"generator correlation must be {m} x {m}")
        object.__setattr__(self, "generator", gen)
        # a copy, so freezing it below leaves the caller's array writable
        nulls = np.array(self.true_nulls)
        if nulls.dtype != bool:
            raise InputError("true-null flags must be booleans")
        if nulls.shape != (m,):
            raise InputError(f"need {m} true-null flags, got shape {nulls.shape}")
        shifts = np.asarray(self.mean_shifts, dtype=float)
        if shifts.shape != (m,):
            raise InputError(f"need {m} mean shifts, got shape {shifts.shape}")
        if not np.all(np.isfinite(shifts)) or np.any(shifts < 0.0):
            raise InputError("mean shifts must be finite and nonnegative")
        if np.any(shifts[nulls] != 0.0):
            raise InputError("mean shifts must be exactly zero on true nulls")
        nulls.setflags(write=False)
        shifts = shifts.copy()
        shifts.setflags(write=False)
        object.__setattr__(self, "true_nulls", nulls)
        object.__setattr__(self, "mean_shifts", shifts)
        n = self.replications
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise InputError("replications must be a positive integer")
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "master_seed", _check_seed(self.master_seed, "master_seed"))

    @property
    def m(self) -> int:
        return self.scheme.m


@dataclass(frozen=True, eq=False)
class SimReport:
    """Estimated familywise error rate and per-hypothesis rejection rates."""

    fwer_estimate: float
    fwer_stderr: float
    rejection_rates: np.ndarray
    replications: int


def _chunk_size(m: int) -> int:
    # fixed per m so chunk boundaries never depend on the total count
    return max(256, min(1 << 16, (1 << 24) >> m))


# masks per tile of lookup tables: a whole number of sub-tiles, and few
# enough that a chunk's two buffers of the tile's words take 1 KB per
# replication; only one tile's tables are held at a time
_TILE = 1 << 12

# masks per sub-tile: a sub-tile's table row is 8 words, one 64-byte
# line, and a rank's row of the tile is gathered from one row per sub-tile
_SUB_TILE = 1 << 9

# a step in z far beyond the rounding of ndtri and ndtr (_pvalues_within_reach)
_REACH_BAND = 1e-7


def _tile_tables(levels: np.ndarray, start: int, stop: int) -> list[tuple]:
    """Lookup tables of the masks [start, stop), one per hypothesis with a
    positive cutoff among them: (j, keys, index, rows).

    ``keys`` are j's negated positive cutoffs in ascending order, so
    K = searchsorted(keys, -p, "right") counts the cutoffs t with p <= t.
    The masks p fires are the K with the largest cutoffs. Their bits are
    stored per sub-tile of _SUB_TILE masks (one sub-tile when the tile
    holds fewer): ``rows`` holds, sub-tile after sub-tile, one row for
    each count of the sub-tile's masks fired, from none up, each the OR
    of the previous row and the next mask's bit. Row index[K, s] is
    sub-tile s's row at rank K, so rows[index[K]] laid end to end is
    the tile's row at rank K, in which mask start + b is bit b % 64 of
    word b // 64.
    """
    n_words = -(-(stop - start) // 64)
    sub_words = min(n_words, _SUB_TILE // 64)
    n_subs = n_words // sub_words
    tables = []
    for j, cut in enumerate(levels[:, start:stop]):
        bits = np.flatnonzero(cut > 0.0)
        if bits.size == 0:
            continue
        order = bits[np.argsort(-cut[bits])]
        # rank r adds the mask order[r - 1] to sub-tile sub[r - 1]
        ranks = np.arange(1, order.size + 1)
        sub = order // _SUB_TILE
        index = np.zeros((order.size + 1, n_subs), dtype=np.int32)
        index[ranks, sub] = 1
        np.cumsum(index, axis=0, out=index)
        # each sub-tile's rows start at its row of no mask fired
        sizes = index[-1] + 1
        firsts = np.cumsum(sizes) - sizes
        index += firsts
        rows = np.zeros((sizes.sum(), sub_words), dtype=np.uint64)
        rows[index[ranks, sub], (order >> 6) % sub_words] = np.left_shift(
            np.uint64(1), (order & 63).astype(np.uint64)
        )
        for first, size in zip(firsts, sizes):
            block = rows[first : first + size]
            np.bitwise_or.accumulate(block, axis=0, out=block)
        tables.append((j, -cut[order], index, rows))
    return tables


def _pvalues_within_reach(neg_z: np.ndarray, top: np.ndarray) -> np.ndarray:
    """p = ndtr(neg_z) for the entries of row j that may reach top_j, j's
    largest positive cutoff (``top`` is a column), and +inf for the rest.

    +inf compares like any p above every cutoff of j. For 0 < t <= 1/2,
    ndtri(t) <= 0, where the relative slope phi / Phi of Phi is at least
    0.79, so a step of _REACH_BAND in z raises Phi by a relative 7.9e-8
    or more: far beyond the few ulps by which ndtri and ndtr are off. An
    entry with neg_z > ndtri(t) + _REACH_BAND thus has ndtr(neg_z) > t
    for certain. No entry is needed where j has no positive cutoff, and
    every entry is computed where top_j is above 1/2 or subnormal. ndtr
    is elementwise, so the values computed equal those of a full pass.
    """
    reach = np.where(top > 0.0, np.inf, -np.inf)
    banded = (top >= np.finfo(float).tiny) & (top <= 0.5)
    reach[banded] = ndtri(top[banded]) + _REACH_BAND
    p = np.full(neg_z.shape, np.inf)
    near = np.flatnonzero(neg_z <= reach)
    p.reshape(-1)[near] = ndtr(neg_z.take(near))
    return p


def simulate(
    scenario: SimScenario,
    target_error: float = DEFAULT_TARGET_ERROR,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> SimReport:
    """Estimate FWER (any true null rejected) and rejection rates.

    One-sided p-values p = 1 - Phi(z) are formed from z drawn with the
    generator correlation around the mean shifts; the closed procedure
    is applied through precomputed cutoffs t[J, j], where J fires when
    some member has p_j <= t[J, j] > 0 and H_i is rejected when every
    intersection containing it fired.

    Most replications are decided from two bounds per hypothesis, read
    once from the cutoffs: top_j, j's largest positive cutoff, and
    least_j, its smallest cutoff over the intersections that contain it.
    A hypothesis with p_j > top_j fires nothing, so the intersection
    O_i = {i} plus every such j survives unless H_i fires in it: H_i is
    retained when p_i > t[O_i, i] or that cutoff is not positive, and
    rejected when 0 < least_i and p_i <= least_i, as it then fires in
    every intersection that holds it. Both are exact. Only the
    replications with a hypothesis neither rule decides reach the
    tables below. Most p-values exceed top_j (about three in four in
    the m = 12 benchmark graphs), so ndtr runs only on the entries within
    reach of a cutoff; the rest are certain to exceed top_j and are
    taken as +inf.

    For each hypothesis j, its positive cutoffs are sorted in descending
    order, and j's row at rank K holds the packed bits of the first K
    intersections in that order. Per replication, one binary search
    gives the number K_j of cutoffs at least p_j, and the intersections
    fired are the OR of the m rows at ranks K_j, held as 64-bit words.
    As bit b of word w stands for mask 64 w + b, which hypotheses have a
    surviving intersection is read from the OR of the surviving words
    (i < 6) and from the indices of the words that hold a survivor: the
    masks of word w hold the hypotheses i >= 6 of the mask w << 6.

    The masks are split into tiles of 2^12 with their own tables, and
    the tiles are the outer loop: each tile's tables are built once per
    call and held only during that tile's pass over the chunks, which
    redraws from the chunk's own seed the p-values of each chunk that
    holds an open replication. The first tile's pass also decides by
    the bounds, and no later tile is built once it leaves nothing open.
    Between tiles, only which replications are open and which
    hypotheses have a surviving intersection are kept, the latter as one
    32-bit hypothesis mask.

    A table does not hold a rank's row whole. Its rows are kept per
    sub-tile of 2^9 masks (8 words): one row for each count of the
    sub-tile's masks fired. An index gives, for every rank, the row of
    each sub-tile, and one gather of those rows puts the rank's row
    together. In a full tile of 8 sub-tiles, a positive cutoff thus
    costs one 64-byte row and one 32-byte index row, not a 512-byte row
    of the tile. Beyond the cutoffs themselves, memory is one tile's
    tables, about 96 bytes per positive cutoff in the tile, one chunk's
    buffers of 16 bytes per replication and 64 masks of a tile plus a
    few replication-by-hypothesis arrays, and 4 + 1 bytes per
    replication, for every m.
    """
    m = scenario.m
    n_total = scenario.replications
    thresholds = decision_thresholds(
        scenario.scheme,
        scenario.model,
        scenario.alpha,
        scenario.method,
        scenario.master_seed,
        target_error,
        root_tol,
    )
    # levels[j, mask] is hypothesis j's cutoff in intersection mask; the
    # empty mask 0, non-members and zero-weight members never fire, so
    # every cutoff that is not positive is -inf, which any p exceeds
    levels = np.full((m, 1 << m), -np.inf)
    levels[:, 1:] = thresholds.T
    for cuts in levels:
        cuts[cuts <= 0.0] = -np.inf
    hyps = np.arange(m)
    bits = np.left_shift(1, hyps)
    # a replication's set of hypotheses as one exact float: flags @ pow2
    pow2 = bits.astype(float)
    full = float((1 << m) - 1)
    # per-hypothesis values are columns, as a chunk's p-values are held
    # with one row per hypothesis and one column per replication
    # p_j > top_j fires nothing; -inf where j has no positive cutoff
    top = levels.max(axis=1, keepdims=True)
    # the masks holding j are those with bit j set; -inf where one of
    # them does not fire j at all
    least = np.array([[levels[j].reshape(-1, 2, 1 << j)[:, 1].min()] for j in range(m)])
    # cut[i, n] = levels[i, O_i] is entry (O_i | (i << m)) of levels.ravel()
    flat = levels.ravel()
    own = (bits | hyps << m)[:, None]
    n_words = -(-min(_TILE, 1 << m) // 64)
    sub_words = min(n_words, _SUB_TILE // 64)
    # the masks 0..63 of a word that contain H_i, i < 6 (none of mask 0)
    low = min(m, 6)
    patterns = np.array(
        [sum(1 << b for b in range(min(64, 1 << m)) if b >> i & 1) for i in range(low)],
        dtype=np.uint64,
    )
    lower_t = scenario.generator.cholesky_lower().T
    shifts = scenario.mean_shifts[:, None]
    chunk = _chunk_size(m)
    chunks = [(lo, min(lo + chunk, n_total)) for lo in range(0, n_total, chunk)]
    # one set of buffers for the whole run; the rows a chunk leaves open use a prefix
    fired = np.empty(chunk * n_words, dtype=np.uint64)
    row = np.empty(chunk * n_words, dtype=np.uint64)
    # alive[n]: bit i is set once some intersection containing H_i
    # survived in replication n
    alive = np.zeros(n_total, dtype=np.uint32)
    # pending[n]: the bounds leave some hypothesis of replication n open
    pending = np.zeros(n_total, dtype=bool)
    for start in range(0, 1 << m, _TILE):
        # the first tile decides by the bounds; later ones are needed only
        # while a replication is left open
        if start and not pending.any():
            break
        tables = _tile_tables(levels, start, min(start + _TILE, 1 << m))
        # the hypotheses i >= 6 held by the masks of the tile's word w
        held_by_word = ((start >> 6) + np.arange(n_words, dtype=np.uint64)) << np.uint64(6)
        for chunk_index, (lo, hi) in enumerate(chunks):
            # later tiles redraw only the chunks with a replication left open
            if start and not pending[lo:hi].any():
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=scenario.master_seed, spawn_key=(chunk_index,)
                )
            )
            # -z by hypothesis, bit for bit, as negation commutes with rounding
            z = rng.standard_normal((hi - lo, m)) @ lower_t
            neg_z = np.negative(z.T, out=np.empty((m, hi - lo)))
            del z
            neg_z -= shifts
            if start == 0:
                p = _pvalues_within_reach(neg_z, top)
                # O_i survives unless H_i fires in it; held retains H_i
                # and sure rejects it
                outside = (pow2 @ (p > top)).astype(np.int64)
                cut = flat.take(outside | own)
                held = pow2 @ (p > cut)
                sure = pow2 @ (p <= least)
                alive[lo:hi] = held
                pending[lo:hi] = (held + sure) != full
            todo = np.flatnonzero(pending[lo:hi])
            n_c = todo.size
            if n_c == 0:
                continue
            if start:
                p = _pvalues_within_reach(neg_z[:, todo], top)
            else:
                p = p[:, todo]
            neg_p = -p
            f = fired[: n_c * n_words].reshape(n_c, n_words)
            g = row[: n_c * n_words].reshape(n_c, n_words)
            # g's words sub-tile by sub-tile, as the tables' rows hold them
            parts = g.reshape(n_c, -1, sub_words)
            f.fill(0)
            for j, keys, index, rows in tables:
                k = np.searchsorted(keys, neg_p[j], side="right")
                # every row index is in range; "clip" lets take write into
                # g unbuffered
                np.take(rows, index.take(k, axis=0), axis=0, out=parts, mode="clip")
                f |= g
            survived = np.invert(f, out=f)
            # the hypotheses with a surviving intersection in the tile
            a = ((np.bitwise_or.reduce(survived, axis=1)[:, None] & patterns) != 0).astype(float)
            a = (a @ pow2[:low]).astype(np.uint64)
            a |= np.bitwise_or.reduce((survived != 0) * held_by_word, axis=1)
            alive[lo + todo] |= a.astype(np.uint32)
        # free this tile's tables before the next tile's are built
        del tables
    # H_i is rejected when no intersection containing it survived
    masks = bits.astype(np.uint32)
    reject_counts = n_total - np.array([np.count_nonzero(alive & b) for b in masks])
    null_bits = masks[scenario.true_nulls].sum(dtype=np.uint32)
    fwer_count = np.count_nonzero((alive & null_bits) != null_bits)
    fwer = fwer_count / n_total
    stderr = float(np.sqrt(fwer * (1.0 - fwer) / n_total))
    rates = reject_counts / n_total
    rates.setflags(write=False)
    return SimReport(
        fwer_estimate=float(fwer),
        fwer_stderr=stderr,
        rejection_rates=rates,
        replications=n_total,
    )
