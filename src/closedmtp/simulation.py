"""Monte Carlo check of familywise error control and power.

The procedure's rejection thresholds depend on the weights and alpha but
not on observed p-values, so they are solved once up front; each
replication then reduces to threshold comparisons. Two exact bounds per
hypothesis, read once from those thresholds, settle most replications
with a few comparisons per hypothesis; only the replications they leave
open go through the per-hypothesis lookup tables over every
intersection. Replications are drawn in fixed-size chunks with
counter-derived seeds, making the run deterministic for a given master
seed and independent of chunk order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

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
        nulls = np.asarray(self.true_nulls, dtype=bool)
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


# masks per tile of lookup tables: a multiple of 64, so a tile starts on a
# word boundary, and small enough that a table row is at most 512 bytes
_TILE = 1 << 12


def _tile_tables(levels: np.ndarray, start: int, stop: int) -> list[tuple]:
    """Lookup tables of the masks [start, stop), one per hypothesis with a
    positive cutoff among them: (j, keys, table).

    ``keys`` are j's negated positive cutoffs in ascending order, so
    K = searchsorted(keys, -p, "right") counts the cutoffs t with p <= t.
    Row K of ``table`` holds the bits of the K masks with the largest
    cutoffs, which are exactly the intersections p fires; mask
    start + b is bit b % 64 of word b // 64.
    """
    n_words = -(-(stop - start) // 64)
    tables = []
    for j, cut in enumerate(levels[:, start:stop]):
        bits = np.flatnonzero(cut > 0.0)
        if bits.size == 0:
            continue
        order = bits[np.argsort(-cut[bits])]
        table = np.zeros((order.size + 1, n_words), dtype=np.uint64)
        table[np.arange(1, order.size + 1), order >> 6] = np.left_shift(
            np.uint64(1), (order & 63).astype(np.uint64)
        )
        np.bitwise_or.accumulate(table, axis=0, out=table)
        tables.append((j, -cut[order], table))
    return tables


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
    tables below.

    For each hypothesis j, its positive cutoffs are sorted in descending
    order, and row K of j's table holds the packed bits of the first K
    intersections in that order. Per replication, one binary search
    gives the number K_j of cutoffs at least p_j, and the intersections
    fired are the OR of the m rows table_j[K_j], held as 64-bit words.
    As bit b of word w stands for mask 64 w + b, which hypotheses have a
    surviving intersection is read from the OR of the surviving words
    (i < 6) and from which words hold a survivor (i >= 6).

    The masks are split into tiles of 2^12 with their own tables, and
    the tiles are the outer loop: each tile's tables are built once per
    call and held only during that tile's pass over the chunks, which
    redraws from the chunk's own seed the p-values of each chunk that
    holds an open replication. The first tile's pass also decides by
    the bounds. Between tiles, only which replications are open and
    which hypotheses have a surviving intersection are kept, the latter
    as packed bits. Beyond the cutoffs themselves, memory is thus one
    tile's tables, one chunk's buffers of 16 bytes per replication and
    64 masks of a tile plus a few replication-by-hypothesis arrays, and
    ceil(m / 8) + 1 bytes per replication, for every m.
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
    # empty mask 0, non-members (-1) and zero-weight members (0) never
    # fire, so only positive cutoffs enter the tables
    levels = np.full((m, 1 << m), -1.0)
    levels[:, 1:] = thresholds.T
    hyps = np.arange(m)
    bits = np.left_shift(1, hyps)
    # p_j > top_j fires nothing; -1 where j has no positive cutoff
    top = levels.max(axis=1)
    top[top <= 0.0] = -1.0
    # the masks holding j are those with bit j set
    least = np.array([levels[j].reshape(-1, 2, 1 << j)[:, 1].min() for j in range(m)])
    n_words = -(-min(_TILE, 1 << m) // 64)
    # the masks 0..63 of a word that contain H_i, i < 6 (none of mask 0)
    low = min(m, 6)
    patterns = np.array(
        [sum(1 << b for b in range(min(64, 1 << m)) if b >> i & 1) for i in range(low)],
        dtype=np.uint64,
    )
    lower = scenario.generator.cholesky_lower()
    chunk = _chunk_size(m)
    chunks = [(lo, min(lo + chunk, n_total)) for lo in range(0, n_total, chunk)]
    # one set of buffers for the whole run; the rows a chunk leaves open use a prefix
    fired = np.empty(chunk * n_words, dtype=np.uint64)
    row = np.empty(chunk * n_words, dtype=np.uint64)
    hit = np.empty((chunk, m), dtype=bool)
    # alive[n]: H_i's bit (np.packbits order) is set once some
    # intersection containing H_i survived in replication n
    alive = np.zeros((n_total, -(-m // 8)), dtype=np.uint8)
    # pending[n]: the bounds leave some hypothesis of replication n open
    pending = np.zeros(n_total, dtype=bool)
    for start in range(0, 1 << m, _TILE):
        tables = _tile_tables(levels, start, min(start + _TILE, 1 << m))
        # has[w, i - 6]: the masks of the tile's word w contain H_i
        words = (start >> 6) + np.arange(n_words)
        has = (words[:, None] >> np.arange(m - 6) & 1).astype(np.float32)
        for chunk_index, (lo, hi) in enumerate(chunks):
            # the first tile decides by the bounds; later ones redraw only
            # the chunks with a replication left open
            if start and not pending[lo:hi].any():
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=scenario.master_seed, spawn_key=(chunk_index,)
                )
            )
            z = rng.standard_normal((hi - lo, m)) @ lower.T + scenario.mean_shifts
            p = ndtr(-z)
            if start == 0:
                # cut[n, i] = t[O_i, i]: O_i survives unless H_i fires in it
                outside = (p > top) @ bits
                cut = levels[hyps, outside[:, None] | bits]
                held = (p > cut) | (cut <= 0.0)
                alive[lo:hi] = np.packbits(held, axis=1)
                sure = (p <= least) & (least > 0.0)
                pending[lo:hi] = ~(held | sure).all(axis=1)
            todo = np.flatnonzero(pending[lo:hi])
            n_c = todo.size
            if n_c == 0:
                continue
            neg_p = np.ascontiguousarray(-p[todo].T)
            f = fired[: n_c * n_words].reshape(n_c, n_words)
            g = row[: n_c * n_words].reshape(n_c, n_words)
            f.fill(0)
            for j, keys, table in tables:
                k = np.searchsorted(keys, neg_p[j], side="right")
                # K is always in range; "clip" lets take write into g unbuffered
                np.take(table, k, axis=0, out=g, mode="clip")
                f |= g
            survived = np.invert(f, out=f)
            # a[n, i]: some intersection of the tile containing H_i survived
            a = hit[:n_c]
            a[:, :low] = (np.bitwise_or.reduce(survived, axis=1)[:, None] & patterns) != 0
            a[:, 6:] = (survived != 0).astype(np.float32) @ has > 0.0
            alive[lo + todo] |= np.packbits(a, axis=1)
        # free this tile's tables before the next tile's are built
        del tables
    reject_counts = np.zeros(m, dtype=np.int64)
    fwer_count = 0
    nulls = scenario.true_nulls
    for lo, hi in chunks:
        # H_i is rejected when no intersection containing it survived
        rej = np.unpackbits(alive[lo:hi], axis=1, count=m) == 0
        reject_counts += rej.sum(axis=0)
        fwer_count += int(rej[:, nulls].any(axis=1).sum())
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
