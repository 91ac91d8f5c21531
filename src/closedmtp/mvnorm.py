"""Normal-distribution numerics underlying every test in the package.

Every intersection test needs one probability: the union of one-sided
events P(P_j <= u_j for some j), with P_j = 1 - Phi(Z_j), which is one
minus the orthant probability P(Z_j <= -Phi^-1(u_j) for all j). It takes
one of three paths. One or two events are a closed form, the pair by
Owen's T function. Three to six are exact up to a quadrature error, by
Plackett's (1954) reduction of the orthant to bivariate densities times
orthants of two dimensions fewer, integrated along a path by
Gauss-Legendre graded toward its end, where a pair correlated near +-1
bends sharply. Three take the symmetric path from independence, every
pair moving; four to six move only the correlations of one pivot, a
member of the most correlated pair, from the orthant of the others (as
Genz 2004 does for three), so a level needs k - 1 pairs, not
k (k - 1) / 2. Dimension 7 and above, and a near-singular correlation
whose quadrature misses its target, estimate the orthant by
separation-of-variables quasi-Monte Carlo in the style of Genz (1992):
Cholesky factorization with greedy variable reordering,
digitally shifted Sobol' points, and an error estimate from independent
randomizations. The Sobol' points are generated here from the Joe & Kuo
(2008) direction numbers, the set scipy.stats.qmc.Sobol uses, so no
module imports scipy.stats. Every result carries an absolute-error
bound; estimates are bit-reproducible for a fixed seed.

``UnionRule`` keeps one integration rule fixed while a root solve moves
the thresholds, so the union probability becomes a deterministic,
continuous function of them (Genz & Bretz 2009, section 5).
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

from .exceptions import BracketError, InputError, NumericError
from .subsets import MAX_HYPOTHESES

DEFAULT_TARGET_ERROR = 1e-6
DEFAULT_ROOT_TOL = 1e-6
# per-randomization Sobol' cap; one estimate uses at most _SHIFTS times this
DEFAULT_MAX_POINTS = 1 << 16
# highest dimension computed exactly rather than by QMC
MAX_EXACT_DIM = 6

_SHIFTS = 10
_START_POINTS = 1 << 11
# base points per block of a kernel pass, across all shifts
_BLOCK = 1 << 10
_PSD_TOL = 1e-10
_TWO32 = float(1 << 32)
_U64 = (1 << 64) - 1
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
# Owen's-T based paths are good to ~1e-14; reported with margin
_EXACT_ERROR = 1e-13
# Plackett's reduction: node counts, each twice the one before; a fit
# tries the counts after the first in turn, each value's error the gap to
# the value at the count before it. Above three dimensions the ladder
# stops at 32 nodes.
_LADDER = (8, 16, 32, 64, 128, 256)
# the one-variable step: a conditional variance at or below _FIXED_VAR is
# a variable fixed by the pivot's partner (a +-1 pair off the pivot); it
# leaves its correlations and takes the bound +-_FAR, where ndtr is 0 or 1
# exactly, unless its fixed value is within _FAR * sqrt(_FIXED_VAR) of its
# bound: a tie, NaN, which sends the fit to QMC
_FIXED_VAR = 1e-14
_FAR = 40.0
# problems (columns) per _orthant call of a batched fit: at six events and
# 16 nodes a column's arrays take about 1 MB, at five about 0.3 MB
_FIT_COLUMNS = 16


@functools.lru_cache(maxsize=None)
def _graded_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre's n nodes s and weights on [0, 1], graded toward
    t = 1 by t = 1 - (1 - s)^2, dt = 2 (1 - s) ds: a pair's rate along t
    carries 1 / sqrt(1 - t^2 rho^2), which bends sharply at t = 1 when
    |rho| nears 1 (and is singular at |rho| = 1), and in s it is smooth.
    Built on first use, read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (x + 1.0)
    nodes, weights = 1.0 - (1.0 - s) ** 2, (1.0 - s) * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _pivot_table(k: int) -> tuple:
    """The pairs of k variables; per pivot p, the order of the variables
    that puts p first; the pairs (0, j) of pivot 0, j = 1..k-1, and the
    other k - 2 variables beside each, as a (k-2, k-1) array; and the
    pairs (a, c) among those k - 2."""
    partners = np.arange(1, k)
    orders = np.array([[p] + [o for o in range(k) if o != p] for p in range(k)])
    rest = np.array([[o for o in partners if o != j] for j in partners]).T
    pivot_pairs = (np.zeros(k - 1, dtype=int), partners)
    return (np.triu_indices(k, 1), orders, pivot_pairs, rest, *np.triu_indices(k - 2, 1))


# the pairs of three variables and the third variable of each
_TRIPLE = (*np.triu_indices(3, 1), np.array([2, 1, 0]))
_PIVOT_TABLES = {k: _pivot_table(k) for k in range(4, MAX_EXACT_DIM + 1)}


@functools.lru_cache(maxsize=None)
def _rule_layout(counts: tuple[int, ...]) -> tuple[np.ndarray, tuple[slice, ...], np.ndarray]:
    """The graded nodes of every count in ``counts`` one after another,
    each count's slice of them, and a row of weights per count, zero off
    that count's nodes."""
    x = np.concatenate([_graded_rule(n)[0] for n in counts])
    segments = tuple(slice(end - n, end) for n, end in zip(counts, np.cumsum(counts).tolist()))
    weights = np.zeros((len(counts), x.size))
    for row, (n, seg) in enumerate(zip(counts, segments)):
        weights[row, seg] = _graded_rule(n)[1]
    x.setflags(write=False)
    weights.setflags(write=False)
    return x, segments, weights


@dataclass(frozen=True)
class ProbEstimate:
    """Probability estimate with an absolute-error bound.

    ``error`` is 0 for a single event, 1e-13 (the Owen's-T rounding
    margin) for a pair, for three to six events the gap between
    Plackett's reduction at the rule's node count and at half as many (at
    least 1e-13; the symmetric step at three, the one-variable step about
    a pivot above), and roughly a 3-sigma bound for quasi-Monte Carlo
    paths.
    """

    value: float
    error: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise NumericError(f"probability estimate {self.value} outside [0, 1]")
        if not self.error >= 0.0:
            raise NumericError(f"error bound must be nonnegative, got {self.error}")


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Validated correlation matrix: symmetric, unit diagonal, PSD.

    Entries are snapped to exact symmetry and clipped to [-1, 1] after
    validation; eigenvalues may undershoot zero by at most 1e-10.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
            raise InputError("correlation matrix must be square and nonempty")
        if not np.all(np.isfinite(v)):
            raise InputError("correlation entries must be finite")
        if np.abs(v - v.T).max() > 1e-10:
            raise InputError("correlation matrix must be symmetric")
        if np.abs(np.diag(v) - 1.0).max() > 1e-10:
            raise InputError("correlation diagonal must equal 1")
        if np.abs(v).max() > 1.0 + 1e-12:
            raise InputError("correlation entries must lie in [-1, 1]")
        v = np.clip((v + v.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(v, 1.0)
        if v.shape[0] > 2:
            low = float(np.linalg.eigvalsh(v)[0])
            if low < -_PSD_TOL:
                raise InputError(
                    f"correlation matrix is not positive semidefinite "
                    f"(smallest eigenvalue {low:.3e})"
                )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def submatrix(self, indices: Sequence[int]) -> "CorrelationMatrix":
        """The principal submatrix on ``indices``, not validated again: it
        keeps symmetry, the unit diagonal, the entry range and (by Cauchy
        interlacing) PSD, so the checks could never reject it."""
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise InputError("correlation matrix must be square and nonempty")
        v = self.values[np.ix_(idx, idx)]
        v.setflags(write=False)
        sub = object.__new__(CorrelationMatrix)
        object.__setattr__(sub, "values", v)
        return sub

    def cholesky_lower(self) -> np.ndarray:
        """Lower Cholesky factor, jittering the diagonal for marginal PSD failures."""
        eye = np.eye(self.dim)
        for lam in (0.0, 1e-14, 1e-12, 1e-10):
            try:
                return np.linalg.cholesky((1.0 - lam) * self.values + lam * eye)
            except np.linalg.LinAlgError:
                continue
        raise NumericError("correlation matrix failed Cholesky factorization beyond repairable tolerance")


def as_correlation(corr) -> CorrelationMatrix:
    if isinstance(corr, CorrelationMatrix):
        return corr
    return CorrelationMatrix(np.asarray(corr, dtype=float))


def _bvn(h: np.ndarray, k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """P(X <= h, Y <= k) for standard bivariate normals, elementwise, each
    pair with its own correlation rho in [-1, 1]; bounds are finite.

    rho = +-1 and 0 are closed forms; otherwise Owen's T gives
    (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - [hk < 0] / 2, clipped
    to [0, 1], with the zero-bound forms Phi(k) / 2 - T(k, -rho / s) (and
    its mirror) and 1/4 + asin(rho) / 2pi at h = k = 0.
    """
    nh, nk = ndtr(h), ndtr(k)
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    hk = h * k
    # a zero bound or rho = +-1 (s = 0) makes a term below infinite or
    # NaN; those entries take their own forms after it
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (
            0.5 * (nh + nk) - owens_t(h, (k - rho * h) / (h * s)) - owens_t(k, (h - rho * k) / (k * s))
            - 0.5 * (hk < 0.0)
        )
        # min(1, max(0, p)); the zero-bound forms are not clipped
        p = np.minimum(np.maximum(p, 0.0), 1.0)
        if np.count_nonzero(hk) < hk.size:
            hz, kz = h == 0.0, k == 0.0
            p[hz] = 0.5 * nk[hz] - owens_t(k[hz], -rho[hz] / s[hz])
            p[kz] = 0.5 * nh[kz] - owens_t(h[kz], -rho[kz] / s[kz])
            both = hz & kz
            p[both] = [0.25 + math.asin(x) / (2.0 * math.pi) for x in rho[both]]
    one, minus, zero = rho == 1.0, rho == -1.0, rho == 0.0
    if np.count_nonzero(one | minus | zero):
        p[one] = ndtr(np.minimum(h[one], k[one]))
        low = nh[minus] + nk[minus] - 1.0
        p[minus] = np.maximum(low, 0.0)
        p[zero] = nh[zero] * nk[zero]
    return p


def _pair_unions(u: np.ndarray, v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The union of two events at thresholds u and v in (0, 1) and
    correlation rho, elementwise: u + v minus the bivariate orthant,
    clipped to [0, 1]; each entry the float a ``UnionRule`` gives that pair."""
    union = (u + v) - _bvn(ndtri(u), ndtri(v), rho)
    return np.minimum(np.maximum(union, 0.0), 1.0)


def _closed_form_union(u: np.ndarray, corr: np.ndarray) -> ProbEstimate:
    """The union of one or two events at thresholds in [0, 1); a zero
    threshold is a zero-probability event. Two events carry the Owen's-T
    rounding margin."""
    if u.size == 1:
        return ProbEstimate(float(u[0]), 0.0)
    union = _pair_unions(u[:1], u[1:], corr[0, 1:])[0] if u.all() else u.sum()
    return ProbEstimate(float(union), _EXACT_ERROR)


def _orthant(b: np.ndarray, corr: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """P(Z <= b[:, n]) for Z ~ N(0, corr[:, :, n]), per column n of the
    bounds b (k, N) and correlations corr (k, k, N), one row per node
    count in ``counts``, by Plackett's (1954, Biometrika 41:351)
    reduction: along a path R(t) from a correlation whose orthant is
    known to R, the orthant moves at rate sum over pairs (i, j) of
    dR_ij/dt phi_2(b_i, b_j; R_ij(t)) Phi_(k-2)(b', C), where b' and C
    are the standardized bounds and correlation of the other k - 2
    variables given Z_i = b_i and Z_j = b_j under R(t).

    Three variables take the symmetric step: R(t) = (1 - t) I + t R from
    the product of the Phi(b_i), every pair moving. Four to six take the
    one-variable step (Genz 2004, Stat. Comput. 14:251, in any
    dimension): a pivot p, the first member of the problem's most
    correlated pair, is moved to the front, and only its correlations
    move, R(t) = R0 + t (R - R0) with R0 = blockdiag(1, R_rest), so the
    start is Phi(b_p) Phi_(k-1)(b_rest; R_rest) and the rate sums the
    k - 1 pairs (p, j) only. A +-1 pair off the pivot fixes a variable
    given its partner (see _FIXED_VAR).

    The rate is integrated on each count's graded Gauss-Legendre rule
    (``_graded_rule``), the nodes of all counts in one array pass;
    every Phi_(k-2) over all problems, pairs and one count's nodes, and
    the start term over all counts, is one call of this function, down
    to Phi_1 (ndtr) or the bivariate (``_bvn``). The problems stay on the
    last axis of every array, so each step is one numpy call over all of
    them. The pivot's correlations are below 1 in size for t < 1, so a
    pair at +-1 through the pivot shows only as a rate that grows like
    1 / sqrt(1 - t), which the grading absorbs.

    Every step is elementwise or sums in a fixed order (the nodes one
    after another, then the pairs), so a column's floats do not depend on
    the other columns or their number: a batch gives each problem what
    it gets alone.
    """
    k = b.shape[0]
    if k < 3:
        value = ndtr(b[0]) if k == 1 else _bvn(b[0], b[1], corr[0, 1])
        return np.broadcast_to(value, (len(counts), value.size))
    x, segments, weights = _rule_layout(tuple(counts))
    # the pairs (i, j) whose correlation moves: every pair of three
    # variables, or the pivot's k - 1 pairs, after each problem's pivot,
    # the first member of its most correlated pair, is moved to the front
    if k == 3:
        i, j, o = _TRIPLE
    else:
        pairs, orders, (i, j), rest, a, c = _PIVOT_TABLES[k]
        pivot = pairs[0][np.abs(corr[pairs]).argmax(axis=0)]
        if pivot.any():
            order = orders[pivot].T
            col = np.arange(b.shape[1])
            b, corr = b[order, col], corr[order[:, None], order, col]
    # (nodes, pairs, N)
    t = x[:, None, None]
    rho = corr[i, j]
    r = t * rho
    s2 = (1.0 - r) * (1.0 + r)
    bi, bj = b[i], b[j]
    density = np.exp(-0.5 * (bi * bi - 2.0 * r * bi * bj + bj * bj) / s2) / (2.0 * math.pi * np.sqrt(s2))
    if k == 3:
        # the third variable's correlations with Z_i and Z_j, and its
        # regression on (Z_i, Z_j) under R(t)
        ri, rj = corr[o, i], corr[o, j]
        q = t / s2
        gi, gj = q * (ri - r * rj), q * (rj - r * ri)
        sd = np.sqrt(1.0 - t * (gi * ri + gj * rj))
        given = ndtr((b[o] - gi * bi - gj * bj) / sd)
        start = np.prod(ndtr(b), axis=0)
    else:
        # the others' correlations with the pivot Z_i, which move, and with
        # Z_j, which do not, and their regression on (Z_i, Z_j) under R(t):
        # (k-2, nodes, pairs, N)
        ri, rj = t * corr[i, rest][:, None], corr[rest, j][:, None]
        gi, gj = (ri - r * rj) / s2, (rj - r * ri) / s2
        var = 1.0 - (gi * ri + gj * rj)
        above = b[rest][:, None] - gi * bi - gj * bj
        cov = corr[rest[a], rest[c]][:, None] - gi[a] * ri[c] - gj[a] * rj[c]
        fixed = var <= _FIXED_VAR
        if fixed.any():
            # see _FIXED_VAR
            tie = fixed & (np.abs(above) <= _FAR * math.sqrt(_FIXED_VAR))
            above = np.where(fixed, np.copysign(_FAR, above), above)
            above[tie] = np.nan
            var = np.where(fixed, 1.0, var)
            cov = np.where(fixed[a] | fixed[c], 0.0, cov)
        sd = np.sqrt(var)
        bounds = above / sd
        cond = np.clip(cov / (sd[a] * sd[c]), -1.0, 1.0)
        if k == 4:
            given = _bvn(bounds[0], bounds[1], cond[0])
        else:
            m = k - 2
            full = np.ones((m, m) + bounds.shape[1:])
            full[a, c] = full[c, a] = cond
            given = np.concatenate([
                _orthant(bounds[:, seg].reshape(m, -1), full[:, :, seg].reshape(m, m, -1), (n,)).reshape(
                    (n,) + bounds.shape[2:]
                )
                for n, seg in zip(counts, segments)
            ])
        start = ndtr(b[0]) * _orthant(b[1:], corr[1:, 1:], counts)
    rate = density * given
    # not a matrix product, whose order of summation depends on the width
    steps = (weights[:, :, None] * rate.reshape(x.size, -1)).sum(axis=1)
    return start + (rho * steps.reshape((len(counts),) + rate.shape[1:])).sum(axis=1)


def _kept(u: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """Per column of thresholds u (k, N) and correlations corr (k, k, N),
    the events that add to the union: those with a threshold above zero
    and, above three events, not inside the event of a partner correlated
    at +1 (a threshold at most the partner's, the later of two equal
    ones). The one-variable step would meet such a pair off its pivot as
    a variable fixed by the other, and at equal thresholds as a tie."""
    keep = u > 0.0
    if len(u) > 3:
        pairs = _PIVOT_TABLES[len(u)][0]
        one = corr[pairs] == 1.0
        for p in np.flatnonzero(one.any(axis=1)).tolist():
            i, j = pairs[0][p], pairs[1][p]
            inner = u[j] <= u[i]
            keep[j] &= ~(one[p] & inner)
            keep[i] &= ~(one[p] & ~inner)
    return keep


def _plackett_unions(u: np.ndarray, corr: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """The union at thresholds in [0, 1) from ``_orthant``, one value per
    node count in ``counts``, over the events ``_kept`` keeps."""
    keep = _kept(u[:, None], corr[:, :, None])[:, 0]
    if not keep.all():
        u, corr = u[keep], corr[keep][:, keep]
    if u.size == 0:
        return np.zeros(len(counts))
    return 1.0 - _orthant(-ndtri(u)[:, None], corr[:, :, None], counts)[:, 0]


def _plackett_estimate(fine: float, coarse: float) -> ProbEstimate:
    """The union at some node count, its error the gap to the value at half
    as many, at least _EXACT_ERROR."""
    return ProbEstimate(min(1.0, max(0.0, fine)), max(abs(fine - coarse), _EXACT_ERROR))


def _unions(b: np.ndarray, corr: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """1 - ``_orthant``, per node count and column, at most _FIT_COLUMNS
    columns to a call."""
    if b.shape[1] <= _FIT_COLUMNS:
        return 1.0 - _orthant(b, corr, counts)
    return 1.0 - np.concatenate([
        _orthant(b[:, s : s + _FIT_COLUMNS], corr[:, :, s : s + _FIT_COLUMNS], counts)
        for s in range(0, b.shape[1], _FIT_COLUMNS)
    ], axis=1)


def _kept_events(b: np.ndarray, corr: np.ndarray, keep: np.ndarray, cols: np.ndarray, d: int):
    """The bounds (d, N) and correlations (d, d, N) of the columns ``cols``
    of b (k, .) and corr (k, k, .), each column's d events that ``keep``
    marks, in order."""
    bd, cd = b[:, cols], corr[:, :, cols]
    if d < len(b):
        idx, col = np.argsort(~keep[:, cols], axis=0, kind="stable")[:d], np.arange(cols.size)
        bd, cd = bd[idx, col], cd[idx[:, None], idx, col]
    return bd, cd


def _plackett_values(u: np.ndarray, corr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The union per column of thresholds u (k, N) in [0, 1], k =
    3..MAX_EXACT_DIM, and correlations corr (k, k, N), by Plackett's
    reduction at the column's node count in ``nodes`` alone, over the
    events ``_kept`` keeps, clipped to [0, 1] as ``_plackett_estimate``
    clips it; 1 where a threshold is 1. The columns that keep as many
    events at one count take one ``_unions`` pass, so each column gets
    the value a ``UnionRule`` fitted to its count gives it alone."""
    value = np.ones(u.shape[1])
    keep = _kept(u, corr)
    # a threshold of 1 makes the union certain: the column keeps its 1
    sizes = np.where((u == 1.0).any(axis=0), -1, keep.sum(axis=0))
    value[sizes == 0] = 0.0
    b = -ndtri(u)
    for d, n in sorted(set(zip(sizes.tolist(), nodes.tolist()))):
        if d > 0:
            cols = np.flatnonzero((sizes == d) & (nodes == n))
            fine = _unions(*_kept_events(b, corr, keep, cols, d), (n,))[0]
            # fmax and fmin, as Python's max and min, take NaN to 0
            value[cols] = np.fmin(1.0, np.fmax(fine, 0.0))
    return value


def _plackett_fits(u: np.ndarray, corr: np.ndarray, target_error: float) -> tuple[np.ndarray, ...]:
    """(values, errors, node counts) of Plackett's reduction for every
    column of thresholds u (k, N) in (0, 1), k = 3..MAX_EXACT_DIM, and
    correlations corr (k, k, N), over the events ``_kept`` keeps: the
    value at the first node count of the dimension's ladder past the
    coarsest whose value lies within a tolerance of the value at the
    count before it (half as many), clipped to [0, 1], its error that gap
    (at least _EXACT_ERROR). The tolerance is max(target_error,
    _EXACT_ERROR) above three events. A trivariate pass costs about the
    same at any count, so at three the ladder runs to 256 nodes, the
    first pass evaluates 8, 16 and 32 at once, and a fit takes the first
    count within _EXACT_ERROR, or else the top count if that is within
    max(target_error, _EXACT_ERROR). The count is 0 and the value NaN
    where no count qualifies or a value is not finite.

    The columns that keep the same number of events take each ladder
    step together, one ``_unions`` pass over those still open, so each
    column gets the floats it gets alone (``_orthant`` is batch-invariant).
    """
    k, n = u.shape
    loose = max(target_error, _EXACT_ERROR)
    if k == 3:
        ladder, tol, first = _LADDER, _EXACT_ERROR, 3
    else:
        ladder, tol, first = _LADDER[:3], loose, 2
    value, error, nodes = np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=int)
    keep = _kept(u, corr)
    sizes = keep.sum(axis=0)
    b = -ndtri(u)
    for d in sorted(set(sizes.tolist())):
        cols = np.flatnonzero(sizes == d)
        bd, cd = _kept_events(b, corr, keep, cols, d)
        steps = np.empty((len(ladder), cols.size))
        steps[:first] = _unions(bd, cd, ladder[:first])
        live = np.arange(cols.size)
        for i in range(1, len(ladder)):
            if i >= first:
                steps[i, live] = _unions(bd[:, live], cd[:, :, live], ladder[i : i + 1])[0]
            gap = np.abs(steps[i, live] - steps[i - 1, live])
            done = (gap <= tol) | ((i == len(ladder) - 1) & (gap <= loose))
            at, out = live[done], cols[live[done]]
            value[out] = np.minimum(1.0, np.maximum(0.0, steps[i, at]))
            error[out] = np.maximum(gap[done], _EXACT_ERROR)
            nodes[out] = ladder[i]
            live = live[~done]
            if live.size == 0:
                break
    return value, error, nodes


def _plackett_fit(u: np.ndarray, corr: np.ndarray, target_error: float) -> tuple[ProbEstimate, int] | None:
    """(estimate, node count) of ``_plackett_fits`` on one problem; None
    where it has no count."""
    value, error, nodes = _plackett_fits(u[:, None], corr[:, :, None], target_error)
    if not nodes[0]:
        return None
    return ProbEstimate(float(value[0]), float(error[0])), int(nodes[0])


# Joe & Kuo (2008, SIAM J. Sci. Comput. 30:2635): (primitive polynomial,
# initial direction integers m_1..m_deg) of Sobol' coordinates 1 to 18,
# enough for the k - 1 <= 19 coordinates of a MAX_HYPOTHESES-dimensional
# orthant; coordinate 0 is the van der Corput sequence (every m_j = 1)
_SOBOL_DIRECTIONS = (
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
)
# bits per Sobol' coordinate, so at most 2^30 points
_SOBOL_BITS = 30

_sobol_lock = threading.Lock()
_sobol_ints = np.zeros((0, 0), dtype=np.uint32)


def _direction_numbers(coord: int) -> list[int]:
    """The 30-bit direction integers v_j = m_j 2^(30-j), j = 1..30, of
    Sobol' coordinate ``coord``, the m_j past the initial ones from the
    polynomial's recurrence (Bratley & Fox 1988)."""
    if coord == 0:
        m = [1] * _SOBOL_BITS
    else:
        poly, init = _SOBOL_DIRECTIONS[coord - 1]
        deg, m = len(init), list(init)
        for j in range(deg, _SOBOL_BITS):
            new = m[j - deg] ^ (m[j - deg] << deg)
            for t in range(1, deg):
                if poly >> (deg - t) & 1:
                    new ^= m[j - t] << t
            m.append(new)
    return [mj << (_SOBOL_BITS - 1 - j) for j, mj in enumerate(m)]


def _sobol_base(dim: int, n: int) -> np.ndarray:
    """First n unscrambled Sobol' points in ``dim`` dimensions as 32-bit
    integers, one contiguous row of shape (n,) per dimension: the 30-bit
    points in Gray-code order shifted left by 2, the integers
    floor(2^32 x) of scipy.stats.qmc.Sobol(dim, scramble=False).

    One table, grown to the largest dimension and prefix asked so far, is
    cached; n must be a power of two of at most 2^30.
    """
    global _sobol_ints
    with _sobol_lock:
        table = _sobol_ints
        if table.shape[0] < dim or table.shape[1] < n:
            rows, cols = max(dim, table.shape[0]), max(n, table.shape[1])
            v = np.array([_direction_numbers(c) for c in range(rows)], dtype=np.uint32) << 2
            table = np.zeros((rows, cols), dtype=np.uint32)
            # in Gray-code order point 2^b + j is point 2^b - 1 - j XOR v_(b+1)
            for b in range(cols.bit_length() - 1):
                half = 1 << b
                np.bitwise_xor(table[:, half - 1 :: -1], v[:, b, None], out=table[:, half : 2 * half])
            table.setflags(write=False)
            _sobol_ints = table
        return table[:dim, :n]


def _reordered_cholesky(corr: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factorization for the orthant P(Z <= upper), interleaved
    with greedy variable reordering.

    At each step the variable with the smallest conditional probability
    mass (given truncated-normal means for the earlier coordinates) is
    brought forward, which concentrates the integrand's variance in the
    leading coordinates of the QMC recursion. A singular correlation
    leaves a zero column below each variable the earlier ones fix.
    Returns the factor of the reordered matrix and the order: ``perm[i]``
    is the original index of reordered variable i.
    """
    k = corr.shape[0]
    c = corr.copy()
    b = np.asarray(upper, dtype=float).copy()
    perm = np.arange(k)
    L = np.zeros((k, k))
    y = np.zeros(k)
    eps = 1e-24
    for i in range(k):
        best_mass, best_j = np.inf, i
        for j in range(i, k):
            denom = math.sqrt(max(c[j, j] - float(L[j, :i] @ L[j, :i]), eps))
            mass = float(ndtr((b[j] - float(L[j, :i] @ y[:i])) / denom))
            if mass < best_mass:
                best_mass, best_j = mass, j
        j = best_j
        if j != i:
            c[[i, j], :] = c[[j, i], :]
            c[:, [i, j]] = c[:, [j, i]]
            L[[i, j], :i] = L[[j, i], :i]
            b[[i, j]] = b[[j, i]]
            perm[[i, j]] = perm[[j, i]]
        sii = c[i, i] - float(L[i, :i] @ L[i, :i])
        L[i, i] = math.sqrt(max(sii, eps))
        # a conditional variance at or below _PSD_TOL is a variable the
        # earlier ones fix (Genz & Bretz 2009): below its pivot the column
        # would be rounding noise over that pivot, so it stays 0, and its
        # factor in the integrand is an indicator
        if i + 1 < k and sii > _PSD_TOL:
            L[i + 1 :, i] = (c[i + 1 :, i] - L[i + 1 :, :i] @ L[i, :i]) / L[i, i]
        hi = (b[i] - float(L[i, :i] @ y[:i])) / L[i, i]
        mass = max(float(ndtr(hi)), 1e-300)
        # truncated-normal mean stands in for the integration variable
        y[i] = -(math.exp(-0.5 * hi * hi) / _SQRT_TWO_PI) / mass
    return L, perm


def _qmc_means(
    L: np.ndarray,
    b: np.ndarray,
    base: np.ndarray,
    shifts: np.ndarray,
    cuts: Sequence[int],
) -> np.ndarray:
    """Mean orthant integrand value per point segment and randomization.

    The integrand is Genz's separation-of-variables form of P(Z <= b) for
    the factor L. The points are the columns of ``base`` (k-1, n), one
    contiguous row per coordinate, digitally shifted by each row of
    ``shifts`` (S, k-1), both 32-bit integers; row s of the result
    averages, for every randomization, the points [cuts[s], cuts[s+1]),
    with cuts running from 0 to n. The pass walks the base points in
    blocks of _BLOCK across all shifts and builds each coordinate of a
    block's points at the step that reads it, reusing its buffers, so the
    working set stays in cache and only the (S, n) integrand values are
    held whole. Every value is the float a pass over all points at once
    would give.
    """
    n_shifts, n = shifts.shape[0], base.shape[1]
    k = L.shape[0]
    tiny = 1e-15
    e0 = float(ndtr(b[0] / L[0, 0]))
    size = n_shifts * min(n, _BLOCK)
    # the shifts are below 2^32; one (S, 1) column per coordinate
    shift_cols = shifts.T.astype(np.uint32)[:, :, None]
    ints = np.empty(size, dtype=np.uint32)
    y = np.empty((size, k - 1))
    z, mu, e_buf, f = (np.empty(size) for _ in range(4))
    values = np.empty((n_shifts, n))
    for start in range(0, n, _BLOCK):
        width = min(_BLOCK, n - start)
        rows = n_shifts * width
        # row-prefix views of the buffers: contiguous, shift-major
        ib, yb, zb, mub, fb = ints[:rows], y[:rows], z[:rows], mu[:rows], f[:rows]
        fb.fill(e0)
        e = e0
        for i in range(1, k):
            np.bitwise_xor(
                base[i - 1, start : start + width], shift_cols[i - 1], out=ib.reshape(n_shifts, width)
            )
            np.divide(np.add(ib, 0.5, out=zb), _TWO32, out=zb)
            np.multiply(zb, e, out=zb)
            np.clip(zb, tiny, 1.0 - tiny, out=zb)
            ndtri(zb, out=yb[:, i - 1])
            # y stays row-major for this dot: a sum written out differs in the last bit
            np.matmul(yb[:, :i], L[i, :i], out=mub)
            e = np.subtract(b[i], mub, out=e_buf[:rows])
            ndtr(np.divide(e, L[i, i], out=e), out=e)
            np.multiply(fb, e, out=fb)
        values[:, start : start + width] = fb.reshape(n_shifts, width)
    return np.stack([values[:, lo:hi].mean(axis=1) for lo, hi in zip(cuts[:-1], cuts[1:])])


class _QmcRule:
    """Randomized QMC rule for the orthant P(Z <= upper) of one correlation:
    variable order, points and shifts.

    The rule is fitted at one upper bound: the variable order is chosen
    there, and while the error misses the target n grows fourfold, up to
    max_points, on the same shifts: each refinement integrates only the
    new Sobol' points [n, 4n) at the fitting bound and keeps their
    per-randomization mean beside those of the earlier segments. Every
    evaluation pools the same segments in the same order, so the estimate
    at the fitting bound equals the fit's float for float, and it is a
    deterministic, continuous function of the bound. Only the shifts and
    segment means are kept; each kernel pass rebuilds its points block by
    block (``_qmc_means``), which holds memory to one block's points and
    one pass's integrand values.
    """

    def __init__(self, corr, upper, seed, target_error, max_points):
        self._L, self._perm = _reordered_cholesky(corr, upper)
        self._upper = upper[self._perm]
        self._max_points = max_points
        self._shifts = self._draw(np.random.default_rng(int(seed) & _U64))
        # segment ends: the first pass, then one per refinement
        self._cuts = [0, min(_START_POINTS, max_points)]
        self._segments = list(self._means(self._shifts, 0, self._upper))
        self.estimate = self._pooled(self._segments)
        while self.estimate.error > target_error and self.refine():
            pass

    @property
    def n(self) -> int:
        return self._cuts[-1]

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 1 << 32, size=(_SHIFTS, self._L.shape[0] - 1), dtype=np.uint64)

    def _means(self, shifts: np.ndarray, start: int, upper) -> np.ndarray:
        """Segment means of the points [start, n) in one kernel pass."""
        base = _sobol_base(self._L.shape[0] - 1, self.n)[:, start:]
        cuts = [c - start for c in self._cuts if c >= start]
        return _qmc_means(self._L, upper, base, shifts, cuts)

    def _pooled(self, segments) -> ProbEstimate:
        means = 0.0
        for seg, lo, hi in zip(segments, self._cuts[:-1], self._cuts[1:]):
            means = means + seg * ((hi - lo) / self.n)
        value = float(means.mean())
        # floor acknowledges double-precision rounding even when the
        # randomizations happen to agree exactly
        err = max(float(3.0 * means.std(ddof=1) / math.sqrt(_SHIFTS)), 1e-15)
        return ProbEstimate(min(1.0, max(0.0, value)), err)

    def refine(self, max_points: int | None = None) -> bool:
        """Quadruple n on the same shifts, integrating the new points at the
        fitting bound and updating ``estimate``; False, changing nothing,
        once n reaches max_points (by default the fit's cap)."""
        cap = self._max_points if max_points is None else max_points
        if self.n >= cap:
            return False
        start = self.n
        self._cuts.append(min(4 * start, cap))
        self._segments.extend(self._means(self._shifts, start, self._upper))
        self.estimate = self._pooled(self._segments)
        return True

    def __call__(self, upper, seed: int | None = None) -> ProbEstimate:
        """The estimate at the given upper bound; with ``seed``, an
        independent one at the same n from shifts drawn with that seed."""
        shifts = self._shifts
        if seed is not None:
            shifts = self._draw(np.random.default_rng(int(seed) & _U64))
        return self._pooled(self._means(shifts, 0, upper[self._perm]))


def _check_accuracy_args(target_error: float, max_points: int) -> int:
    if not 0.0 < target_error < math.inf:
        raise InputError(f"target_error must be positive and finite, got {target_error}")
    try:
        max_points = int(max_points)
    except (OverflowError, ValueError):
        raise InputError(f"max_points must be finite, got {max_points}") from None
    if max_points < 2:
        raise InputError("max_points must allow at least 2 points")
    if max_points > 1 << _SOBOL_BITS:
        raise InputError(f"max_points must be at most 2^{_SOBOL_BITS}, got {max_points}")
    # round down to a power of two so cached Sobol' prefixes line up
    return 1 << (max_points.bit_length() - 1)


def _check_dim(dim: int) -> None:
    # the Sobol' table covers the k - 1 QMC coordinates of k <= MAX_HYPOTHESES
    if dim > MAX_HYPOTHESES:
        raise InputError(f"correlation dimension must be at most {MAX_HYPOTHESES}, got {dim}")


def _check_thresholds(thresholds, dim: int) -> np.ndarray:
    u = np.asarray(thresholds, dtype=float)
    if u.shape != (dim,):
        raise InputError("threshold vector must match the correlation dimension")
    # NaN fails both comparisons
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise InputError("thresholds must lie in [0, 1]")
    return u


def _check_root_tol(root_tol: float) -> float:
    if not 0.0 < root_tol < math.inf:
        raise InputError(f"root_tol must be positive and finite, got {root_tol}")
    return float(root_tol)


def union_exceedance(
    thresholds,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    max_points: int = DEFAULT_MAX_POINTS,
) -> ProbEstimate:
    """P(P_j <= u_j for some j) under the global null.

    P_j = 1 - Phi(Z_j) with Z ~ MVN(0, corr), so each P_j is uniform and
    the union is 1 minus the orthant probability P(Z_j <= -Phi^-1(u_j)
    for all j). Zero thresholds are dropped (zero-probability events); a
    threshold of 1 makes the union certain and returns exactly 1. One or
    two remaining thresholds give a closed form (to ~1e-13), three to six
    Plackett's reduction on the graded rule (its error the gap to half
    the nodes, at most 1e-13 at three wherever the ladder reaches it; a
    quadrature that misses ``target_error`` hands over to QMC); above that
    it is a QMC estimate of the orthant, with the reported error targeted
    at ``target_error`` but honest when the sample cap bites first.
    Either way it is the ``estimate`` of a ``UnionRule`` fitted at the
    remaining thresholds.
    A correlation of more than MAX_HYPOTHESES dimensions, or max_points
    above 2^30 (the Sobol' points' range), raises InputError.
    """
    cm = as_correlation(corr)
    _check_dim(cm.dim)
    u = _check_thresholds(thresholds, cm.dim)
    max_points = _check_accuracy_args(target_error, max_points)
    if np.any(u == 1.0):
        return ProbEstimate(1.0, 0.0)
    keep = np.flatnonzero(u > 0.0)
    if keep.size == 0:
        return ProbEstimate(0.0, 0.0)
    return UnionRule(u[keep], cm.submatrix(keep), seed, target_error, max_points).estimate


def _complement(est: ProbEstimate) -> ProbEstimate:
    """The union estimate from the estimate of its complementary orthant."""
    return ProbEstimate(min(1.0, max(0.0, 1.0 - est.value)), est.error)


class UnionRule:
    """``union_exceedance`` over one correlation on a rule kept fixed across
    thresholds: the package's one entry to the kernel.

    The rule is built at reference thresholds, all in (0, 1), and takes
    one of three paths. One or two events are a closed form (the
    bivariate by Owen's T) and need no rule. Three to MAX_EXACT_DIM take
    Plackett's reduction on the graded Gauss-Legendre rule, at the node
    count that ``_plackett_fit`` picks at the reference. Above that, or
    when no node count meets ``target_error`` at the reference, a QMC
    rule for the complementary orthant is fitted at the reference
    thresholds and kept. Either way the estimate is a deterministic,
    continuous function of the thresholds: what a root solve needs (Genz
    & Bretz 2009, section 5). ``estimate`` holds the value at the
    reference thresholds. A call checks its thresholds as
    ``union_exceedance`` does; ``value`` gives a call's value alone.
    """

    def __init__(
        self,
        thresholds,
        corr,
        seed: int = 0,
        target_error: float = DEFAULT_TARGET_ERROR,
        max_points: int = DEFAULT_MAX_POINTS,
    ) -> None:
        self._corr = as_correlation(corr).values
        _check_dim(self._corr.shape[0])
        u = _check_thresholds(thresholds, self._corr.shape[0])
        if not np.all((u > 0.0) & (u < 1.0)):
            raise InputError("rule thresholds must lie strictly in (0, 1)")
        max_points = _check_accuracy_args(target_error, max_points)
        self._qmc: _QmcRule | None = None
        # the node count of Plackett's reduction, from three dimensions on
        self._nodes: int | None = None
        est = None
        if u.size <= 2:
            est = _closed_form_union(u, self._corr)
        elif u.size <= MAX_EXACT_DIM:
            est, self._nodes = _plackett_fit(u, self._corr, target_error) or (None, None)
        if est is None:
            self._qmc = _QmcRule(self._corr, -ndtri(u), seed, target_error, max_points)
            est = _complement(self._qmc.estimate)
        self.estimate = est

    @property
    def sampled(self) -> bool:
        """True when the rule is QMC rather than exact or quadrature."""
        return self._qmc is not None

    def __call__(self, thresholds, seed: int | None = None) -> ProbEstimate:
        """The union at ``thresholds``; with ``seed``, an independent
        re-estimate on fresh shifts at the rule's point count instead (a
        rule that does not sample has no shifts and ignores it)."""
        u = _check_thresholds(thresholds, self._corr.shape[0])
        if np.any(u == 1.0):
            return ProbEstimate(1.0, 0.0)
        if self._qmc is not None:
            return _complement(self._qmc(-ndtri(u), seed))
        if self._nodes is None:
            return _closed_form_union(u, self._corr)
        return _plackett_estimate(*_plackett_unions(u, self._corr, (self._nodes, self._nodes // 2)).tolist())

    def value(self, thresholds) -> float:
        """``self(thresholds).value``; a quadrature rule evaluates its node
        count alone, not also the half as many its error needs."""
        if self._nodes is None:
            return self(thresholds).value
        u = _check_thresholds(thresholds, self._corr.shape[0])
        return float(_plackett_values(u[:, None], self._corr[:, :, None], np.array([self._nodes]))[0])

    def can_refine(self, max_points: int) -> bool:
        """Whether ``refine(max_points)`` would add points: QMC below max_points."""
        return self._qmc is not None and self._qmc.n < max_points

    def refine(self, max_points: int | None = None) -> bool:
        """Quadruple the QMC point count on the same shifts, integrating only
        the new points at the reference; False, changing nothing, when
        exact or at max_points (by default the fit's cap)."""
        if self._qmc is None or not self._qmc.refine(max_points):
            return False
        self.estimate = _complement(self._qmc.estimate)
        return True


def solve_monotone(
    f: Callable[[float], float],
    target: float,
    bracket: Sequence[float],
    tol: float = DEFAULT_ROOT_TOL,
) -> float:
    """Smallest c in [lo, hi] with f(c) = target, for nondecreasing f:
    ``_illinois`` on this one bracket."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InputError("bracket must be a finite interval with lo < hi")
    tol = _check_root_tol(tol)
    g_lo, g_hi = f(lo) - target, f(hi) - target
    if g_lo > 0.0:
        raise BracketError(f"f(lo) is above the target {target}; bracket does not straddle")
    if g_hi < 0.0:
        raise BracketError(f"f(hi) is below the target {target}; bracket does not straddle")
    one = np.array([[lo], [hi], [g_lo], [g_hi]])
    c = _illinois(lambda _, xs: np.array([f(float(x)) - target for x in xs]), *one, tol)
    return float(c[0])


def _illinois(g, lo, hi, g_lo, g_hi, tol: float) -> np.ndarray:
    """Roots of n nondecreasing functions at once, one state per problem:
    each the smallest c in [lo, hi] with g(c) = 0, where g(rows, x) gives
    problem rows[i]'s g at x[i] and g(lo) <= 0 <= g(hi).

    Illinois (modified regula falsi) steps, kept at least tol/2 inside
    the bracket, bisecting whenever three steps fail to halve it or an
    end sits on the root. Every step keeps g(lo) < 0 <= g(hi), so the
    bracket closes on the smallest crossing across flat stretches and
    evaluation noise. A problem ends at its bracket's midpoint once that
    is at most tol wide, or at hi once no float lies strictly inside.
    """
    c = np.empty(lo.size)
    rows = np.arange(lo.size)
    # the factor g at an end takes when a step keeps that end: 1/2 after
    # a step that kept it too (the Illinois modification)
    keep_lo = keep_hi = np.ones(lo.size)
    # the widths of the last three steps, oldest first
    w3 = w2 = w1 = np.full(lo.size, np.inf)
    while rows.size:
        width, mid = hi - lo, 0.5 * (lo + hi)
        run = (width > tol) & (lo < mid) & (mid < hi)
        if not run.all():
            # the finished problems leave the state
            c[rows[~run]] = np.where(width > tol, hi, mid)[~run]
            state = rows, lo, hi, g_lo, g_hi, keep_lo, keep_hi, w3, w2, w1
            rows, lo, hi, g_lo, g_hi, keep_lo, keep_hi, w3, w2, w1 = (a[run] for a in state)
            continue
        secant = (g_lo < 0.0) & (0.0 < g_hi) & (width <= 0.5 * w3)
        x = lo - g_lo * width / np.where(secant, g_hi - g_lo, 1.0)
        x = np.where(secant, np.minimum(np.maximum(x, lo + 0.5 * tol), hi - 0.5 * tol), mid)
        w3, w2, w1 = w2, w1, width
        gx = g(rows, x)
        up = gx >= 0.0
        lo, g_lo = np.where(up, lo, x), np.where(up, g_lo * keep_lo, gx)
        hi, g_hi = np.where(up, x, hi), np.where(up, gx, g_hi * keep_hi)
        keep_lo = np.where(up, 0.5, 1.0)
        keep_hi = 1.5 - keep_lo
    return c
