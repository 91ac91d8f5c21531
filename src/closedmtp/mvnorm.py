"""Normal-distribution numerics underlying every test in the package.

Univariate CDF/quantile wrap scipy's ndtr/ndtri. Multivariate rectangle
probabilities are exact in dimension 1, computed from Owen's T function
in dimension 2, and in dimension 3 by a fixed Gauss-Legendre integral
over one conditioning variable of a vectorised Owen's T bivariate (after
Genz 2004). Dimension 4 and above is estimated by separation-of-variables
quasi-Monte Carlo in the style of Genz (1992): Cholesky factorization
with greedy variable reordering, digitally shifted Sobol' points, and an
error estimate from independent randomizations. Every result carries an
absolute-error bound; estimates are bit-reproducible for a fixed seed.

``UnionRule`` fixes one integration rule for a whole root solve, so the
union probability becomes a deterministic, continuous function of the
thresholds (Genz & Bretz 2009, section 5).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t
from scipy.stats import qmc

from .exceptions import BracketError, InputError, NumericError

DEFAULT_TARGET_ERROR = 1e-6
DEFAULT_ROOT_TOL = 1e-6
# per-randomization Sobol' cap; one estimate uses at most _SHIFTS times this
DEFAULT_MAX_POINTS = 1 << 16
# highest dimension computed exactly rather than by QMC
MAX_EXACT_DIM = 3

_SHIFTS = 10
_START_POINTS = 1 << 11
_PSD_TOL = 1e-10
_TWO32 = float(1 << 32)
_U64 = (1 << 64) - 1
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
# Owen's-T based paths are good to ~1e-14; reported with margin
_EXACT_ERROR = 1e-13
# trivariate quadrature: Gauss-Legendre nodes and weights on [-1, 1] for the
# reported value and for the coarser rule whose difference is its error
_GL_FINE = np.polynomial.legendre.leggauss(64)
_GL_COARSE = np.polynomial.legendre.leggauss(32)
# the conditioning variable is integrated over [-_TAIL, _TAIL]; the mass
# outside is below 1e-17
_TAIL = 8.5
# ratio between successive cut distances from a bend of the integrand
_GRADING = 8.0


@dataclass(frozen=True)
class ProbEstimate:
    """Probability estimate with an absolute-error bound.

    ``error`` is 0 for closed-form paths, a rounding or quadrature margin
    (1e-13 or more) for the Owen's T and trivariate paths, and roughly a
    3-sigma bound for quasi-Monte Carlo paths.
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


def std_normal_cdf(z: float) -> float:
    """P(Z <= z) for standard normal Z; saturates at 0/1 in the far tails."""
    return float(ndtr(z))


def std_normal_quantile(u: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    if not 0.0 < u < 1.0:
        raise InputError(f"quantile argument must lie strictly in (0, 1), got {u}")
    return float(ndtri(u))


def _owen_tail(h: float, a: float) -> float:
    # Owen's T with the a=0, a=+-inf and h=0 limits made explicit.
    if a == 0.0 or math.isinf(h):
        return 0.0
    if h == 0.0:
        return math.atan(a) / (2.0 * math.pi)
    if math.isinf(a):
        return math.copysign(0.5 * float(ndtr(-abs(h))), a)
    return float(owens_t(h, a))


def _bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho."""
    if math.isnan(h) or math.isnan(k):
        raise InputError("NaN bound in bivariate probability")
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf:
        return 1.0 if k == math.inf else float(ndtr(k))
    if k == math.inf:
        return float(ndtr(h))
    if rho == 1.0:
        return float(ndtr(min(h, k)))
    if rho == -1.0:
        return max(0.0, float(ndtr(h)) + float(ndtr(k)) - 1.0)
    if rho == 0.0:
        return float(ndtr(h)) * float(ndtr(k))
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    if h == 0.0:
        return 0.5 * float(ndtr(k)) - _owen_tail(k, -rho / s)
    if k == 0.0:
        return 0.5 * float(ndtr(h)) - _owen_tail(h, -rho / s)
    ah = (k - rho * h) / (h * s)
    ak = (h - rho * k) / (k * s)
    delta = 0.5 if h * k < 0.0 else 0.0
    p = 0.5 * (float(ndtr(h)) + float(ndtr(k))) - _owen_tail(h, ah) - _owen_tail(k, ak) - delta
    return min(1.0, max(0.0, p))


def _bvn_cdf_array(h: np.ndarray, k: np.ndarray, rho: float) -> np.ndarray:
    """_bvn_cdf over arrays of finite bounds sharing one correlation."""
    if rho >= 1.0:
        return ndtr(np.minimum(h, k))
    if rho <= -1.0:
        return np.maximum(0.0, ndtr(h) + ndtr(k) - 1.0)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    hz, kz = h == 0.0, k == 0.0
    th = owens_t(h, (k - rho * h) / (np.where(hz, 1.0, h) * s))
    tk = owens_t(k, (h - rho * k) / (np.where(kz, 1.0, k) * s))
    p = 0.5 * (ndtr(h) + ndtr(k)) - th - tk - np.where(h * k < 0.0, 0.5, 0.0)
    if hz.any() or kz.any():
        # the zero-bound forms of _bvn_cdf
        p = np.where(hz, 0.5 * ndtr(k) - owens_t(k, -rho / s), p)
        p = np.where(kz, 0.5 * ndtr(h) - owens_t(h, -rho / s), p)
        p = np.where(hz & kz, 0.25 + math.asin(rho) / (2.0 * math.pi), p)
    return np.clip(p, 0.0, 1.0)


def _tvn_cdf(h: np.ndarray, corr: np.ndarray) -> tuple[float, float]:
    """(P(Z <= h), error) for a trivariate standard normal Z; bounds may be infinite.

    Conditions on the variable least correlated with the other two and
    integrates the conditional bivariate probability against its density
    by Gauss-Legendre, piecewise between cuts graded around the bend the
    bivariate develops as the conditional correlation nears +-1. The
    error is the gap to a rule with half the nodes. When every pair is
    perfectly correlated the event is one interval and is exact.
    """
    if np.any(h == -np.inf):
        return 0.0, 0.0
    keep = np.flatnonzero(h < np.inf)
    if keep.size < 3:
        if keep.size == 0:
            return 1.0, 0.0
        if keep.size == 1:
            return float(ndtr(h[keep[0]])), 0.0
        i, j = keep
        return _bvn_cdf(float(h[i]), float(h[j]), float(corr[i, j])), 0.0
    i = min(range(3), key=lambda t: max(abs(corr[t, (t + 1) % 3]), abs(corr[t, (t + 2) % 3])))
    j, k = (i + 1) % 3, (i + 2) % 3
    rij, rik = float(corr[i, j]), float(corr[i, k])
    sj, sk = math.sqrt(max(1.0 - rij * rij, 0.0)), math.sqrt(max(1.0 - rik * rik, 0.0))
    if sj == 0.0 or sk == 0.0:
        # every pair is perfectly correlated: Z_t = sign(r_it) * Z_i, so the
        # event is one interval for Z_i
        signs = np.sign(corr[i])
        upper = min(float(h[t]) for t in range(3) if signs[t] > 0.0)
        lower = max((-float(h[t]) for t in range(3) if signs[t] < 0.0), default=-math.inf)
        return max(0.0, float(ndtr(upper)) - float(ndtr(lower))), 0.0
    rho = min(1.0, max(-1.0, (float(corr[j, k]) - rij * rik) / (sj * sk)))
    top = min(float(h[i]), _TAIL)
    if top <= -_TAIL:
        return 0.0, float(ndtr(top))
    cuts = {-_TAIL, top}
    sign = 1.0 if rho >= 0.0 else -1.0
    slope = rij / sj - sign * rik / sk
    if rho != 0.0 and slope != 0.0:
        # the bivariate bends where h_j(x) = sign * h_k(x), over a width
        # that shrinks with 1 - |rho|; cuts graded away from the bend keep
        # every piece smooth on its own scale
        bend = (h[j] / sj - sign * h[k] / sk) / slope
        width = math.sqrt(2.0 * (1.0 - abs(rho))) / abs(slope)
        offsets = [0.0]
        while 0.0 < width < 2.0 * _TAIL:
            offsets += [width, -width]
            width *= _GRADING
        cuts.update(float(bend + d) for d in offsets if -_TAIL < bend + d < top)
    cuts = sorted(cuts)

    def integral(rule) -> float:
        nodes, weights = rule
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            half = 0.5 * (hi - lo)
            x = lo + half * (nodes + 1.0)
            bivariate = _bvn_cdf_array((h[j] - rij * x) / sj, (h[k] - rik * x) / sk, rho)
            total += half * float(weights @ (np.exp(-0.5 * x * x) * bivariate))
        return total / _SQRT_TWO_PI

    fine = integral(_GL_FINE)
    return min(1.0, max(0.0, fine)), abs(fine - integral(_GL_COARSE))


def _rectangle_3d(lower: np.ndarray, upper: np.ndarray, corr: np.ndarray) -> tuple[float, float]:
    """(P(lower < Z <= upper), error) in three dimensions by inclusion-exclusion over corners."""
    value = error = 0.0
    for corner in range(8):
        use_lower = [(corner >> t) & 1 for t in range(3)]
        h = np.where(use_lower, lower, upper)
        v, e = _tvn_cdf(h, corr)
        value += -v if sum(use_lower) % 2 else v
        error += e
    return min(1.0, max(0.0, value)), error


_sobol_lock = threading.Lock()
_sobol_ints: dict[int, np.ndarray] = {}


def _sobol_base(dim: int, n: int) -> np.ndarray:
    """First n unscrambled Sobol' points in ``dim`` dimensions as 32-bit integers.

    The sequence prefix is cached per dimension; n must be a power of two.
    """
    with _sobol_lock:
        cached = _sobol_ints.get(dim)
        if cached is None or cached.shape[0] < n:
            pts = qmc.Sobol(d=dim, scramble=False).random_base2(int(n - 1).bit_length())
            cached = np.floor(pts * _TWO32).astype(np.uint64)
            _sobol_ints[dim] = cached
        return cached[:n]


def _reordered_cholesky(
    corr: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factorization interleaved with greedy variable reordering.

    At each step the variable with the smallest conditional probability
    mass (given truncated-normal means for the earlier coordinates) is
    brought forward, which concentrates the integrand's variance in the
    leading coordinates of the QMC recursion. Returns the factor of the
    reordered matrix and the order: ``perm[i]`` is the original index of
    reordered variable i.
    """
    k = corr.shape[0]
    c = corr.copy()
    a = np.asarray(lower, dtype=float).copy()
    b = np.asarray(upper, dtype=float).copy()
    perm = np.arange(k)
    L = np.zeros((k, k))
    y = np.zeros(k)
    eps = 1e-24
    for i in range(k):
        best_mass, best_j = np.inf, i
        for j in range(i, k):
            denom = math.sqrt(max(c[j, j] - float(L[j, :i] @ L[j, :i]), eps))
            mu = float(L[j, :i] @ y[:i])
            lo = (a[j] - mu) / denom if np.isfinite(a[j]) else -np.inf
            hi = (b[j] - mu) / denom if np.isfinite(b[j]) else np.inf
            mass = float(ndtr(hi)) - float(ndtr(lo))
            if mass < best_mass:
                best_mass, best_j = mass, j
        j = best_j
        if j != i:
            c[[i, j], :] = c[[j, i], :]
            c[:, [i, j]] = c[:, [j, i]]
            L[[i, j], :i] = L[[j, i], :i]
            a[[i, j]] = a[[j, i]]
            b[[i, j]] = b[[j, i]]
            perm[[i, j]] = perm[[j, i]]
        sii = max(c[i, i] - float(L[i, :i] @ L[i, :i]), eps)
        L[i, i] = math.sqrt(sii)
        if i + 1 < k:
            L[i + 1 :, i] = (c[i + 1 :, i] - L[i + 1 :, :i] @ L[i, :i]) / L[i, i]
        mu = float(L[i, :i] @ y[:i])
        lo = (a[i] - mu) / L[i, i] if np.isfinite(a[i]) else -np.inf
        hi = (b[i] - mu) / L[i, i] if np.isfinite(b[i]) else np.inf
        plo, phi = float(ndtr(lo)), float(ndtr(hi))
        mass = max(phi - plo, 1e-300)
        dlo = math.exp(-0.5 * lo * lo) / _SQRT_TWO_PI if np.isfinite(lo) else 0.0
        dhi = math.exp(-0.5 * hi * hi) / _SQRT_TWO_PI if np.isfinite(hi) else 0.0
        # truncated-normal mean stands in for the integration variable
        y[i] = (dlo - dhi) / mass
    return L, perm


def _qmc_means(
    L: np.ndarray, a: np.ndarray, b: np.ndarray, pts: np.ndarray, cuts: Sequence[int]
) -> np.ndarray:
    """Mean integrand value per point segment and randomization.

    pts has shape (S, n, k-1); row s of the result averages, for every
    randomization, the points [cuts[s], cuts[s+1]), with cuts running
    from 0 to n.
    """
    n_shifts, n, _ = pts.shape
    k = L.shape[0]
    tiny = 1e-15
    flat = pts.reshape(n_shifts * n, k - 1)
    if np.isfinite(a[0]):
        d = np.full(n_shifts * n, float(ndtr(a[0] / L[0, 0])))
    else:
        d = np.zeros(n_shifts * n)
    if np.isfinite(b[0]):
        e = np.full(n_shifts * n, float(ndtr(b[0] / L[0, 0])))
    else:
        e = np.ones(n_shifts * n)
    f = e - d
    y = np.empty((n_shifts * n, k - 1))
    for i in range(1, k):
        z = np.clip(d + flat[:, i - 1] * (e - d), tiny, 1.0 - tiny)
        y[:, i - 1] = ndtri(z)
        mu = y[:, :i] @ L[i, :i]
        d = ndtr((a[i] - mu) / L[i, i]) if np.isfinite(a[i]) else 0.0
        e = ndtr((b[i] - mu) / L[i, i]) if np.isfinite(b[i]) else 1.0
        f = f * (e - d)
    f = f.reshape(n_shifts, n)
    return np.stack([f[:, lo:hi].mean(axis=1) for lo, hi in zip(cuts[:-1], cuts[1:])])


class _QmcRule:
    """Randomized QMC rule for one correlation: variable order, points and shifts.

    The rule is fitted at one pair of bounds: the variable order is chosen
    there, and while the error misses the target n grows fourfold, up to
    max_points, on the same shifts: each refinement integrates only the
    new Sobol' points [n, 4n) at the fitting bounds and keeps their
    per-randomization mean beside those of the earlier segments. Every
    evaluation pools the same segments in the same order, so the estimate
    at the fitting bounds equals the fit's float for float, and it is a
    deterministic, continuous function of the bounds. Only the shifts and
    segment means are kept; the points are rebuilt per evaluation, which
    holds memory to one evaluation's worth.
    """

    def __init__(self, corr, lower, upper, seed, target_error, max_points):
        self._L, self._perm = _reordered_cholesky(corr, lower, upper)
        self._bounds = lower[self._perm], upper[self._perm]
        self._max_points = max_points
        self._shifts = self._draw(np.random.default_rng(int(seed) & _U64))
        # segment ends: the first pass, then one per refinement
        self._cuts = [0, min(_START_POINTS, max_points)]
        self._segments = list(self._means(self._shifts, 0, *self._bounds))
        self.estimate = self._pooled(self._segments)
        while self.estimate.error > target_error and self.refine():
            pass

    @property
    def n(self) -> int:
        return self._cuts[-1]

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 1 << 32, size=(_SHIFTS, self._L.shape[0] - 1), dtype=np.uint64)

    def _means(self, shifts: np.ndarray, start: int, lower, upper) -> np.ndarray:
        """Segment means of the points [start, n) in one kernel pass."""
        base = _sobol_base(self._L.shape[0] - 1, self.n)[start:]
        pts = ((base[None, :, :] ^ shifts[:, None, :]).astype(float) + 0.5) / _TWO32
        cuts = [c - start for c in self._cuts if c >= start]
        return _qmc_means(self._L, lower, upper, pts, cuts)

    def _pooled(self, segments) -> ProbEstimate:
        means = 0.0
        for seg, lo, hi in zip(segments, self._cuts[:-1], self._cuts[1:]):
            means = means + seg * ((hi - lo) / self.n)
        value = float(means.mean())
        # floor acknowledges double-precision rounding even when the
        # randomizations happen to agree exactly
        err = max(float(3.0 * means.std(ddof=1) / math.sqrt(_SHIFTS)), 1e-15)
        return ProbEstimate(min(1.0, max(0.0, value)), err)

    def refine(self) -> bool:
        """Quadruple n on the same shifts, integrating the new points at the
        fitting bounds and updating ``estimate``; False, changing nothing,
        once n is capped."""
        if self.n >= self._max_points:
            return False
        start = self.n
        self._cuts.append(min(4 * start, self._max_points))
        self._segments.extend(self._means(self._shifts, start, *self._bounds))
        self.estimate = self._pooled(self._segments)
        return True

    def __call__(self, lower, upper, seed: int | None = None) -> ProbEstimate:
        """The estimate at the given bounds; with ``seed``, an independent one
        at the same n from shifts drawn with that seed."""
        shifts = self._shifts
        if seed is not None:
            shifts = self._draw(np.random.default_rng(int(seed) & _U64))
        return self._pooled(self._means(shifts, 0, lower[self._perm], upper[self._perm]))


def _check_accuracy_args(target_error: float, max_points: int) -> int:
    if not target_error > 0.0:
        raise InputError(f"target_error must be positive, got {target_error}")
    max_points = int(max_points)
    if max_points < 2:
        raise InputError("max_points must allow at least 2 points")
    # round down to a power of two so cached Sobol' prefixes line up
    return 1 << (max_points.bit_length() - 1)


def _exact_union(u: np.ndarray, corr: np.ndarray, target_error: float) -> ProbEstimate | None:
    """Union probability by inclusion-exclusion for thresholds in (0, 1).

    The pair terms come from Owen's T, the triple term from the
    trivariate quadrature, whose own error is reported when it exceeds
    the Owen's-T margin. None above three dimensions, or when that error
    misses ``target_error`` as well as the margin.
    """
    k = u.size
    if k == 1:
        return ProbEstimate(float(u[0]), 0.0)
    if k > MAX_EXACT_DIM:
        return None
    a = ndtri(u)
    both = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            both += _bvn_cdf(float(a[i]), float(a[j]), float(corr[i, j]))
    v = float(u.sum()) - both
    error = _EXACT_ERROR
    if k == 3:
        triple, quad_error = _tvn_cdf(a, corr)
        if quad_error > max(target_error, _EXACT_ERROR):
            return None
        v += triple
        error = max(error, quad_error)
    return ProbEstimate(min(1.0, max(0.0, v)), error)


def mvn_rectangle(
    lower,
    upper,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    max_points: int = DEFAULT_MAX_POINTS,
) -> ProbEstimate:
    """P(lower_j < Z_j <= upper_j for all j) for Z ~ MVN(0, corr).

    Bounds may be -inf/+inf. Exact in dimensions 1-3 (to ~1e-13; in
    dimension 3 a quadrature whose error estimate misses ``target_error``
    hands over to QMC); QMC above, with the reported error targeted at
    ``target_error`` but honest when the sample cap bites first.
    """
    cm = as_correlation(corr)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.shape != (cm.dim,) or hi.shape != (cm.dim,):
        raise InputError("bound vectors must match the correlation dimension")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise InputError("bounds must not be NaN")
    if not np.all(lo < hi):
        raise InputError("lower bounds must be strictly below upper bounds")
    max_points = _check_accuracy_args(target_error, max_points)
    vacuous = (lo == -np.inf) & (hi == np.inf)
    if vacuous.any():
        keep = np.flatnonzero(~vacuous)
        if keep.size == 0:
            return ProbEstimate(1.0, 0.0)
        return mvn_rectangle(lo[keep], hi[keep], cm.submatrix(keep), seed, target_error, max_points)
    k = cm.dim
    if k == 1:
        v = float(ndtr(hi[0])) - float(ndtr(lo[0]))
        return ProbEstimate(min(1.0, max(0.0, v)), 1e-15)
    if k == 2:
        r = float(cm.values[0, 1])
        v = (
            _bvn_cdf(hi[0], hi[1], r)
            - _bvn_cdf(lo[0], hi[1], r)
            - _bvn_cdf(hi[0], lo[1], r)
            + _bvn_cdf(lo[0], lo[1], r)
        )
        return ProbEstimate(min(1.0, max(0.0, v)), _EXACT_ERROR)
    if k == 3:
        v, error = _rectangle_3d(lo, hi, cm.values)
        if error <= max(target_error, _EXACT_ERROR):
            return ProbEstimate(v, max(error, _EXACT_ERROR))
    return _QmcRule(cm.values, lo, hi, seed, target_error, max_points).estimate


def union_exceedance(
    thresholds,
    corr,
    seed: int = 0,
    target_error: float = DEFAULT_TARGET_ERROR,
    max_points: int = DEFAULT_MAX_POINTS,
) -> ProbEstimate:
    """P(P_j <= u_j for some j) under the global null.

    P_j = 1 - Phi(Z_j) with Z ~ MVN(0, corr), so each P_j is uniform and
    the union is 1 minus a rectangle probability. Zero thresholds are
    dropped (zero-probability events); a threshold of 1 makes the union
    certain and returns exactly 1. Up to three remaining thresholds the
    union is exact by inclusion-exclusion (see ``mvn_rectangle``); above
    that it is a QMC estimate. Either way it is the ``estimate`` of a
    ``UnionRule`` fitted at the remaining thresholds.
    """
    cm = as_correlation(corr)
    u = np.asarray(thresholds, dtype=float)
    if u.shape != (cm.dim,):
        raise InputError("threshold vector must match the correlation dimension")
    if np.any(np.isnan(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise InputError("thresholds must lie in [0, 1]")
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
    """``union_exceedance`` over one correlation on a rule kept fixed across thresholds.

    The rule is built at reference thresholds, all in (0, 1). Up to
    three dimensions the exact paths need no rule. Above that (or when
    the trivariate quadrature misses ``target_error`` at the reference) a
    QMC rule is fitted at the reference thresholds and kept, so the
    estimate is a deterministic, continuous function of the thresholds:
    what a root solve needs (Genz & Bretz 2009, section 5).
    ``estimate`` holds the value at the reference thresholds.
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
        u = np.asarray(thresholds, dtype=float)
        if u.shape != (self._corr.shape[0],):
            raise InputError("threshold vector must match the correlation dimension")
        if not np.all((u > 0.0) & (u < 1.0)):
            raise InputError("rule thresholds must lie strictly in (0, 1)")
        max_points = _check_accuracy_args(target_error, max_points)
        self._qmc: _QmcRule | None = None
        est = _exact_union(u, self._corr, target_error)
        if est is None:
            self._qmc = _QmcRule(
                self._corr, np.full(u.size, -np.inf), -ndtri(u), seed, target_error, max_points
            )
            est = _complement(self._qmc.estimate)
        self.estimate = est

    @property
    def sampled(self) -> bool:
        """True when the rule is QMC rather than exact."""
        return self._qmc is not None

    def __call__(self, thresholds, seed: int | None = None) -> ProbEstimate:
        """The union at ``thresholds``; with ``seed``, an independent
        re-estimate on fresh shifts at the rule's point count instead."""
        u = np.asarray(thresholds, dtype=float)
        if np.any(u >= 1.0):
            return ProbEstimate(1.0, 0.0)
        if self._qmc is None:
            return _exact_union(u, self._corr, math.inf)
        return _complement(self._qmc(np.full(u.size, -np.inf), -ndtri(u), seed))

    def refine(self) -> bool:
        """Quadruple the QMC point count on the same shifts, integrating only
        the new points at the reference; False, changing nothing, when
        exact or capped."""
        if self._qmc is None or not self._qmc.refine():
            return False
        self.estimate = _complement(self._qmc.estimate)
        return True


def solve_monotone(
    f: Callable[[float], float],
    target: float,
    bracket: Sequence[float],
    tol: float = DEFAULT_ROOT_TOL,
) -> float:
    """Smallest c in [lo, hi] with f(c) = target, for nondecreasing f.

    Illinois (modified regula falsi) steps, kept at least tol/2 inside
    the bracket, with a bisection step whenever three steps fail to halve
    it or an end already sits on the target. Every step keeps f(lo) <
    target <= f(hi), so the bracket closes on the smallest crossing even
    across flat stretches, and evaluation noise cannot collapse it on
    the wrong side of a monotone trend. On a smooth f this takes a
    handful of evaluations where bisection takes log2(width / tol).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InputError("bracket must be a finite interval with lo < hi")
    if not tol > 0.0:
        raise InputError(f"tol must be positive, got {tol}")
    g_lo, g_hi = f(lo) - target, f(hi) - target
    if g_lo > 0.0:
        raise BracketError(f"f(lo) is above the target {target}; bracket does not straddle")
    if g_hi < 0.0:
        raise BracketError(f"f(hi) is below the target {target}; bracket does not straddle")
    side = 0
    widths = [math.inf] * 3
    while hi - lo > tol:
        width = hi - lo
        if g_lo < 0.0 < g_hi and width <= 0.5 * widths[-3]:
            x = lo - g_lo * width / (g_hi - g_lo)
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        else:
            x = 0.5 * (lo + hi)
        widths.append(width)
        g = f(x) - target
        if g >= 0.0:
            hi, g_hi = x, g
            if side > 0:
                g_lo *= 0.5
            side = 1
        else:
            lo, g_lo = x, g
            if side < 0:
                g_hi *= 0.5
            side = -1
    return 0.5 * (lo + hi)
