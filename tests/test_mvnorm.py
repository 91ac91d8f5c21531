"""Kernel tests: union/orthant probabilities, the QMC pass, root solves."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from closedmtp.exceptions import BracketError, InputError
from closedmtp.mvnorm import (
    MAX_EXACT_DIM,
    CorrelationMatrix,
    ProbEstimate,
    UnionRule,
    _bvn,
    _graded_rule,
    _orthant,
    _pair_unions,
    _plackett_fit,
    _plackett_fits,
    _plackett_unions,
    _plackett_values,
    solve_monotone,
    union_exceedance,
)


def equicorr(dim, rho):
    v = np.full((dim, dim), rho)
    np.fill_diagonal(v, 1.0)
    return CorrelationMatrix(v)


def random_correlation(rng, dim):
    a = rng.standard_normal((dim, dim + 2))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    return CorrelationMatrix(s / np.outer(d, d))


def bvn(h, k, rho):
    """The kernel's bivariate at one point."""
    return float(_bvn(np.array([h]), np.array([k]), np.array([rho]))[0])


def one_factor(lam):
    """Correlation lam_i * lam_j off the diagonal: Z_j = lam_j W + sqrt(1 - lam_j^2) E_j."""
    lam = np.asarray(lam, dtype=float)
    v = np.outer(lam, lam)
    np.fill_diagonal(v, 1.0)
    return CorrelationMatrix(v)


def one_factor_orthant(upper, lam):
    """P(Z <= upper) for a one-factor correlation, by adaptive quadrature
    over the common factor W (independent of the kernel's reduction)."""
    lam = np.asarray(lam, dtype=float)
    s = np.sqrt(1.0 - lam**2)

    def given_w(w):
        out = 1.0
        for hi, l, sd in zip(upper, lam, s):
            out *= float(l * w <= hi) if sd == 0.0 else ndtr((hi - l * w) / sd)
        return math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) * out

    # the integrand bends where a bound meets lam_j * W, over a width
    # sqrt(1 - lam_j^2) / |lam_j|; cuts at doubling distances resolve it
    cuts = {-12.0, 12.0}
    for b, l, sd in zip(upper, lam, s):
        if l == 0.0:
            continue
        width = sd / abs(l)
        offsets = [0.0] + [sign * width * 2.0**i for i in range(60) for sign in (-1, 1)]
        cuts.update(b / l + d for d in offsets if abs(b / l + d) < 12.0)
    cuts = sorted(cuts)
    return sum(
        quad(given_w, a, b, epsabs=1e-15, epsrel=1e-13, limit=400)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


def conditioned_quad(h, corr):
    """P(Z <= h) for a trivariate normal by adaptive quadrature over Z3 of
    the kernel's bivariate probability of (Z1, Z2) given Z3, independent
    of Plackett's reduction. Cuts at doubling distances resolve the bend
    where the conditional bounds cross.
    """
    corr = np.asarray(corr, dtype=float)
    r = corr[:2, 2]
    s = np.sqrt(1.0 - r**2)
    rho = min(1.0, max(-1.0, (corr[0, 1] - r[0] * r[1]) / (s[0] * s[1])))

    def given_x(x):
        b = (np.asarray(h[:2]) - r * x) / s
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * bvn(b[0], b[1], rho)

    cuts = {-12.0, h[2]}
    sign = 1.0 if rho >= 0.0 else -1.0
    slope = r[0] / s[0] - sign * r[1] / s[1]
    bend = (h[0] / s[0] - sign * h[1] / s[1]) / slope
    width = math.sqrt(2.0 * (1.0 - abs(rho))) / abs(slope)
    offsets = [0.0]
    while 0.0 < width < 24.0:
        offsets += [width, -width]
        width *= 2.0
    cuts.update(bend + d for d in offsets if -12.0 < bend + d < h[2])
    cuts = sorted(cuts)
    return sum(
        quad(given_x, a, b, epsabs=1e-16, epsrel=1e-13, limit=400)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


def one_factor_union(u, lam):
    return 1.0 - one_factor_orthant(-ndtri(np.asarray(u, dtype=float)), lam)


def unblocked_means(L, b, pts, cuts):
    """The QMC orthant integrand's segment means over all points at once,
    pts of shape (S, n, k-1) built whole: the kernel pass before it went
    block by block, kept as the reference the blocked pass must match bit
    for bit."""
    n_shifts, n, _ = pts.shape
    k = L.shape[0]
    tiny = 1e-15
    flat = pts.reshape(n_shifts * n, k - 1)
    e = np.full(n_shifts * n, float(ndtr(b[0] / L[0, 0])))
    f = e
    y = np.empty((n_shifts * n, k - 1))
    for i in range(1, k):
        z = np.clip(flat[:, i - 1] * e, tiny, 1.0 - tiny)
        y[:, i - 1] = ndtri(z)
        mu = y[:, :i] @ L[i, :i]
        e = ndtr((b[i] - mu) / L[i, i])
        f = f * e
    f = f.reshape(n_shifts, n)
    return np.stack([f[:, lo:hi].mean(axis=1) for lo, hi in zip(cuts[:-1], cuts[1:])])


class TestCorrelationMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            CorrelationMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(InputError):
            CorrelationMatrix([[1.0, 0.1], [0.1, 0.9]])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            CorrelationMatrix([[1.0, 1.2], [1.2, 1.0]])

    def test_rejects_indefinite(self):
        v = np.full((3, 3), -0.9)
        np.fill_diagonal(v, 1.0)
        with pytest.raises(InputError):
            CorrelationMatrix(v)

    def test_submatrix(self):
        cm = equicorr(4, 0.3)
        sub = cm.submatrix([1, 3])
        assert sub.dim == 2
        assert sub.values[0, 1] == 0.3
        # the slice shares the parent's guarantees, read-only included
        assert not sub.values.flags.writeable
        with pytest.raises(ValueError):
            sub.values[0, 1] = 0.9
        with pytest.raises(InputError):
            cm.submatrix([])

    def test_cholesky_on_singular(self):
        # rho = 1 is PSD but rank-deficient; jitter must rescue it
        cm = CorrelationMatrix([[1.0, 1.0], [1.0, 1.0]])
        L = cm.cholesky_lower()
        assert np.allclose(L @ L.T, cm.values, atol=1e-6)

    def test_values_read_only(self):
        cm = equicorr(3, 0.2)
        with pytest.raises(ValueError):
            cm.values[0, 1] = 0.9


class TestProbEstimateType:
    def test_invariants(self):
        from closedmtp.exceptions import NumericError

        with pytest.raises(NumericError):
            ProbEstimate(1.2, 0.0)
        with pytest.raises(NumericError):
            ProbEstimate(0.5, -1.0)


class TestUnionExceedance:
    @pytest.mark.parametrize(
        "target_error, max_points",
        [(math.inf, 1 << 16), (math.nan, 1 << 16), (1e-6, math.inf), (1e-6, math.nan)],
    )
    def test_accuracy_args_must_be_finite(self, target_error, max_points):
        # an infinite or NaN max_points used to raise OverflowError or
        # ValueError from int(), and an infinite target_error went through
        with pytest.raises(InputError):
            union_exceedance([0.01] * 4, equicorr(4, 0.3), 1, target_error, max_points)

    def test_finite_float_max_points_truncates(self):
        # 5000.7 rounds down to 4096 points, as 4096 itself does
        u, cm = [0.01, 0.02, 0.01, 0.005, 0.01, 0.02, 0.01], equicorr(7, 0.3)
        want = union_exceedance(u, cm, 1, 1e-9, 1 << 12)
        assert union_exceedance(u, cm, 1, 1e-9, 5000.7) == want

    def test_bivariate_closed_form(self):
        # at u = 1/2 the orthant bounds are 0: 1/4 + arcsin(rho) / (2 pi)
        for rho in (-0.9, -0.3, 0.0, 0.2, 0.5, 0.8, 0.95):
            est = union_exceedance([0.5, 0.5], equicorr(2, rho))
            want = 1.0 - (0.25 + math.asin(rho) / (2.0 * math.pi))
            assert est.value == pytest.approx(want, abs=1e-12)

    def test_trivariate_closed_form(self):
        # equicorrelated orthant at 0: 1/8 + 3 arcsin(rho) / (4 pi)
        for rho in (0.2, 0.5, 0.7):
            est = union_exceedance([0.5] * 3, equicorr(3, rho), seed=7)
            want = 1.0 - (0.125 + 3.0 * math.asin(rho) / (4.0 * math.pi))
            assert est.value == pytest.approx(want, abs=3 * max(est.error, 1e-9))

    def test_independence_product_rule_qmc(self):
        rng = np.random.default_rng(5)
        for dim in (3, 7, 8):
            u = rng.uniform(0.01, 0.5, size=dim)
            est = union_exceedance(u, equicorr(dim, 0.0), seed=11)
            if dim > MAX_EXACT_DIM:
                assert UnionRule(u, equicorr(dim, 0.0), seed=11).sampled
            want = 1.0 - np.prod(ndtr(-ndtri(u)))
            assert est.value == pytest.approx(want, abs=3 * est.error)

    def test_determinism(self):
        cm = random_correlation(np.random.default_rng(0), 7)
        u = np.array([0.02, 0.3, 0.1, 0.05, 0.01, 0.04, 0.2])
        a = union_exceedance(u, cm, seed=42)
        b = union_exceedance(u, cm, seed=42)
        assert (a.value, a.error) == (b.value, b.error)
        c = union_exceedance(u, cm, seed=43)
        assert a.value != c.value

    def test_error_honesty_scipy_cross_check(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(17)
        for trial in range(6):
            dim = int(rng.integers(3, 7))
            cm = random_correlation(rng, dim)
            hi = rng.uniform(-1.0, 2.0, size=dim)
            est = union_exceedance(ndtr(-hi), cm, seed=trial)
            # seeded, and integrated well below the 1e-5 floor, so the
            # oracle's own error cannot decide the comparison
            want = 1.0 - multivariate_normal(
                np.zeros(dim), cm.values, allow_singular=True,
                seed=trial, abseps=1e-6, releps=0.0,
            ).cdf(hi, lower_limit=np.full(dim, -40.0))
            assert est.value == pytest.approx(want, abs=max(3 * est.error, 1e-5))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            union_exceedance([0.1], equicorr(2, 0.0))

    def test_single_threshold_exact(self):
        est = union_exceedance([0.01], equicorr(1, 0.0))
        assert est == ProbEstimate(0.01, 0.0)

    def test_independent_pair(self):
        est = union_exceedance([0.0125, 0.0125], equicorr(2, 0.0))
        assert est.value == pytest.approx(1.0 - 0.9875**2, abs=1e-9)

    def test_zero_threshold_dropped(self):
        est = union_exceedance([0.01, 0.0], equicorr(2, 0.5))
        assert est == ProbEstimate(0.01, 0.0)

    def test_unit_threshold_certain(self):
        est = union_exceedance([0.3, 1.0, 0.2], equicorr(3, 0.5))
        assert est == ProbEstimate(1.0, 0.0)

    def test_all_zero(self):
        est = union_exceedance([0.0, 0.0], equicorr(2, 0.5))
        assert est == ProbEstimate(0.0, 0.0)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(23)
        for trial in range(40):
            dim = int(rng.integers(2, 6))
            cm = random_correlation(rng, dim)
            u = rng.uniform(0.0, 0.3, size=dim)
            est = union_exceedance(u, cm, seed=trial)
            slack = 3 * est.error + 1e-12
            assert est.value >= u.max() - slack
            assert est.value <= min(1.0, u.sum()) + slack
            # raising one threshold cannot lower the union probability
            u2 = u.copy()
            j = int(rng.integers(dim))
            u2[j] = min(1.0, u2[j] + rng.uniform(0.0, 0.2))
            est2 = union_exceedance(u2, cm, seed=trial)
            assert est2.value >= est.value - 3 * (est.error + est2.error) - 1e-12

    def test_matches_scipy_trivariate(self):
        from scipy.stats import multivariate_normal

        cm = equicorr(3, 0.5)
        u = np.array([0.010, 0.005, 0.010])
        est = union_exceedance(u, cm, seed=1)
        upper = -ndtri(u)
        # seeded, at abseps 1e-9: the default draws from the global RNG and
        # strays by up to 5e-6, more than the floor below
        want = 1.0 - multivariate_normal(
            np.zeros(3), cm.values, seed=1, abseps=1e-9
        ).cdf(upper, lower_limit=np.full(3, -40.0))
        assert est.value == pytest.approx(want, abs=max(3 * est.error, 2e-6))

    def test_invalid_threshold(self):
        with pytest.raises(InputError):
            union_exceedance([0.5, 1.2], equicorr(2, 0.0))
        with pytest.raises(InputError):
            union_exceedance([-0.1, 0.5], equicorr(2, 0.0))

    @pytest.mark.parametrize("u", [-0.5, 1.5, math.nan])
    def test_threshold_domain(self, u):
        with pytest.raises(InputError):
            union_exceedance([0.1, u, 0.2], equicorr(3, 0.3))

    @pytest.mark.parametrize("dim", [7, 8, 9, 10, 11])
    def test_equicorrelated_half_orthant_qmc(self, dim):
        # at rho = 1/2, Z_j = (E_j - E_0) / sqrt 2, so the orthant at 0 is
        # P(E_0 is the largest of dim + 1) = 1 / (dim + 1)
        est = union_exceedance([0.5] * dim, equicorr(dim, 0.5), seed=dim)
        assert UnionRule([0.5] * dim, equicorr(dim, 0.5), seed=dim).sampled
        assert est.value == pytest.approx(dim / (dim + 1.0), abs=3 * est.error)

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_one_factor_quadrature_qmc(self, dim):
        # mixed-sign loadings, checked against quadrature over the factor
        rng = np.random.default_rng(40 + dim)
        lam = rng.uniform(0.2, 0.9, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        u = rng.uniform(0.002, 0.05, size=dim)
        est = union_exceedance(u, one_factor(lam), seed=dim)
        assert est.value == pytest.approx(one_factor_union(u, lam), abs=3 * est.error)


class TestExactTrivariate:
    def test_union_matches_one_factor_quadrature(self):
        # equicorrelation 0.5 is one factor with loadings sqrt(0.5)
        lam = [math.sqrt(0.5)] * 3
        for u in ([0.010, 0.005, 0.010], [0.2, 0.05, 0.01], [0.6, 0.3, 0.45]):
            est = union_exceedance(u, equicorr(3, 0.5))
            assert est.error <= 1e-12
            assert est.value == pytest.approx(one_factor_union(u, lam), abs=1e-12)
        est = union_exceedance([0.010, 0.005, 0.010], equicorr(3, 0.5))
        assert est.value == pytest.approx(0.02237368435650633, abs=1e-13)

    def test_non_equicorrelated(self):
        # unequal and mixed-sign correlations
        lam = [0.9, -0.6, 0.4]
        cm = one_factor(lam)
        for u in ([0.01, 0.03, 0.002], [0.25, 0.1, 0.4]):
            est = union_exceedance(u, cm)
            assert est.error <= 1e-12
            assert est.value == pytest.approx(one_factor_union(u, lam), abs=1e-12)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 0.0])
    @pytest.mark.parametrize("r12", [0.3, -0.5])
    def test_near_singular_conditional_correlation(self, gap, r12):
        # Z3 is the normalized sum of Z1 and Z2 plus noise of variance gap,
        # so given any one of them the other two correlate at +-(1 - O(gap));
        # gap 0 is the singular limit
        r13 = math.sqrt((1.0 + r12) / 2.0) * math.sqrt(1.0 - gap)
        cm = CorrelationMatrix([[1.0, r12, r13], [r12, 1.0, r13], [r13, r13, 1.0]])
        for u in ([0.01, 0.02, 0.03], [0.2, 0.1, 0.05], [0.3, 0.3, 0.001]):
            est = union_exceedance(u, cm)
            assert est.error <= 1e-12
            a = ndtri(u)
            both = sum(
                bvn(a[i], a[j], cm.values[i, j]) for i, j in ((0, 1), (0, 2), (1, 2))
            )
            want = sum(u) - both + conditioned_quad(a, cm.values)
            assert est.value == pytest.approx(want, abs=1e-12)

    def test_rank_one_correlation(self):
        # Z2 = -Z1 and Z3 = Z1: the orthant is one interval for Z1, so the
        # union is max(u1, u3) + u2 while the two tails are disjoint, else 1
        cm = CorrelationMatrix([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
        est = union_exceedance([0.01, 0.02, 0.03], cm)
        assert est.value == pytest.approx(0.05, abs=1e-14)
        est = union_exceedance([0.6, 0.5, 0.1], cm)
        assert est.value == pytest.approx(1.0, abs=1e-14)
        est = union_exceedance([0.01, 0.02, 0.03], equicorr(3, 1.0))
        assert est.value == pytest.approx(0.03, abs=1e-14)

    def test_orthant_and_independence_exact(self):
        # u = 1/2 puts the bounds at 0: the zero-argument forms of the
        # bivariate kernel
        est = union_exceedance([0.5] * 3, equicorr(3, 0.0))
        assert est.value == pytest.approx(0.875, abs=1e-14)
        est = union_exceedance([0.5] * 3, equicorr(3, 0.5))
        assert est.value == pytest.approx(0.75, abs=1e-14)


def plackett_grid(dim):
    """Twenty hard (thresholds, correlation) cases in dimension dim:
    equicorrelated at 0.5, 0.9 and negative, random, and random about one
    factor with loadings of 0.9 to 0.99 in size (|rho| up to about 0.96),
    each at thresholds around 1e-6, 1e-3, 0.025 / dim and 0.3."""
    rng = np.random.default_rng(2024 + dim)
    for u0 in (1e-6, 1e-3, 0.025 / dim, 0.3):
        yield np.full(dim, u0), equicorr(dim, 0.5)
        yield np.full(dim, u0), equicorr(dim, 0.9)
        yield np.full(dim, u0), equicorr(dim, -0.9 / (dim - 1))
        yield rng.uniform(u0 / 3, 3 * u0, dim), random_correlation(rng, dim)
        lam = rng.uniform(0.9, 0.99, dim) * rng.choice([-1.0, 1.0], dim)
        e = 0.1 * rng.standard_normal((dim, dim))
        s = np.outer(lam, lam) + np.diag(1.0 - lam**2) + e @ e.T
        d = np.sqrt(np.diag(s))
        yield rng.uniform(u0 / 3, 3 * u0, dim), CorrelationMatrix(s / np.outer(d, d))


def symmetric_orthant(b, corr, n):
    """P(Z <= b[:, N]) for Z ~ N(0, corr[:, :, N]) by Plackett's reduction
    along the symmetric path (1 - t) I + t R, every pair moving, at n
    graded nodes on every level: the kernel's step before four to six
    dimensions took the one-variable step, kept as a reference
    independent of that step."""
    k = b.shape[0]
    if k < 3:
        return ndtr(b[0]) if k == 1 else _bvn(b[0], b[1], corr[0, 1])
    x, w = _graded_rule(n)
    i, j = np.triu_indices(k, 1)
    rest = np.array([[o for o in range(k) if o != a and o != c] for a, c in zip(i, j)]).T
    a, c = np.triu_indices(k - 2, 1)
    # (nodes, pairs, N), and (k-2, nodes, pairs, N) for the other variables
    t = x[:, None, None]
    rho = corr[i, j]
    r = t * rho
    s2 = (1.0 - r) * (1.0 + r)
    bi, bj = b[i], b[j]
    density = np.exp(-0.5 * (bi * bi - 2.0 * r * bi * bj + bj * bj) / s2) / (2.0 * math.pi * np.sqrt(s2))
    ri, rj = corr[rest, i][:, None], corr[rest, j][:, None]
    q = t / s2
    gi, gj = q * (ri - r * rj), q * (rj - r * ri)
    sd = np.sqrt(1.0 - t * (gi * ri + gj * rj))
    bounds = (b[rest][:, None] - gi * bi - gj * bj) / sd
    m = k - 2
    cond = np.ones((m, m) + bounds.shape[1:])
    cov = t * (corr[rest[a], rest[c]][:, None] - gi[a] * ri[c] - gj[a] * rj[c])
    cond[a, c] = cond[c, a] = cov / (sd[a] * sd[c])
    given = symmetric_orthant(bounds.reshape(m, -1), cond.reshape(m, m, -1), n).reshape(bounds.shape[1:])
    return np.prod(ndtr(b), axis=0) + (rho * np.tensordot(w, density * given, axes=1)).sum(axis=0)


_references = {}


def plackett_reference(u, cm):
    """The union by the symmetric step on a finer rule than any fit above
    three dimensions takes, 128 nodes; 256, the top of the ladder, at
    three. Each case's value is computed once per session."""
    u = np.asarray(u, dtype=float)
    key = (u.tobytes(), cm.values.tobytes())
    if key not in _references:
        nodes = 256 if cm.dim == 3 else 128
        _references[key] = 1.0 - float(symmetric_orthant(-ndtri(u)[:, None], cm.values[:, :, None], nodes)[0])
    return _references[key]


def pair_beside(dim, rho):
    """Correlation 0.3 throughout but rho for the pair (0, 1)."""
    v = np.full((dim, dim), 0.3)
    v[0, 1] = v[1, 0] = rho
    np.fill_diagonal(v, 1.0)
    return CorrelationMatrix(v)


class TestPlackettReduction:
    """Dimensions 3 to MAX_EXACT_DIM by Plackett's reduction: a graded
    Gauss-Legendre rule per fit, its error the gap to half the nodes."""

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_matches_one_factor_quadrature(self, dim):
        rng = np.random.default_rng(70 + dim)
        for trial in range(4):
            lam = rng.uniform(0.1, 0.95, size=dim) * rng.choice([-1.0, 1.0], size=dim)
            u = rng.uniform(1e-4, 0.1, size=dim)
            rule = UnionRule(u, one_factor(lam))
            assert not rule.sampled
            assert rule.estimate.error <= 1e-6
            assert rule.estimate.value == pytest.approx(one_factor_union(u, lam), abs=1e-10)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_equicorrelated_half_orthant_exact(self, dim):
        # zero bounds (u = 1/2) in every pair and every conditional
        # bivariate: the zero-bound forms, and no NaN
        rule = UnionRule([0.5] * dim, equicorr(dim, 0.5))
        assert not rule.sampled
        assert rule.estimate.value == pytest.approx(dim / (dim + 1.0), abs=1e-12)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_within_error_of_a_fine_qmc_fit(self, dim):
        # the QMC error is three standard errors of ten randomizations,
        # which is not always a bound: at u = 1e-6 and negative correlation
        # the fit sits 3.0 of them from the quadrature at 2^17 points (and
        # at 2^19 with another seed). The comparison takes the two-sided
        # 0.999 Student-t quantile on 9 degrees of freedom instead of 3.
        import closedmtp.mvnorm as mvnorm

        for case, (u, cm) in enumerate(plackett_grid(dim)):
            rule = UnionRule(u, cm)
            assert not rule.sampled, case
            qmc = mvnorm._QmcRule(cm.values, -ndtri(u), case, 1e-12, 1 << 17).estimate
            bound = rule.estimate.error + qmc.error * 4.78 / 3.0
            assert abs(rule.estimate.value - (1.0 - qmc.value)) <= bound, case

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_error_covers_a_128_node_value(self, dim):
        for case, (u, cm) in enumerate(plackett_grid(dim)):
            est = UnionRule(u, cm).estimate
            assert abs(est.value - plackett_reference(u, cm)) <= est.error, case

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_one_variable_and_symmetric_steps_agree(self, dim):
        # the kernel's one-variable step and the symmetric step agree
        # within the fit's reported error, at the fit and at 128 nodes
        cases = list(plackett_grid(dim))
        cases += [(np.full(dim, u0), pair_beside(dim, rho)) for u0 in (1e-6, 0.05) for rho in (0.999, -0.3)]
        for case, (u, cm) in enumerate(cases):
            est = UnionRule(u, cm).estimate
            symmetric = plackett_reference(u, cm)
            assert abs(est.value - symmetric) <= est.error, case
            one_variable = _plackett_unions(u, cm.values, (128,))[0]
            assert abs(one_variable - symmetric) <= est.error, case

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_zero_threshold_in_a_call_drops_out(self, dim):
        cm = random_correlation(np.random.default_rng(dim), dim)
        u = np.linspace(0.002, 0.02, dim)
        rule = UnionRule(u, cm)
        assert not rule.sampled
        u[1] = 0.0
        got = rule(u)
        want = union_exceedance(u, cm)
        assert np.isfinite(got.value)
        assert got.value == pytest.approx(want.value, abs=1e-12)

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_near_singular_falls_back_to_qmc(self, dim):
        # every pair at 0.9999: the 16-to-32 node gap is about 3e-6
        assert UnionRule(np.full(dim, 0.01), equicorr(dim, 0.9999)).sampled

    def test_rises_along_the_scale_of_a_root_solve(self):
        cm = random_correlation(np.random.default_rng(12), 6)
        u0 = np.array([0.004, 0.002, 0.003, 0.005, 0.004, 0.002])
        rule = UnionRule(u0, cm)
        assert not rule.sampled
        assert rule(u0) == rule.estimate
        values = np.array([rule(c * u0).value for c in np.linspace(1.0, 4.0, 31)])
        assert np.all(np.diff(values) > 0.0)
        # a step of 1e-6 in the scaling moves the union by at most ~5e-8
        steps = [rule((1.0 + t) * u0).value for t in np.linspace(0.0, 1e-6, 5)]
        assert np.all(np.abs(np.diff(steps)) <= 1e-7)
        assert np.all(np.diff(steps) >= 0.0)


class TestNearSingularPairs:
    """Pairs correlated near +-1, where a pair's rate along Plackett's path
    bends sharply at t = 1 and the graded rule has to resolve it."""

    @staticmethod
    def trivariate_grid():
        for u0 in (1e-6, 1e-3, 0.05):
            for rho in (0.9, 0.99, 0.999, 0.9999, -0.45, -0.499):
                yield f"equicorrelation {rho} at {u0}", u0, rho, equicorr(3, rho)
            for rho in (0.99, 0.999):
                yield f"pair {rho} at {u0}", u0, None, pair_beside(3, rho)

    @pytest.mark.parametrize("target", [1e-6, 1e-13])
    def test_trivariate_grid(self, target):
        # the trivariate quadrature that held k = 3 before met 1e-6 on all
        # but equicorrelation 0.999 and 0.9999 at u = 0.05, and 1e-13 on
        # all but equicorrelation 0.99 at u >= 1e-3 and 0.999 and 0.9999
        # everywhere; it reported at most 1e-12 wherever it met 1e-13.
        # The ladder to 256 nodes meets 1e-13 on every case.
        for name, u0, rho, cm in self.trivariate_grid():
            u = np.full(3, u0)
            rule = UnionRule(u, cm, target_error=target)
            est = rule.estimate
            assert not rule.sampled, name
            assert est.error <= 1e-13, name
            assert abs(est.value - plackett_reference(u, cm)) <= est.error, name
            if rho is not None and rho > 0.0:
                want = one_factor_union(u, [math.sqrt(rho)] * 3)
                assert abs(est.value - want) <= est.error + 1e-14, name

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_pairs_in_larger_blocks(self, dim):
        # a 0.99 or 0.999 pair beside 0.3: the 8-to-16 node gap meets 1e-6
        for u0 in (1e-6, 1e-3, 0.05):
            for rho in (0.99, 0.999):
                u, cm = np.full(dim, u0), pair_beside(dim, rho)
                rule = UnionRule(u, cm)
                assert not rule.sampled and rule._nodes == 16, (u0, rho)
                est = rule.estimate
                assert est.error <= 1e-6, (u0, rho)
                assert abs(est.value - plackett_reference(u, cm)) <= est.error, (u0, rho)

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_a_rank_deficient_block(self, dim):
        # Z_1 = Z_2 and the rest independent: the union of dim - 1
        # independent events
        v = np.eye(dim)
        v[0, 1] = v[1, 0] = 1.0
        cm = CorrelationMatrix(v)
        u = np.full(dim, 0.01)
        rule = UnionRule(u, cm)
        assert not rule.sampled
        est = rule.estimate
        assert abs(est.value - (1.0 - 0.99 ** (dim - 1))) <= est.error
        assert abs(est.value - plackett_reference(u, cm)) <= est.error


def unit_pairs(dim, pairs):
    """Independence but for the given ((a, b), rho) pairs."""
    v = np.eye(dim)
    for (a, b), rho in pairs:
        v[a, b] = v[b, a] = rho
    return CorrelationMatrix(v)


class TestUnitPairs:
    """Pairs at exactly +-1 in four to six dimensions. The one-variable
    step takes a member of the most correlated pair as its pivot, so one
    such pair moves with t; an event inside a +1 partner's is dropped."""

    @pytest.mark.parametrize("dim", [4, 5, 6])
    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_a_unit_pair_at_every_position(self, dim, rho):
        # the pair's union is 0.01 at +1 and 0.02 (disjoint tails) at -1
        want = 1.0 - (1.0 - (0.01 if rho > 0.0 else 0.02)) * 0.99 ** (dim - 2)
        for pair in zip(*np.triu_indices(dim, 1)):
            rule = UnionRule(np.full(dim, 0.01), unit_pairs(dim, [(pair, rho)]))
            assert not rule.sampled, pair
            assert abs(rule.estimate.value - want) <= rule.estimate.error, pair

    @pytest.mark.parametrize("dim", [4, 5, 6])
    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_a_unit_pair_beside_a_disjoint_minus_one_pair(self, dim, rho):
        # at -1 the pair off the pivot fixes one member given the other
        want = 1.0 - (0.99 if rho > 0.0 else 0.98) * 0.98 * 0.99 ** (dim - 4)
        for a, b, c, d in itertools.permutations(range(dim), 4):
            if a > b or c > d:
                continue
            rule = UnionRule(np.full(dim, 0.01), unit_pairs(dim, [((a, b), rho), ((c, d), -1.0)]))
            assert not rule.sampled, (a, b, c, d)
            assert abs(rule.estimate.value - want) <= rule.estimate.error, (a, b, c, d)

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_a_rank_one_signed_block(self, dim):
        # Z_i = s_i X: the orthant is the interval of X between the largest
        # -b_i of the negative signs and the smallest b_i of the positive ones
        rng = np.random.default_rng(40 + dim)
        for trial in range(12):
            s = rng.choice([-1.0, 1.0], dim)
            u = np.full(dim, 0.01) if trial % 3 == 0 else rng.uniform(0.001, 0.2, dim)
            b = -ndtri(u)
            hi = min([bi for bi, si in zip(b, s) if si > 0.0], default=math.inf)
            lo = max([-bi for bi, si in zip(b, s) if si < 0.0], default=-math.inf)
            want = 1.0 - max(0.0, ndtr(hi) - ndtr(lo))
            est = union_exceedance(u, CorrelationMatrix(np.outer(s, s)))
            assert abs(est.value - want) <= est.error, trial


def batch_columns(rng, dim, n):
    """n problems of dim events as columns (thresholds (dim, n),
    correlations (dim, dim, n)), drawn in turn from: random correlations;
    a pair at 0.999 beside 0.3; a +1 pair (dropped above three events);
    above three, a unit pair beside a -1 pair (a variable fixed off the
    pivot) and two -1 pairs at u = 1/2 (a tie, which falls back); and
    equicorrelation 0.9999 at u = 0.05, whose quadrature misses 1e-6."""
    kinds = ["random", "near", "plus"] + (["fixed", "tie"] if dim > 3 else []) + ["miss"]
    us, corrs = [], []
    for col in range(n):
        kind = kinds[col % len(kinds)]
        u = rng.uniform(1e-4, 0.2, dim)
        if kind == "random":
            cm = random_correlation(rng, dim)
        elif kind == "near":
            cm = pair_beside(dim, 0.999)
        elif kind == "plus":
            cm = pair_beside(dim, 1.0)
        elif kind == "fixed":
            cm = unit_pairs(dim, [((0, 1), 1.0), ((2, 3), -1.0)])
        elif kind == "tie":
            u, cm = np.full(dim, 0.5), unit_pairs(dim, [((0, 1), -1.0), ((2, 3), -1.0)])
        else:
            u, cm = np.full(dim, 0.05), equicorr(dim, 0.9999)
        us.append(u)
        corrs.append(cm.values)
    return np.array(us).T, np.stack(corrs, axis=2)


class TestBatchedFit:
    """Plackett's reduction on many problems at once gives each the floats
    it gets alone: ``_orthant`` sums in a fixed order, and the batched fit
    runs each ladder step on the columns still open."""

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_each_column_is_its_fit_alone(self, dim):
        rng = np.random.default_rng(90 + dim)
        kinds = 0
        for n in (1, 2, 7, 64):
            u, corr = batch_columns(rng, dim, n)
            value, error, nodes = _plackett_fits(u, corr, 1e-6)
            for col in range(n):
                alone = _plackett_fit(u[:, col], corr[:, :, col], 1e-6)
                if alone is None:
                    assert nodes[col] == 0 and np.isnan(value[col]), (n, col)
                    kinds |= 1
                else:
                    est, count = alone
                    assert (value[col], error[col], nodes[col]) == (est.value, est.error, count), (n, col)
                    kinds |= 2
        # both outcomes occur; at three events every kind here is fitted
        assert kinds == (2 if dim == 3 else 3)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_orthant_columns_do_not_depend_on_the_batch(self, dim):
        rng = np.random.default_rng(70 + dim)
        u, corr = batch_columns(rng, dim, 24)
        keep = slice(0, 24) if dim == 3 else [c for c in range(24) if c % 6 not in (2, 4)]
        b, corr = -ndtri(u[:, keep]), corr[:, :, keep]
        counts = (8, 16, 32)
        whole = _orthant(b, corr, counts)
        for width in (1, 5):
            parts = np.concatenate(
                [_orthant(b[:, s : s + width], corr[:, :, s : s + width], counts)
                 for s in range(0, b.shape[1], width)], axis=1,
            )
            assert np.array_equal(parts, whole, equal_nan=True), width

    def test_the_column_cap_changes_no_float(self, monkeypatch):
        import closedmtp.mvnorm as mvnorm

        u, corr = batch_columns(np.random.default_rng(5), 5, 40)
        want = _plackett_fits(u, corr, 1e-6)
        monkeypatch.setattr(mvnorm, "_FIT_COLUMNS", 3)
        got = _plackett_fits(u, corr, 1e-6)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)


class TestValueOnly:
    """A root solve's sums read ``UnionRule.value``: a quadrature rule's
    value at its node count alone, with the floats of the call that also
    evaluates half as many for the error, and ``_plackett_values`` gives
    every column of a batch that float."""

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_value_is_the_call_value_alone_and_batched(self, dim):
        rng = np.random.default_rng(110 + dim)
        u, corr = batch_columns(rng, dim, 18)
        cols, scaled, nodes, want = [], [], [], []
        for col in range(u.shape[1]):
            rule = UnionRule(u[:, col], CorrelationMatrix(corr[:, :, col]))
            # the reference, thresholds grown and one saturated at 1
            for x in (u[:, col], np.minimum(1.0, 1.7 * u[:, col]), u[:, col] / u[:, col].max()):
                assert rule.value(x) == rule(x).value, col
                if not rule.sampled:
                    cols.append(col)
                    scaled.append(x)
                    nodes.append(rule._nodes)
                    want.append(rule.value(x))
        assert len(set(cols)) >= 10
        got = _plackett_values(np.array(scaled).T, corr[:, :, cols], np.array(nodes))
        assert got.tolist() == want


def rank_two(k):
    """corr_ij = cos(theta_i - theta_j), theta = 0, 0.5, ..., (k - 1) / 2:
    Z_i = cos(theta_i) X + sin(theta_i) Y, rank two, so from k = 3 on a
    variable is fixed by two earlier ones."""
    theta = 0.5 * np.arange(k)
    return theta, CorrelationMatrix(np.cos(theta[:, None] - theta[None, :]))


def rank_two_union(theta, u, n=1 << 20):
    """The union for rank_two's correlation, by the midpoint rule in the
    polar angle phi of (X, Y): the orthant holds R = |(X, Y)| <= min over
    cos(phi - theta_i) > 0 of b_i / cos(phi - theta_i), and R is Rayleigh."""
    b = -ndtri(np.asarray(u, dtype=float))
    phi = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    cos = np.cos(phi[:, None] - theta[None, :])
    reach = np.where(cos > 0.0, b / np.where(cos > 0.0, cos, 1.0), np.inf).min(axis=1)
    return 1.0 - float(np.mean(-np.expm1(-0.5 * reach * reach)))


class TestSingularQmc:
    """A conditional variance at or below 1e-10 in the QMC factorization is
    a variable fixed by the earlier ones: its column stays zero, and its
    factor in the integrand is an indicator."""

    @pytest.mark.parametrize("k", [6, 7])
    def test_polar_reference_matches_seeded_monte_carlo(self, k):
        theta, _ = rank_two(k)
        u = np.full(k, 0.01)
        xy = np.random.default_rng(k).standard_normal((2, 1 << 21))
        z = np.cos(theta)[:, None] * xy[0] + np.sin(theta)[:, None] * xy[1]
        hits = (z > -ndtri(u)[:, None]).any(axis=0).mean()
        # about 0.0351 at k = 6 and 0.0402 at k = 7
        assert abs(hits - rank_two_union(theta, u)) <= 4.0 * math.sqrt(hits * (1.0 - hits) / xy.shape[1])

    def test_a_rank_two_block_of_seven(self):
        theta, cm = rank_two(7)
        u = np.full(7, 0.01)
        est = union_exceedance(u, cm)
        assert abs(est.value - rank_two_union(theta, u)) <= est.error

    def test_a_rank_two_block_of_six_on_qmc(self):
        import closedmtp.mvnorm as mvnorm

        theta, cm = rank_two(6)
        u = np.full(6, 0.01)
        exact = UnionRule(u, cm)
        assert not exact.sampled
        qmc = mvnorm._QmcRule(cm.values, -ndtri(u), 0, 1e-6, 1 << 16)
        gap = abs((1.0 - qmc.estimate.value) - exact.estimate.value)
        assert gap <= qmc.estimate.error + exact.estimate.error
        assert abs(exact.estimate.value - rank_two_union(theta, u)) <= exact.estimate.error


class TestBivariate:
    """The one bivariate, ``_bvn``: the closed forms of k = 2, the
    threshold table's array pass and the leaves of Plackett's reduction."""

    bounds = np.array([-3.2, -1.0, -0.2, 0.0, 0.4, 1.7, 4.5])

    def grid(self, rho):
        h, k = (a.ravel() for a in np.meshgrid(self.bounds, self.bounds, indexing="ij"))
        return h, k, _bvn(h, k, np.full(h.size, rho))

    def test_independence(self):
        h, k, got = self.grid(0.0)
        assert got.tobytes() == (ndtr(h) * ndtr(k)).tobytes()

    def test_perfect_correlation(self):
        h, k, got = self.grid(1.0)
        assert got.tobytes() == ndtr(np.minimum(h, k)).tobytes()
        h, k, got = self.grid(-1.0)
        assert got.tobytes() == np.maximum(0.0, ndtr(h) + ndtr(k) - 1.0).tobytes()

    def test_zero_bounds(self):
        rho = np.array([-0.999, -0.6, -1e-17, 1e-17, 0.3, 0.95, 0.999])
        got = _bvn(np.zeros(rho.size), np.zeros(rho.size), rho)
        want = [0.25 + math.asin(r) / (2.0 * math.pi) for r in rho]
        assert got.tolist() == want

    @pytest.mark.parametrize("rho", [-0.99, -0.6, 0.45, 0.99])
    def test_owens_t_forms_match_quadrature(self, rho):
        # every bound pair, one zero bound and none among them:
        # P(X <= h, Y <= k) = int_-inf^h phi(x) Phi((k - rho x) / s) dx
        s = math.sqrt(1.0 - rho * rho)
        h, k, got = self.grid(rho)
        for a, b, p in zip(h, k, got):
            want = quad(
                lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * ndtr((b - rho * x) / s),
                -40.0, a, epsabs=1e-15, epsrel=1e-13, limit=200,
            )[0]
            assert p == pytest.approx(want, abs=1e-14), (a, b)

    def test_pair_unions_are_the_rules_floats(self):
        # every entry the float a UnionRule gives the pair, on every branch
        # of the bivariate: a threshold of 1/2 (bound 0), in one or both
        # places, rho 0 and +-1, and rho near -1; pinned to the floats of
        # the scalar Owen's-T bivariate this one replaced
        us = [1e-9, 0.003, 0.0125, 0.3, 0.5, 0.7, 1.0 - 1e-9]
        rhos = [-1.0, -0.99, -0.6, 0.0, 1e-17, 0.45, 1.0]
        u, v, r = (a.ravel() for a in np.meshgrid(us, us, rhos, indexing="ij"))
        assert np.count_nonzero((u == 0.5) & (v == 0.5)) == len(rhos)
        got = _pair_unions(u, v, r)
        want = np.array([
            UnionRule([a, b], [[1.0, c], [c, 1.0]]).estimate.value for a, b, c in zip(u, v, r)
        ])
        assert got.tobytes() == want.tobytes()
        assert hashlib.sha1(got.tobytes()).hexdigest()[:12] == "ce34ec7a8ae4"


class TestUnionRule:
    def test_deterministic_and_within_error_of_kernel(self):
        cm = random_correlation(np.random.default_rng(3), 7)
        u0 = np.array([0.01, 0.02, 0.005, 0.01, 0.015, 0.01, 0.005])
        rule = UnionRule(u0, cm, seed=4, target_error=1e-5)
        assert rule.sampled
        for scale in (1.0, 1.1, 1.3):
            a, b = rule(scale * u0), rule(scale * u0)
            assert (a.value, a.error) == (b.value, b.error)
            ref = union_exceedance(scale * u0, cm, seed=8, target_error=1e-5)
            assert a.value == pytest.approx(ref.value, abs=a.error + ref.error)
        assert rule(u0).value == rule.estimate.value

    def test_fit_that_meets_its_target_is_one_kernel_pass(self, monkeypatch):
        # the first pass at 2^11 points meets the loose target, so fitting
        # the rule is that pass alone, and its estimate is the value a call
        # at the reference thresholds gives
        import closedmtp.mvnorm as mvnorm

        calls = []
        kernel = mvnorm._qmc_means

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(mvnorm, "_qmc_means", counted)
        u0 = np.array([0.01, 0.02, 0.01, 0.005, 0.01, 0.02, 0.01])
        cm = random_correlation(np.random.default_rng(6), 7)
        rule = UnionRule(u0, cm, seed=1, target_error=1e-3)
        assert rule.sampled
        assert len(calls) == 1
        assert rule.estimate.error <= 1e-3
        assert rule(u0) == rule.estimate
        assert union_exceedance(u0, cm, seed=1, target_error=1e-3) == rule.estimate
        assert len(calls) == 3

    def test_refinement_integrates_each_point_once(self, monkeypatch):
        # a fit refined from 2^11 to n integrates n points per shift in all:
        # each refinement adds only the points [n, 4n) on the same shifts,
        # one kernel pass each, and a call at the reference pools the same
        # segments into the same estimate
        import closedmtp.mvnorm as mvnorm

        points = []
        kernel = mvnorm._qmc_means

        def counted(L, b, base, *rest):
            points.append(base.shape[1])
            return kernel(L, b, base, *rest)

        monkeypatch.setattr(mvnorm, "_qmc_means", counted)
        cm = random_correlation(np.random.default_rng(3), 7)
        u0 = np.array([0.01, 0.02, 0.005, 0.01, 0.015, 0.01, 0.005])
        rule = UnionRule(u0, cm, seed=4, target_error=1e-6)
        n = rule._qmc.n
        assert n > 1 << 11
        assert len(points) == 1 + (n // (1 << 11)).bit_length() // 2
        assert sum(points) == n
        assert rule(u0) == rule.estimate
        assert points[-1] == n

    def test_continuous_in_the_thresholds(self):
        cm = random_correlation(np.random.default_rng(6), 7)
        u0 = np.array([0.01, 0.02, 0.01, 0.005, 0.01, 0.02, 0.01])
        rule = UnionRule(u0, cm, seed=1, target_error=1e-4)
        values = [rule((1.0 + t) * u0).value for t in np.linspace(0.0, 1e-6, 5)]
        # a step of 1e-6 in the scaling moves the union by at most ~5e-8
        assert np.all(np.abs(np.diff(values)) <= 1e-7)
        assert np.all(np.diff(values) >= -1e-12)

    def test_exact_paths_need_no_rule(self):
        rule = UnionRule([0.01, 0.02, 0.01], equicorr(3, 0.5))
        assert not rule.sampled
        assert not rule.refine()
        want = union_exceedance([0.012, 0.024, 0.012], equicorr(3, 0.5))
        assert rule([0.012, 0.024, 0.012]) == want
        assert rule([0.5, 1.0, 0.2]) == ProbEstimate(1.0, 0.0)

    def test_refine_stops_at_the_cap(self):
        cm = random_correlation(np.random.default_rng(2), 7)
        rule = UnionRule([0.01] * 7, cm, target_error=1e-12, max_points=1 << 12)
        assert not rule.refine()

    def test_refine_past_the_fit_cap_matches_a_wider_fit(self):
        # a rule fitted under a cap of 2^11 can still be refined to a larger
        # one, onto the same points as a rule fitted under that cap
        cm = random_correlation(np.random.default_rng(2), 7)
        u = np.array([0.01, 0.02, 0.01, 0.005, 0.01, 0.02, 0.01])
        narrow = UnionRule(u, cm, seed=5, target_error=1.0, max_points=1 << 11)
        wide = UnionRule(u, cm, seed=5, target_error=1.0, max_points=1 << 14)
        assert narrow.estimate == wide.estimate
        assert not narrow.refine()
        assert narrow.refine(1 << 14) and wide.refine()
        assert narrow.refine(1 << 14) and wide.refine()
        assert not narrow.refine(1 << 14) and not wide.refine()
        assert narrow.estimate == wide.estimate
        assert narrow(1.5 * u) == wide(1.5 * u)

    def test_thresholds_validated(self):
        with pytest.raises(InputError):
            UnionRule([0.01, 0.0, 0.02], equicorr(3, 0.5))
        with pytest.raises(InputError):
            UnionRule([0.01, 0.02], equicorr(3, 0.5))

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_threshold_domain(self, u):
        # a rule is fitted strictly inside (0, 1), exact, by quadrature or sampled
        for dim in (2, 4, 7):
            with pytest.raises(InputError):
                UnionRule([0.01] * (dim - 1) + [u], equicorr(dim, 0.5))

    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    @pytest.mark.parametrize("bad", ["short", "long", "nan", "negative", "above one"])
    def test_call_checks_its_thresholds(self, dim, bad):
        # a call takes thresholds as union_exceedance does: one per
        # dimension, each in [0, 1], on the exact, quadrature and sampled
        # rules alike
        rule = UnionRule(np.full(dim, 0.01), equicorr(dim, 0.3), target_error=1e-3)
        assert rule.sampled == (dim > MAX_EXACT_DIM)
        u = {
            "short": np.full(dim - 1, 0.01),
            "long": np.full(dim + 1, 0.01),
            "nan": np.r_[np.full(dim - 1, 0.01), math.nan],
            "negative": np.r_[np.full(dim - 1, 0.01), -0.5],
            "above one": np.r_[np.full(dim - 1, 0.01), 1.5],
        }[bad]
        with pytest.raises(InputError, match="threshold"):
            rule(u)
        with pytest.raises(InputError, match="threshold"):
            union_exceedance(u, equicorr(dim, 0.3))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_qmc_orthant_matches_exact(self, dim, seed):
        # the QMC pass, run where the exact inclusion-exclusion also holds
        import closedmtp.mvnorm as mvnorm

        rng = np.random.default_rng(10 * dim + seed)
        cm = random_correlation(rng, dim)
        u = rng.uniform(0.005, 0.3, size=dim)
        qmc = mvnorm._QmcRule(cm.values, -ndtri(u), seed, 1e-6, 1 << 16)
        exact = UnionRule(u, cm)
        assert not exact.sampled
        assert 1.0 - qmc.estimate.value == pytest.approx(
            exact.estimate.value, abs=3 * qmc.estimate.error + 1e-12
        )


def check_blocked_pass(rng, dim, upper):
    import closedmtp.mvnorm as mvnorm

    corr = random_correlation(rng, dim).values
    L, perm = mvnorm._reordered_cholesky(corr, upper)
    upper = upper[perm]
    shifts = rng.integers(0, 1 << 32, size=(10, dim - 1), dtype=np.uint64)
    # below one block, one block exactly, and many blocks
    for n in (2, 1 << 11, 1 << 16):
        base = mvnorm._sobol_base(dim - 1, n)
        cuts = [0, n] if n == 2 else [0, n // 4, n]
        # base holds one row per coordinate; the reference takes (S, n, k-1)
        pts = ((base.T[None, :, :] ^ shifts[:, None, :]).astype(float) + 0.5) / float(1 << 32)
        got = mvnorm._qmc_means(L, upper, base, shifts, cuts)
        want = unblocked_means(L, upper, pts, cuts)
        assert got.tobytes() == want.tobytes(), (dim, n)


def scipy_sobol_ints(dim, n):
    from scipy.stats import qmc

    pts = qmc.Sobol(d=dim, scramble=False).random_base2(int(n - 1).bit_length())
    return np.floor(pts * float(1 << 32)).astype(np.uint64)


class TestSobolPoints:
    @pytest.mark.parametrize("dim", range(1, 20))
    def test_points_are_scipys(self, monkeypatch, dim):
        # the integers floor(2^32 x) of scipy's unscrambled Sobol' points,
        # one contiguous uint32 row per dimension; each n from an empty
        # cache, and again as a prefix of the largest
        import closedmtp.mvnorm as mvnorm

        for n in (2, 1 << 11, 1 << 16):
            monkeypatch.setattr(mvnorm, "_sobol_ints", np.zeros((0, 0), dtype=np.uint32))
            got = mvnorm._sobol_base(dim, n)
            assert got.dtype == np.uint32 and got.shape == (dim, n)
            assert all(row.flags.c_contiguous for row in got)
            assert np.array_equal(got.T, scipy_sobol_ints(dim, n)), n
        for n in (2, 1 << 11):
            assert np.array_equal(mvnorm._sobol_base(dim, n).T, scipy_sobol_ints(dim, n)), n

    @pytest.mark.parametrize("dim", [1, 5, 19])
    def test_long_prefix(self, monkeypatch, dim):
        import closedmtp.mvnorm as mvnorm

        monkeypatch.setattr(mvnorm, "_sobol_ints", np.zeros((0, 0), dtype=np.uint32))
        assert np.array_equal(mvnorm._sobol_base(dim, 1 << 18).T, scipy_sobol_ints(dim, 1 << 18))

    def test_cache_grows_in_both_directions(self, monkeypatch):
        import closedmtp.mvnorm as mvnorm

        monkeypatch.setattr(mvnorm, "_sobol_ints", np.zeros((0, 0), dtype=np.uint32))
        small = mvnorm._sobol_base(3, 1 << 12)
        assert mvnorm._sobol_ints.shape == (3, 1 << 12)
        assert np.array_equal(mvnorm._sobol_base(2, 1 << 14)[:, : 1 << 12], small[:2])
        assert mvnorm._sobol_ints.shape == (3, 1 << 14)
        assert np.array_equal(mvnorm._sobol_base(6, 1 << 10)[:3], small[:, : 1 << 10])
        assert mvnorm._sobol_ints.shape == (6, 1 << 14)
        assert not mvnorm._sobol_ints.flags.writeable


class TestGeneratorBounds:
    # both are refused before any rule, point or scipy.stats is touched
    @pytest.mark.parametrize("points", [(1 << 30) + 1, 1 << 31, 10**30])
    def test_max_points_above_the_sobol_range(self, points):
        u = np.full(4, 0.01)
        with pytest.raises(InputError, match="2\\^30"):
            union_exceedance(u, equicorr(4, 0.5), max_points=points)
        with pytest.raises(InputError, match="2\\^30"):
            UnionRule(u, equicorr(4, 0.5), max_points=points)

    def test_max_points_at_the_sobol_range(self):
        # a loose target stops at the first 2^11-point pass
        est = union_exceedance(np.full(7, 0.01), equicorr(7, 0.5), target_error=1.0, max_points=1 << 30)
        assert 0.0 < est.value < 0.07

    def test_dimension_above_max_hypotheses(self):
        from closedmtp.subsets import MAX_HYPOTHESES

        corr = np.eye(MAX_HYPOTHESES + 1)
        with pytest.raises(InputError, match="at most 20"):
            union_exceedance(np.full(MAX_HYPOTHESES + 1, 0.001), corr)
        with pytest.raises(InputError, match="at most 20"):
            UnionRule(np.full(MAX_HYPOTHESES + 1, 0.001), corr)

    def test_dimension_at_max_hypotheses(self):
        # independent events: the integrand is constant, so the QMC value is
        # the product form to rounding
        u = np.full(20, 0.001)
        est = union_exceedance(u, np.eye(20), target_error=1e-3)
        assert est.value == pytest.approx(1.0 - 0.999**20, abs=1e-12)


class TestKernelPass:
    @pytest.mark.parametrize("dim", [4, 5, 6, 7, 8])
    def test_blocked_pass_equals_unblocked_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        check_blocked_pass(rng, dim, rng.uniform(0.5, 2.5, size=dim))

    @pytest.mark.parametrize("dim", [4, 5, 6, 7, 8])
    def test_blocked_pass_in_the_far_tail(self, dim):
        # negative bounds: small orthants, whose conditional masses are
        # small at every step of the integrand
        rng = np.random.default_rng(dim + 10)
        check_blocked_pass(rng, dim, -rng.uniform(0.5, 2.5, size=dim))

    def test_capped_evaluation_holds_no_point_array(self):
        # one evaluation of a k=7 rule at the 2^16 cap: the whole (10, 2^16,
        # 6) float point array alone would take 31 MB
        import tracemalloc

        cm = random_correlation(np.random.default_rng(6), 7)
        u = np.full(7, 0.004)
        rule = UnionRule(u, cm, seed=3, target_error=1e-9)
        assert rule._qmc.n == 1 << 16
        tracemalloc.start()
        try:
            rule(1.1 * u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13e6, peak


class TestSolveMonotone:
    def test_identity(self):
        c = solve_monotone(lambda x: x, 0.5, (0.0, 1.0), tol=1e-9)
        assert c == pytest.approx(0.5, abs=1e-9)

    def test_two_independent_events(self):
        # union of two independent level-c*0.0125 events reaching 0.025
        c = solve_monotone(
            lambda x: 1.0 - (1.0 - 0.0125 * x) ** 2, 0.025, (1.0, 80.0), tol=1e-8
        )
        want = (1.0 - math.sqrt(0.975)) / 0.0125
        assert want == pytest.approx(1.006329367474006, abs=1e-12)
        assert c == pytest.approx(want, abs=1e-5)

    def test_two_independent_events_level_05(self):
        c = solve_monotone(
            lambda x: 1.0 - (1.0 - 0.025 * x) ** 2, 0.05, (1.0, 40.0), tol=1e-8
        )
        want = (1.0 - math.sqrt(0.95)) / 0.025
        assert want == pytest.approx(1.0128226207641466, abs=1e-12)
        assert c == pytest.approx(want, abs=1e-5)

    def test_flat_region_smallest_crossing(self):
        # f is flat at the target on [2, 3]; smallest crossing is 2
        def f(x):
            return min(x, 2.0) + max(0.0, x - 3.0)

        c = solve_monotone(f, 2.0, (0.0, 10.0), tol=1e-7)
        assert c == pytest.approx(2.0, abs=1e-6)

    def test_bracket_errors(self):
        with pytest.raises(BracketError):
            solve_monotone(lambda x: x, 5.0, (0.0, 1.0))
        with pytest.raises(BracketError):
            solve_monotone(lambda x: x, -1.0, (0.0, 1.0))
        with pytest.raises(InputError):
            solve_monotone(lambda x: x, 0.5, (1.0, 0.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # an infinite tolerance used to end the search at once, at the
        # bracket's midpoint
        with pytest.raises(InputError, match="root_tol"):
            solve_monotone(lambda x: x, 0.5, (0.0, 1.0), tol=tol)

    @pytest.mark.parametrize("f, target, bracket", [
        (lambda x: x * x, 2.0, (1.0, 2.0)),
        (lambda x: x, 0.3, (0.0, 1.0)),
        # flat at the target from 0.3 on
        (lambda x: min(x, 0.3), 0.3, (0.0, 1.0)),
    ])
    def test_a_tolerance_below_the_float_spacing_ends(self, f, target, bracket):
        # no bracket near the root is 1e-17 wide: the search stops at two
        # adjacent floats and returns the upper one, the smallest float
        # that reaches the target; f raises instead of letting a search
        # that does not end hang the test
        calls = []

        def counted(x):
            calls.append(x)
            if len(calls) > 300:
                raise RuntimeError("solve_monotone did not end")
            return f(x)

        c = solve_monotone(counted, target, bracket, tol=1e-17)
        assert f(c) >= target > f(math.nextafter(c, -math.inf))

    def test_smooth_function_needs_few_evaluations(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 - (1.0 - 0.0125 * x) ** 2

        c = solve_monotone(f, 0.025, (1.0, 80.0), tol=1e-8)
        assert c == pytest.approx((1.0 - math.sqrt(0.975)) / 0.0125, abs=1e-8)
        # bisection would take log2(79 / 1e-8) = 33 steps
        assert len(calls) <= 15, len(calls)
