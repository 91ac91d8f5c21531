"""Kernel tests: univariate wrappers, rectangle/union probabilities, root solves."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from closedmtp.exceptions import BracketError, InputError
from closedmtp.mvnorm import (
    CorrelationMatrix,
    ProbEstimate,
    UnionRule,
    _bvn_cdf,
    mvn_rectangle,
    solve_monotone,
    std_normal_cdf,
    std_normal_quantile,
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


def one_factor(lam):
    """Correlation lam_i * lam_j off the diagonal: Z_j = lam_j W + sqrt(1 - lam_j^2) E_j."""
    lam = np.asarray(lam, dtype=float)
    v = np.outer(lam, lam)
    np.fill_diagonal(v, 1.0)
    return CorrelationMatrix(v)


def one_factor_rectangle(lower, upper, lam):
    """P(lower < Z <= upper) for a one-factor correlation, by adaptive quadrature
    over the common factor W (independent of the kernel's reduction)."""
    lam = np.asarray(lam, dtype=float)
    s = np.sqrt(1.0 - lam**2)

    def given_w(w):
        out = 1.0
        for lo, hi, l, sd in zip(lower, upper, lam, s):
            if sd == 0.0:
                out *= float(lo < l * w <= hi)
            else:
                out *= std_normal_cdf((hi - l * w) / sd) - std_normal_cdf((lo - l * w) / sd)
        return math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) * out

    # the integrand bends where a bound meets lam_j * W, over a width
    # sqrt(1 - lam_j^2) / |lam_j|; cuts at doubling distances resolve it
    cuts = {-12.0, 12.0}
    for b, l, sd in zip(np.concatenate([lower, upper]), np.tile(lam, 2), np.tile(s, 2)):
        if l == 0.0 or not math.isfinite(b):
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
    the Owen's T bivariate probability of (Z1, Z2) given Z3.

    The kernel conditions on the variable least correlated with the
    others, which for the matrices used here is never Z3. Cuts at doubling
    distances resolve the bend where the conditional bounds cross.
    """
    corr = np.asarray(corr, dtype=float)
    r = corr[:2, 2]
    s = np.sqrt(1.0 - r**2)
    rho = min(1.0, max(-1.0, (corr[0, 1] - r[0] * r[1]) / (s[0] * s[1])))

    def given_x(x):
        b = (np.asarray(h[:2]) - r * x) / s
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * _bvn_cdf(b[0], b[1], rho)

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
    upper = -np.array([std_normal_quantile(x) for x in u])
    return 1.0 - one_factor_rectangle(np.full(len(u), -np.inf), upper, lam)


class TestUnivariate:
    def test_cdf_symmetry(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_saturation(self):
        assert std_normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)
        assert std_normal_cdf(-40.0) == 0.0

    def test_cdf_reference_point(self):
        # 97.5% point of the standard normal
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_quantile_symmetry(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_quantile_reference_point(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_round_trip(self):
        u = 0.0123
        assert std_normal_cdf(std_normal_quantile(u)) == pytest.approx(u, abs=1e-10)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.5, 1.5])
    def test_quantile_domain(self, u):
        with pytest.raises(InputError):
            std_normal_quantile(u)


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


class TestRectangle:
    def test_bivariate_orthant_independent(self):
        est = mvn_rectangle([-np.inf, -np.inf], [0.0, 0.0], equicorr(2, 0.0))
        assert est.value == pytest.approx(0.25, abs=1e-13)

    def test_bivariate_orthant_closed_form(self):
        # P(Z1<=0, Z2<=0) = 1/4 + arcsin(rho)/(2 pi)
        for rho in (-0.9, -0.3, 0.2, 0.5, 0.8, 0.95):
            est = mvn_rectangle([-np.inf, -np.inf], [0.0, 0.0], equicorr(2, rho))
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert est.value == pytest.approx(want, abs=1e-12)

    def test_trivariate_orthant_closed_form(self):
        # equicorrelated orthant: 1/8 + 3 arcsin(rho) / (4 pi)
        for rho in (0.2, 0.5, 0.7):
            est = mvn_rectangle([-np.inf] * 3, [0.0] * 3, equicorr(3, rho), seed=7)
            want = 0.125 + 3.0 * math.asin(rho) / (4.0 * math.pi)
            assert est.value == pytest.approx(want, abs=3 * max(est.error, 1e-9))
        est = mvn_rectangle([-np.inf] * 3, [0.0] * 3, equicorr(3, 0.5), seed=3)
        assert est.value == pytest.approx(0.25, abs=3 * max(est.error, 1e-9))

    def test_univariate_reduction(self):
        est = mvn_rectangle([-np.inf], [1.959964], equicorr(1, 0.0))
        assert est.value == pytest.approx(0.975, abs=1e-6)
        assert est.error <= 1e-14

    def test_finite_bivariate_against_products(self):
        est = mvn_rectangle([-1.0, 0.5], [2.0, 1.5], equicorr(2, 0.0))
        want = (std_normal_cdf(2.0) - std_normal_cdf(-1.0)) * (
            std_normal_cdf(1.5) - std_normal_cdf(0.5)
        )
        assert est.value == pytest.approx(want, abs=1e-13)

    def test_independence_product_rule_qmc(self):
        rng = np.random.default_rng(5)
        for dim in (3, 4, 5):
            lo = rng.uniform(-2.0, -0.5, size=dim)
            hi = rng.uniform(0.0, 2.0, size=dim)
            est = mvn_rectangle(lo, hi, equicorr(dim, 0.0), seed=11)
            want = np.prod([std_normal_cdf(h) - std_normal_cdf(l) for l, h in zip(lo, hi)])
            assert est.value == pytest.approx(want, abs=3 * est.error)

    def test_vacuous_dimensions_dropped(self):
        cm = equicorr(3, 0.4)
        est = mvn_rectangle([-np.inf, -np.inf, -np.inf], [0.0, np.inf, 0.0], cm, seed=2)
        want = 0.25 + math.asin(0.4) / (2.0 * math.pi)
        assert est.value == pytest.approx(want, abs=1e-12)
        assert est.error <= 1e-12

    def test_all_vacuous(self):
        est = mvn_rectangle([-np.inf, -np.inf], [np.inf, np.inf], equicorr(2, 0.3))
        assert est == ProbEstimate(1.0, 0.0)

    def test_determinism(self):
        cm = random_correlation(np.random.default_rng(0), 4)
        lo = np.array([-2.0, -1.0, -np.inf, -0.5])
        hi = np.array([1.0, 2.0, 0.5, 1.5])
        a = mvn_rectangle(lo, hi, cm, seed=42)
        b = mvn_rectangle(lo, hi, cm, seed=42)
        assert (a.value, a.error) == (b.value, b.error)
        c = mvn_rectangle(lo, hi, cm, seed=43)
        assert a.value != c.value

    def test_error_honesty_scipy_cross_check(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(17)
        for trial in range(6):
            dim = int(rng.integers(3, 7))
            cm = random_correlation(rng, dim)
            hi = rng.uniform(-1.0, 2.0, size=dim)
            est = mvn_rectangle(np.full(dim, -np.inf), hi, cm, seed=trial)
            # seeded, and integrated well below the 1e-5 floor, so the
            # oracle's own error cannot decide the comparison
            want = multivariate_normal(
                np.zeros(dim), cm.values, allow_singular=True,
                seed=trial, abseps=1e-6, releps=0.0,
            ).cdf(hi, lower_limit=np.full(dim, -40.0))
            assert est.value == pytest.approx(want, abs=max(3 * est.error, 1e-5))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            mvn_rectangle([-1.0], [1.0], equicorr(2, 0.0))

    def test_crossed_bounds(self):
        with pytest.raises(InputError):
            mvn_rectangle([1.0, 0.0], [0.0, 1.0], equicorr(2, 0.0))


class TestUnionExceedance:
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
        upper = -np.array([std_normal_quantile(x) for x in u])
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
        # unequal and mixed-sign correlations; finite lower bounds exercise
        # the inclusion-exclusion over corners
        lam = [0.9, -0.6, 0.4]
        cm = one_factor(lam)
        for u in ([0.01, 0.03, 0.002], [0.25, 0.1, 0.4]):
            est = union_exceedance(u, cm)
            assert est.error <= 1e-12
            assert est.value == pytest.approx(one_factor_union(u, lam), abs=1e-12)
        lo, hi = np.array([-1.0, -np.inf, 0.3]), np.array([0.5, 1.2, np.inf])
        est = mvn_rectangle(lo, hi, cm)
        assert est.error <= 1e-12
        assert est.value == pytest.approx(one_factor_rectangle(lo, hi, lam), abs=1e-12)

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
            a = [std_normal_quantile(x) for x in u]
            both = sum(
                _bvn_cdf(a[i], a[j], cm.values[i, j]) for i, j in ((0, 1), (0, 2), (1, 2))
            )
            want = sum(u) - both + conditioned_quad(a, cm.values)
            assert est.value == pytest.approx(want, abs=1e-12)

    def test_rank_one_correlation(self):
        # Z2 = -Z1 and Z3 = Z1: the event is one interval for Z1
        cm = CorrelationMatrix([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
        est = mvn_rectangle([-1.0, -2.0, -0.5], [1.0, 2.0, 3.0], cm)
        want = std_normal_cdf(1.0) - std_normal_cdf(-0.5)
        assert est.value == pytest.approx(want, abs=1e-14)
        est = union_exceedance([0.01, 0.02, 0.03], equicorr(3, 1.0))
        assert est.value == pytest.approx(0.03, abs=1e-14)

    def test_orthant_and_independence_exact(self):
        # zero bounds hit the zero-argument forms of the bivariate kernel
        est = mvn_rectangle([-np.inf] * 3, [0.0] * 3, equicorr(3, 0.0))
        assert est.value == pytest.approx(0.125, abs=1e-14)
        est = mvn_rectangle([-np.inf] * 3, [0.0] * 3, equicorr(3, 0.5))
        assert est.value == pytest.approx(0.25, abs=1e-14)


class TestUnionRule:
    def test_deterministic_and_within_error_of_kernel(self):
        cm = random_correlation(np.random.default_rng(3), 5)
        u0 = np.array([0.01, 0.02, 0.005, 0.01, 0.015])
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
        u0 = np.array([0.01, 0.02, 0.01, 0.005])
        cm = random_correlation(np.random.default_rng(6), 4)
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

        def counted(L, a, b, pts, *rest):
            points.append(pts.shape[1])
            return kernel(L, a, b, pts, *rest)

        monkeypatch.setattr(mvnorm, "_qmc_means", counted)
        cm = random_correlation(np.random.default_rng(3), 5)
        u0 = np.array([0.01, 0.02, 0.005, 0.01, 0.015])
        rule = UnionRule(u0, cm, seed=4, target_error=1e-6)
        n = rule._qmc.n
        assert n > 1 << 11
        assert len(points) == 1 + (n // (1 << 11)).bit_length() // 2
        assert sum(points) == n
        assert rule(u0) == rule.estimate
        assert points[-1] == n

    def test_continuous_in_the_thresholds(self):
        cm = random_correlation(np.random.default_rng(6), 4)
        u0 = np.array([0.01, 0.02, 0.01, 0.005])
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
        cm = random_correlation(np.random.default_rng(2), 4)
        rule = UnionRule([0.01] * 4, cm, target_error=1e-12, max_points=1 << 12)
        assert not rule.refine()

    def test_thresholds_validated(self):
        with pytest.raises(InputError):
            UnionRule([0.01, 0.0, 0.02], equicorr(3, 0.5))
        with pytest.raises(InputError):
            UnionRule([0.01, 0.02], equicorr(3, 0.5))


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

    def test_smooth_function_needs_few_evaluations(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 - (1.0 - 0.0125 * x) ** 2

        c = solve_monotone(f, 0.025, (1.0, 80.0), tol=1e-8)
        assert c == pytest.approx((1.0 - math.sqrt(0.975)) / 0.0125, abs=1e-8)
        # bisection would take log2(79 / 1e-8) = 33 steps
        assert len(calls) <= 15, len(calls)
