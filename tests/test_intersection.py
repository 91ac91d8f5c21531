"""Tests for single-intersection p-values, critical scalings and block methods."""

from pathlib import Path

import re
import warnings

import numpy as np
import pytest

from closedmtp.closure import TestProblem, decision_thresholds, run_closure
from closedmtp.exceptions import InputError
from closedmtp.intersection import (
    CorrelationModel,
    bonferroni_pvalue,
    derived_seed,
    parametric_c,
    parametric_pvalue,
    partitioned_common_scale,
    partitioned_pvalue_common,
    partitioned_pvalue_subsets,
    partitioned_subset_scales,
    xie_pvalue,
)
from closedmtp.intersection import _block_unions, _common_pvalues, _scales
from closedmtp.mvnorm import (
    DEFAULT_MAX_POINTS,
    DEFAULT_ROOT_TOL,
    DEFAULT_TARGET_ERROR,
    MAX_EXACT_DIM,
    CorrelationMatrix,
    union_exceedance,
)
from closedmtp.subsets import member_table, members
from closedmtp.weighting import WeightingScheme, constant_scheme
from per_row_pvalues import ESTIMATES, common_scale, subset_scales

TUTORIAL_PROBLEM = Path(__file__).resolve().parents[1] / "tutorial" / "trial_problem.json"


def equicorr(dim, rho):
    return CorrelationMatrix(np.full((dim, dim), rho) + (1.0 - rho) * np.eye(dim))


def random_correlation(rng, dim):
    a = rng.normal(size=(dim, dim + 2))
    cov = a @ a.T + 1e-3 * np.eye(dim)
    d = np.sqrt(np.diag(cov))
    return CorrelationMatrix(cov / np.outer(d, d))


# independent oracle values, frozen: scipy.stats.multivariate_normal.cdf
# for bivariate rectangles plus scipy.optimize.brentq at xtol=1e-13
C_BLOCK_23 = 1.0568567973684619
C_COMMON_234 = 1.0330582735870866
P_BLOCK_23 = 0.0143487144353114
# closed forms: equal-weight independent pair/trio exactness equations
C_DUNNETT_PAIR = 1.0128226207641466  # (1 - sqrt(0.95)) / 0.025
C_TRIO = 1.0171456505064902  # 3 * (1 - 0.95**(1/3)) / 0.05


class TestCorrelationModel:
    def test_full_block_membership(self):
        model = CorrelationModel.full(equicorr(3, 0.4))
        assert model.m == 3
        assert model.blocks == ((0, 1, 2),)
        assert model.block_of(2) == 0
        assert model.covers((0, 2))

    def test_non_integer_block_members_rejected(self):
        # ((0.2,), (1.9,), (2,)) once built the blocks (0,), (1,), (2,)
        with pytest.raises(InputError, match="integers"):
            CorrelationModel(3, ((0.2,), (1.9,), (2,)), (None, None, None))
        model = CorrelationModel(3, (np.array([0, 2]), (np.int64(1),)), (equicorr(2, 0.4), None))
        assert model.blocks == ((0, 2), (1,))
        assert model.block_of(np.int64(1)) == 1 and model.covers(np.array([0, 2]))
        for j in (0.5, 2.0, True):
            with pytest.raises(InputError):
                model.block_of(j)
        for subset in ((0.5, 1.7), 3, None):
            with pytest.raises(InputError):
                model.covers(subset)

    def test_independent_blocks(self):
        model = CorrelationModel.independent_blocks(4)
        assert model.blocks == ((0,), (1,), (2,), (3,))
        assert not model.covers((0, 1))
        assert model.covers((3,))

    def test_two_block_partition(self):
        model = CorrelationModel(
            4, ((1, 2), (0,), (3,)), (equicorr(2, 0.5), None, None)
        )
        # blocks come back sorted by first member
        assert model.blocks == ((0,), (1, 2), (3,))
        assert model.block_of(0) == 0
        assert model.block_of(2) == 1

    def test_empty_subset_rejected(self):
        model = CorrelationModel.full(equicorr(3, 0.4))
        with pytest.raises(InputError):
            model.covers(())

    def test_blocks_must_cover(self):
        with pytest.raises(InputError):
            CorrelationModel(3, ((0, 1),), (equicorr(2, 0.2),))

    def test_blocks_must_be_disjoint(self):
        with pytest.raises(InputError):
            CorrelationModel(
                3, ((0, 1), (1, 2)), (equicorr(2, 0.2), equicorr(2, 0.2))
            )

    def test_multimember_block_needs_matrix(self):
        with pytest.raises(InputError):
            CorrelationModel(2, ((0, 1),), (None,))

    def test_matrix_dimension_must_match(self):
        with pytest.raises(InputError):
            CorrelationModel(3, ((0, 1, 2),), (equicorr(2, 0.2),))

    def test_empty_block_rejected(self):
        with pytest.raises(InputError, match="block 1 is empty"):
            CorrelationModel(2, ((), (0, 1)), (None, equicorr(2, 0.3)))


class TestOneMemberBlocks:
    """A block with one positive-weight member needs no kernel call: its
    union is its threshold."""

    @staticmethod
    def counted_rules(monkeypatch):
        import closedmtp.mvnorm as mvnorm

        builds = []
        init = mvnorm.UnionRule.__init__

        def counted(rule, *args, **kwargs):
            builds.append(args)
            init(rule, *args, **kwargs)

        monkeypatch.setattr(mvnorm.UnionRule, "__init__", counted)
        return builds

    def test_tutorial_closure_builds_a_rule_per_larger_block(self, monkeypatch):
        from closedmtp import fileio

        doc = fileio.load_document(TUTORIAL_PROBLEM.read_text(), "problem")
        problem = fileio.parse_problem(doc)
        assert problem.method == "parametric-subsets"
        builds = self.counted_rules(monkeypatch)
        run_closure(problem, target_error=1e-6)
        # every p-value and every scale, the rows whose block {H1, H2, H3}
        # holds three positive weights included, take the array passes,
        # and the singleton blocks build none
        assert len(builds) == 0

    @pytest.mark.parametrize("method", ["parametric-common", "parametric-subsets"])
    def test_one_member_blocks_build_no_rule(self, monkeypatch, method):
        # a pair with one zero weight beside two singletons: every block
        # holds at most one active member
        model = CorrelationModel(4, ((0, 1), (2,), (3,)), (equicorr(2, 0.5), None, None))
        scheme = constant_scheme((0.3, 0.1, 0.2, 0.25))
        table = {
            mask: np.where(np.array(mem) == 1, 0.0, w) if {0, 1} <= set(mem) else w
            for mask, mem, w in scheme.entries()
        }
        scheme = WeightingScheme(4, table)
        p = np.array([0.02, 0.001, 0.01, 0.0])
        builds = self.counted_rules(monkeypatch)
        rep = run_closure(TestProblem(
            scheme=scheme, model=model, pvalues=p, alpha=0.025, method=method,
        ))
        assert builds == []
        for mask, res in enumerate(rep.intersections, start=1):
            mem, w = list(res.members), scheme.weights_for(mask)
            pj = p[mem]
            # per block of J: the positions of its members, and of its one active member
            split = [[i for i, j in enumerate(mem) if j in block] for block in model.blocks]
            split = [(idx, [i for i in idx if w[i] > 0.0]) for idx in split if idx]
            assert all(len(act) <= 1 for _, act in split)
            split = [(idx, act[0]) for idx, act in split if act]
            # the union of one event is its threshold min(1, w * q)
            if method == "parametric-common":
                q = min(pj[a] / w[a] for _, a in split)
                want = min(1.0, sum(min(1.0, w[a] * q) for _, a in split) / w.sum())
            else:
                want = min(
                    min(1.0, min(1.0, w[a] * (pj[a] / w[a])) / w[idx].sum()) for idx, a in split
                )
            assert res.p_value == want, (method, mask)
            assert res.p_error == 0.0


class TestBonferroni:
    @pytest.mark.parametrize("subset", [(0.5, 1.7), (0, True), 1, None])
    def test_non_integer_members_rejected(self, subset):
        # (0.5, 1.7) once tested {H1, H2}
        with pytest.raises(InputError):
            bonferroni_pvalue(subset, (0.5, 0.5), (0.01, 0.02))

    def test_hand_computed_example(self):
        # min(0.009/0.4, 0.03/0.2, 0.009/0.4)
        p = bonferroni_pvalue((1, 2, 3), (0.4, 0.2, 0.4), (0.009, 0.03, 0.009))
        assert p == pytest.approx(0.0225, abs=1e-15)

    def test_capped_at_one(self):
        assert bonferroni_pvalue((0,), (0.2,), (0.9,)) == 1.0

    def test_singleton_scales_by_weight(self):
        assert bonferroni_pvalue((2,), (0.5,), (0.01,)) == pytest.approx(0.02)

    def test_zero_weight_member_ignored(self):
        p = bonferroni_pvalue((0, 1), (0.5, 0.0), (0.04, 0.0))
        assert p == pytest.approx(0.08)

    def test_weight_sum_above_one_rejected(self):
        with pytest.raises(InputError):
            bonferroni_pvalue((0, 1), (0.7, 0.7), (0.1, 0.1))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(InputError):
            bonferroni_pvalue((0, 1), (0.0, 0.0), (0.1, 0.1))

    def test_unsorted_subset_rejected(self):
        with pytest.raises(InputError):
            bonferroni_pvalue((1, 0), (0.5, 0.5), (0.1, 0.1))

    def test_pvalue_out_of_range_rejected(self):
        with pytest.raises(InputError):
            bonferroni_pvalue((0,), (1.0,), (1.5,))


class TestParametricPvalue:
    def test_independent_pair_closed_form(self):
        p = parametric_pvalue(
            (0, 1), (0.5, 0.5), (0.01, 0.8), equicorr(2, 0.0)
        )
        assert p == pytest.approx(0.0199, abs=1e-13)

    def test_perfectly_correlated_pair(self):
        # both thresholds coincide, the union collapses to one event
        p = parametric_pvalue(
            (0, 1), (0.5, 0.5), (0.01, 0.8), equicorr(2, 1.0)
        )
        assert p == pytest.approx(0.01, abs=1e-13)

    def test_singleton_matches_bonferroni(self):
        for w, pv in [(0.3, 0.006), (1.0, 0.4), (0.25, 0.9)]:
            a = parametric_pvalue((0,), (w,), (pv,), equicorr(1, 0.0))
            b = bonferroni_pvalue((0,), (w,), (pv,))
            assert a == pytest.approx(b, abs=1e-15)

    def test_never_exceeds_bonferroni(self):
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            corr = random_correlation(rng, dim)
            w = rng.dirichlet(np.ones(dim))
            p = rng.uniform(0.0, 0.2, size=dim)
            sub = tuple(range(dim))
            para = parametric_pvalue(sub, w, p, corr, seed=7)
            bonf = bonferroni_pvalue(sub, w, p)
            assert para <= bonf + 3e-6

    def test_zero_weights_drop_out(self):
        corr = equicorr(3, 0.5)
        full = parametric_pvalue((0, 1, 2), (0.5, 0.0, 0.5), (0.02, 0.0, 0.6), corr)
        pair = parametric_pvalue((0, 1), (0.5, 0.5), (0.02, 0.6), corr.submatrix([0, 2]))
        # same thresholds and same total weight, only the seeds differ;
        # both routes are exact in dimension two
        assert full == pytest.approx(pair, abs=1e-12)

    def test_deterministic_given_seed(self):
        corr = equicorr(4, 0.3)
        args = ((0, 1, 2, 3), (0.25,) * 4, (0.01, 0.02, 0.05, 0.2), corr)
        a = parametric_pvalue(*args, seed=11)
        b = parametric_pvalue(*args, seed=11)
        assert a == b

    def test_partial_correlation_knowledge_rejected(self):
        model = CorrelationModel(
            3, ((0, 1), (2,)), (equicorr(2, 0.5), None)
        )
        with pytest.raises(InputError):
            parametric_pvalue((0, 1, 2), (0.4, 0.3, 0.3), (0.01, 0.02, 0.03), model)

    @pytest.mark.parametrize("target_error, max_points, name", [
        (1e-6, np.inf, "max_points"), (1e-6, np.nan, "max_points"), (1e-6, 1, "max_points"),
        (0.0, 1 << 16, "target_error"), (np.inf, 1 << 16, "target_error"),
        (np.nan, 1 << 16, "target_error"),
    ])
    def test_accuracy_args_checked_without_a_kernel_call(self, target_error, max_points, name):
        # the twin of the scale's check: a one-member subset, or one whose
        # threshold saturates (p = 1), never reaches the kernel's checks
        for sub, w in (((0, 1), (0.5, 0.5)), ((1,), (0.4,))):
            for p in (0.01, 1.0):
                for pvalue in (
                    parametric_pvalue, xie_pvalue, partitioned_pvalue_subsets,
                    partitioned_pvalue_common,
                ):
                    with pytest.raises(InputError, match=name):
                        pvalue(sub, w, (p,) * len(sub), equicorr(2, 0.5),
                               target_error=target_error, max_points=max_points)


class TestOneBlockCase:
    def test_fully_known_tests_are_the_partitioned_tests(self):
        # one block: the fully known tests and the partitioned ones are
        # the same floats, in the exact path (k=4, three active), in
        # Plackett's reduction (k=5, four active) and in the sampled one
        # (k=8, seven active)
        rng = np.random.default_rng(31)
        for w in (
            (0.3, 0.0, 0.25, 0.25), (0.2, 0.25, 0.0, 0.2, 0.25), (0.1, 0.15, 0.0, 0.1, 0.15, 0.1, 0.2, 0.2)
        ):
            corr = random_correlation(rng, len(w))
            sub = tuple(range(len(w)))
            p = rng.uniform(0.0, 0.05, size=len(w))
            for seed in (0, 9):
                assert parametric_pvalue(sub, w, p, corr, seed=seed) == (
                    partitioned_pvalue_subsets(sub, w, p, corr, seed=seed)
                )
                assert parametric_c(sub, w, 0.05, corr, seed=seed) == (
                    partitioned_common_scale(sub, w, 0.05, corr, seed=seed)
                )
                assert parametric_pvalue(sub, w, p, corr, seed=seed) == (
                    partitioned_pvalue_common(sub, w, p, corr, seed=seed)
                )


class TestParametricC:
    def test_equal_pair_closed_form(self):
        c = parametric_c((0, 1), (0.5, 0.5), 0.05, equicorr(2, 0.0))
        assert c == pytest.approx(C_DUNNETT_PAIR, abs=2e-6)

    def test_equal_trio_closed_form(self):
        c = parametric_c((0, 1, 2), (1 / 3,) * 3, 0.05, equicorr(3, 0.0), seed=3)
        assert c == pytest.approx(C_TRIO, abs=1e-4)

    def test_singleton_is_exactly_one(self):
        assert parametric_c((1,), (0.4,), 0.025, equicorr(2, 0.0)) == 1.0

    @pytest.mark.parametrize("max_points", [np.inf, np.nan])
    def test_max_points_must_be_finite(self, max_points):
        # used to raise OverflowError or ValueError, and only when a solve ran
        for sub, w in (((0, 1), (0.5, 0.5)), ((1,), (0.4,))):
            with pytest.raises(InputError, match="max_points"):
                parametric_c(sub, w, 0.025, equicorr(2, 0.5), max_points=max_points)

    @pytest.mark.parametrize("root_tol", [0.0, -1.0, np.inf, np.nan])
    def test_root_tol_must_be_finite_and_positive(self, root_tol):
        # an infinite root_tol used to return 40.5, the midpoint of [1, 80],
        # where the root is 1.078; a singleton needs no solve, but the
        # argument is checked all the same
        for sub, w in (((0, 1), (0.5, 0.5)), ((1,), (0.4,))):
            for scale in (parametric_c, partitioned_common_scale, partitioned_subset_scales):
                with pytest.raises(InputError, match="root_tol"):
                    scale(sub, w, 0.025, equicorr(2, 0.5), root_tol=root_tol)

    def test_member_index_outside_model_rejected(self):
        with pytest.raises(InputError):
            parametric_c((1,), (0.4,), 0.025, equicorr(1, 0.0))

    def test_single_positive_weight_is_exactly_one(self):
        c = parametric_c((0, 1), (0.6, 0.0), 0.025, equicorr(2, 0.7))
        assert c == 1.0

    def test_scaling_grows_with_correlation(self):
        # overlap among the exceedance events leaves room for a larger c
        cs = [
            parametric_c((0, 1), (0.5, 0.5), 0.05, equicorr(2, rho))
            for rho in (0.0, 0.5, 0.9)
        ]
        assert cs[0] < cs[1] < cs[2]
        assert all(c >= 1.0 for c in cs)

    def test_level_exactness_at_solution(self):
        from closedmtp.mvnorm import union_exceedance

        rng = np.random.default_rng(5)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            corr = random_correlation(rng, dim)
            w = rng.dirichlet(np.ones(dim) * 2.0)
            alpha = float(rng.uniform(0.01, 0.1))
            sub = tuple(range(dim))
            c = parametric_c(sub, w, alpha, corr, seed=9)
            est = union_exceedance(
                np.minimum(1.0, c * alpha * w), corr, derived_seed(9, (1 << dim) - 1)
            )
            # solver tolerance on c maps to at most alpha*sum(w) in probability
            assert abs(est.value - alpha * w.sum()) <= 3 * est.error + alpha * w.sum() * 1e-6 + 1e-12


    def test_root_solve_kernel_evaluations_counted(self, monkeypatch):
        # each pass of the QMC integrand over the rule's points is one kernel
        # evaluation: fitting the rule, the bracket, the root steps and the
        # closing independent check all count
        import closedmtp.mvnorm as mvnorm

        calls = []
        kernel = mvnorm._qmc_means

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(mvnorm, "_qmc_means", counted)
        rng = np.random.default_rng(12)
        per_solve = []
        for k in range(8):
            corr = random_correlation(rng, 7)
            w = rng.dirichlet(np.ones(7))
            before = len(calls)
            c = parametric_c(range(7), w, 0.05, corr, seed=k, target_error=1e-5)
            per_solve.append(len(calls) - before)
            assert c > 1.0
        assert np.mean(per_solve) <= 12.0, per_solve

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_quadrature_blocks_solve_on_one_rule(self, monkeypatch, dim):
        # up to six members a block is Plackett's reduction, solved in the
        # array pass: fitted once at c = 1 (one _plackett_fits call), with
        # no UnionRule, QMC pass, coarse stage or closing check, and the
        # union at the root is the target within the tolerance
        import closedmtp.intersection as intersection
        import closedmtp.mvnorm as mvnorm
        from closedmtp.mvnorm import union_exceedance

        passes, rules, fits = [], [], []
        kernel, init, fit = mvnorm._qmc_means, mvnorm.UnionRule.__init__, intersection._plackett_fits
        monkeypatch.setattr(mvnorm, "_qmc_means", lambda *args: passes.append(1) or kernel(*args))
        monkeypatch.setattr(
            mvnorm.UnionRule, "__init__", lambda rule, *args: rules.append(1) or init(rule, *args)
        )
        monkeypatch.setattr(intersection, "_plackett_fits", lambda *args: fits.append(1) or fit(*args))
        rng = np.random.default_rng(80 + dim)
        corr = random_correlation(rng, dim)
        w = rng.dirichlet(np.ones(dim) * 2.0)
        c = parametric_c(range(dim), w, 0.025, corr, seed=3)
        assert c > 1.0
        assert passes == [] and rules == [] and len(fits) == 1
        est = union_exceedance(np.minimum(1.0, c * 0.025 * w), corr)
        assert est.error <= 1e-6
        assert abs(est.value - 0.025 * w.sum()) <= est.error + 0.025 * w.sum() * 1e-6

    def test_capped_root_solve_polishes_a_coarse_root(self, monkeypatch):
        # at the 2^16 cap, in points: the bracket and the Illinois steps run
        # on 2^11-point rules (1/32 pass each), the full rules are fitted
        # at the coarse root (one pass in all), then one or two secant steps
        # and, while some rule is below the cap, the independent check; the
        # bracketed solve on the full rules costs about six passes
        import closedmtp.mvnorm as mvnorm
        from closedmtp.mvnorm import union_exceedance

        points = []
        kernel = mvnorm._qmc_means

        def counted(L, b, base, *rest):
            points.append(base.shape[1])
            return kernel(L, b, base, *rest)

        monkeypatch.setattr(mvnorm, "_qmc_means", counted)
        rng = np.random.default_rng(21)
        passes = []
        for k, dim in enumerate((7, 7, 7, 8, 8, 8)):
            corr = random_correlation(rng, dim)
            w = rng.dirichlet(np.ones(dim) * 2.0)
            before = len(points)
            c = parametric_c(range(dim), w, 0.025, corr, seed=k, target_error=1e-6)
            assert max(points[before:]) == 1 << 16
            passes.append(sum(points[before:]) / (1 << 16))
            est = union_exceedance(
                np.minimum(1.0, c * 0.025 * w), corr, derived_seed(k, (1 << dim) - 1, 7)
            )
            assert abs(est.value - 0.025 * w.sum()) <= 3 * est.error + 0.025 * 1e-6
        assert np.mean(passes) <= 4.5, passes

    @pytest.mark.parametrize("max_points, fits", [(1 << 11, 1), (1 << 16, 2)])
    def test_coarse_rule_only_below_the_cap(self, monkeypatch, max_points, fits):
        # one Illinois solve either way; at a 2^11-point cap the coarse rule
        # is the full rule, so no second rule is fitted
        import closedmtp.intersection as intersection
        import closedmtp.mvnorm as mvnorm

        points, solves = [], []
        init, solve = mvnorm.UnionRule.__init__, intersection.solve_monotone
        monkeypatch.setattr(
            mvnorm.UnionRule, "__init__", lambda rule, *args: points.append(args[-1]) or init(rule, *args)
        )
        monkeypatch.setattr(
            intersection, "solve_monotone", lambda *args: solves.append(1) or solve(*args)
        )
        corr = random_correlation(np.random.default_rng(4), 7)
        c = parametric_c(range(7), np.full(7, 1.0 / 7), 0.05, corr, 1, 1e-5, max_points=max_points)
        assert c > 1.0
        assert len(points) == fits and points[-1] == max_points
        assert len(solves) == 1

    def test_secant_finish_agrees_with_the_bracketed_solve(self, monkeypatch):
        # with no secant evaluation allowed, the full rules' root comes from
        # the bracketed solve instead, after the coarse one: the same rules,
        # so the same root within the tolerance
        import closedmtp.intersection as intersection

        rng = np.random.default_rng(31)
        for k in range(2):
            corr = random_correlation(rng, 7)
            w = rng.dirichlet(np.ones(7) * 2.0)
            polished = parametric_c(range(7), w, 0.025, corr, k, 1e-6)
            solves = []
            solve = intersection.solve_monotone
            with monkeypatch.context() as patch:
                patch.setattr(intersection, "_SECANT_STEPS", 0)
                patch.setattr(
                    intersection, "solve_monotone", lambda *args: solves.append(1) or solve(*args)
                )
                bracketed = parametric_c(range(7), w, 0.025, corr, k, 1e-6)
            assert len(solves) == 2
            assert abs(polished - bracketed) <= 1e-6

    @pytest.mark.parametrize("check_misses", [False, True])
    @pytest.mark.parametrize("dim, target", [(7, 1e-3), (8, 1e-3), (8, 3e-3)])
    def test_rules_that_meet_their_target_solve_once(self, monkeypatch, dim, target, check_misses):
        # when every first 2^11-point pass already meets its target, those
        # are the full rules: one bracketed solve on them, the same kernel
        # passes and the same root as with no coarse level at all, also
        # when every check misses and the rules refine to the cap
        import closedmtp.intersection as intersection
        import closedmtp.mvnorm as mvnorm
        from closedmtp.mvnorm import ProbEstimate, UnionRule

        class CheckMisses(UnionRule):
            def __call__(self, thresholds, seed=None):
                est = super().__call__(thresholds, seed)
                return est if seed is None else ProbEstimate(0.0, 0.0)

        if check_misses:
            monkeypatch.setattr(intersection, "UnionRule", CheckMisses)
        points = []
        kernel = mvnorm._qmc_means

        def counted(L, b, base, *rest):
            points.append(base.shape[1])
            return kernel(L, b, base, *rest)

        monkeypatch.setattr(mvnorm, "_qmc_means", counted)
        corr = random_correlation(np.random.default_rng(4), dim)
        w = np.full(dim, 1.0 / dim)
        runs = []
        for coarse in (1 << 11, 1 << 15):
            monkeypatch.setattr(intersection, "_COARSE_POINTS", coarse)
            points.clear()
            c = parametric_c(range(dim), w, 0.05, corr, 1, target, max_points=1 << 15)
            runs.append((c, list(points)))
        assert runs[0] == runs[1]
        assert max(runs[0][1]) == (1 << 15 if check_misses else 1 << 11)

    @pytest.mark.parametrize(
        "blocks, target, calls",
        [
            # every rule ends at the cap: the check could only refine, so none
            ((7,), 1e-9, 0),
            ((8,), 1e-9, 0),
            # the first pass meets the target well below the cap: one check
            ((7,), 1e-3, 1),
            # one block at the cap, and one (independent: a constant
            # integrand) that meets any target on its first pass: one
            # check, which re-estimates both
            ((7, 7), 1e-9, 2),
        ],
    )
    def test_closing_check_only_while_a_rule_can_refine(self, monkeypatch, blocks, target, calls):
        import closedmtp.intersection as intersection
        from closedmtp.mvnorm import UnionRule

        seeded = []

        class Counted(UnionRule):
            def __call__(self, thresholds, seed=None):
                if seed is not None:
                    seeded.append(seed)
                return super().__call__(thresholds, seed)

        monkeypatch.setattr(intersection, "UnionRule", Counted)
        cap = 1 << 13
        mats = [random_correlation(np.random.default_rng(5), blocks[0])]
        mats += [CorrelationMatrix(np.eye(d)) for d in blocks[1:]]
        starts = np.cumsum((0,) + blocks)
        model = CorrelationModel(
            int(starts[-1]), tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:])), tuple(mats)
        )
        m = model.m
        c = partitioned_common_scale(range(m), np.full(m, 1.0 / m), 0.05, model, 2, target, max_points=cap)
        assert c > 1.0
        # each seeded call is one re-estimate pass of one block's rule
        assert len(seeded) == calls


class TestXie:
    def test_rescaling_identity_on_pair(self):
        corr = equicorr(2, 0.4)
        a = xie_pvalue((0, 1), (0.25, 0.25), (0.01, 0.05), corr)
        b = parametric_pvalue((0, 1), (0.5, 0.5), (0.01, 0.05), corr)
        assert a == b

    def test_thresholds_unchanged_by_rescaling(self):
        # initial weights scale out: q shrinks by the same factor the
        # weights grow, so any common multiple gives the same answer
        corr = equicorr(3, 0.2)
        p = (0.004, 0.07, 0.3)
        a = xie_pvalue((0, 1, 2), (0.2, 0.3, 0.5), p, corr, seed=2)
        b = xie_pvalue((0, 1, 2), (0.08, 0.12, 0.2), p, corr, seed=2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_requires_positive_weights(self):
        with pytest.raises(InputError):
            xie_pvalue((0, 1), (0.5, 0.0), (0.01, 0.02), equicorr(2, 0.0))

    def test_weights_whose_sum_overflows(self):
        # 1e308 + 1e308 is inf: the weights are rescaled by their largest
        # first, with no overflow warning, and give the equal weights' value
        corr = equicorr(2, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = xie_pvalue((0, 1), (1e308, 1e308), (0.01, 0.02), corr)
        assert big == xie_pvalue((0, 1), (0.5, 0.5), (0.01, 0.02), corr)


class TestPartitionedCommon:
    """The common-scale test: scales from partitioned_common_scale, levels
    and decisions from the full-set intersection of a closure whose
    full-set weights are the test's weights."""

    def setup_method(self):
        # three members, first two share a known 0.5 correlation, the
        # third sits in its own block
        self.model = CorrelationModel(
            3, ((0, 1), (2,)), (equicorr(2, 0.5), None)
        )
        self.w = (0.4, 0.2, 0.4)
        self.alpha = 0.025

    def full_set(self, pvalues, model=None, scheme=None):
        prob = TestProblem(
            scheme=scheme or constant_scheme(self.w),
            model=model or self.model,
            pvalues=pvalues,
            alpha=self.alpha,
            method="parametric-common",
        )
        return run_closure(prob).intersection((0, 1, 2))

    def test_frozen_scale(self):
        c = partitioned_common_scale((0, 1, 2), self.w, self.alpha, self.model)
        assert c == pytest.approx(C_COMMON_234, abs=2e-6)
        assert self.full_set((0.5, 0.5, 0.5)).scale == c

    def test_local_levels_scale_weights(self):
        res = self.full_set((0.5, 0.5, 0.5))
        expect = res.scale * self.alpha * np.asarray(self.w)
        assert np.allclose(res.local_levels, expect, atol=1e-15)

    def test_reject_inside_boosted_level(self):
        # 0.0103 clears the scaled level 0.01033 but not plain 0.01
        res = self.full_set((0.0103, 0.5, 0.5))
        assert res.reject is True

    def test_accept_outside_levels(self):
        res = self.full_set((0.0104, 0.0053, 0.0104))
        assert res.reject is False

    def test_all_singleton_blocks_scale_one(self):
        model = CorrelationModel.independent_blocks(3)
        assert partitioned_common_scale((0, 1, 2), self.w, self.alpha, model) == 1.0
        res = self.full_set((0.009, 0.5, 0.5), model=model)
        assert res.scale == 1.0
        assert res.reject is True  # 0.009 <= 0.4 * 0.025

    def test_zero_weight_member_cannot_reject(self):
        model = CorrelationModel.independent_blocks(3)
        table = dict(constant_scheme((0.5, 0.0, 0.5)).table)
        # the zero-weight member alone needs a positive weight for the scheme to validate
        table[0b010] = (0.5,)
        res = self.full_set((0.9, 0.0, 0.9), model=model, scheme=WeightingScheme(3, table))
        assert res.reject is False
        assert res.local_levels[1] == 0.0

    def test_full_knowledge_matches_parametric_c(self):
        corr = equicorr(3, 0.3)
        scale = partitioned_common_scale((0, 1, 2), self.w, self.alpha, corr, seed=4)
        c = parametric_c((0, 1, 2), self.w, self.alpha, corr, seed=4)
        assert scale == c


class TestPartitionedPvalueCommon:
    """The common-scale p-value: per-block unions at thresholds w * min(p / w),
    summed over the weight total."""

    def setup_method(self):
        self.model = CorrelationModel(
            3, ((0, 1), (2,)), (equicorr(2, 0.5), None)
        )
        self.w = (0.4, 0.2, 0.4)

    def test_frozen_value(self):
        from scipy.stats import multivariate_normal, norm

        p = partitioned_pvalue_common((0, 1, 2), self.w, (0.012, 0.003, 0.009), self.model)
        # q = 0.003 / 0.2: thresholds (0.006, 0.003) on the pair, 0.006 alone
        z = norm.isf([0.006, 0.003])
        both = multivariate_normal(cov=[[1.0, 0.5], [0.5, 1.0]]).cdf(-z)
        assert p == pytest.approx(0.006 + 0.003 - both + 0.006, abs=1e-9)

    def test_all_singleton_blocks_is_bonferroni(self):
        rng = np.random.default_rng(17)
        model = CorrelationModel.independent_blocks(4)
        for _ in range(20):
            w = rng.dirichlet(np.ones(4)) * rng.uniform(0.5, 1.0)
            p = rng.uniform(0.0, 0.2, size=4)
            assert partitioned_pvalue_common((0, 1, 2, 3), w, p, model) == pytest.approx(
                bonferroni_pvalue((0, 1, 2, 3), w, p), abs=1e-15
            )

    def test_saturated_threshold_gives_exactly_one(self, monkeypatch):
        # q = 1 / 0.41, whose product with 0.41 rounds below 1: the heaviest
        # thresholds are still 1, and no kernel rule is fitted for them
        import closedmtp.intersection as intersection

        def no_kernel(*args):
            raise AssertionError("kernel called on a saturated threshold")

        monkeypatch.setattr(intersection, "union_exceedance", no_kernel)
        w = (0.41, 0.18, 0.41)
        assert (1.0 / 0.41) * 0.41 < 1.0
        assert partitioned_pvalue_common((0, 1, 2), w, (1.0, 0.9, 1.0), self.model) == 1.0

    def test_never_exceeds_bonferroni(self):
        # a union is at most the sum of its events' probabilities
        rng = np.random.default_rng(23)
        for _ in range(20):
            w = rng.dirichlet(np.ones(3)) * rng.uniform(0.5, 1.0)
            p = rng.uniform(0.0, 0.2, size=3)
            common = partitioned_pvalue_common((0, 1, 2), w, p, self.model, seed=2)
            assert common <= bonferroni_pvalue((0, 1, 2), w, p) + 1e-15

    def test_smallest_rejecting_alpha_on_exact_blocks(self):
        # blocks of at most three are exact: p_J is the alpha at which the
        # common-scale levels start to reject J, found here by bisection,
        # up to a root_tol-sized error
        rng = np.random.default_rng(61)
        root_tol = 1e-9
        checked = 0
        for _ in range(20):
            model = CorrelationModel(
                6, ((0, 1, 2), (3, 4), (5,)),
                (random_correlation(rng, 3), random_correlation(rng, 2), None),
            )
            sub = tuple(sorted(rng.choice(6, size=int(rng.integers(2, 7)), replace=False)))
            w = rng.dirichlet(np.ones(len(sub))) * rng.uniform(0.5, 1.0)
            w[rng.random(len(sub)) < 0.2] = 0.0
            if not w.any():
                continue
            p = rng.uniform(0.0, 0.05, size=len(sub))
            act = w > 0.0
            p_j = partitioned_pvalue_common(sub, w, p, model, seed=4)

            def rejects(alpha):
                c = partitioned_common_scale(sub, w, alpha, model, seed=4, root_tol=root_tol)
                return bool(np.any(p[act] <= c * alpha * w[act]))

            lo, hi = 1e-9, 0.999
            assert p_j < hi and rejects(hi) and not rejects(lo)
            while hi - lo > 0.1 * root_tol:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if rejects(mid) else (mid, hi)
            assert p_j == pytest.approx(hi, abs=root_tol)
            checked += 1
        assert checked >= 15

    def test_zero_weight_member_never_sets_q(self):
        p = partitioned_pvalue_common((0, 1, 2), (0.5, 0.0, 0.5), (0.2, 0.0, 0.01), self.model)
        # q = 0.02 from the third member alone: 0.01 on each block
        assert p == pytest.approx(0.02, abs=1e-12)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(InputError):
            partitioned_pvalue_common((0, 1), (0.0, 0.0), (0.1, 0.1), equicorr(2, 0.0))


class TestPartitionedSubsets:
    def setup_method(self):
        self.model = CorrelationModel(
            3, ((0, 1), (2,)), (equicorr(2, 0.5), None)
        )
        self.w = (0.4, 0.2, 0.4)

    def test_frozen_block_pvalues(self):
        p = partitioned_pvalue_subsets(
            (0, 1, 2), self.w, (0.012, 0.003, 0.009), self.model
        )
        # block p-values: 0.0143487 for the pair, 0.0225 for the singleton
        assert p == pytest.approx(P_BLOCK_23, abs=1e-12)

    def test_singleton_block_can_win(self):
        p = partitioned_pvalue_subsets(
            (0, 1, 2), self.w, (0.5, 0.5, 0.001), self.model
        )
        assert p == pytest.approx(0.0025, abs=1e-12)

    def test_frozen_scales(self):
        scales = partitioned_subset_scales((0, 1, 2), self.w, 0.025, self.model)
        assert scales[0][0] == (0, 1)
        assert scales[0][1] == pytest.approx(C_BLOCK_23, abs=2e-6)
        assert scales[1] == ((2,), 1.0)

    def test_single_block_matches_parametric(self):
        corr = equicorr(2, 0.6)
        a = partitioned_pvalue_subsets((0, 1), (0.5, 0.5), (0.01, 0.04), corr)
        b = parametric_pvalue((0, 1), (0.5, 0.5), (0.01, 0.04), corr)
        # dimension two is exact on both routes
        assert a == pytest.approx(b, abs=1e-13)

    def test_block_minimum_never_exceeds_bonferroni(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            corr2 = random_correlation(rng, 2)
            model = CorrelationModel(
                4, ((0, 1), (2,), (3,)), (corr2, None, None)
            )
            w = rng.dirichlet(np.ones(4))
            p = rng.uniform(0.0, 0.3, size=4)
            sub = (0, 1, 2, 3)
            block = partitioned_pvalue_subsets(sub, w, p, model, seed=1)
            bonf = bonferroni_pvalue(sub, w, p)
            assert block <= bonf + 1e-12

    def test_all_zero_weights_rejected(self):
        with pytest.raises(InputError):
            partitioned_pvalue_subsets((0, 1), (0.0, 0.0), (0.1, 0.1), equicorr(2, 0.0))

    def test_block_minimum_of_common_pvalues(self):
        # the per-block test is the common-scale test of J's part in one
        # block; in blocks of at most six members every union is exact (the
        # seeds, which differ, go unused), so the two agree float for float
        rng = np.random.default_rng(197)
        m = 9
        for case in range(200):
            blocks, start = [], 0
            while start < m:
                size = int(rng.integers(1, min(MAX_EXACT_DIM, m - start) + 1))
                blocks.append(tuple(range(start, start + size)))
                start += size
            model = CorrelationModel(
                m, blocks, tuple(random_correlation(rng, len(b)) if len(b) > 1 else None
                                 for b in blocks),
            )
            sub = tuple(sorted(rng.choice(m, int(rng.integers(1, m + 1)), replace=False).tolist()))
            w = rng.dirichlet(np.ones(len(sub)))
            w[rng.random(len(sub)) < 0.25] = 0.0
            if not w.any():
                w[0] = 1.0
            p = np.where(rng.random(len(sub)) < 0.15, 1.0, rng.uniform(0.0, 0.2, len(sub)))
            p[rng.random(len(sub)) < 0.1] = 0.0
            parts = [[i for i, j in enumerate(sub) if j in b] for b in blocks]
            want = min(
                partitioned_pvalue_common(tuple(sub[i] for i in idx), w[idx], p[idx], model)
                for idx in parts if idx and w[idx].any()
            )
            assert partitioned_pvalue_subsets(sub, w, p, model, seed=case) == want, case


class TestBlockUnions:
    """The array pass's per-block unions are ``union_exceedance``'s floats,
    at any q: thresholds of 0 (dropped) and of 1 (a certain union) too."""

    def test_each_block_is_union_exceedance(self):
        rng = np.random.default_rng(31)
        model = CorrelationModel(
            9, ((0, 1, 2, 3, 4, 5), (6, 7), (8,)),
            (random_correlation(rng, 6), equicorr(2, 0.7), None),
        )
        n = 300
        w = rng.dirichlet(np.ones(9), size=n) * (rng.random((n, 9)) < 0.8)
        q = rng.choice([0.0, 0.01, 0.3, 3.0, 40.0], size=(n, 3))
        need = rng.random((n, 3)) < 0.9
        masks = np.full(n, (1 << 9) - 1)
        unions, errors, _ = _block_unions(w, masks, q, need, model, 0, 1e-6, 1 << 16, False)
        seen = set()
        for row in range(n):
            for b, block in enumerate(model.blocks):
                wb = w[row, list(block)]
                act = np.flatnonzero(wb > 0.0)
                if not need[row, b] or act.size == 0:
                    assert (unions[row, b], errors[row, b]) == (0.0, 0.0)
                    continue
                u = np.minimum(1.0, wb[act] * q[row, b])
                if act.size == 1:
                    want = (u[0], 0.0)
                else:
                    est = union_exceedance(u, model.matrices[b].submatrix(act))
                    want = (est.value, est.error)
                assert (unions[row, b], errors[row, b]) == want, (row, b)
                seen.add((act.size > 1, float(u.max())))
        assert (True, 1.0) in seen and (True, 0.0) in seen


class TestArrayPvaluesOfSampledRows:
    """The array p-values fit a block of more than MAX_EXACT_DIM active
    members alone and split a row's target across its sampled blocks:
    the floats of the per-row estimate (``per_row_pvalues``), which also
    fits the row's smaller blocks at that share of the target."""

    @pytest.mark.parametrize("rho", [0.3, 0.6])
    def test_common_rows_with_two_sampled_blocks(self, rho):
        # a four-member block with a pair at 0.999: at thresholds near 0.05
        # its quadrature takes 16 nodes at target 1e-6 and, at half that,
        # 32 (rho = 0.6) or none, which hands it over to QMC (rho = 0.3)
        rng = np.random.default_rng(47)
        m = 18
        four = np.full((4, 4), rho) + (1.0 - rho) * np.eye(4)
        four[0, 1] = four[1, 0] = 0.999
        blocks = (tuple(range(7)), tuple(range(7, 14)), tuple(range(14, 18)))
        model = CorrelationModel(
            m, blocks, (random_correlation(rng, 7), random_correlation(rng, 7), CorrelationMatrix(four))
        )
        full = (1 << m) - 1
        masks = np.array([full, full, full & ~(1 << 15), full & ~(1 << 3), full & ~0x3F])
        rows = np.zeros((len(masks), m))
        for row, mask in zip(rows, masks):
            mem = np.array(members(int(mask)))
            heavy = mem >= 14
            row[mem] = np.where(heavy, 0.6 / heavy.sum(), 0.4 / (~heavy).sum())
        # a zero weight leaves its block six active members: it is exact
        rows[1, 9] = 0.0
        p = np.minimum(1.0, rows[0] * rng.uniform(0.33, 0.5, size=m))
        values, errors, met = _common_pvalues(rows, masks, p, model, 3, 1e-6, 1 << 12)
        for i, (row, mask) in enumerate(zip(rows, masks)):
            mem = members(int(mask))
            est, want_met = ESTIMATES["parametric-common"](
                mem, row[list(mem)], p[list(mem)], model, 3, 1e-6, 1 << 12
            )
            assert (values[i], errors[i], met[i]) == (est.value, est.error, want_met), i
        # rows 0, 2 and 3 hold two sampled blocks, row 1 one
        assert not met.any() and 0.0 < values.min() and values.max() < 1.0


def paired_correlation(k, rho):
    """k variables at correlation 0.3 but for the first two, at rho; at
    rho = -1 the second is the first negated."""
    c = np.full((k, k), 0.3) + 0.7 * np.eye(k)
    if rho == -1.0:
        c[1, 2:] = c[2:, 1] = -0.3
    c[0, 1] = c[1, 0] = rho
    return CorrelationMatrix(c)


class TestArrayScales:
    """The one scale path (``_scales``) gives every row of a weight table
    the floats the per-row oracle (``common_scale``, ``subset_scales``:
    the subset's blocks, the linear case, then ``_solve_scale``) gives it
    alone. Its array pass settles every problem in which no block holds
    more than MAX_EXACT_DIM positive-weight members, except where that
    solve would sample or raise: those, and the larger ones, it solves
    alone, in mask order."""

    ALPHA = 0.025

    @staticmethod
    def rows(rng, model, n, zero=0.2):
        """n random weight rows (-1 off the members) in which some block
        holds two positive weights at least; each member's weight is 0
        with probability ``zero``."""
        m, out = model.m, []
        while len(out) < n:
            row = np.full(m, -1.0)
            mem = np.sort(rng.choice(m, size=rng.integers(2, m + 1), replace=False))
            row[mem] = rng.dirichlet(np.ones(mem.size)) * rng.uniform(0.5, 1.0)
            row[mem[rng.random(mem.size) < zero]] = 0.0
            if max((row[list(block)] > 0.0).sum() for block in model.blocks) > 1:
                out.append(row)
        return np.array(out)

    @staticmethod
    def scales(t, model, alpha, common):
        """``_scales`` of the rows t at the default seed and tolerances."""
        masks = (t >= 0.0) @ (1 << np.arange(t.shape[1]))
        return _scales(
            t, masks, model, alpha, common, 0, DEFAULT_TARGET_ERROR, DEFAULT_ROOT_TOL, DEFAULT_MAX_POINTS
        )

    @staticmethod
    def solved_alone(monkeypatch):
        """The masks of every ``_solve_scale`` call, in call order, while installed."""
        import closedmtp.intersection as intersection

        masks, solve = [], intersection._solve_scale

        def counted(*args):
            masks.append(args[4])
            return solve(*args)

        monkeypatch.setattr(intersection, "_solve_scale", counted)
        return masks

    @staticmethod
    def per_row(t, model, alpha, common):
        """Per row the oracle's scale of each member; NaN off the members."""
        out = np.full(t.shape, np.nan)
        for r, row in enumerate(t):
            mem = tuple(np.flatnonzero(row >= 0.0).tolist())
            args = (mem, row[list(mem)], alpha, model)
            if common:
                out[r, list(mem)] = common_scale(*args)
            else:
                for block, c in subset_scales(*args):
                    out[r, list(block)] = c
        return out

    def check(self, t, model, alpha=ALPHA):
        """Both methods' scales equal the per-row ones on every member."""
        inside = t >= 0.0
        for common in (True, False):
            got = self.scales(t, model, alpha, common)
            want = self.per_row(t, model, alpha, common)
            assert got[inside].tobytes() == want[inside].tobytes(), common

    @pytest.mark.parametrize("k", range(3, MAX_EXACT_DIM + 1))
    def test_a_block_beside_a_pair_and_singletons(self, k):
        rng = np.random.default_rng(40 + k)
        model = CorrelationModel(
            k + 3, (tuple(range(k)), (k, k + 1), (k + 2,)),
            (random_correlation(rng, k), equicorr(2, 0.5), None),
        )
        self.check(self.rows(rng, model, 12), model)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 0.999])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_degenerate_and_near_singular_pairs(self, monkeypatch, k, rho):
        # a +1 pair is one event, which _kept drops above three; the
        # pair beside the block takes the same correlation
        rng = np.random.default_rng(60 + k)
        model = CorrelationModel(
            k + 3, (tuple(range(k)), (k, k + 1), (k + 2,)),
            (paired_correlation(k, rho), equicorr(2, rho), None),
        )
        t = self.rows(rng, model, 10)
        alone = self.solved_alone(monkeypatch)
        self.scales(t, model, self.ALPHA, True)
        # the array pass settles every row
        assert alone == []
        self.check(t, model)

    def test_a_bracket_that_reaches_the_cap(self, monkeypatch):
        # at alpha 0.9 three nearly equal events need c near the cap
        # 1 / (alpha * max w), and the bracket's first step reaches it,
        # where the heaviest threshold is 1 and the union certain
        import closedmtp.intersection as intersection

        seen = []
        values = intersection._plackett_values

        def recorded(u, *args):
            seen.append(float(u.max()))
            return values(u, *args)

        monkeypatch.setattr(intersection, "_plackett_values", recorded)
        model = CorrelationModel.full(equicorr(3, 0.999))
        t = np.array([[0.34, 0.33, 0.33], [0.4, 0.3, 0.3], [0.5, 0.25, 0.25]])
        self.check(t, model, alpha=0.9)
        assert 1.0 in seen

    def test_a_quadrature_that_misses_its_target_is_solved_alone(self, monkeypatch):
        # equicorrelation 0.9999 over four events: no node count meets the
        # target, so the per-row solve samples, and the table solves it so
        model = CorrelationModel(5, ((0, 1, 2, 3), (4,)), (equicorr(4, 0.9999), None))
        scheme = constant_scheme((0.25, 0.25, 0.2, 0.2, 0.1))
        t = np.where(member_table(5)[1:], scheme.rows, -1.0)
        four = np.flatnonzero((t[:, :4] > 0.0).all(axis=1)) + 1
        for common in (True, False):
            alone = self.solved_alone(monkeypatch)
            self.scales(t, model, self.ALPHA, common)
            assert alone == four.tolist(), common
            method = "parametric-common" if common else "parametric-subsets"
            table = decision_thresholds(scheme, model, self.ALPHA, method)
            want = np.where(t >= 0.0, self.per_row(t, model, self.ALPHA, common) * self.ALPHA * t, -1.0)
            assert table.tobytes() == want.tobytes(), method

    def test_a_threshold_outside_the_unit_interval_at_one(self, monkeypatch):
        # alpha * w underflows to 0 in the triple: the per-row rule refuses
        # it, the pass leaves the row, and the solve alone raises that error
        import closedmtp.intersection as intersection

        model = CorrelationModel(4, ((0, 1, 2), (3,)), (equicorr(3, 0.5), None))
        t = np.array([[1e-320, 1e-320, 1e-320, -1.0], [0.3, 0.3, 0.3, 0.1]])
        with pytest.raises(InputError) as ref:
            partitioned_common_scale((0, 1, 2), t[0, :3], 1e-10, model)
        passes, solve = [], intersection._solve_scales
        monkeypatch.setattr(
            intersection, "_solve_scales", lambda *args: passes.append(solve(*args)) or passes[-1]
        )
        for common in (True, False):
            with pytest.raises(InputError, match=f"^{re.escape(str(ref.value))}$"):
                self.scales(t, model, 1e-10, common)
            # one problem per row: the first left NaN, the second settled
            assert np.isnan(passes[-1][0]) and not np.isnan(passes[-1][1]), common
        scheme = WeightingScheme(4, {**constant_scheme((0.3, 0.3, 0.3, 0.1)).table, 7: t[0, :3]})
        for method in ("parametric-common", "parametric-subsets"):
            with pytest.raises(InputError, match=f"^{re.escape(str(ref.value))}$"):
                decision_thresholds(scheme, model, 1e-10, method)

    @pytest.mark.parametrize("bad, first", [((0b111, 0b1111111), 0b111), ((0b1111111, 0b10000111), 0b1111111)])
    def test_rows_solved_alone_raise_in_mask_order(self, monkeypatch, bad, first):
        # a block of seven active members is solved alone, as is a row the
        # pass leaves: the first of them in mask order that fails raises,
        # and no later row is solved
        seven = tuple(range(MAX_EXACT_DIM + 1))
        model = CorrelationModel(8, (seven, (7,)), (equicorr(7, 0.5), None))
        table = dict(constant_scheme(np.full(8, 0.125)).table)
        for mask in bad:
            table[mask] = np.full(len(members(mask)), 1e-320)
        scheme = WeightingScheme(8, table)
        for name in ("parametric-common", "parametric-subsets"):
            calls = self.solved_alone(monkeypatch)
            with pytest.raises(InputError, match="strictly in"):
                decision_thresholds(scheme, model, 1e-10, name)
            assert calls[-1] == first, name
            assert all(mask <= first for mask in calls), name


class TestSeedDerivation:
    def test_distinct_subsets_get_distinct_seeds(self):
        seeds = {derived_seed(42, mask) for mask in range(1, 1 << 6)}
        assert len(seeds) == (1 << 6) - 1

    def test_salt_separates_blocks(self):
        assert derived_seed(42, 5, salt=1) != derived_seed(42, 5, salt=2)

    def test_stays_in_64_bits(self):
        s = derived_seed(2**63, (1 << 20) - 1, salt=3)
        assert 0 <= s < 2**64
