"""Tests for the closed procedure, consonance check and the two shortcuts."""

import re
import signal
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from closedmtp import fileio
from closedmtp.closure import (
    METHODS,
    ClosureReport,
    TestProblem,
    check_consonance,
    decision_thresholds,
    run_closure,
    weighted_dunnett_single_step,
    xie_shortcut,
)
from closedmtp.exceptions import BracketError, InputError
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
from closedmtp.mvnorm import (
    DEFAULT_MAX_POINTS,
    DEFAULT_ROOT_TOL,
    DEFAULT_TARGET_ERROR,
    MAX_EXACT_DIM,
    CorrelationMatrix,
    UnionRule,
    union_exceedance,
)
from closedmtp.subsets import iter_masks, mask_of, members
from closedmtp.weighting import GraphSpec, WeightingScheme, scheme_from_graph, xie_scheme
from per_row_pvalues import ESTIMATES, common_scale, subset_scales

C_DUNNETT_PAIR = 1.0128226207641466  # (1 - sqrt(0.95)) / 0.025


@contextmanager
def deadline(seconds):
    """Fails the block with TimeoutError, instead of hanging the test run,
    when it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def equicorr(dim, rho):
    return CorrelationMatrix(np.full((dim, dim), rho) + (1.0 - rho) * np.eye(dim))


def random_correlation(rng, dim):
    a = rng.normal(size=(dim, dim + 2))
    cov = a @ a.T + 1e-3 * np.eye(dim)
    d = np.sqrt(np.diag(cov))
    return CorrelationMatrix(cov / np.outer(d, d))


def random_scheme(rng, m):
    table = {}
    for mask in iter_masks(m):
        k = len(members(mask))
        w = rng.dirichlet(np.ones(k)) * rng.uniform(0.5, 1.0)
        table[mask] = w
    return WeightingScheme(m, table)


def permute_scheme(scheme, perm):
    # perm maps old index -> new index
    table = {}
    for mask, mem, w in scheme.entries():
        new_mem = sorted(perm[j] for j in mem)
        new_mask = 0
        for j in new_mem:
            new_mask |= 1 << j
        old_of = {perm[j]: j for j in mem}
        pos = {j: i for i, j in enumerate(mem)}
        table[new_mask] = [w[pos[old_of[j]]] for j in new_mem]
    return WeightingScheme(scheme.m, table)


class TestProblemValidation:
    def test_basic_construction(self):
        prob = TestProblem(
            scheme=xie_scheme((0.5, 0.5)),
            model=CorrelationModel.independent_blocks(2),
            pvalues=(0.01, 0.03),
            alpha=0.05,
            method="bonferroni",
        )
        assert prob.m == 2
        assert prob.seed == 0

    def test_unknown_method(self):
        with pytest.raises(InputError):
            TestProblem(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.independent_blocks(2),
                pvalues=(0.01, 0.03),
                alpha=0.05,
                method="holm",
            )

    def test_pvalues_must_match_m(self):
        with pytest.raises(InputError):
            TestProblem(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.independent_blocks(2),
                pvalues=(0.01, 0.03, 0.2),
                alpha=0.05,
                method="bonferroni",
            )

    def test_model_dimension_must_match(self):
        with pytest.raises(InputError):
            TestProblem(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.independent_blocks(3),
                pvalues=(0.01, 0.03),
                alpha=0.05,
                method="bonferroni",
            )

    def test_invalid_scheme_rejected(self):
        # weights summing above 1 make the scheme invalid
        table = {1: (1.0,), 2: (1.0,), 3: (0.8, 0.8)}
        with pytest.raises(InputError):
            TestProblem(
                scheme=WeightingScheme(2, table),
                model=CorrelationModel.independent_blocks(2),
                pvalues=(0.01, 0.03),
                alpha=0.05,
                method="bonferroni",
            )

    def test_xie_needs_proportional_scheme(self):
        # the singleton weight 0.5 breaks the init/sum structure
        table = {1: (0.5,), 2: (1.0,), 3: (0.9, 0.1)}
        with pytest.raises(InputError):
            TestProblem(
                scheme=WeightingScheme(2, table),
                model=CorrelationModel.full(equicorr(2, 0.0)),
                pvalues=(0.01, 0.03),
                alpha=0.05,
                method="xie",
            )

    def test_xie_needs_full_correlation_knowledge(self):
        with pytest.raises(InputError):
            TestProblem(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.independent_blocks(2),
                pvalues=(0.01, 0.03),
                alpha=0.05,
                method="xie",
            )

    def test_seed_must_be_integer(self):
        with pytest.raises(InputError):
            TestProblem(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.independent_blocks(2),
                pvalues=(0.01, 0.03),
                alpha=0.05,
                method="bonferroni",
                seed=1.5,
            )

    @pytest.mark.parametrize("seed", [-3, True, 1.5, "3"])
    def test_seed_must_be_nonnegative_and_not_bool(self, seed):
        # the analysis report's schema takes a nonnegative integer seed
        with pytest.raises(InputError, match="nonnegative integer"):
            TestProblem(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.independent_blocks(2),
                pvalues=(0.01, 0.03),
                alpha=0.05,
                method="bonferroni",
                seed=seed,
            )

    def test_numpy_seed_accepted(self):
        prob = TestProblem(
            scheme=xie_scheme((0.5, 0.5)),
            model=CorrelationModel.independent_blocks(2),
            pvalues=(0.01, 0.03),
            alpha=0.05,
            method="bonferroni",
            seed=np.uint32(7),
        )
        assert prob.seed == 7 and type(prob.seed) is int


class TestRunClosureBonferroni:
    def test_holm_m2(self):
        # equal-weight Bonferroni closure is Holm: hand enumeration of
        # the three intersections gives adjusted (0.02, 0.03)
        prob = TestProblem(
            scheme=xie_scheme((0.5, 0.5)),
            model=CorrelationModel.independent_blocks(2),
            pvalues=(0.01, 0.03),
            alpha=0.05,
            method="bonferroni",
        )
        rep = run_closure(prob)
        assert rep.adjusted == pytest.approx([0.02, 0.03], abs=1e-15)
        assert rep.rejected.tolist() == [True, True]
        assert rep.intersection((0, 1)).p_value == pytest.approx(0.02)

    def test_intersection_needs_a_nonempty_subset(self):
        # mask 0 would otherwise index the last, full-set, result
        prob = TestProblem(
            scheme=xie_scheme((0.5, 0.5)),
            model=CorrelationModel.independent_blocks(2),
            pvalues=(0.01, 0.03),
            alpha=0.05,
            method="bonferroni",
        )
        with pytest.raises(InputError):
            run_closure(prob).intersection(())

    def test_single_hypothesis_all_methods(self):
        for method in ("bonferroni", "parametric-subsets", "xie", "parametric-common"):
            prob = TestProblem(
                scheme=xie_scheme((1.0,)),
                model=CorrelationModel.full(equicorr(1, 0.0)),
                pvalues=(0.01,),
                alpha=0.025,
                method=method,
            )
            rep = run_closure(prob)
            assert rep.rejected.tolist() == [True]
            assert rep.adjusted == pytest.approx([0.01], abs=1e-12)

    def test_adjusted_is_maximum_over_containing_subsets(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            prob = TestProblem(
                scheme=random_scheme(rng, m),
                model=CorrelationModel.independent_blocks(m),
                pvalues=rng.uniform(0.0, 0.3, size=m),
                alpha=0.05,
                method="bonferroni",
            )
            rep = run_closure(prob)
            for i in range(m):
                containing = [
                    r.p_value for r in rep.intersections if i in r.members
                ]
                assert rep.adjusted[i] == pytest.approx(max(containing), abs=1e-15)
                assert rep.adjusted[i] >= prob.pvalues[i] - 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_intersection_pvalue_is_bonferroni_pvalue(self, seed):
        # zero-weight members, ratios above 1 and one that overflows to
        # inf; p-values of exactly 0 and 1
        rng = np.random.default_rng(4100 + seed)
        m = 7
        table = {}
        for mask in iter_masks(m):
            k = len(members(mask))
            w = rng.dirichlet(np.ones(k)) * rng.uniform(0.3, 1.0)
            w[rng.random(k) < 0.3] = 0.0
            if not w.any():
                w[rng.integers(k)] = 0.5
            table[mask] = w
        # p_2 / 1e-310 overflows
        table[1 << 2] = np.array([1e-310])
        p = rng.uniform(0.0, 0.6, size=m)
        p[0], p[1] = 0.0, 1.0
        rep = run_closure(
            TestProblem(
                scheme=WeightingScheme(m, table),
                model=CorrelationModel.independent_blocks(m),
                pvalues=p,
                alpha=0.05,
                method="bonferroni",
            )
        )
        got = [r.p_value for r in rep.intersections]
        want = [
            bonferroni_pvalue(members(mask), table[mask], p[list(members(mask))])
            for mask in iter_masks(m)
        ]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert all(r.p_error == 0.0 for r in rep.intersections)
        assert 1.0 in got and 0.0 in got and len(set(got)) > m

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2718)
        m = 4
        scheme = random_scheme(rng, m)
        p = rng.uniform(0.0, 0.2, size=m)
        perm = list(rng.permutation(m))
        base = run_closure(
            TestProblem(
                scheme=scheme,
                model=CorrelationModel.independent_blocks(m),
                pvalues=p,
                alpha=0.05,
                method="bonferroni",
            )
        )
        p2 = np.empty(m)
        for j in range(m):
            p2[perm[j]] = p[j]
        swapped = run_closure(
            TestProblem(
                scheme=permute_scheme(scheme, perm),
                model=CorrelationModel.independent_blocks(m),
                pvalues=p2,
                alpha=0.05,
                method="bonferroni",
            )
        )
        for j in range(m):
            assert swapped.adjusted[perm[j]] == base.adjusted[j]


class TestRunClosureParametric:
    def test_common_scale_decisions_m2(self):
        prob = TestProblem(
            scheme=xie_scheme((0.5, 0.5)),
            model=CorrelationModel.full(equicorr(2, 0.0)),
            pvalues=(0.024, 0.2),
            alpha=0.05,
            method="parametric-common",
        )
        rep = run_closure(prob)
        # the pair's p-value is the union at thresholds 0.5 * min(p / w) = 0.024:
        # 1 - 0.976^2, below alpha as 0.024 is below the pair level
        assert rep.intersection((0, 1)).p_value == pytest.approx(1 - 0.976**2, abs=1e-12)
        assert rep.adjusted == pytest.approx([1 - 0.976**2, 0.2], abs=1e-12)
        # 0.024 clears the scaled pair level 0.02532 and the singleton level
        assert rep.rejected.tolist() == [True, False]
        assert rep.intersection((0, 1)).scale == pytest.approx(C_DUNNETT_PAIR, abs=2e-6)
        assert rep.intersection((0,)).scale == 1.0

    def test_parametric_adjusted_dominates_bonferroni(self):
        # every intersection p-value can only shrink when correlation
        # knowledge enters, so the adjusted values order the same way
        rng = np.random.default_rng(46)
        for _ in range(10):
            m = 3
            scheme = random_scheme(rng, m)
            corr = random_correlation(rng, m)
            p = rng.uniform(0.0, 0.3, size=m)
            kw = dict(pvalues=p, alpha=0.05)
            para = run_closure(
                TestProblem(
                    scheme=scheme, model=CorrelationModel.full(corr),
                    method="parametric-subsets", **kw,
                ),
                compute_scales=False,
            )
            bonf = run_closure(
                TestProblem(
                    scheme=scheme, model=CorrelationModel.independent_blocks(m),
                    method="bonferroni", **kw,
                )
            )
            assert np.all(para.adjusted <= bonf.adjusted + 3e-6)

    def test_subsets_method_levels_attached(self):
        model = CorrelationModel(
            3, ((0, 1), (2,)), (equicorr(2, 0.5), None)
        )
        prob = TestProblem(
            scheme=random_scheme(np.random.default_rng(8), 3),
            model=model,
            pvalues=(0.01, 0.02, 0.03),
            alpha=0.025,
            method="parametric-subsets",
        )
        rep = run_closure(prob)
        full = rep.intersection((0, 1, 2))
        assert full.block_scales is not None
        assert full.local_levels is not None
        # the singleton block is never scaled
        assert full.block_scales[1] == ((2,), 1.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_compute_scales_off_skips_levels(self, monkeypatch, method):
        # every method decides by its p-values, so none needs a root solve
        import closedmtp.intersection as intersection

        prob = TestProblem(
            scheme=xie_scheme((0.5, 0.5)),
            model=CorrelationModel.full(equicorr(2, 0.3)),
            pvalues=(0.01, 0.02),
            alpha=0.05,
            method=method,
        )
        with_levels = run_closure(prob)
        calls = []
        for name in ("_solve_scale", "_solve_scales"):
            solve = getattr(intersection, name)
            monkeypatch.setattr(
                intersection, name, lambda *args, solve=solve: calls.append(1) or solve(*args)
            )
        rep = run_closure(prob, compute_scales=False)
        assert calls == []
        assert all(res.local_levels is None for res in rep.intersections)
        assert rep.rejected.tolist() == with_levels.rejected.tolist()
        assert rep.adjusted.tolist() == with_levels.adjusted.tolist()


class TestAccuracyArgs:
    """target_error, max_points and root_tol are checked even when no
    kernel call or root solve runs."""

    @pytest.mark.parametrize(
        "target_error, max_points",
        [
            (0.0, 2**16), (-1.0, 2**16), (1e-6, 1),
            (np.inf, 2**16), (np.nan, 2**16), (1e-6, np.inf), (1e-6, np.nan),
        ],
    )
    def test_rejected_without_kernel_work(self, target_error, max_points):
        scheme = xie_scheme((0.5, 0.5))
        model = CorrelationModel.independent_blocks(2)
        for method in ("bonferroni", "parametric-common", "parametric-subsets"):
            prob = TestProblem(
                scheme=scheme, model=model, pvalues=(0.01, 0.03), alpha=0.05, method=method
            )
            with pytest.raises(InputError):
                run_closure(prob, target_error=target_error, max_points=max_points)
            with pytest.raises(InputError):
                decision_thresholds(
                    scheme, model, 0.05, method, target_error=target_error, max_points=max_points
                )

    @pytest.mark.parametrize("root_tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_root_tol_rejected_without_root_solve(self, root_tol):
        # singleton blocks: every common scale is 1 without a solve
        scheme = xie_scheme((0.5, 0.5))
        model = CorrelationModel.independent_blocks(2)
        for method in ("bonferroni", "parametric-common", "parametric-subsets"):
            prob = TestProblem(
                scheme=scheme, model=model, pvalues=(0.01, 0.03), alpha=0.05, method=method
            )
            with pytest.raises(InputError, match="root_tol"):
                run_closure(prob, root_tol=root_tol)
            with pytest.raises(InputError, match="root_tol"):
                decision_thresholds(scheme, model, 0.05, method, root_tol=root_tol)
        with pytest.raises(InputError, match="root_tol"):
            check_consonance(scheme, model, 0.05, root_tol=root_tol)


class TestDecisionThresholds:
    def test_bonferroni_thresholds_are_scaled_weights(self):
        rng = np.random.default_rng(11)
        m = 3
        scheme = random_scheme(rng, m)
        t = decision_thresholds(
            scheme, CorrelationModel.independent_blocks(m), 0.05, "bonferroni"
        )
        assert t.shape == (7, 3)
        for mask in iter_masks(m):
            mem = members(mask)
            w = scheme.weights_for(mask)
            np.testing.assert_allclose(t[mask - 1, list(mem)], 0.05 * w, atol=1e-15)
            for j in range(m):
                if j not in mem:
                    assert t[mask - 1, j] == -1.0

    def test_matches_closure_levels_exactly(self):
        # same seed, same solver path: thresholds and report levels are
        # the same floats, for every method on a model it accepts
        scheme = xie_scheme((0.4, 0.35, 0.25))
        corr = equicorr(3, 0.4)
        pair_and_single = CorrelationModel(3, ((0, 2), (1,)), (equicorr(2, 0.4), None))
        models = [
            ("bonferroni", CorrelationModel.independent_blocks(3)),
            ("parametric-common", CorrelationModel.full(corr)),
            # the full set's solve adds the singleton as a linear term
            ("parametric-common", pair_and_single),
            ("parametric-subsets", pair_and_single),
            ("xie", CorrelationModel.full(corr)),
        ]
        assert sorted({method for method, _ in models}) == sorted(METHODS)
        for method, model in models:
            prob = TestProblem(
                scheme=scheme,
                model=model,
                pvalues=(0.01, 0.02, 0.03),
                alpha=0.025,
                method=method,
                seed=5,
            )
            rep = run_closure(prob)
            t = decision_thresholds(scheme, model, 0.025, method, seed=5)
            for mask in iter_masks(3):
                res = rep.intersections[mask - 1]
                got = t[mask - 1, list(res.members)]
                assert got.tolist() == res.local_levels.tolist(), (method, res.members)

    def test_common_thresholds_match_pvalue_decisions(self):
        # the cutoffs come from root solves, the closure's decisions from
        # p-values; on a model with a sampled (4-member) block the two agree
        # wherever p_J sits clear of alpha by the integration error
        rng = np.random.default_rng(5)
        alpha, target_error = 0.05, 1e-5
        checked = 0
        for instance in range(2):
            model = CorrelationModel(
                5, ((0, 1, 2, 3), (4,)), (random_correlation(rng, 4), None)
            )
            scheme = random_scheme(rng, 5)
            t = decision_thresholds(
                scheme, model, alpha, "parametric-common", seed=instance, target_error=target_error
            )
            for _ in range(15):
                p = rng.uniform(0.0, 0.1, size=5)
                rep = run_closure(
                    TestProblem(scheme, model, p, alpha, "parametric-common", seed=instance),
                    target_error=target_error,
                    compute_scales=False,
                )
                for mask in iter_masks(5):
                    mem = list(members(mask))
                    res = rep.intersections[mask - 1]
                    margin = 1e-5 + 3.0 * target_error / scheme.weights_for(mask).sum()
                    if abs(res.p_value - alpha) > margin:
                        assert bool(np.any(p[mem] <= t[mask - 1, mem])) == res.reject
                        checked += 1
        assert checked >= 900

    def test_threshold_decisions_match_closure(self):
        rng = np.random.default_rng(77)
        scheme = random_scheme(rng, 3)
        model = CorrelationModel(
            3, ((0, 2), (1,)), (equicorr(2, 0.6), None)
        )
        t = decision_thresholds(scheme, model, 0.05, "parametric-subsets", seed=3)
        for _ in range(20):
            p = rng.uniform(0.0, 0.2, size=3)
            rep = run_closure(
                TestProblem(
                    scheme=scheme, model=model, pvalues=p, alpha=0.05,
                    method="parametric-subsets", seed=3,
                )
            )
            for mask in iter_masks(3):
                mem = list(members(mask))
                by_threshold = bool(np.any(p[mem] <= t[mask - 1, mem]))
                assert by_threshold == rep.intersections[mask - 1].reject


class TestValidateOnce:
    def test_no_correlation_validated_while_testing(self, monkeypatch):
        # the model validated its matrices when built; the closure and the
        # thresholds only slice them
        model = CorrelationModel(
            5, ((0, 2, 4), (1,), (3,)), (equicorr(3, 0.4), None, None)
        )
        scheme = random_scheme(np.random.default_rng(5), 5)
        prob = TestProblem(
            scheme=scheme, model=model, pvalues=(0.01, 0.02, 0.03, 0.004, 0.2),
            alpha=0.025, method="parametric-subsets",
        )
        calls = []
        check = CorrelationMatrix.__post_init__

        def counted(self):
            calls.append(self)
            check(self)

        monkeypatch.setattr(CorrelationMatrix, "__post_init__", counted)
        run_closure(prob)
        decision_thresholds(scheme, model, 0.025, "parametric-common")
        assert calls == []


def random_graph_scheme(rng, m):
    """A propagation graph's scheme with every weight positive."""
    g = rng.uniform(0.1, 1.0, size=(m, m))
    np.fill_diagonal(g, 0.0)
    return scheme_from_graph(GraphSpec(m, rng.dirichlet(np.ones(m)), g / g.sum(axis=1, keepdims=True)))


def subset_levels(method, mem, w, alpha, model, *solve):
    """(scale, block scales, local levels) of one subset from the per-row
    scale oracle called on that subset alone: c = 1 (bonferroni), one
    common c, or one c per block."""
    if method == "bonferroni":
        return 1.0, None, alpha * w
    if method == "parametric-subsets":
        scales = subset_scales(mem, w, alpha, model, *solve)
        scale_of = {j: c for block, c in scales for j in block}
        return None, scales, np.array([scale_of[j] * alpha * wj for j, wj in zip(mem, w)])
    c = common_scale(mem, w, alpha, model, *solve)
    return c, None, c * alpha * w


def per_subset_thresholds(scheme, model, alpha, method, seed=0, target_error=DEFAULT_TARGET_ERROR):
    """The threshold table as a loop over every subset gives it: each row
    the method's levels for that subset."""
    t = np.full(((1 << scheme.m) - 1, scheme.m), -1.0)
    for mask in iter_masks(scheme.m):
        mem = members(mask)
        t[mask - 1, list(mem)] = subset_levels(
            method, mem, scheme.weights_for(mask), alpha, model,
            seed, target_error, DEFAULT_ROOT_TOL, DEFAULT_MAX_POINTS,
        )[2]
    return t


def threshold_table_cases():
    """(name, scheme, model, methods the model allows)."""
    rng = np.random.default_rng(1313)
    partitioned = ("bonferroni", "parametric-common", "parametric-subsets")
    yield "singletons", random_graph_scheme(rng, 5), CorrelationModel.independent_blocks(5), partitioned
    yield "pair", random_graph_scheme(rng, 6), CorrelationModel(
        6, ((1, 4), (0,), (2,), (3,), (5,)), (equicorr(2, 0.5), None, None, None, None)
    ), partitioned
    yield "pair-triple", random_graph_scheme(rng, 7), CorrelationModel(
        7, ((0, 3), (1, 2, 5), (4,), (6,)),
        (equicorr(2, -0.3), random_correlation(rng, 3), None, None),
    ), partitioned
    # the pair's second member carries weight 0 in every subset that holds H_3
    table = {
        mask: np.where(np.array(mem) == 1, 0.0, w) if {1, 3} <= set(mem) else w
        for mask, mem, w in random_scheme(rng, 5).entries()
    }
    yield "zero-weight", WeightingScheme(5, table), CorrelationModel(
        5, ((0, 1), (2,), (3,), (4,)), (equicorr(2, 0.6), None, None, None)
    ), partitioned
    yield "sampled", xie_scheme(rng.dirichlet(np.ones(4) * 2.0)), CorrelationModel.full(
        random_correlation(rng, 4)
    ), tuple(METHODS)
    yield "two-pairs", random_graph_scheme(rng, 7), CorrelationModel(
        7, ((0, 4), (1,), (2, 6), (3,), (5,)),
        (equicorr(2, 0.4), None, equicorr(2, -0.7), None, None),
    ), partitioned
    # ten members: a weight total sums in numpy's unrolled order
    yield "pair-m10", random_graph_scheme(rng, 10), CorrelationModel(
        10, ((3, 8),) + tuple((j,) for j in range(10) if j not in (3, 8)),
        (equicorr(2, 0.5),) + (None,) * 8,
    ), partitioned
    # the bivariate's closed forms: independence and the two degenerate pairs
    for rho in (0.0, 1.0, -1.0):
        yield f"pair-rho={rho:g}", random_graph_scheme(rng, 5), CorrelationModel(
            5, ((1, 3), (0,), (2,), (4,)), (equicorr(2, rho), None, None, None)
        ), partitioned


class TestThresholdTable:
    """decision_thresholds fills the rows that need no root solve in one
    array step; every row must be the float the per-subset levels give."""

    @pytest.mark.parametrize("case", list(threshold_table_cases()), ids=lambda case: case[0])
    def test_equals_the_per_subset_loop(self, case):
        _, scheme, model, methods = case
        for method in methods:
            got = decision_thresholds(scheme, model, 0.025, method, seed=4, target_error=1e-5)
            ref = per_subset_thresholds(scheme, model, 0.025, method, seed=4, target_error=1e-5)
            assert got.tobytes() == ref.tobytes(), method

    @pytest.mark.parametrize("method", ["parametric-common", "parametric-subsets"])
    def test_a_bracket_that_does_not_straddle_raises_the_per_subset_error(self, method):
        # just below alpha = 1, a pair weight total just above 1 sets a
        # target no union reaches; masks 3 and 7 both miss, each at its own
        # target, and mask 3's is named
        over, more = 0.5 + 4e-13, 0.5 + 4.4e-13
        scheme = WeightingScheme(3, {
            1: (1.0,), 2: (1.0,), 3: (over, over), 4: (1.0,), 5: (0.5, 0.5), 6: (0.5, 0.5),
            7: (more, more, 1e-13),
        })
        model = CorrelationModel(3, ((0, 1), (2,)), (equicorr(2, 0.3), None))
        alpha = float(np.nextafter(1.0, 0.0))
        with pytest.raises(BracketError) as ref:
            per_subset_thresholds(scheme, model, alpha, method)
        assert f"target {alpha * (over + over)};" in str(ref.value)
        with pytest.raises(BracketError, match=f"^{re.escape(str(ref.value))}$"):
            decision_thresholds(scheme, model, alpha, method)
        # without mask 3's miss, mask 7's is named
        first = str(ref.value)
        scheme = WeightingScheme(3, {**scheme.table, 3: (0.5, 0.5)})
        with pytest.raises(BracketError) as ref:
            per_subset_thresholds(scheme, model, alpha, method)
        assert str(ref.value) != first
        with pytest.raises(BracketError, match=f"^{re.escape(str(ref.value))}$"):
            decision_thresholds(scheme, model, alpha, method)

    @pytest.mark.parametrize("weights, alpha", [
        ((1.0 + 5e-13, 1e-13), float(np.nextafter(1.0, 0.0))),
        ((1e-320, 1e-320), 1e-10),
    ])
    def test_a_pair_threshold_outside_the_unit_interval_raises_the_per_subset_error(
        self, weights, alpha
    ):
        # alpha * w rounds to 1 or to 0, where the per-subset solve fails;
        # the table raises what it raises
        scheme = WeightingScheme(2, {1: (1.0,), 2: (1.0,), 3: weights})
        model = CorrelationModel.full(equicorr(2, 0.3))
        for method in ("parametric-common", "parametric-subsets"):
            with pytest.raises(InputError) as ref:
                per_subset_thresholds(scheme, model, alpha, method)
            with pytest.raises(InputError, match=f"^{re.escape(str(ref.value))}$"):
                decision_thresholds(scheme, model, alpha, method)

    def test_a_root_tol_below_the_float_spacing_ends(self):
        # no bracket near c = 1.1 is 1e-17 wide: the per-subset solve and
        # the table's array pass both stop at two adjacent floats, on the
        # same one
        corr = equicorr(2, 0.5)
        scheme, model = xie_scheme((0.5, 0.5)), CorrelationModel.full(corr)
        with deadline(30):
            c = parametric_c((0, 1), (0.5, 0.5), 0.05, corr, root_tol=1e-17)
            tables = [
                decision_thresholds(scheme, model, 0.05, method, root_tol=1e-17)
                for method in ("parametric-common", "parametric-subsets")
            ]
        assert abs(c - parametric_c((0, 1), (0.5, 0.5), 0.05, corr, root_tol=1e-12)) <= 1e-12
        for t in tables:
            assert t[2].tolist() == [c * 0.05 * 0.5] * 2

    def test_zero_weight_case_has_such_rows(self):
        # the case above keeps H_1 in the block but out of its solve
        _, scheme, model, _ = list(threshold_table_cases())[3]
        t = decision_thresholds(scheme, model, 0.025, "parametric-common")
        assert t[0b1011 - 1, 1] == 0.0
        assert t[0b1011 - 1, 0] == 0.025 * scheme.weights_for(0b1011)[0]


# schemes each intersection test refuses; bonferroni's levels read no check
INVALID_SCHEMES = {
    "sum-above-one": {1: (0.9,), 2: (0.9,), 3: (0.7, 0.7)},
    "negative": {1: (0.5,), 2: (0.5,), 3: (-0.1, 0.5)},
    "zero-total": {1: (0.0,), 2: (0.5,), 3: (0.5, 0.5)},
    # mask 2 fails first, although mask 3 fails too
    "first-mask-first": {1: (0.5,), 2: (1.5,), 3: (-0.1, 0.5)},
    # a negative weight is named before the total it spoils
    "negative-before-total": {1: (0.5,), 2: (0.5,), 3: (-0.1, 1.5)},
}


class TestThresholdWeightChecks:
    """Every method's table checks every subset's weights as the
    intersection tests do, and raises the same error for the first
    failing mask."""

    @pytest.mark.parametrize("name", sorted(INVALID_SCHEMES))
    def test_every_method_raises_the_per_subset_error(self, name):
        scheme = WeightingScheme(2, INVALID_SCHEMES[name])
        model = CorrelationModel.independent_blocks(2)
        with pytest.raises(InputError) as ref:
            per_subset_thresholds(scheme, model, 0.05, "parametric-common")
        for method in ("bonferroni", "parametric-common", "parametric-subsets"):
            with pytest.raises(InputError, match=f"^{re.escape(str(ref.value))}$"):
                decision_thresholds(scheme, model, 0.05, method)
        with pytest.raises(InputError, match=f"^{re.escape(str(ref.value))}$"):
            check_consonance(scheme, model, 0.05)

    def test_reported_errors(self):
        model = CorrelationModel.independent_blocks(2)
        expected = {
            "sum-above-one": "weights sum to 1.4, exceeding 1",
            "negative": "weights must be finite and nonnegative",
            "zero-total": "all weights in the subset are zero",
            "first-mask-first": "weights sum to 1.5, exceeding 1",
            "negative-before-total": "weights must be finite and nonnegative",
        }
        for name, message in expected.items():
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                decision_thresholds(WeightingScheme(2, INVALID_SCHEMES[name]), model, 0.05, "bonferroni")

    def test_every_method_on_a_proportional_scheme_above_one(self):
        # proportional within the method's 1e-9, but every total is 1 + 5e-10
        over = 1.0 + 5e-10
        scheme = WeightingScheme(2, {1: (over,), 2: (over,), 3: (0.5 * over, 0.5 * over)})
        model = CorrelationModel.full(equicorr(2, 0.3))
        for method in METHODS:
            with pytest.raises(InputError, match="exceeding 1"):
                decision_thresholds(scheme, model, 0.05, method)
        with pytest.raises(InputError, match="exceeding 1"):
            check_consonance(scheme, model, 0.05)

    @pytest.mark.parametrize("ulps", range(-6, 7))
    def test_total_at_the_bound(self, ulps):
        # totals a few ulps either side of 1 + 1e-12: the table raises
        # exactly when the per-subset check does
        bound = 1.0 + 1e-12
        top = bound + ulps * np.spacing(bound)
        table = {1: (0.5,), 2: (0.5,), 3: (0.25, top - 0.25), 4: (0.5,), 5: (0.5, 0.5),
                 6: (0.5, 0.5), 7: (top / 3, top / 3, top - 2 * (top / 3))}
        scheme = WeightingScheme(3, table)
        failing = [mask for mask in iter_masks(3) if float(np.sum(table[mask])) > bound]
        model = CorrelationModel.independent_blocks(3)
        if failing:
            total = float(np.sum(table[failing[0]]))
            with pytest.raises(InputError, match=f"^weights sum to {re.escape(str(total))}, "):
                decision_thresholds(scheme, model, 0.05, "bonferroni")
        else:
            decision_thresholds(scheme, model, 0.05, "bonferroni")


class TestThresholdSaving:
    """The table's saving, by counts: a problem in which no block holds
    more than MAX_EXACT_DIM positive-weight members is solved in one array
    pass (``_solve_scales``), with no root solve alone (``_solve_scale``)
    and no kernel rule; only a problem with a larger block is solved
    alone, once: the row for a common scaling, the block for per-block
    scalings."""

    PAIR = (2, 5)
    TRIPLE = (2, 5, 6)

    @staticmethod
    def problem(block):
        m = 8
        scheme = random_graph_scheme(np.random.default_rng(88), m)
        singles = tuple((j,) for j in range(m) if j not in block)
        corr = equicorr(len(block), 0.5)
        model = CorrelationModel(m, (block,) + singles, (corr,) + (None,) * len(singles))
        return scheme, model

    @staticmethod
    def counted_solves(monkeypatch):
        """(per ``_solve_scale`` call its mask and the sizes of its
        blocks' active weights, per ``_solve_scales`` call its problems)."""
        import closedmtp.intersection as intersection

        alone, batched = [], []
        solve, solves = intersection._solve_scale, intersection._solve_scales

        def counted(groups, *args):
            alone.append((args[3], [w.size for _, _, w in groups]))
            return solve(groups, *args)

        def counted_pass(parts, target, *args):
            batched.append(target.size)
            return solves(parts, target, *args)

        monkeypatch.setattr(intersection, "_solve_scale", counted)
        monkeypatch.setattr(intersection, "_solve_scales", counted_pass)
        return alone, batched

    @pytest.mark.parametrize("block", [PAIR, TRIPLE], ids=["pair", "triple"])
    @pytest.mark.parametrize("method", ["parametric-common", "parametric-subsets"])
    def test_closed_form_rows_call_no_levels_and_build_no_rule(self, monkeypatch, method, block):
        scheme, model = self.problem(block)
        alone, batched = self.counted_solves(monkeypatch)
        builds = []
        build = UnionRule.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            build(self, *args, **kwargs)

        monkeypatch.setattr(UnionRule, "__init__", counted)
        t = decision_thresholds(scheme, model, 0.025, method)
        # the subsets holding the block were solved: their scale exceeds 1
        holding = [mask for mask in iter_masks(8) if set(block) <= set(members(mask))]
        # one problem per row holding two members of the block at least
        several = [mask for mask in iter_masks(8) if len(set(block) & set(members(mask))) > 1]
        assert alone == [] and builds == [] and batched == [len(several)]
        assert all(t[mask - 1, 2] > 0.025 * scheme.weights_for(mask)[members(mask).index(2)]
                   for mask in holding)

    @pytest.mark.parametrize("method", ["parametric-common", "parametric-subsets"])
    def test_a_closure_with_scales_calls_no_levels(self, monkeypatch, method):
        # the closure takes its levels from the table, whose pair rows the
        # array pass solves
        scheme, model = self.problem(self.PAIR)
        alone, batched = self.counted_solves(monkeypatch)
        problem = TestProblem(
            scheme=scheme, model=model, pvalues=np.linspace(0.001, 0.04, 8), alpha=0.025,
            method=method,
        )
        report = run_closure(problem)
        assert alone == [] and batched == [1 << 6]
        full = report.intersections[-1]
        if method == "parametric-common":
            assert full.scale > 1.0
        else:
            assert dict(full.block_scales)[self.PAIR] > 1.0

    def test_rows_holding_a_block_of_seven_call_levels_once(self, monkeypatch):
        # every weight is positive, so the rows holding all of the block
        # hold seven active members, past the array pass; per-block
        # scalings solve the block alone, a common one the whole row
        seven = tuple(range(MAX_EXACT_DIM + 1))
        scheme, model = self.problem(seven)
        holding = [mask for mask in iter_masks(8) if set(seven) <= set(members(mask))]
        assert len(holding) == 2
        groups = {"parametric-common": [[7], [7, 1]], "parametric-subsets": [[7], [7]]}
        for method in ("parametric-common", "parametric-subsets"):
            alone, _ = self.counted_solves(monkeypatch)
            decision_thresholds(scheme, model, 0.025, method)
            want = list(zip(holding, groups[method]))
            assert alone == want, method
            alone.clear()
            problem = TestProblem(
                scheme=scheme, model=model, pvalues=np.linspace(0.001, 0.04, 8), alpha=0.025,
                method=method,
            )
            run_closure(problem)
            assert alone == want, method


class TestClosureLevels:
    """run_closure reads its scales and local levels from the threshold
    table; each intersection's must be the floats the per-row scale
    oracle gives that subset alone."""

    @pytest.mark.parametrize("case", list(threshold_table_cases()), ids=lambda case: case[0])
    def test_equal_the_per_subset_levels(self, case):
        _, scheme, model, methods = case
        p = np.random.default_rng(9).uniform(0.0, 0.05, size=scheme.m)
        for method in methods:
            problem = TestProblem(
                scheme=scheme, model=model, pvalues=p, alpha=0.025, method=method, seed=4
            )
            report = run_closure(problem, target_error=1e-5)
            for mask, res in zip(iter_masks(scheme.m), report.intersections):
                scale, block_scales, local = subset_levels(
                    method, res.members, scheme.weights_for(mask), 0.025, model,
                    4, 1e-5, DEFAULT_ROOT_TOL, DEFAULT_MAX_POINTS,
                )
                assert res.scale == scale and res.block_scales == block_scales, (method, mask)
                assert res.local_levels.tobytes() == local.tobytes(), (method, mask)


BAD_SEEDS = [-1, True, 1.5, "3"]


class TestSeedChecks:
    """Every entry taking a seed refuses what is no nonnegative integer,
    before any row is solved: a closed-form table never reads its seed,
    and True or 1.5 would run seed 1's streams."""

    PAIR_MODEL = CorrelationModel(3, ((0, 2), (1,)), (equicorr(2, 0.4), None))

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_decision_thresholds(self, seed):
        with pytest.raises(InputError, match="^seed must be a nonnegative integer$"):
            decision_thresholds(xie_scheme((0.4, 0.35, 0.25)), self.PAIR_MODEL, 0.025,
                                "parametric-common", seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_check_consonance(self, seed):
        with pytest.raises(InputError, match="^seed must be a nonnegative integer$"):
            check_consonance(xie_scheme((0.4, 0.35, 0.25)), self.PAIR_MODEL, 0.025, seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_xie_shortcut(self, seed):
        with pytest.raises(InputError, match="^seed must be a nonnegative integer$"):
            xie_shortcut((0.5, 0.5), (0.01, 0.03), equicorr(2, 0.5), 0.05, seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_weighted_dunnett_single_step(self, seed):
        with pytest.raises(InputError, match="^seed must be a nonnegative integer$"):
            weighted_dunnett_single_step((0.5, 0.5), (0.01, 0.03), equicorr(2, 0.5), 0.05, seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    @pytest.mark.parametrize("fn", [
        parametric_pvalue, xie_pvalue, partitioned_pvalue_subsets, partitioned_pvalue_common,
        parametric_c, partitioned_common_scale, partitioned_subset_scales,
    ], ids=lambda fn: fn.__name__)
    def test_intersection_functions(self, fn, seed):
        # each returned a value for any of these
        pvalue = fn in (parametric_pvalue, xie_pvalue, partitioned_pvalue_subsets,
                        partitioned_pvalue_common)
        full = fn in (parametric_pvalue, xie_pvalue, parametric_c)
        with pytest.raises(InputError, match="^seed must be a nonnegative integer$"):
            fn((0, 1, 2), (0.4, 0.35, 0.25), (0.01, 0.03, 0.02) if pvalue else 0.025,
               equicorr(3, 0.4) if full else self.PAIR_MODEL, seed=seed)

    def test_numpy_seed_gives_the_int_seeds_table(self):
        scheme = random_scheme(np.random.default_rng(3), 3)
        model = CorrelationModel.full(equicorr(3, 0.3))
        got = decision_thresholds(scheme, model, 0.025, "parametric-common", seed=np.uint32(7))
        want = decision_thresholds(scheme, model, 0.025, "parametric-common", seed=7)
        assert got.tobytes() == want.tobytes()


class TestCheckConsonance:
    def test_proportional_scheme_is_consonant(self):
        rep = check_consonance(
            xie_scheme((0.2, 0.3, 0.5)), equicorr(3, 0.5), 0.025
        )
        assert rep.consonant
        assert rep.violations == ()

    def test_single_hypothesis_vacuously_consonant(self):
        rep = check_consonance(xie_scheme((1.0,)), equicorr(1, 0.0), 0.05)
        assert rep.consonant

    def test_detects_dropping_level(self):
        # the pair runs at scaled weight 0.5 each, the singletons at
        # unscaled 0.5: shrinking the set lowers the local level
        table = {0b01: (0.5,), 0b10: (0.5,), 0b11: (0.5, 0.5)}
        rep = check_consonance(
            WeightingScheme(2, table), equicorr(2, 0.9), 0.05
        )
        assert not rep.consonant
        pairs = {(v.superset, v.subset, v.hypothesis) for v in rep.violations}
        assert ((0, 1), (0,), 0) in pairs
        assert ((0, 1), (1,), 1) in pairs

    def test_consonant_closure_rejects_through_singletons(self):
        rng = np.random.default_rng(404)
        scheme = xie_scheme((0.3, 0.3, 0.4))
        corr = equicorr(3, 0.5)
        assert check_consonance(scheme, corr, 0.05).consonant
        for _ in range(4):
            p = rng.uniform(0.0, 0.15, size=3)
            rep = run_closure(
                TestProblem(
                    scheme=scheme, model=CorrelationModel.full(corr),
                    pvalues=p, alpha=0.05, method="parametric-common",
                )
            )
            for res in rep.intersections:
                if res.reject and len(res.members) > 1:
                    assert any(
                        rep.intersection((j,)).reject for j in res.members
                    )

    def test_m_cap(self):
        with pytest.raises(InputError):
            check_consonance(
                xie_scheme((1.0 / 13,) * 13), equicorr(13, 0.0), 0.05
            )

    def test_tolerance_must_be_finite_and_nonnegative(self):
        # nan would hide every violation, a negative one flag equal levels
        for tolerance in (float("nan"), float("inf"), -1.0):
            with pytest.raises(InputError, match="tolerance"):
                check_consonance(
                    xie_scheme((0.5, 0.5)), equicorr(2, 0.5), 0.05, tolerance=tolerance
                )

    def test_violations_match_pairwise_sweep(self):
        # every (superset, proper subset, member) triple compared one by
        # one, in the report's order: mask up, subset down, member up
        rng = np.random.default_rng(8)
        m = 5
        scheme = random_scheme(rng, m)
        model = CorrelationModel(
            m, ((0, 3), (1,), (2, 4)), (equicorr(2, 0.6), None, equicorr(2, -0.3))
        )
        t = decision_thresholds(scheme, model, 0.05, "parametric-common")
        t = np.where(t >= 0.0, t / 0.05, -1.0)
        expected = []
        for mask in iter_masks(m):
            sub = (mask - 1) & mask
            while sub:
                for j in members(sub):
                    if t[mask - 1, j] > t[sub - 1, j] + 1e-4:
                        excess = float(t[mask - 1, j] - t[sub - 1, j])
                        expected.append((members(mask), members(sub), j, excess))
                sub = (sub - 1) & mask
        rep = check_consonance(scheme, model, 0.05)
        got = [(v.superset, v.subset, v.hypothesis, v.excess) for v in rep.violations]
        assert expected
        assert got == expected


class TestXieShortcut:
    def test_weights_whose_sum_overflows(self):
        # 1e308 + 1e308 is inf: the weights are rescaled by their largest
        # first, with no overflow warning, and give the equal weights' chain
        args = ((0.01, 0.02), equicorr(2, 0.5), 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = xie_shortcut((1e308, 1e308), *args)
        equal = xie_shortcut((0.5, 0.5), *args)
        assert big["adjusted"].tolist() == equal["adjusted"].tolist()
        assert big["rejected"].tolist() == equal["rejected"].tolist()
        assert big["order"] == equal["order"]

    def test_single_hypothesis(self):
        out = xie_shortcut((1.0,), (0.013,), equicorr(1, 0.0), 0.025)
        assert out["adjusted"] == pytest.approx([0.013], abs=1e-12)
        assert out["rejected"].tolist() == [True]
        assert out["order"] == (0,)

    def test_classical_stepdown_order(self):
        # equal weights: removal follows ascending p-values
        p = (0.004, 0.041, 0.0009)
        out = xie_shortcut((1 / 3,) * 3, p, equicorr(3, 0.5), 0.05)
        assert out["order"] == (2, 0, 1)

    def test_adjusted_nondecreasing_along_order(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(m))
            p = rng.uniform(0.0, 0.5, size=m)
            out = xie_shortcut(w, p, random_correlation(rng, m), 0.05, seed=6)
            along = [out["adjusted"][j] for j in out["order"]]
            assert all(a <= b + 1e-15 for a, b in zip(along, along[1:]))

    def test_ties_break_to_lowest_index(self):
        out = xie_shortcut(
            (1 / 3,) * 3, (0.02, 0.02, 0.5), equicorr(3, 0.0), 0.05
        )
        assert out["order"][0] == 0

    def test_matches_full_closure(self):
        rng = np.random.default_rng(1001)
        checked = 0
        for _ in range(40):
            m = int(rng.integers(2, 4))
            w = rng.dirichlet(np.ones(m) * 2.0)
            corr = random_correlation(rng, m)
            p = rng.uniform(0.0, 0.3, size=m)
            rep = run_closure(
                TestProblem(
                    scheme=xie_scheme(w), model=CorrelationModel.full(corr),
                    pvalues=p, alpha=0.05, method="xie", seed=21,
                ),
                target_error=1e-5,
                compute_scales=False,
            )
            if np.min(np.abs(rep.adjusted - 0.05)) <= 1e-4:
                continue  # too close to the decision boundary to compare
            out = xie_shortcut(w, p, corr, 0.05, seed=21, target_error=1e-5)
            assert out["rejected"].tolist() == rep.rejected.tolist()
            checked += 1
        assert checked >= 25

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(InputError):
            xie_shortcut((0.5, 0.0), (0.01, 0.02), equicorr(2, 0.0), 0.05)

    def test_rejects_partial_correlation_knowledge(self):
        model = CorrelationModel(2, ((0,), (1,)), (None, None))
        with pytest.raises(InputError):
            xie_shortcut((0.5, 0.5), (0.01, 0.02), model, 0.05)


class TestWeightedDunnett:
    def test_pair_closed_form(self):
        out = weighted_dunnett_single_step(
            (0.5, 0.5), (0.02, 0.3), equicorr(2, 0.0), 0.05
        )
        assert out["c_I"] == pytest.approx(C_DUNNETT_PAIR, abs=2e-6)
        # independent pair: adjusted_i = 1 - (1 - p_i)^2
        assert out["adjusted"] == pytest.approx(
            [1 - 0.98**2, 1 - 0.7**2], abs=1e-12
        )
        assert out["rejected"].tolist() == [True, False]

    def test_single_hypothesis(self):
        out = weighted_dunnett_single_step((1.0,), (0.04,), equicorr(1, 0.0), 0.05)
        assert out["c_I"] == 1.0
        assert out["adjusted"] == pytest.approx([0.04], abs=1e-12)

    def test_adjusted_and_threshold_decisions_agree(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            m = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(m) * 3.0)
            corr = random_correlation(rng, m)
            p = rng.uniform(0.0, 0.4, size=m)
            out = weighted_dunnett_single_step(
                w, p, corr, 0.05, seed=9, target_error=1e-5
            )
            for i in range(m):
                if abs(out["adjusted"][i] - 0.05) <= 1e-4:
                    continue
                assert (out["adjusted"][i] <= 0.05) == bool(out["rejected"][i])

    def test_adjusted_at_least_pvalue(self):
        rng = np.random.default_rng(56)
        w = (0.25, 0.25, 0.5)
        p = rng.uniform(0.0, 0.5, size=3)
        out = weighted_dunnett_single_step(w, p, random_correlation(rng, 3), 0.05)
        assert np.all(out["adjusted"] >= p - 1e-9)

    @pytest.mark.parametrize("instance, saturated", [(119, False), (290, True)])
    def test_same_route_as_the_closure(self, instance, saturated):
        # the renormalised weights sum to one ulp below 1, so the division
        # by their total shows: float for float, the single step is the
        # full set's parametric p-value with only p_i observed. Saturated:
        # p_k / w_k > 1 / w_j for the lightest k, so min(p / w) is 1 / w_j,
        # and w_j * (1 / w_j) rounds to one ulp below 1 for the heaviest j.
        rng = np.random.default_rng(instance)
        m = int(rng.integers(2, 6))
        w = rng.dirichlet(np.ones(m) * 3.0)
        corr = random_correlation(rng, m)
        p = rng.uniform(0.0, 0.1, size=m)
        k = int(np.argmin(w))
        if saturated:
            p[k] = 1.5 * w[k] / w.max()
        assert (w / w.sum()).sum() != 1.0
        out = weighted_dunnett_single_step(w, p, corr, 0.05, seed=19, target_error=1e-5)
        full = tuple(range(m))
        w = w / w.sum()
        assert (p[k] / w[k] > 1.0 / w.max()) == saturated
        assert w.max() * (1.0 / w.max()) < 1.0 or not saturated
        for i in range(m):
            p_i = np.ones(m)
            p_i[i] = p[i]
            want = parametric_pvalue(full, w, p_i, corr, 19, 1e-5)
            assert out["adjusted"][i] == want
            # the union at thresholds w * p_i / w_i, capped at 1, on the full set's stream
            u = np.minimum(1.0, w * (p[i] / w[i]))
            direct = union_exceedance(u, corr, derived_seed(19, (1 << m) - 1), 1e-5).value
            assert out["adjusted"][i] == pytest.approx(min(1.0, direct), rel=0.0, abs=1e-15)
        c = parametric_c(full, w, 0.05, corr, 19, 1e-5)
        assert out["c_I"] == c
        np.testing.assert_array_equal(out["rejected"], p <= c * 0.05 * w)

    def test_saturated_adjusted_pvalue_is_one_without_a_fit(self, monkeypatch):
        # p_k / w_k > 1 / max w for the lightest k, so the heaviest threshold
        # of H_k's adjusted p-value is mathematically 1, though w_j * (1 / w_j)
        # rounds below 1: the union is certain, the p-value exactly 1, and
        # nothing is fitted for it. A fit is a rule (the root solve's) or a
        # batched quadrature fit of the p-values' array pass
        import closedmtp.intersection as intersection
        import closedmtp.mvnorm as mvnorm

        fits = []
        init, batched = mvnorm.UnionRule.__init__, intersection._plackett_fits

        def counted(self, *args, **kwargs):
            fits.append(1)
            init(self, *args, **kwargs)

        def counted_batch(u, *args):
            fits.extend([1] * u.shape[1])
            return batched(u, *args)

        monkeypatch.setattr(mvnorm.UnionRule, "__init__", counted)
        monkeypatch.setattr(intersection, "_plackett_fits", counted_batch)
        rng = np.random.default_rng(88)
        m = int(rng.integers(2, 6))
        w = rng.dirichlet(np.ones(m) * 3.0)
        corr = random_correlation(rng, m)
        p = rng.uniform(0.0, 0.1, size=m)
        k = int(np.argmin(w))
        p[k] = 1.5 * w[k] / w.max()
        assert m == 4
        out = weighted_dunnett_single_step(w, p, corr, 0.05, seed=19, target_error=1e-5)
        assert out["adjusted"][k] == 1.0
        single_step = len(fits)
        parametric_c(tuple(range(m)), w / w.sum(), 0.05, corr, 19, 1e-5)
        # one fit per unsaturated adjusted p-value besides the solve's own
        assert single_step - (len(fits) - single_step) == m - 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError):
            weighted_dunnett_single_step(
                (0.5, 0.4), (0.01, 0.02), equicorr(2, 0.0), 0.05
            )

    def test_weights_must_be_positive(self):
        with pytest.raises(InputError):
            weighted_dunnett_single_step(
                (1.0, 0.0), (0.01, 0.02), equicorr(2, 0.0), 0.05
            )


# the public p-value function of each sampled method, which the closure's
# refits must reproduce float for float
PUBLIC_PVALUE = {
    "xie": xie_pvalue,
    "parametric-common": partitioned_pvalue_common,
    "parametric-subsets": partitioned_pvalue_subsets,
}
TUTORIAL_PROBLEM = Path(__file__).resolve().parents[1] / "tutorial" / "trial_problem.json"


def reference_fits(prob, target_error, max_points):
    """(values, errors) of every p_J fitted to the target at max_points:
    values from the public p-value function, errors from the per-row
    estimate (``per_row_pvalues``), whose value must be the same float."""
    values, errors = [], []
    for mask in iter_masks(prob.m):
        mem = members(mask)
        args = (mem, prob.scheme.weights_for(mask), prob.pvalues[list(mem)], prob.model,
                prob.seed, target_error, max_points)
        est, _ = ESTIMATES[prob.method](*args)
        values.append(PUBLIC_PVALUE[prob.method](*args))
        assert est.value == values[-1]
        errors.append(est.error)
    return np.array(values), np.array(errors)


def adjusted_of(values, m):
    adjusted = np.zeros(m)
    for mask, v in zip(iter_masks(m), values):
        idx = list(members(mask))
        adjusted[idx] = np.maximum(adjusted[idx], v)
    return adjusted


def refine_contract_problems():
    """Two random full-correlation xie problems at m = 8, and block models
    with a 7-member block under both partitioned methods: every p-value
    with more than MAX_EXACT_DIM active members is sampled."""
    rng = np.random.default_rng(2024)
    for m in (8, 8):
        yield TestProblem(
            scheme=xie_scheme(rng.dirichlet(np.ones(m) * 2.0)),
            model=CorrelationModel.full(random_correlation(rng, m)),
            pvalues=rng.uniform(0.0, 0.03, size=m),
            alpha=0.025,
            method="xie",
        )
    for method in ("parametric-common", "parametric-subsets"):
        yield TestProblem(
            scheme=random_scheme(rng, 9),
            model=CorrelationModel(
                9, (tuple(range(7)), (7,), (8,)), (random_correlation(rng, 7), None, None)
            ),
            pvalues=rng.uniform(0.0, 0.03, size=9),
            alpha=0.025,
            method=method,
            seed=3,
        )


class TestRefineOnlyWhatCanChangeAnAnswer:
    """run_closure fits every p_J on one 2^11-point pass and refits to the
    target only those that could set an adjusted p-value or cross alpha;
    the reference fits every p_J to the target."""

    @pytest.mark.parametrize("index", range(4))
    def test_answers_equal_the_reference(self, index):
        prob = list(refine_contract_problems())[index]
        target_error = 1e-6
        rep = run_closure(prob, target_error=target_error, compute_scales=False)
        values, errors = reference_fits(prob, target_error, 1 << 16)
        want = adjusted_of(values, prob.m)
        assert rep.adjusted.tolist() == want.tolist()
        assert rep.rejected.tolist() == (want <= prob.alpha).tolist()
        got = np.array([res.p_value for res in rep.intersections])
        got_error = np.array([res.p_error for res in rep.intersections])
        assert [res.reject for res in rep.intersections] == (values <= prob.alpha).tolist()
        assert np.all(np.abs(got - values) <= got_error + errors)
        # some p-values keep their first pass, with the error of that pass
        coarse = got != values
        assert coarse.any()
        assert np.all(got_error[coarse] > target_error)

    @pytest.mark.parametrize("index", range(4))
    def test_first_pass_cap_is_the_reference(self, index):
        # with max_points <= 2^11 the first pass is every fit
        prob = list(refine_contract_problems())[index]
        rep = run_closure(prob, target_error=1e-6, max_points=1 << 11, compute_scales=False)
        values, errors = reference_fits(prob, 1e-6, 1 << 11)
        assert [res.p_value for res in rep.intersections] == values.tolist()
        assert [res.p_error for res in rep.intersections] == errors.tolist()

    @pytest.mark.parametrize("method", ["parametric-common", "parametric-subsets"])
    def test_exact_model_is_the_reference(self, method):
        # blocks of at most three are exact: nothing is refit
        rng = np.random.default_rng(61)
        prob = TestProblem(
            scheme=random_scheme(rng, 6),
            model=CorrelationModel(
                6, ((0, 1, 2), (3, 4), (5,)), (random_correlation(rng, 3), equicorr(2, 0.4), None)
            ),
            pvalues=rng.uniform(0.0, 0.03, size=6),
            alpha=0.025,
            method=method,
        )
        rep = run_closure(prob, compute_scales=False)
        values, errors = reference_fits(prob, 1e-6, 1 << 16)
        assert [res.p_value for res in rep.intersections] == values.tolist()
        assert [res.p_error for res in rep.intersections] == errors.tolist()


def kernel_calls(monkeypatch, prob):
    """The (mask, block, max_points) of every call ``run_closure`` makes of
    ``intersection.union_exceedance`` while installed, in call order, each
    read off its stream: derived_seed(seed, mask, salt), the salt the
    block's place among the blocks holding a member of the mask."""
    import closedmtp.intersection as intersection

    streams = {}
    for mask in iter_masks(prob.m):
        present = [b for b, block in enumerate(prob.model.blocks) if mask & mask_of(block, prob.m)]
        for salt, b in enumerate(present):
            streams[derived_seed(prob.seed, mask, salt)] = (mask, b)
    calls = []
    union = intersection.union_exceedance

    def counted(thresholds, corr, seed, target_error, max_points):
        calls.append((*streams[seed], max_points))
        return union(thresholds, corr, seed, target_error, max_points)

    monkeypatch.setattr(intersection, "union_exceedance", counted)
    return calls


class TestRefineSaving:
    """Kernel passes counted by wrapping ``_QmcRule._means``, which every
    pass goes through."""

    def test_only_named_intersections_pass_the_first_pass(self, monkeypatch):
        import closedmtp.mvnorm as mvnorm

        prob = next(refine_contract_problems())
        m, alpha, coarse = prob.m, prob.alpha, 1 << 11
        estimate = ESTIMATES["xie"]

        def fit(mask, points):
            mem = members(mask)
            w = prob.scheme.weights_for(mask)
            return estimate(mem, w, prob.pvalues[list(mem)], prob.model, prob.seed, 1e-6, points)

        # the refine rule, round by round, on the first-pass estimates
        fits = {mask: fit(mask, coarse) for mask in iter_masks(m)}
        named = set()
        while True:
            lo = [max(est.value - est.error for mask, (est, _) in fits.items() if mask >> j & 1)
                  for j in range(m)]
            todo = {
                mask for mask, (est, met) in fits.items()
                if not met and mask not in named and (
                    any(est.value + est.error >= lo[j] for j in members(mask))
                    or est.value - est.error <= alpha <= est.value + est.error
                )
            }
            if not todo:
                break
            named |= todo
            fits.update({mask: (fit(mask, 1 << 16)[0], True) for mask in todo})
        sampled = {mask for mask in iter_masks(m) if len(members(mask)) > MAX_EXACT_DIM}
        assert named and named < sampled

        calls, deep = kernel_calls(monkeypatch, prob), set()
        means = mvnorm._QmcRule._means

        def counted(rule, shifts, start, upper):
            if rule.n > coarse:
                deep.add(calls[-1][0])
            return means(rule, shifts, start, upper)

        monkeypatch.setattr(mvnorm._QmcRule, "_means", counted)
        rep = run_closure(prob, compute_scales=False)
        assert deep == named
        assert rep.adjusted.tolist() == [
            max(est.value for mask, (est, _) in fits.items() if mask >> j & 1) for j in range(m)
        ]

    def test_tutorial_closure_makes_no_qmc_pass(self, monkeypatch):
        import closedmtp.mvnorm as mvnorm

        passes = []
        means = mvnorm._QmcRule._means

        def counted(*args):
            passes.append(1)
            return means(*args)

        monkeypatch.setattr(mvnorm._QmcRule, "_means", counted)
        doc = fileio.load_document(TUTORIAL_PROBLEM.read_text(), "problem")
        for method in ("bonferroni", "parametric-common", "parametric-subsets"):
            rep = run_closure(fileio.parse_problem(doc, method=method), compute_scales=False)
            assert all(res.p_error <= 1e-6 for res in rep.intersections)
        assert passes == []


def array_pass_problems():
    """Block models at m = 8 under both partitioned methods, and a full
    xie model, whose rows hit every branch of the array p-values: a
    7-member block (sampled, so fitted alone and refit), blocks of two to
    six with a +1 pair, a -1 pair and a near-singular pair, a p-value of
    0, rows that saturate (p-values of 1 and 0.9) and rows whose block
    members all carry zero weight."""
    rng = np.random.default_rng(2025)
    m = 8
    five = random_correlation(rng, 5).values.copy()
    five[1, :] = five[:, 1] = five[0]
    five[1, 1] = five[0, 1] = five[1, 0] = 1.0
    six = random_correlation(rng, 6).values.copy()
    six[2, :] = six[:, 2] = -six[3]
    six[2, 2] = 1.0
    six[2, 3] = six[3, 2] = -1.0
    pair = equicorr(2, 0.999)
    models = [
        CorrelationModel(m, (tuple(range(7)), (7,)), (random_correlation(rng, 7), None)),
        CorrelationModel(
            m, ((0, 1, 2), (3, 4, 5, 6, 7)), (random_correlation(rng, 3), CorrelationMatrix(five))
        ),
        CorrelationModel(m, ((0, 1, 2, 3, 4, 5), (6, 7)), (CorrelationMatrix(six), pair)),
    ]
    p = rng.uniform(0.0, 0.03, size=m)
    p[[1, 4, 6]] = 0.0, 1.0, 0.9
    for model in models:
        table = {}
        for mask, mem, w in random_scheme(rng, m).entries():
            # every third row holding both of 6 and 7 gives them zero weight
            if len(mem) > 2 and {6, 7} <= set(mem) and mask % 3 == 0:
                w = np.where(np.isin(mem, (6, 7)), 0.0, w)
            table[mask] = w
        for method in ("parametric-common", "parametric-subsets"):
            yield TestProblem(WeightingScheme(m, table), model, p, 0.025, method, seed=5)
    corr = random_correlation(rng, 7).values.copy()
    corr[0, :] = corr[:, 0] = corr[5]
    corr[0, 0] = corr[0, 5] = corr[5, 0] = 1.0
    yield TestProblem(
        xie_scheme(rng.dirichlet(np.ones(7))), CorrelationModel.full(CorrelationMatrix(corr)),
        p[:7], 0.025, "xie", seed=6,
    )


class TestArrayPvalues:
    """run_closure's first pass is one array pass over every row; it gives
    each row the floats of the per-row estimate, and only a block of more
    than MAX_EXACT_DIM active members (first pass and refit) is fitted by
    a ``union_exceedance`` call of its own."""

    @pytest.mark.parametrize("index", range(7))
    def test_every_row_is_the_per_row_floats(self, index):
        prob = list(array_pass_problems())[index]
        # with max_points <= 2^11 nothing is refit: the first pass is every fit
        rep = run_closure(prob, target_error=1e-6, max_points=1 << 11, compute_scales=False)
        values, errors = reference_fits(prob, 1e-6, 1 << 11)
        assert [res.p_value for res in rep.intersections] == values.tolist()
        assert [res.p_error for res in rep.intersections] == errors.tolist()
        # the branches this case was built for are all taken
        assert 1.0 in values and 0.0 in values and np.any(errors > 1e-13)

    @pytest.mark.parametrize("index", [0, 6, 7])
    def test_only_rows_with_a_larger_block_are_fitted_alone(self, monkeypatch, index):
        # the last case is the first refine problem, which refits some rows
        prob = [*array_pass_problems(), next(refine_contract_problems())][index]
        values, _ = reference_fits(prob, 1e-6, 1 << 16)
        calls = kernel_calls(monkeypatch, prob)
        rep = run_closure(prob, target_error=1e-6, compute_scales=False)
        rows = prob.scheme.rows
        large = [
            (mask, b) for mask in iter_masks(prob.m) for b, block in enumerate(prob.model.blocks)
            if np.count_nonzero(rows[mask - 1, list(block)]) > MAX_EXACT_DIM
        ]
        # the first pass fits each larger block once, in mask order
        assert [(mask, b) for mask, b, points in calls if points == 1 << 11] == large
        # a block refit at max_points is one of those, and the rest are exact
        refit = {(mask, b) for mask, b, points in calls if points == 1 << 16}
        assert refit <= set(large) and (index < 7 or refit)
        assert all(points in (1 << 11, 1 << 16) for _, _, points in calls)
        got = np.array([res.p_value for res in rep.intersections])
        exact = np.array([mask not in {mask for mask, _ in large} for mask in iter_masks(prob.m)])
        assert got[exact].tolist() == values[exact].tolist()
