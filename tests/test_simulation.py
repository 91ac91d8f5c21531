"""Tests for the Monte Carlo error-rate harness."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from closedmtp.closure import TestProblem, decision_thresholds, run_closure
from closedmtp.exceptions import InputError
from closedmtp.intersection import CorrelationModel
from closedmtp.mvnorm import CorrelationMatrix
from closedmtp.simulation import SimReport, SimScenario, _chunk_size, simulate
from closedmtp.subsets import iter_masks, members
from closedmtp.weighting import GraphSpec, scheme_from_graph, xie_scheme


def equicorr(dim, rho):
    return CorrelationMatrix(np.full((dim, dim), rho) + (1.0 - rho) * np.eye(dim))


def all_null_scenario(m, rho, method, n, seed=0, alpha=0.05):
    return SimScenario(
        scheme=xie_scheme((1.0 / m,) * m),
        model=CorrelationModel.full(equicorr(m, rho)),
        generator=equicorr(m, rho),
        alpha=alpha,
        method=method,
        true_nulls=[True] * m,
        mean_shifts=[0.0] * m,
        replications=n,
        master_seed=seed,
    )


def intersection_loop(scen):
    """simulate's report computed intersection by intersection: per chunk,
    one gather and comparison per intersection row, the survivors in a
    float32 matrix and the rejections from its product with the
    containment matrix."""
    m, n_total = scen.m, scen.replications
    thresholds = decision_thresholds(
        scen.scheme, scen.model, scen.alpha, scen.method, scen.master_seed
    )
    t = np.where(thresholds > 0.0, thresholds, -1.0)
    member_lists = [list(members(mask)) for mask in iter_masks(m)]
    containing = np.zeros((len(member_lists), m), dtype=np.float32)
    for row, mem in enumerate(member_lists):
        containing[row, mem] = 1.0
    lower = scen.generator.cholesky_lower()
    reject_counts = np.zeros(m, dtype=np.int64)
    fwer_count = done = chunk_index = 0
    while done < n_total:
        n_c = min(_chunk_size(m), n_total - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=scen.master_seed, spawn_key=(chunk_index,))
        )
        p = ndtr(-(rng.standard_normal((n_c, m)) @ lower.T + scen.mean_shifts))
        not_rejected = np.empty((n_c, len(member_lists)), dtype=np.float32)
        for row, mem in enumerate(member_lists):
            not_rejected[:, row] = ~(p[:, mem] <= t[row, mem]).any(axis=1)
        elem_rejected = (not_rejected @ containing) == 0.0
        reject_counts += elem_rejected.sum(axis=0)
        fwer_count += int(elem_rejected[:, scen.true_nulls].any(axis=1).sum())
        done += n_c
        chunk_index += 1
    fwer = fwer_count / n_total
    return SimReport(
        fwer_estimate=float(fwer),
        fwer_stderr=float(np.sqrt(fwer * (1.0 - fwer) / n_total)),
        rejection_rates=reject_counts / n_total,
        replications=n_total,
    )


def graph_scenario_m10(method, replications):
    """Random m=10 graph in which H_4 starts at weight zero, so it is a
    zero-weight member of the intersections whose removed hypotheses
    pass it nothing; two known correlated pairs and five true nulls."""
    rng = np.random.default_rng(2024)
    m = 10
    w = rng.dirichlet(np.ones(m))
    w[3] = 0.0
    g = rng.uniform(0.1, 1.0, size=(m, m))
    g[:, 3] *= rng.random(m) < 0.5
    np.fill_diagonal(g, 0.0)
    g /= g.sum(axis=1, keepdims=True)
    pairs = ((0, 1), (2, 3))
    rhos = (0.6, -0.3)
    corr = np.eye(m)
    for (a, b), rho in zip(pairs, rhos):
        corr[a, b] = corr[b, a] = rho
    mats = tuple(CorrelationMatrix([[1.0, r], [r, 1.0]]) for r in rhos)
    singles = tuple((j,) for j in range(4, m))
    return SimScenario(
        scheme=scheme_from_graph(GraphSpec(m, w / w.sum(), g)),
        model=CorrelationModel(m, pairs + singles, mats + (None,) * len(singles)),
        generator=CorrelationMatrix(corr),
        alpha=0.05,
        method=method,
        true_nulls=[True, False, True, False, True, False, True, False, True, False],
        mean_shifts=[0.0, 2.0, 0.0, 1.5, 0.0, 2.5, 0.0, 1.0, 0.0, 3.0],
        replications=replications,
        master_seed=31,
    )


class TestScenarioValidation:
    def test_shift_on_true_null_rejected(self):
        with pytest.raises(InputError):
            SimScenario(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.full(equicorr(2, 0.0)),
                generator=equicorr(2, 0.0),
                alpha=0.05,
                method="bonferroni",
                true_nulls=[True, False],
                mean_shifts=[0.1, 2.0],
                replications=100,
            )

    def test_negative_shift_rejected(self):
        with pytest.raises(InputError):
            SimScenario(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.full(equicorr(2, 0.0)),
                generator=equicorr(2, 0.0),
                alpha=0.05,
                method="bonferroni",
                true_nulls=[True, False],
                mean_shifts=[0.0, -1.0],
                replications=100,
            )

    def test_replications_must_be_positive(self):
        with pytest.raises(InputError):
            all_null_scenario(2, 0.0, "bonferroni", 0)

    def test_generator_dimension_must_match(self):
        with pytest.raises(InputError):
            SimScenario(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.full(equicorr(2, 0.0)),
                generator=equicorr(3, 0.0),
                alpha=0.05,
                method="bonferroni",
                true_nulls=[True, True],
                mean_shifts=[0.0, 0.0],
                replications=100,
            )

    def test_negative_master_seed_rejected(self):
        # the scenario schema's minimum; SeedSequence would reject it only
        # after every threshold was solved
        with pytest.raises(InputError, match="master_seed"):
            all_null_scenario(2, 0.0, "bonferroni", 100, seed=-3)

    def test_flag_length_must_match(self):
        with pytest.raises(InputError):
            SimScenario(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.full(equicorr(2, 0.0)),
                generator=equicorr(2, 0.0),
                alpha=0.05,
                method="bonferroni",
                true_nulls=[True, True, True],
                mean_shifts=[0.0, 0.0],
                replications=100,
            )


class TestSimulate:
    def test_global_null_bonferroni_closed_form(self):
        # independent pair, equal weights: any rejection happens exactly
        # when some p_i <= alpha/2, so FWER = 1 - (1 - 0.025)^2
        rep = simulate(all_null_scenario(2, 0.0, "bonferroni", 100_000, seed=42))
        expect = 1.0 - 0.975**2
        assert abs(rep.fwer_estimate - expect) <= 3.0 * rep.fwer_stderr + 1e-12
        assert rep.replications == 100_000

    def test_single_hypothesis_calibration(self):
        rep = simulate(all_null_scenario(1, 0.0, "bonferroni", 100_000, seed=7))
        assert abs(rep.fwer_estimate - 0.05) <= 3.0 * rep.fwer_stderr
        assert rep.rejection_rates[0] == rep.fwer_estimate

    def test_saturating_shifts(self):
        scen = SimScenario(
            scheme=xie_scheme((0.5, 0.5)),
            model=CorrelationModel.full(equicorr(2, 0.3)),
            generator=equicorr(2, 0.3),
            alpha=0.05,
            method="parametric-common",
            true_nulls=[False, False],
            mean_shifts=[10.0, 10.0],
            replications=5000,
            master_seed=3,
        )
        rep = simulate(scen)
        assert rep.fwer_estimate == 0.0  # no true nulls to falsely reject
        assert np.all(rep.rejection_rates >= 0.999)

    def test_reproducible_and_seed_sensitive(self):
        a = simulate(all_null_scenario(2, 0.5, "bonferroni", 70_000, seed=11))
        b = simulate(all_null_scenario(2, 0.5, "bonferroni", 70_000, seed=11))
        c = simulate(all_null_scenario(2, 0.5, "bonferroni", 70_000, seed=12))
        assert a.fwer_estimate == b.fwer_estimate
        assert a.rejection_rates.tolist() == b.rejection_rates.tolist()
        assert a.fwer_estimate != c.fwer_estimate

    def test_counts_match_per_replication_closure_bonferroni(self):
        # replay the chunk's random stream and run the full procedure
        # one replication at a time
        m, n, seed = 3, 400, 5
        scen = all_null_scenario(m, 0.0, "bonferroni", n, seed=seed)
        rep = simulate(scen)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        z = rng.standard_normal((n, m)) @ scen.generator.cholesky_lower().T
        p = ndtr(-z)
        counts = np.zeros(m)
        for r in range(n):
            out = run_closure(
                TestProblem(
                    scheme=scen.scheme, model=scen.model, pvalues=p[r],
                    alpha=scen.alpha, method="bonferroni", seed=seed,
                )
            )
            counts += out.rejected
        np.testing.assert_array_equal(rep.rejection_rates * n, counts)

    def test_counts_match_per_replication_closure_parametric(self):
        m, n, seed = 2, 200, 9
        scen = SimScenario(
            scheme=xie_scheme((0.6, 0.4)),
            model=CorrelationModel.full(equicorr(m, 0.5)),
            generator=equicorr(m, 0.5),
            alpha=0.05,
            method="parametric-common",
            true_nulls=[True, False],
            mean_shifts=[0.0, 1.0],
            replications=n,
            master_seed=seed,
        )
        rep = simulate(scen)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        z = rng.standard_normal((n, m)) @ scen.generator.cholesky_lower().T
        z += scen.mean_shifts
        p = ndtr(-z)
        counts = np.zeros(m)
        fwer_hits = 0
        for r in range(n):
            out = run_closure(
                TestProblem(
                    scheme=scen.scheme, model=scen.model, pvalues=p[r],
                    alpha=scen.alpha, method="parametric-common", seed=seed,
                )
            )
            counts += out.rejected
            fwer_hits += bool(out.rejected[0])
        np.testing.assert_array_equal(rep.rejection_rates * n, counts)
        assert rep.fwer_estimate * n == fwer_hits

    def test_mixed_nulls_fwer_controlled(self):
        scen = SimScenario(
            scheme=xie_scheme((0.5, 0.3, 0.2)),
            model=CorrelationModel.full(equicorr(3, 0.4)),
            generator=equicorr(3, 0.4),
            alpha=0.05,
            method="parametric-common",
            true_nulls=[True, True, False],
            mean_shifts=[0.0, 0.0, 2.5],
            replications=20_000,
            master_seed=17,
        )
        rep = simulate(scen)
        assert rep.fwer_estimate <= 0.05 + 3.0 * rep.fwer_stderr + 1e-3
        # the shifted hypothesis is easier to reject than the nulls
        assert rep.rejection_rates[2] > max(rep.rejection_rates[:2])

    def test_parametric_power_at_least_bonferroni(self):
        common = dict(
            scheme=xie_scheme((0.5, 0.5)),
            generator=equicorr(2, 0.6),
            alpha=0.05,
            true_nulls=[False, False],
            mean_shifts=[1.5, 1.5],
            replications=20_000,
            master_seed=23,
        )
        para = simulate(
            SimScenario(
                model=CorrelationModel.full(equicorr(2, 0.6)),
                method="parametric-subsets",
                **common,
            )
        )
        bonf = simulate(
            SimScenario(
                model=CorrelationModel.independent_blocks(2),
                method="bonferroni",
                **common,
            )
        )
        margin = 3.0 * np.sqrt(0.25 / common["replications"])
        assert np.all(para.rejection_rates >= bonf.rejection_rates - margin)


class TestReplicationLoop:
    @pytest.mark.parametrize("method", ["bonferroni", "parametric-common"])
    def test_equals_intersection_loop_bit_for_bit(self, method):
        # two chunks, the second one short
        n = _chunk_size(10) + 3001
        scen = graph_scenario_m10(method, n)
        assert any(
            scen.scheme.weights_for(mask)[members(mask).index(3)] == 0.0
            for mask in iter_masks(10)
            if (mask >> 3) & 1
        )
        got, want = simulate(scen), intersection_loop(scen)
        assert got.fwer_estimate == want.fwer_estimate
        assert got.fwer_stderr == want.fwer_stderr
        assert got.rejection_rates.tobytes() == want.rejection_rates.tobytes()
        assert got.replications == want.replications == n
        assert 0.0 < got.fwer_estimate and np.all(got.rejection_rates[1::2] > 0.0)

    def test_memory_below_float32_survival_matrix(self):
        m = 12
        chunk = _chunk_size(m)
        scen = SimScenario(
            scheme=xie_scheme((1.0 / m,) * m),
            model=CorrelationModel.independent_blocks(m),
            generator=equicorr(m, 0.2),
            alpha=0.05,
            method="bonferroni",
            true_nulls=[True] * m,
            mean_shifts=[0.0] * m,
            replications=chunk + 100,
            master_seed=5,
        )
        tracemalloc.start()
        try:
            simulate(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk's survivals as float32, which the loop no longer builds
        assert peak < chunk * ((1 << m) - 1) * 4, peak
