"""Tests for the Monte Carlo error-rate harness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from closedmtp import simulation
from closedmtp.closure import TestProblem, decision_thresholds, run_closure
from closedmtp.exceptions import InputError
from closedmtp.intersection import CorrelationModel
from closedmtp.mvnorm import CorrelationMatrix
from closedmtp.simulation import SimReport, SimScenario, _chunk_size, simulate
from closedmtp.subsets import iter_masks, member_table, members
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


def intersection_loop(scen, thresholds=None):
    """simulate's report computed intersection by intersection: per chunk,
    one gather and comparison per intersection row, the survivors in a
    float32 matrix and the rejections from its product with the
    containment matrix. ``thresholds`` defaults to the scenario's own."""
    m, n_total = scen.m, scen.replications
    if thresholds is None:
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


def bonferroni_graph_scenario(m, replications):
    """Random m-hypothesis graph under bonferroni in which H_4 starts at
    weight zero (a zero-weight member of some intersections); H_1 and H_2
    are correlated in the generator, and every other hypothesis is a
    true null."""
    rng = np.random.default_rng(7 + m)
    w = rng.dirichlet(np.ones(m))
    w[3] = 0.0
    g = rng.uniform(0.1, 1.0, size=(m, m))
    g[:, 3] *= rng.random(m) < 0.5
    np.fill_diagonal(g, 0.0)
    g /= g.sum(axis=1, keepdims=True)
    corr = np.eye(m)
    corr[0, 1] = corr[1, 0] = 0.5
    return SimScenario(
        scheme=scheme_from_graph(GraphSpec(m, w / w.sum(), g)),
        model=CorrelationModel.independent_blocks(m),
        generator=CorrelationMatrix(corr),
        alpha=0.05,
        method="bonferroni",
        true_nulls=[j % 2 == 0 for j in range(m)],
        mean_shifts=[0.0 if j % 2 == 0 else 2.5 for j in range(m)],
        replications=replications,
        master_seed=19,
    )


def fwer_sim_scenario(replications):
    """An m=12 graph shaped like the fwer-sim benchmark's instances: eight
    outgoing edges per node, one known pair at rho = 0.5 and singletons,
    four shifted alternatives, parametric-common at alpha = 0.025."""
    m = 12
    rng = np.random.default_rng(1212)
    g = np.zeros((m, m))
    for j in range(m):
        targets = rng.choice([i for i in range(m) if i != j], size=8, replace=False)
        g[j, targets] = rng.dirichlet(np.ones(8))
    a, b = 2, 7
    corr = np.eye(m)
    corr[a, b] = corr[b, a] = 0.5
    singles = tuple((j,) for j in range(m) if j not in (a, b))
    pair = CorrelationMatrix([[1.0, 0.5], [0.5, 1.0]])
    shifts = np.zeros(m)
    shifts[[0, 4, 9, 11]] = rng.uniform(2.0, 3.0, size=4)
    return SimScenario(
        scheme=scheme_from_graph(GraphSpec(m, rng.dirichlet(np.ones(m)), g)),
        model=CorrelationModel(m, ((a, b),) + singles, (pair,) + (None,) * len(singles)),
        generator=CorrelationMatrix(corr),
        alpha=0.025,
        method="parametric-common",
        true_nulls=shifts == 0.0,
        mean_shifts=shifts,
        replications=replications,
        master_seed=3,
    )


def drawn_pvalues(scen):
    """The p-values simulate draws, replication by replication: each
    chunk's stream replayed from its own seed."""
    m, n_total = scen.m, scen.replications
    lower = scen.generator.cholesky_lower()
    chunk = _chunk_size(m)
    out = []
    for chunk_index, lo in enumerate(range(0, n_total, chunk)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=scen.master_seed, spawn_key=(chunk_index,))
        )
        z = rng.standard_normal((min(chunk, n_total - lo), m)) @ lower.T + scen.mean_shifts
        out.append(ndtr(-z))
    return np.vstack(out)


def report_of(rejected, nulls):
    n_total = len(rejected)
    fwer = int(rejected[:, nulls].any(axis=1).sum()) / n_total
    return SimReport(
        fwer_estimate=float(fwer),
        fwer_stderr=float(np.sqrt(fwer * (1.0 - fwer) / n_total)),
        rejection_rates=rejected.sum(axis=0) / n_total,
        replications=n_total,
    )


def cumulative_tile_tables(levels, start, stop):
    """The tables of the masks [start, stop) with one full row per rank, as
    simulate once built them: (j, keys, table), one per hypothesis with a
    positive cutoff among them. Row K of ``table`` holds the bits of the K
    masks with the largest cutoffs; mask start + b is bit b % 64 of word
    b // 64."""
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


def bitset_loop(scen, thresholds):
    """simulate's report from cumulative lookup tables alone: every
    replication goes through every tile's binary search and OR of full
    table rows, with no decision by bounds and no sub-tiles."""
    m = scen.m
    levels = np.full((m, 1 << m), -1.0)
    levels[:, 1:] = thresholds.T
    p = drawn_pvalues(scen)
    inside = member_table(m).astype(np.float32)
    alive = np.zeros(p.shape, dtype=bool)
    for start in range(0, 1 << m, simulation._TILE):
        stop = min(start + simulation._TILE, 1 << m)
        tables = cumulative_tile_tables(levels, start, stop)
        for lo in range(0, len(p), _chunk_size(m)):
            rows = p[lo : lo + _chunk_size(m)]
            fired = np.zeros((len(rows), -(-(stop - start) // 64)), dtype=np.uint64)
            for j, keys, table in tables:
                fired |= table[np.searchsorted(keys, -rows[:, j], side="right")]
            # mask start + 64 w + b is bit b of word w
            words = np.invert(fired).astype("<u8").view(np.uint8)
            survived = np.unpackbits(words, axis=1, bitorder="little")[:, : stop - start]
            alive[lo : lo + len(rows)] |= survived.astype(np.float32) @ inside[start:stop] > 0.0
    return report_of(~alive, scen.true_nulls)


def undecided_share(scen, thresholds):
    """Share of replications with a hypothesis that neither bound decides:
    p_i <= least_i > 0 rejects H_i; p_i > t[O_i, i] or t[O_i, i] <= 0
    retains it, O_i being i plus every j with p_j above all its positive
    cutoffs."""
    m = scen.m
    inside = member_table(m)[1:]
    p = drawn_pvalues(scen)
    top = np.where(thresholds > 0.0, thresholds, -1.0).max(axis=0)
    least = np.where(inside, thresholds, np.inf).min(axis=0)
    outside = (p > top) @ (1 << np.arange(m))
    cut = thresholds[(outside[:, None] | (1 << np.arange(m))) - 1, np.arange(m)]
    decided = (p > cut) | (cut <= 0.0) | ((p <= least) & (least > 0.0))
    return float((~decided.all(axis=1)).mean())


def assert_same_report(got, want):
    assert got.fwer_estimate == want.fwer_estimate
    assert got.fwer_stderr == want.fwer_stderr
    assert got.rejection_rates.tobytes() == want.rejection_rates.tobytes()
    assert got.replications == want.replications


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

    def test_bool_replications_rejected(self):
        # a bool is an int to Python, and True would run as 1 replication
        with pytest.raises(InputError, match="replications"):
            all_null_scenario(2, 0.0, "bonferroni", True)

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

    def test_bool_master_seed_rejected(self):
        # a bool is an int to Python, and would run as seed 1
        with pytest.raises(InputError, match="master_seed"):
            all_null_scenario(2, 0.0, "bonferroni", 100, seed=True)

    @pytest.mark.parametrize("seed", [1.5, "3"])
    def test_master_seed_must_be_an_integer(self, seed):
        # 1.5 would run as seed 1
        with pytest.raises(InputError, match="^master_seed must be a nonnegative integer$"):
            all_null_scenario(2, 0.0, "bonferroni", 100, seed=seed)

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

    @pytest.mark.parametrize(
        "flags",
        # numpy would read each of these as two True flags
        [["False", "True"], [True, 0.5], [True, float("nan")]],
        ids=["string", "float", "nan"],
    )
    def test_flags_must_be_booleans(self, flags):
        with pytest.raises(InputError, match="true-null flags must be booleans"):
            SimScenario(
                scheme=xie_scheme((0.5, 0.5)),
                model=CorrelationModel.independent_blocks(2),
                generator=equicorr(2, 0.0),
                alpha=0.05,
                method="bonferroni",
                true_nulls=flags,
                mean_shifts=[0.0, 0.0],
                replications=100,
            )

    def test_bool_array_flags_kept_writable(self):
        flags = np.array([True, False])
        scen = SimScenario(
            scheme=xie_scheme((0.5, 0.5)),
            model=CorrelationModel.independent_blocks(2),
            generator=equicorr(2, 0.0),
            alpha=0.05,
            method="bonferroni",
            true_nulls=flags,
            mean_shifts=[0.0, 1.0],
            replications=100,
        )
        assert scen.true_nulls.tolist() == [True, False]
        assert not scen.true_nulls.flags.writeable and flags.flags.writeable

    def test_root_tol_checked_without_root_solves(self):
        # bonferroni solves nothing, so only the up-front check can catch it
        scen = SimScenario(
            scheme=xie_scheme((0.5, 0.5)),
            model=CorrelationModel.independent_blocks(2),
            generator=equicorr(2, 0.0),
            alpha=0.05,
            method="bonferroni",
            true_nulls=[True, True],
            mean_shifts=[0.0, 0.0],
            replications=100,
        )
        for root_tol in (0.0, -1.0, float("nan")):
            with pytest.raises(InputError, match="root_tol"):
                simulate(scen, root_tol=root_tol)


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
    @pytest.mark.parametrize("method", ["bonferroni", "parametric-common", "parametric-subsets"])
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
        t = decision_thresholds(scen.scheme, scen.model, scen.alpha, scen.method, scen.master_seed)
        assert_same_report(got, bitset_loop(scen, t))
        assert 0.0 < undecided_share(scen, t) < 1.0

    @pytest.mark.parametrize(
        ("m", "builds"),
        # m=4: the 2^4 masks fill part of one 64-bit word; m=13 and 14:
        # two and four tiles, each built once for all three chunks; m=17:
        # 32 tiles on a short run, hypotheses past bit 15 of the masks
        [(4, 1), (13, 2), (14, 4), (17, 32)],
    )
    def test_tables_equal_intersection_loop_bit_for_bit(self, m, builds, monkeypatch):
        calls = []
        build = simulation._tile_tables
        monkeypatch.setattr(
            simulation, "_tile_tables", lambda *args: calls.append(args[1:]) or build(*args)
        )
        # the last chunk is short
        n = 2 * _chunk_size(m) + 301 if m < 17 else 301
        scen = bonferroni_graph_scenario(m, n)
        assert any(
            scen.scheme.weights_for(mask)[members(mask).index(3)] == 0.0
            for mask in iter_masks(m)
            if (mask >> 3) & 1
        )
        got, want = simulate(scen), intersection_loop(scen)
        assert len(calls) == builds
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

    def test_memory_below_float32_survival_matrix_over_four_tiles(self):
        # at m=14 only one of the four tiles' tables is held at a time
        m = 14
        chunk = _chunk_size(m)
        scen = bonferroni_graph_scenario(m, chunk + 100)
        tracemalloc.start()
        try:
            simulate(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunk * ((1 << m) - 1) * 4, peak

    def test_memory_below_the_cumulative_tables_on_a_benchmark_shaped_graph(self):
        # two chunks; with one full row of 512 bytes per rank, the tables
        # of this m=12 graph alone would take more than the whole bound
        scen = fwer_sim_scenario(_chunk_size(12) + 1000)
        t = decision_thresholds(scen.scheme, scen.model, scen.alpha, scen.method, scen.master_seed)
        levels = np.full((12, 1 << 12), -1.0)
        levels[:, 1:] = t.T
        assert sum(table.nbytes for *_, table in cumulative_tile_tables(levels, 0, 1 << 12)) > 12e6
        tracemalloc.start()
        try:
            simulate(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, peak


class TestTileTables:
    @staticmethod
    def levels(m):
        # cutoffs from a few values, so that many tie, with zero, negative
        # and -inf ones among them; H_1 has no positive cutoff
        rng = np.random.default_rng(40 + m)
        values = np.array([-np.inf, -1.0, 0.0, 1e-3, 2e-3, 0.01, 0.025, 0.5])
        levels = rng.choice(values, size=(m, 1 << m))
        levels[1] = np.minimum(levels[1], 0.0)
        return levels

    @pytest.mark.parametrize("m", [4, 9, 10, 12, 13])
    def test_every_rank_gathers_the_cumulative_row(self, m):
        # m=4: fewer masks than one sub-tile; m=13: two tiles
        levels = self.levels(m)
        for start in range(0, 1 << m, simulation._TILE):
            stop = min(start + simulation._TILE, 1 << m)
            got = simulation._tile_tables(levels, start, stop)
            want = cumulative_tile_tables(levels, start, stop)
            assert [t[0] for t in got] == [t[0] for t in want] == [j for j in range(m) if j != 1]
            for (_, keys, index, rows), (_, want_keys, table) in zip(got, want):
                assert keys.tobytes() == want_keys.tobytes()
                assert np.unique(keys).size < keys.size
                assert len(index) == len(table)
                # every rank K, from none fired to all, sub-rows end to end
                assert rows[index].reshape(table.shape).tobytes() == table.tobytes()
                if stop - start == simulation._TILE:
                    assert rows.nbytes + index.nbytes < table.nbytes / 4


class TestPvaluesWithinReach:
    def test_left_out_entries_exceed_the_top_cutoff(self):
        tops = np.array([1e-12, 1e-6, 1e-3, 0.025, 0.5])
        steps = np.array([-1e-6, -1e-12, 0.0, 1e-12, 5e-8, 1e-7, 2e-7, 1e-6])
        neg_z = ndtri(tops) + steps[:, None]
        p = simulation._pvalues_within_reach(neg_z, tops)
        left = np.isinf(p)
        assert np.all(ndtr(neg_z[left]) > np.broadcast_to(tops, neg_z.shape)[left])
        assert p[~left].tobytes() == ndtr(neg_z[~left]).tobytes()
        # the band keeps every entry up to a step of 1e-7 past the top
        # cutoff, and leaves out every entry further past it
        assert not left[:6].any() and left[6:].all()

    def test_columns_without_a_banded_cutoff(self):
        # no positive cutoff: nothing; above 1/2 or subnormal: everything
        tops = np.array([0.0, -np.inf, -1.0, 0.7, 1.0, 1e-310])
        neg_z = np.linspace(-40.0, 40.0, 81)[:, None] + np.zeros(len(tops))
        p = simulation._pvalues_within_reach(neg_z, tops)
        assert np.all(p[:, :3] == np.inf)
        assert p[:, 3:].tobytes() == ndtr(neg_z[:, 3:]).tobytes()


class TestBoundDecisions:
    """simulate decides most replications from per-hypothesis bounds; these
    tables put cutoffs exactly on drawn p-values and on the bounds' edges."""

    @staticmethod
    def tied_scenario(m, n):
        # H_1's p-values are exactly 0; the other false nulls shift by 2.5
        scen = bonferroni_graph_scenario(m, n)
        shifts = np.array(scen.mean_shifts)
        shifts[1] = 50.0
        return dataclasses.replace(scen, mean_shifts=shifts)

    @pytest.mark.parametrize("m", [4, 13, 14])
    def test_cutoffs_on_drawn_pvalues(self, m, monkeypatch):
        # the last chunk is short; at m=13 and 14 the masks span 2 and 4 tiles
        n = 2 * _chunk_size(m) + 301
        scen = self.tied_scenario(m, n)
        p = drawn_pvalues(scen)
        assert np.all(p[:, 1] == 0.0)
        rng = np.random.default_rng(600 + m)
        inside = member_table(m)[1:]
        # every cutoff is the p-value of its hypothesis in one of the
        # replications that give it its lowest tenth
        t = np.sort(p, axis=0)[rng.integers(n // 10, size=inside.shape), np.arange(m)]
        # H_1 (p = 0) meets zero cutoffs and H_0's drawn p-values; H_2 has
        # no positive cutoff; H_3 is a zero-weight member of a third of its sets
        t[:, 1] = np.where(rng.random(len(t)) < 0.5, 0.0, t[:, 0])
        t[:, 2] = 0.0
        t[rng.random(len(t)) < 1 / 3, 3] = 0.0
        t = np.where(inside, t, -1.0)
        monkeypatch.setattr(simulation, "decision_thresholds", lambda *args: t)
        got = simulate(scen)
        assert_same_report(got, intersection_loop(scen, t))
        assert_same_report(got, bitset_loop(scen, t))
        assert 0.0 < undecided_share(scen, t) < 1.0
        assert np.any(inside[:, 1] & (t[:, 1] == 0.0)) and np.any(t[:, 1] > 0.0)

    def test_p_equal_to_its_cutoff_fires(self, monkeypatch):
        # every cutoff of H_0 is replication 0's p_0 and H_1 never fires,
        # so H_0 falls exactly where p_0 <= that cutoff, replication 0 included
        scen = all_null_scenario(2, 0.3, "bonferroni", 500, seed=3)
        p = drawn_pvalues(scen)
        t = np.array([[p[0, 0], -1.0], [-1.0, 0.0], [p[0, 0], 0.0]])
        monkeypatch.setattr(simulation, "decision_thresholds", lambda *args: t)
        got = simulate(scen)
        assert got.rejection_rates[0] * 500 == np.sum(p[:, 0] <= p[0, 0]) > 0
        assert got.rejection_rates[1] == 0.0
        assert_same_report(got, intersection_loop(scen, t))

    @pytest.mark.parametrize("m", [9, 13])
    def test_every_replication_decided(self, m, monkeypatch):
        # tiny positive cutoffs: a p of 0 is below every cutoff of its
        # hypothesis (rejected), any other p above all of them (retained);
        # at m=13 the first tile's pass leaves nothing open, so the second
        # tile's tables are never built
        n = _chunk_size(m) + 301
        scen = self.tied_scenario(m, n)
        scen = dataclasses.replace(
            scen, mean_shifts=np.where(scen.true_nulls, 0.0, 50.0)
        )
        inside = member_table(m)[1:]
        t = np.where(inside, 1e-300, -1.0)
        monkeypatch.setattr(simulation, "decision_thresholds", lambda *args: t)
        starts = []
        build = simulation._tile_tables
        monkeypatch.setattr(
            simulation, "_tile_tables", lambda *args: starts.append(args[1]) or build(*args)
        )
        got = simulate(scen)
        assert starts == [0]
        assert undecided_share(scen, t) == 0.0
        assert_same_report(got, intersection_loop(scen, t))
        assert_same_report(got, bitset_loop(scen, t))
        assert got.rejection_rates.tolist() == [0.0 if null else 1.0 for null in scen.true_nulls]

    def test_no_replication_decided(self, monkeypatch):
        # H_0 fires in every set but the full one, where it has weight 0,
        # and H_1's singleton cutoff of 1 keeps H_1 among the hypotheses
        # that fire, so the full set is never the set the bounds look up
        m = 9
        n = _chunk_size(m) + 301
        scen = bonferroni_graph_scenario(m, n)
        rng = np.random.default_rng(9)
        inside = member_table(m)[1:]
        t = rng.uniform(0.0, 0.1, size=inside.shape)
        t[:, 0] = 1.0
        t[-1, 0] = 0.0
        t[(1 << 1) - 1, 1] = 1.0
        t = np.where(inside, t, -1.0)
        monkeypatch.setattr(simulation, "decision_thresholds", lambda *args: t)
        got = simulate(scen)
        assert undecided_share(scen, t) == 1.0
        assert_same_report(got, intersection_loop(scen, t))
        assert_same_report(got, bitset_loop(scen, t))

    def test_counts_match_per_replication_closure_on_a_graph(self):
        # a zero-weight member and a correlated pair, one replication at a time
        m, n = 5, 300
        scen = bonferroni_graph_scenario(m, n)
        p = drawn_pvalues(scen)
        counts = np.zeros(m)
        for r in range(n):
            out = run_closure(
                TestProblem(
                    scheme=scen.scheme, model=scen.model, pvalues=p[r],
                    alpha=scen.alpha, method="bonferroni", seed=scen.master_seed,
                )
            )
            counts += out.rejected
        assert simulate(scen).rejection_rates.tolist() == (counts / n).tolist()
        assert 0.0 < counts.sum() < m * n
