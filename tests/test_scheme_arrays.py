"""Scheme floats, consonance listings and the reports built on them, pinned.

The digests below were taken from the per-subset implementation that
built each scheme by a depth-first walk, validated and swept it one
subset at a time. Two oracles from that implementation are kept here:
the walk itself (``walk_scheme``) and the sweep over every subset pair
(``sweep_pairs``, plus a plain triple loop at small m).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from closedmtp import (
    CorrelationMatrix,
    CorrelationModel,
    GraphSpec,
    InputError,
    SimScenario,
    TestProblem,
    WeightingScheme,
    check_consonance,
    constant_scheme,
    decision_thresholds,
    rescale_proportional,
    run_closure,
    scheme_from_graph,
    simulate,
    validate,
    xie_scheme,
)
from closedmtp.cli import main
from closedmtp.subsets import iter_masks, members

ROOT = Path(__file__).resolve().parents[1]
TUTORIAL = ROOT / "tutorial"
FWER_SIM = json.loads((ROOT / "perfbench" / "reference" / "fwer-sim.json").read_text())["instances"]


def remove_node(w, g, j, hits):
    """One node's removal, as the depth-first walk applied it; counts in
    ``hits`` the rows whose round trip through j leaves no weight."""
    w2 = w + w[j] * g[j]
    w2[j] = 0.0
    loop = g[:, j] * g[j, :]
    denom = 1.0 - loop
    g2 = g + np.outer(g[:, j], g[j, :])
    safe = denom > 1e-12
    hits[0] += int((~safe).sum())
    g2 = np.where(safe[:, None], g2 / np.where(safe, denom, 1.0)[:, None], 0.0)
    g2[j, :] = 0.0
    g2[:, j] = 0.0
    np.fill_diagonal(g2, 0.0)
    return w2, g2


def walk_scheme(graph, hits=None):
    """{mask: weights}: each subset reached by removing its complement in
    ascending order, prefixes shared depth first."""
    hits = [0] if hits is None else hits
    table = {}

    def visit(mask, w, g, start):
        mem = members(mask)
        table[mask] = w[list(mem)].copy()
        for j in mem:
            if j < start or mask == (1 << j):
                continue
            w2, g2 = remove_node(w, g, j, hits)
            visit(mask & ~(1 << j), w2, g2, j + 1)

    m = graph.m
    visit((1 << m) - 1, graph.initial_weights.copy(), graph.transitions.copy(), 0)
    return table


def digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def scheme_digest(scheme) -> str:
    return digest(*(scheme.weights_for(mask) for mask in iter_masks(scheme.m)))


def violations_digest(report) -> str:
    text = repr([(v.superset, v.subset, v.hypothesis, float(v.excess).hex()) for v in report.violations])
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def fwer_graph(inst):
    return GraphSpec(len(inst["initial_weights"]), inst["initial_weights"], inst["transitions"])


def fwer_model(inst):
    m = len(inst["initial_weights"])
    a, b = inst["pair"]
    rho = inst["rho"]
    pair = CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))
    singles = tuple((j,) for j in range(m) if j not in (a, b))
    return CorrelationModel(m, ((a, b),) + singles, (pair,) + (None,) * len(singles))


def random_graph(seed, m, zeros=0):
    """A conserving random graph; the first ``zeros`` hypotheses start at weight 0."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(m))
    w[:zeros] = 0.0
    g = rng.uniform(0.1, 1.0, size=(m, m))
    np.fill_diagonal(g, 0.0)
    if m > 1:
        g = g / g.sum(axis=1, keepdims=True)
    return GraphSpec(m, w / w.sum(), g)


def saturated_graph(seed, m):
    """Hypotheses paired off, each passing all of its weight to its partner
    and back, with some rows leaking a random share to a third node."""
    rng = np.random.default_rng(seed)
    g = np.zeros((m, m))
    order = rng.permutation(m)
    for a, b in zip(order[0::2], order[1::2]):
        g[a, b] = g[b, a] = 1.0
    for a in rng.choice(m, size=m // 3, replace=False):
        partner = int(np.flatnonzero(g[a])[0]) if g[a].any() else None
        other = int(rng.choice([j for j in range(m) if j not in (a, partner)]))
        share = float(rng.uniform(0.2, 0.8))
        if partner is not None:
            g[a, partner] = 1.0 - share
        g[a, other] = share
    return GraphSpec(m, rng.dirichlet(np.ones(m)), g)


def tutorial_graph():
    doc = json.loads((TUTORIAL / "trial_graph.json").read_text())
    return GraphSpec(doc["m"], doc["weights"], doc["transitions"])


GRAPHS = {
    "tutorial": tutorial_graph,
    **{f"fwer-sim-{k}": (lambda k=k: fwer_graph(FWER_SIM[k])) for k in range(8)},
    "zeros-m5": lambda: random_graph(51, 5, zeros=2),
    "zeros-m8": lambda: random_graph(52, 8, zeros=3),
    "zeros-m10": lambda: random_graph(53, 10, zeros=5),
    "saturated-m6": lambda: saturated_graph(61, 6),
    "saturated-m9": lambda: saturated_graph(62, 9),
    "saturated-m11": lambda: saturated_graph(63, 11),
}

SCHEME_SHA1 = {
    'fwer-sim-0': '67f142d432f6f813',
    'fwer-sim-1': '5c9c95e2851b0fa1',
    'fwer-sim-2': '67903d398270a605',
    'fwer-sim-3': 'be45fd4fd655a80b',
    'fwer-sim-4': 'c89b2a342cf59d98',
    'fwer-sim-5': '769df7d0ca96d94f',
    'fwer-sim-6': '6248e801074dac50',
    'fwer-sim-7': '90084f42606831e2',
    'saturated-m11': 'db6fe8f57e1ce4f8',
    'saturated-m6': '37ebd4be468d1cd0',
    'saturated-m9': '68bd96e5dc57c6a9',
    'tutorial': 'b26f39cd1911a1f4',
    'zeros-m10': '8721610fdeae3979',
    'zeros-m5': '7bf3dccf4e2c34f1',
    'zeros-m8': '6a127a55a5baee8d',
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_scheme_floats_pinned(name):
    graph = GRAPHS[name]()
    scheme = scheme_from_graph(graph)
    assert scheme_digest(scheme) == SCHEME_SHA1[name]
    oracle = walk_scheme(graph)
    for mask in iter_masks(graph.m):
        assert scheme.weights_for(mask).tobytes() == oracle[mask].tobytes(), mask


def test_saturated_graphs_reach_the_zero_denominator():
    for name in ("saturated-m6", "saturated-m9", "saturated-m11"):
        hits = [0]
        walk_scheme(GRAPHS[name](), hits)
        assert hits[0] > 0, name


@pytest.mark.parametrize("m, seed", [(1, 1), (2, 2), (3, 3), (7, 7), (13, 13), (14, 14)])
def test_scheme_matches_the_walk(m, seed):
    for graph in (random_graph(seed, m, zeros=m // 3), saturated_graph(seed, m)):
        scheme = scheme_from_graph(graph)
        oracle = walk_scheme(graph)
        got = np.concatenate([scheme.weights_for(mask) for mask in iter_masks(m)])
        want = np.concatenate([oracle[mask] for mask in iter_masks(m)])
        assert got.tobytes() == want.tobytes()


VALIDATE = {
    'fwer-sim-0': dict(valid=True, exhaustive=True, monotone=True),
    'fwer-sim-1': dict(valid=True, exhaustive=True, monotone=True),
    'fwer-sim-2': dict(valid=True, exhaustive=True, monotone=True),
    'fwer-sim-3': dict(valid=True, exhaustive=True, monotone=True),
    'fwer-sim-4': dict(valid=True, exhaustive=True, monotone=True),
    'fwer-sim-5': dict(valid=True, exhaustive=True, monotone=True),
    'fwer-sim-6': dict(valid=True, exhaustive=True, monotone=True),
    'fwer-sim-7': dict(valid=True, exhaustive=True, monotone=True),
    'saturated-m11': dict(valid=True, exhaustive=False, monotone=True),
    'saturated-m6': dict(valid=True, exhaustive=False, monotone=True),
    'saturated-m9': dict(valid=True, exhaustive=False, monotone=True),
    'tutorial': dict(valid=True, exhaustive=True, monotone=True),
    'zeros-m10': dict(valid=True, exhaustive=True, monotone=True),
    'zeros-m5': dict(valid=True, exhaustive=True, monotone=True),
    'zeros-m8': dict(valid=True, exhaustive=True, monotone=True),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_validate_verdicts_pinned(name):
    assert validate(scheme_from_graph(GRAPHS[name]())) == VALIDATE[name]


def derived_digests():
    """Digests of schemes built from others, and their proportionality."""
    graph = scheme_from_graph(random_graph(71, 9, zeros=0))
    return {
        "xie": scheme_digest(xie_scheme(np.random.default_rng(72).uniform(0.1, 1.0, size=11))),
        "xie-equal-m12": scheme_digest(xie_scheme(np.full(12, 1.0 / 12))),
        "constant": scheme_digest(constant_scheme(np.random.default_rng(73).dirichlet(np.ones(10)))),
        "rescaled": scheme_digest(rescale_proportional(graph)),
        "rescaled-fwer-sim-3": scheme_digest(rescale_proportional(scheme_from_graph(fwer_graph(FWER_SIM[3])))),
        "proportional": [
            xie_scheme([0.5, 0.25, 0.125, 0.125]).is_proportional(),
            rescale_proportional(constant_scheme([0.3, 0.2, 0.1, 0.4])).is_proportional(),
            graph.is_proportional(),
            rescale_proportional(graph).is_proportional(),
            rescale_proportional(graph).is_proportional(1e-18),
            xie_scheme(np.random.default_rng(72).uniform(0.1, 1.0, size=11)).is_proportional(0.0),
            constant_scheme([0.5, 0.0, 0.5]).is_proportional(),
        ],
    }


DERIVED = {
    'xie': 'bc9daa909a8c4ac2',
    'xie-equal-m12': '23121c64dafb60fb',
    'constant': '20b043e06f9a1a3b',
    'rescaled': '2f45e1429d38626a',
    'rescaled-fwer-sim-3': 'ed7b7a769feec3b7',
    'proportional': [True, True, False, False, False, False, False],
}


def test_derived_schemes_pinned():
    assert derived_digests() == DERIVED


def sweep_pairs(t, alpha, tolerance):
    """Every (superset, proper subset, member) triple whose level drops:
    per superset, its proper subsets in descending mask order."""
    t = np.where(t >= 0.0, t / alpha, -1.0)
    out = []
    for mask in iter_masks(t.shape[1]):
        mem = np.array(members(mask))
        bits = np.arange((1 << mem.size) - 2, 0, -1)[:, None] >> np.arange(mem.size) & 1
        subs = bits @ (1 << mem)
        row = t[mask - 1]
        sub_rows = t[subs - 1]
        hit = (sub_rows >= 0.0) & (row > sub_rows + tolerance)
        for i, j in zip(*np.nonzero(hit)):
            out.append((members(mask), members(int(subs[i])), int(j), float(row[j] - sub_rows[i, j])))
    return out


def triple_loop(t, alpha, tolerance):
    t = np.where(t >= 0.0, t / alpha, -1.0)
    out = []
    for mask in iter_masks(t.shape[1]):
        for sub in range(mask - 1, 0, -1):
            if sub & ~mask:
                continue
            for j in members(sub):
                if t[mask - 1, j] > t[sub - 1, j] + tolerance:
                    out.append((members(mask), members(sub), j, float(t[mask - 1, j] - t[sub - 1, j])))
    return out


def listing(report):
    return [(v.superset, v.subset, v.hypothesis, v.excess) for v in report.violations]


CONSONANCE_SHA1 = {
    0: '91f69d995d5527d5',
    1: '31ee04d514a7728f',
    2: '39ef28ced1bec8b8',
    3: '7bde6b2fb8b53dac',
    4: '8d45148eac6f92c3',
    5: '1b162b4401b14d2d',
    6: 'bdfcef413ffc4697',
    7: 'ddfbd246bf2ab337',
}


@pytest.mark.parametrize("k", range(8))
def test_fwer_sim_consonance_pinned(k):
    inst = FWER_SIM[k]
    scheme, model = scheme_from_graph(fwer_graph(inst)), fwer_model(inst)
    report = check_consonance(scheme, model, inst["alpha"])
    assert violations_digest(report) == CONSONANCE_SHA1[k]
    t = decision_thresholds(scheme, model, inst["alpha"], "parametric-common")
    assert listing(report) == sweep_pairs(t, inst["alpha"], 1e-4)
    assert report.consonant == (not report.violations)


def random_scheme(rng, m, grid):
    """A valid scheme whose weights are multiples of ``grid``, so levels tie often."""
    table = {}
    for mask in iter_masks(m):
        k = mask.bit_count()
        w = rng.integers(0, int(round(1.0 / grid)) // k + 1, size=k) * grid
        if not w.sum() > 0.0:
            w[rng.integers(k)] = grid
        table[mask] = w
    return WeightingScheme(m, table)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("tolerance", [0.0, 1e-4, 0.125])
def test_consonance_matches_every_pair(m, tolerance):
    rng = np.random.default_rng(100 * m + int(tolerance * 1000))
    alpha = 0.05
    for grid in (0.125, 0.1):
        scheme = random_scheme(rng, m, grid)
        for model in (CorrelationModel.independent_blocks(m), CorrelationModel.full(np.eye(m))):
            report = check_consonance(scheme, model, alpha, tolerance=tolerance)
            t = decision_thresholds(scheme, model, alpha, "parametric-common")
            want = triple_loop(t, alpha, tolerance)
            assert listing(report) == want
            assert want == sweep_pairs(t, alpha, tolerance)


THRESHOLDS_SHA1 = {
    'fwer-sim-0': '318d675b5720c1af',
    'fwer-sim-5': '30816b18a1c3e54f',
    'bonferroni-m10': '6e4bc5778d0b3b51',
    'simulate-fwer-sim-2': '74553197aa6275b7',
}


def threshold_digests():
    out = {}
    for k in (0, 5):
        inst = FWER_SIM[k]
        scheme, model = scheme_from_graph(fwer_graph(inst)), fwer_model(inst)
        out[f"fwer-sim-{k}"] = digest(decision_thresholds(scheme, model, inst["alpha"], "parametric-common", 3))
    scheme = scheme_from_graph(random_graph(81, 10, zeros=3))
    out["bonferroni-m10"] = digest(
        decision_thresholds(scheme, CorrelationModel.independent_blocks(10), 0.025, "bonferroni")
    )
    inst = FWER_SIM[2]
    m = len(inst["initial_weights"])
    a, b = inst["pair"]
    generator = np.eye(m)
    generator[a, b] = generator[b, a] = inst["rho"]
    report = simulate(
        SimScenario(
            scheme=scheme_from_graph(fwer_graph(inst)),
            model=fwer_model(inst),
            generator=CorrelationMatrix(generator),
            alpha=inst["alpha"],
            method="parametric-common",
            true_nulls=np.array(inst["true_nulls"]),
            mean_shifts=np.array(inst["mean_shifts"]),
            replications=20000,
            master_seed=5,
        )
    )
    out["simulate-fwer-sim-2"] = digest([report.fwer_estimate, report.fwer_stderr], report.rejection_rates)
    return out


def test_thresholds_and_simulation_pinned():
    assert threshold_digests() == THRESHOLDS_SHA1


CLI_RUNS = {
    "weights-json": ["weights", "trial_graph.json"],
    "weights-csv": ["weights", "trial_graph.json", "--format", "csv"],
    "weights-text": ["weights", "trial_graph.json", "--format", "text"],
    "consonance-json": ["check-consonance", "trial_problem.json"],
    "consonance-csv": ["check-consonance", "trial_problem.json", "--format", "csv"],
    "consonance-text": ["check-consonance", "trial_problem.json", "--format", "text"],
    "analyze-json": ["analyze", "trial_problem.json"],
    "simulate-json": ["simulate", "trial_scenario.json", "--seed", "7"],
    "simulate-csv": ["simulate", "trial_scenario.json", "--seed", "7", "--format", "csv"],
    "simulate-text": ["simulate", "trial_scenario.json", "--seed", "7", "--format", "text"],
}

CLI_SHA1 = {
    'analyze-json': [0, '8f3dddefb65e3db4'],
    'consonance-csv': [3, 'dae78b1dd00ee8cf'],
    'consonance-json': [3, '1c40c34d6a6e66a7'],
    'consonance-text': [3, '73c35cfb78f3e006'],
    'simulate-csv': [0, 'd8b146608a715ed3'],
    'simulate-json': [0, '0c1036db0bd3914c'],
    'simulate-text': [0, '6a8c5ae4eac16a3e'],
    'weights-csv': [0, '3b2fa329e4506377'],
    'weights-json': [0, 'efb7abd75685bd90'],
    'weights-text': [0, '609968330772b08f'],
}


def cli_digest(args):
    args = [str(TUTORIAL / a) if a.endswith(".json") else a for a in args]
    result = CliRunner().invoke(main, args)
    return result.exit_code, hashlib.sha1(result.stdout.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_tutorial_cli_output_pinned(name):
    assert list(cli_digest(CLI_RUNS[name])) == CLI_SHA1[name]


class TestWeightCheck:
    """``validate``'s ``valid`` is the intersection tests' own weight check."""

    def test_slightly_negative_weight_is_invalid(self):
        scheme = WeightingScheme(2, {1: (1.0,), 2: (1.0,), 3: (-1e-13, 1.0)})
        assert validate(scheme)["valid"] is False
        with pytest.raises(InputError, match="scheme is not valid"):
            TestProblem(scheme, CorrelationModel.independent_blocks(2), [0.01, 0.02], 0.05, "bonferroni")
        with pytest.raises(InputError, match="finite and nonnegative"):
            decision_thresholds(scheme, CorrelationModel.independent_blocks(2), 0.05, "bonferroni")

    def test_tiny_positive_total_is_valid(self):
        scheme = WeightingScheme(2, {1: (1e-13,), 2: (1.0,), 3: (0.5, 0.5)})
        assert validate(scheme)["valid"] is True
        problem = TestProblem(scheme, CorrelationModel.independent_blocks(2), [0.01, 0.02], 0.05, "bonferroni")
        report = run_closure(problem)
        assert report.intersection([0]).p_value == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_verdict_matches_the_table_check(self, seed):
        rng = np.random.default_rng(seed)
        m = 4
        model = CorrelationModel.independent_blocks(m)
        for _ in range(20):
            table = {mask: rng.dirichlet(np.ones(mask.bit_count())) for mask in iter_masks(m)}
            mask = int(rng.integers(1, 1 << m))
            w = table[mask].copy()
            w[rng.integers(w.size)] += rng.choice([-1e-13, -1e-12, 0.0, 5e-13, 1e-12, 2e-12])
            if rng.random() < 0.3:
                w = w * rng.choice([0.0, 1e-13, 1e-300])
            table[mask] = w
            scheme = WeightingScheme(m, table)
            try:
                decision_thresholds(scheme, model, 0.05, "bonferroni")
                accepted = True
            except InputError:
                accepted = False
            assert validate(scheme)["valid"] is accepted
