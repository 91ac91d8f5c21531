import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from closedmtp import fileio
from closedmtp.cli import main

TUTORIAL = Path(__file__).resolve().parent.parent / "tutorial"

HOLM_PROBLEM = {
    "m": 2,
    "alpha": 0.05,
    "pvalues": [0.01, 0.03],
    "method": "bonferroni",
    "weights": {
        "scheme": [
            {"set": [1], "weights": [1.0]},
            {"set": [2], "weights": [1.0]},
            {"set": [1, 2], "weights": [0.5, 0.5]},
        ]
    },
    "correlation": {"blocks": [[1], [2]], "matrices": [None, None]},
}

# every number below is hand-checkable: scales are exactly 1, levels are
# alpha*w, the pooled p-value is min(0.01/0.5, 0.03/0.5) = 0.02, and the
# adjusted values are the running maxima 0.02 and 0.03
HOLM_CSV = """\
set,size,p_value,scale,hypothesis,weight,level,reject
1,1,0.01,1,1,1,0.05,true
2,1,0.03,1,2,1,0.05,true
1+2,2,0.02,1,1,0.5,0.025,true
1+2,2,0.02,1,2,0.5,0.025,true

hypothesis,p_value,adjusted,rejected
1,0.01,0.02,true
2,0.03,0.03,true
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(HOLM_PROBLEM))
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnalyze:
    def test_json_output(self, runner, problem_file):
        result = runner.invoke(main, ["analyze", problem_file])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        fileio.check_schema(doc, "analysis")
        assert [h["adjusted"] for h in doc["hypotheses"]] == [0.02, 0.03]
        assert all(h["rejected"] for h in doc["hypotheses"])

    def test_csv_golden(self, runner, problem_file):
        result = runner.invoke(main, ["analyze", problem_file, "--format", "csv"])
        assert result.exit_code == 0
        assert result.stdout == HOLM_CSV

    def test_text_output(self, runner, problem_file):
        result = runner.invoke(main, ["analyze", problem_file, "--format", "text"])
        assert result.exit_code == 0
        assert "method=bonferroni" in result.stdout
        assert "rejected" in result.stdout

    def test_stdin(self, runner):
        result = runner.invoke(main, ["analyze", "-"], input=json.dumps(HOLM_PROBLEM))
        assert result.exit_code == 0
        assert json.loads(result.stdout)["m"] == 2

    def test_alpha_override(self, runner, problem_file):
        result = runner.invoke(main, ["analyze", problem_file, "--alpha", "0.01"])
        doc = json.loads(result.stdout)
        assert doc["alpha"] == 0.01
        # at alpha 0.01 the pooled test keeps p=0.03 alive
        assert doc["hypotheses"][1]["rejected"] is False

    def test_method_override(self, runner, problem_file):
        result = runner.invoke(
            main, ["analyze", problem_file, "--method", "parametric-common"]
        )
        doc = json.loads(result.stdout)
        assert doc["method"] == "parametric-common"
        assert all(h["adjusted"] is None for h in doc["hypotheses"])

    def test_no_output_on_failure(self, runner, tmp_path):
        bad = dict(HOLM_PROBLEM, pvalues=[0.01, 1.5])
        result = runner.invoke(main, ["analyze", write_json(tmp_path, "p.json", bad)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "error" in result.stderr


class TestSeedPrecedence:
    def seed_of(self, runner, args, env=None, doc=HOLM_PROBLEM):
        result = runner.invoke(main, args, input=json.dumps(doc), env=env)
        assert result.exit_code == 0
        return json.loads(result.stdout)["seed"]

    def test_default_zero(self, runner):
        assert self.seed_of(runner, ["analyze", "-"]) == 0

    def test_env_when_file_silent(self, runner):
        env = {"CLOSEDMTP_SEED": "17"}
        assert self.seed_of(runner, ["analyze", "-"], env=env) == 17

    def test_file_beats_env(self, runner):
        doc = dict(HOLM_PROBLEM, seed=4)
        env = {"CLOSEDMTP_SEED": "17"}
        assert self.seed_of(runner, ["analyze", "-"], env=env, doc=doc) == 4

    def test_flag_beats_all(self, runner):
        doc = dict(HOLM_PROBLEM, seed=4)
        env = {"CLOSEDMTP_SEED": "17"}
        args = ["analyze", "-", "--seed", "9"]
        assert self.seed_of(runner, args, env=env, doc=doc) == 9

    def test_bad_env_seed(self, runner):
        env = {"CLOSEDMTP_SEED": "lots"}
        result = runner.invoke(
            main, ["analyze", "-"], input=json.dumps(HOLM_PROBLEM), env=env
        )
        assert result.exit_code == 2
        assert "CLOSEDMTP_SEED" in result.stderr

    @pytest.mark.parametrize(
        "args, env, source",
        [
            (["--seed", "-3"], None, "--seed"),
            ([], {"CLOSEDMTP_SEED": "-3"}, "CLOSEDMTP_SEED"),
        ],
    )
    def test_negative_seed_is_invalid_input(self, runner, args, env, source):
        # the report schemas take seeds from 0 up
        result = runner.invoke(
            main, ["analyze", "-", *args], input=json.dumps(HOLM_PROBLEM), env=env
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert source in result.stderr

    def test_negative_simulate_seed_fails_before_solving(self, runner):
        path = str(TUTORIAL / "trial_scenario.json")
        result = runner.invoke(main, ["simulate", path, "--seed", "-3"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--seed must be a nonnegative integer" in result.stderr


class TestWeights:
    def test_tutorial_graph(self, runner):
        result = runner.invoke(main, ["weights", str(TUTORIAL / "trial_graph.json")])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        fileio.check_schema(doc, "scheme")
        assert doc["valid"] and doc["exhaustive"] and doc["monotone"]
        by_set = {tuple(e["set"]): e["weights"] for e in doc["scheme"]}
        assert by_set[(1, 2, 3)] == [0.4, 0.4, 0.2]
        assert by_set[(2, 3, 4)] == [0.4, 0.2, 0.4]

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["weights", str(TUTORIAL / "trial_graph.json"), "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.stdout.splitlines()[0] == "set,size,hypothesis,weight"

    def test_round_trip_through_analyze(self, runner, tmp_path):
        graph = {
            "m": 3,
            "weights": [0.5, 0.3, 0.2],
            "transitions": [
                [0.0, 0.6, 0.4],
                [0.5, 0.0, 0.5],
                [1.0, 0.0, 0.0],
            ],
        }
        base = {
            "m": 3,
            "alpha": 0.025,
            "pvalues": [0.004, 0.011, 0.4],
            "method": "bonferroni",
            "correlation": {"blocks": [[1], [2], [3]], "matrices": [None, None, None]},
        }
        out = runner.invoke(main, ["weights", write_json(tmp_path, "g.json", graph)])
        entries = json.loads(out.stdout)["scheme"]
        via_graph = dict(base, weights={"graph": graph})
        via_scheme = dict(base, weights={"scheme": entries})
        r1 = runner.invoke(main, ["analyze", write_json(tmp_path, "p1.json", via_graph)])
        r2 = runner.invoke(main, ["analyze", write_json(tmp_path, "p2.json", via_scheme)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        d1, d2 = json.loads(r1.stdout), json.loads(r2.stdout)
        assert d1["hypotheses"] == d2["hypotheses"]
        assert d1["intersections"] == d2["intersections"]


class TestCheckConsonance:
    def test_consonant_scheme_exits_zero(self, runner, problem_file):
        result = runner.invoke(main, ["check-consonance", problem_file])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        fileio.check_schema(doc, "consonance")
        assert doc["consonant"] is True
        assert doc["violations"] == []

    def test_violations_exit_three(self, runner, tmp_path):
        # dropping half the weight on removal breaks threshold monotonicity
        # once the pair test gets a correlation credit
        doc = {
            "m": 2,
            "alpha": 0.025,
            "pvalues": [0.01, 0.01],
            "method": "parametric-common",
            "weights": {
                "scheme": [
                    {"set": [1], "weights": [0.5]},
                    {"set": [2], "weights": [0.5]},
                    {"set": [1, 2], "weights": [0.5, 0.5]},
                ]
            },
            "correlation": {"blocks": [[1, 2]], "matrices": [[[1.0, 0.9], [0.9, 1.0]]]},
        }
        result = runner.invoke(
            main, ["check-consonance", write_json(tmp_path, "p.json", doc)]
        )
        assert result.exit_code == 3
        out = json.loads(result.stdout)
        assert out["consonant"] is False
        assert len(out["violations"]) == 2
        assert out["violations"][0]["superset"] == [1, 2]

    def test_text_format(self, runner, problem_file):
        result = runner.invoke(
            main, ["check-consonance", problem_file, "--format", "text"]
        )
        assert result.exit_code == 0
        assert "consonant=yes" in result.stdout


class TestSimulate:
    def test_small_run(self, runner, tmp_path):
        doc = {
            "m": 2,
            "alpha": 0.05,
            "method": "bonferroni",
            "weights": HOLM_PROBLEM["weights"],
            "correlation": HOLM_PROBLEM["correlation"],
            "generator": [[1.0, 0.0], [0.0, 1.0]],
            "true_nulls": [True, True],
            "mean_shifts": [0.0, 0.0],
            "replications": 2000,
            "seed": 3,
        }
        result = runner.invoke(main, ["simulate", write_json(tmp_path, "s.json", doc)])
        assert result.exit_code == 0
        out = json.loads(result.stdout)
        fileio.check_schema(out, "simulation")
        assert out["replications"] == 2000
        assert out["fwer_estimate"] <= 0.05 + 4 * out["fwer_stderr"]

    def test_seed_flag_changes_stream(self, runner, tmp_path):
        doc = {
            "m": 2,
            "alpha": 0.05,
            "method": "bonferroni",
            "weights": HOLM_PROBLEM["weights"],
            "correlation": HOLM_PROBLEM["correlation"],
            "generator": [[1.0, 0.0], [0.0, 1.0]],
            "true_nulls": [True, False],
            "mean_shifts": [0.0, 1.0],
            "replications": 500,
        }
        path = write_json(tmp_path, "s.json", doc)
        a = runner.invoke(main, ["simulate", path, "--seed", "1"])
        b = runner.invoke(main, ["simulate", path, "--seed", "1"])
        c = runner.invoke(main, ["simulate", path, "--seed", "2"])
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout


class TestErrors:
    def test_missing_file(self, runner):
        result = runner.invoke(main, ["analyze", "/no/such/file.json"])
        assert result.exit_code == 2
        assert "cannot read" in result.stderr

    def test_malformed_json(self, runner):
        result = runner.invoke(main, ["analyze", "-"], input="{nope")
        assert result.exit_code == 2
        assert "line 1" in result.stderr

    def test_schema_violation(self, runner):
        result = runner.invoke(main, ["analyze", "-"], input='{"m": 2}')
        assert result.exit_code == 2

    def test_xie_needs_proportional_weights(self, runner, tmp_path):
        doc = {
            "m": 2,
            "alpha": 0.025,
            "pvalues": [0.01, 0.01],
            "method": "xie",
            "weights": {
                "scheme": [
                    {"set": [1], "weights": [0.5]},
                    {"set": [2], "weights": [0.5]},
                    {"set": [1, 2], "weights": [0.6, 0.4]},
                ]
            },
            "correlation": {"blocks": [[1, 2]], "matrices": [[[1.0, 0.0], [0.0, 1.0]]]},
        }
        result = runner.invoke(main, ["analyze", write_json(tmp_path, "p.json", doc)])
        assert result.exit_code == 2
        assert "rescale_proportional" in result.stderr

    def test_semantic_weight_error(self, runner, tmp_path):
        doc = json.loads(json.dumps(HOLM_PROBLEM))
        doc["weights"]["scheme"][2]["weights"] = [0.8, 0.8]
        result = runner.invoke(main, ["analyze", write_json(tmp_path, "p.json", doc)])
        assert result.exit_code == 2


def test_tutorial_problem_analyzes(runner=None):
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "analyze",
            str(TUTORIAL / "trial_problem.json"),
            "--method",
            "bonferroni",
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    fileio.check_schema(doc, "analysis")
    assert doc["seed"] == 2024
