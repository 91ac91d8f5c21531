import copy
import json

import numpy as np
import pytest

from closedmtp import fileio
from closedmtp.closure import run_closure
from closedmtp.exceptions import InputError


def problem_doc():
    return {
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


def graph_doc():
    return {
        "m": 3,
        "weights": [0.5, 0.5, 0.0],
        "transitions": [
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
        ],
    }


def scenario_doc():
    doc = problem_doc()
    del doc["pvalues"]
    del doc["method"]
    doc["method"] = "bonferroni"
    doc["generator"] = [[1.0, 0.0], [0.0, 1.0]]
    doc["true_nulls"] = [True, True]
    doc["mean_shifts"] = [0.0, 0.0]
    doc["replications"] = 100
    return doc


class TestRound10:
    def test_truncates_to_ten_significant_digits(self):
        assert fileio.round10(1 / 3) == 0.3333333333
        assert fileio.round10(123456789.123456) == 123456789.1

    def test_exact_values_pass_through(self):
        assert fileio.round10(0.025) == 0.025
        assert fileio.round10(1.0) == 1.0


class TestLoadDocument:
    def test_valid_problem_parses(self):
        doc = fileio.load_document(json.dumps(problem_doc()), "problem")
        assert doc["m"] == 2

    def test_syntax_error_reports_position(self):
        with pytest.raises(InputError, match=r"line 2, column"):
            fileio.load_document('{\n  "m": }', "problem")

    def test_missing_field_reports_path(self):
        doc = problem_doc()
        del doc["alpha"]
        with pytest.raises(InputError, match="alpha"):
            fileio.load_document(json.dumps(doc), "problem")

    def test_unknown_field_rejected(self):
        doc = problem_doc()
        doc["extra"] = 1
        with pytest.raises(InputError, match="extra"):
            fileio.load_document(json.dumps(doc), "problem")

    def test_bad_method_rejected_by_schema(self):
        doc = problem_doc()
        doc["method"] = "holm"
        with pytest.raises(InputError, match="method"):
            fileio.load_document(json.dumps(doc), "problem")

    def test_nested_path_in_message(self):
        doc = problem_doc()
        doc["pvalues"][1] = "high"
        with pytest.raises(InputError, match=r"pvalues"):
            fileio.load_document(json.dumps(doc), "problem")


class TestParseGraph:
    def test_builds_spec(self):
        g = fileio.parse_graph(graph_doc())
        assert g.m == 3
        assert g.initial_weights[0] == 0.5

    def test_ragged_transitions(self):
        doc = graph_doc()
        doc["transitions"][1] = [0.5, 0.5]
        with pytest.raises(InputError, match="length"):
            fileio.parse_graph(doc)


class TestParseSchemeEntries:
    def test_duplicate_subset(self):
        entries = problem_doc()["weights"]["scheme"]
        entries.append({"set": [1, 2], "weights": [0.4, 0.6]})
        with pytest.raises(InputError, match="duplicate"):
            fileio.parse_scheme_entries(entries, 2)

    def test_unsorted_set(self):
        entries = [{"set": [2, 1], "weights": [0.5, 0.5]}]
        with pytest.raises(InputError, match="ascending"):
            fileio.parse_scheme_entries(entries, 2)

    def test_index_out_of_range(self):
        entries = [{"set": [0], "weights": [1.0]}]
        with pytest.raises(InputError, match="1-based"):
            fileio.parse_scheme_entries(entries, 2)
        entries = [{"set": [3], "weights": [1.0]}]
        with pytest.raises(InputError, match="1-based"):
            fileio.parse_scheme_entries(entries, 2)

    def test_weight_count_mismatch(self):
        entries = [{"set": [1, 2], "weights": [1.0]}]
        with pytest.raises(InputError, match="weights"):
            fileio.parse_scheme_entries(entries, 2)

    def test_incomplete_table_rejected(self):
        # the inner constructor demands one entry per nonempty subset
        entries = [{"set": [1], "weights": [1.0]}]
        with pytest.raises(InputError):
            fileio.parse_scheme_entries(entries, 2)


class TestParseCorrelation:
    def test_count_mismatch(self):
        doc = {"blocks": [[1], [2]], "matrices": [None]}
        with pytest.raises(InputError, match="matrices"):
            fileio.parse_correlation(doc, 2)

    def test_bad_matrix_named(self):
        doc = {
            "blocks": [[1, 2]],
            "matrices": [[[1.0, 0.5], [0.4, 1.0]]],
        }
        with pytest.raises(InputError, match="matrix 0"):
            fileio.parse_correlation(doc, 2)

    def test_ragged_matrix(self):
        doc = {"blocks": [[1, 2]], "matrices": [[[1.0, 0.5], [0.5]]]}
        with pytest.raises(InputError, match="length"):
            fileio.parse_correlation(doc, 2)

    def test_multimember_block(self):
        doc = {
            "blocks": [[1, 3], [2]],
            "matrices": [[[1.0, 0.5], [0.5, 1.0]], None],
        }
        model = fileio.parse_correlation(doc, 3)
        assert model.block_of(0) == model.block_of(2)
        assert model.block_of(1) != model.block_of(0)


class TestParseProblem:
    def test_round_trip(self):
        prob = fileio.parse_problem(problem_doc())
        assert prob.alpha == 0.05
        assert prob.method == "bonferroni"
        assert prob.seed == 0
        assert np.array_equal(prob.pvalues, [0.01, 0.03])

    def test_overrides(self):
        prob = fileio.parse_problem(
            problem_doc(), alpha=0.01, method="parametric-common", seed=7
        )
        assert prob.alpha == 0.01
        assert prob.method == "parametric-common"
        assert prob.seed == 7

    def test_file_seed_used_without_override(self):
        doc = problem_doc()
        doc["seed"] = 11
        assert fileio.parse_problem(doc).seed == 11

    def test_pvalue_count_mismatch(self):
        doc = problem_doc()
        doc["pvalues"] = [0.01]
        with pytest.raises(InputError, match="p-values"):
            fileio.parse_problem(doc)

    def test_graph_weights(self):
        doc = problem_doc()
        doc["m"] = 3
        doc["pvalues"] = [0.01, 0.03, 0.2]
        doc["weights"] = {"graph": graph_doc()}
        doc["correlation"] = {"blocks": [[1], [2], [3]], "matrices": [None, None, None]}
        prob = fileio.parse_problem(doc)
        assert np.allclose(prob.scheme.weights_for((0, 1, 2)), [0.5, 0.5, 0.0])

    def test_graph_dimension_mismatch(self):
        doc = problem_doc()
        doc["weights"] = {"graph": graph_doc()}
        with pytest.raises(InputError, match="m=2"):
            fileio.parse_problem(doc)


class TestParseScenario:
    def test_builds_scenario(self):
        scen = fileio.parse_scenario(scenario_doc())
        assert scen.replications == 100
        assert scen.master_seed == 0

    def test_generator_shape(self):
        doc = scenario_doc()
        doc["generator"] = [[1.0]]
        with pytest.raises(InputError, match="generator"):
            fileio.parse_scenario(doc)

    def test_seed_override(self):
        assert fileio.parse_scenario(scenario_doc(), seed=3).master_seed == 3


class TestDocuments:
    def test_analysis_document_matches_schema(self):
        prob = fileio.parse_problem(problem_doc())
        report = run_closure(prob)
        doc = fileio.analysis_document(prob, report, 1e-6)
        fileio.check_schema(doc, "analysis")
        assert doc["kind"] == "analysis"
        assert doc["hypotheses"][0]["adjusted"] == 0.02
        assert doc["hypotheses"][1]["adjusted"] == 0.03

    def test_common_method_adjusted_is_holm(self):
        # singleton blocks know no correlation: the common scaling is Holm's test
        prob = fileio.parse_problem(problem_doc(), method="parametric-common")
        report = run_closure(prob)
        doc = fileio.analysis_document(prob, report, 1e-6)
        fileio.check_schema(doc, "analysis")
        assert [h["adjusted"] for h in doc["hypotheses"]] == [0.02, 0.03]
        assert all(h["rejected"] for h in doc["hypotheses"])

    @pytest.mark.parametrize("method", ["parametric-subsets", "xie"])
    def test_analysis_without_levels_names_compute_scales(self, method):
        # these methods skip their scalings with compute_scales off, which
        # leaves no local levels to report
        doc = problem_doc()
        doc["correlation"] = {"blocks": [[1, 2]], "matrices": [[[1.0, 0.3], [0.3, 1.0]]]}
        prob = fileio.parse_problem(doc, method=method)
        report = run_closure(prob, compute_scales=False)
        with pytest.raises(InputError, match="compute_scales"):
            fileio.analysis_document(prob, report, 1e-6)

    def test_scheme_document_round_trips(self):
        scheme = fileio.scheme_from_graph(fileio.parse_graph(graph_doc()))
        doc = fileio.scheme_document(scheme)
        fileio.check_schema(doc, "scheme")
        assert doc["valid"] and doc["exhaustive"]
        back = fileio.parse_scheme_entries(doc["scheme"], doc["m"])
        for _, mem, w in scheme.entries():
            assert np.allclose(back.weights_for(mem), w, atol=1e-12)

    def test_floats_rounded_in_output(self):
        doc = problem_doc()
        doc["pvalues"] = [1 / 3, 0.03]
        prob = fileio.parse_problem(doc)
        report = run_closure(prob)
        out = fileio.analysis_document(prob, report, 1e-6)
        assert out["hypotheses"][0]["p_value"] == 0.3333333333

    def test_json_serializable(self):
        prob = fileio.parse_problem(problem_doc())
        report = run_closure(prob)
        doc = fileio.analysis_document(prob, report, 1e-6)
        json.dumps(doc)


def test_schema_cross_reference_resolves():
    # the scenario schema shares the weights and correlation definitions
    doc = scenario_doc()
    fileio.check_schema(doc, "scenario")
    bad = copy.deepcopy(doc)
    bad["weights"] = {"scheme": "no"}
    with pytest.raises(InputError):
        fileio.check_schema(bad, "scenario")
