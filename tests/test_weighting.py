"""Weighting-scheme construction, validation, and rescaling."""

import numpy as np
import pytest

from closedmtp.exceptions import InputError
from closedmtp.subsets import iter_masks, mask_of, members
from closedmtp.weighting import (
    GraphSpec,
    WeightingScheme,
    constant_scheme,
    rescale_proportional,
    scheme_from_graph,
    validate,
    xie_scheme,
    _remove_node,
)


def cyclic_graph_m6():
    """Three primary hypotheses passing weight to three secondaries and back."""
    w = [0.4, 0.4, 0.2, 0.0, 0.0, 0.0]
    g = np.zeros((6, 6))
    g[0, 3] = 1.0
    g[1, 4] = 1.0
    g[2, 5] = 1.0
    g[3, 1] = g[3, 2] = 0.5
    g[4, 0] = g[4, 2] = 0.5
    g[5, 0] = g[5, 1] = 0.5
    return GraphSpec(6, w, g)


def random_conserving_graph(rng, m):
    """Random graph whose rows sum to 1 and initial weights sum to 1."""
    w = rng.dirichlet(np.ones(m))
    g = rng.uniform(0.1, 1.0, size=(m, m))
    np.fill_diagonal(g, 0.0)
    g = g / g.sum(axis=1, keepdims=True)
    return GraphSpec(m, w, g)


class TestGraphSpec:
    def test_rejects_negative_weight(self):
        with pytest.raises(InputError):
            GraphSpec(2, [-0.1, 0.5], np.zeros((2, 2)))

    def test_rejects_overweight(self):
        with pytest.raises(InputError):
            GraphSpec(2, [0.6, 0.6], np.zeros((2, 2)))

    def test_rejects_row_sum_above_one(self):
        g = np.array([[0.0, 1.1], [0.0, 0.0]])
        with pytest.raises(InputError):
            GraphSpec(2, [0.5, 0.5], g)

    def test_rejects_nonzero_diagonal(self):
        g = np.array([[0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            GraphSpec(2, [0.5, 0.5], g)


class TestSchemeFromGraph:
    def test_full_set_is_initial(self):
        scheme = scheme_from_graph(cyclic_graph_m6())
        np.testing.assert_array_equal(
            scheme.weights_for(range(6)), [0.4, 0.4, 0.2, 0.0, 0.0, 0.0]
        )

    def test_primary_triple(self):
        scheme = scheme_from_graph(cyclic_graph_m6())
        w = scheme.weights_for([0, 1, 2])
        assert np.abs(w - [0.4, 0.4, 0.2]).max() <= 1e-12

    def test_mixed_triple(self):
        scheme = scheme_from_graph(cyclic_graph_m6())
        w = scheme.weights_for([1, 2, 3])
        assert np.abs(w - [0.4, 0.2, 0.4]).max() <= 1e-12

    def test_numpy_integer_masks(self):
        scheme = scheme_from_graph(cyclic_graph_m6())
        want = scheme.weights_for(11)
        for mask in (np.int64(11), np.uint32(11)):
            np.testing.assert_array_equal(scheme.weights_for(mask), want)
        for mask in (np.int64(1 << 6), np.uint32(0)):
            with pytest.raises(InputError):
                scheme.weights_for(mask)

    @pytest.mark.parametrize("subset", [[0.9], [0, 1.0], [True], 1.0, True, None, "01"])
    def test_non_integer_subsets_rejected(self, subset):
        # no member is truncated to an index, and no bare TypeError escapes
        with pytest.raises(InputError):
            xie_scheme([0.5, 0.5]).weights_for(subset)

    def test_numpy_integer_members(self):
        scheme = xie_scheme([0.5, 0.3, 0.2])
        want = scheme.weights_for([0, 2])
        for subset in ([np.int64(0), np.uint8(2)], np.array([0, 2])):
            np.testing.assert_array_equal(scheme.weights_for(subset), want)

    def test_flags(self):
        flags = validate(scheme_from_graph(cyclic_graph_m6()))
        assert flags == {"valid": True, "exhaustive": True, "monotone": True}

    def test_no_propagation_restricts_initials(self):
        scheme = scheme_from_graph(GraphSpec(3, [0.5, 0.3, 0.2], np.zeros((3, 3))))
        np.testing.assert_array_equal(scheme.weights_for([0, 2]), [0.5, 0.2])

    def test_removal_order_independence(self):
        rng = np.random.default_rng(8)
        for m in (3, 4, 5, 6):
            graph = random_conserving_graph(rng, m)
            scheme = scheme_from_graph(graph)
            for _ in range(10):
                removal = rng.permutation(m)
                keep_count = int(rng.integers(1, m))
                removed = removal[: m - keep_count]
                w, g = graph.initial_weights.copy(), graph.transitions.copy()
                for j in removed:
                    w, g = _remove_node(w, g, int(j))
                mask = mask_of(set(range(m)) - set(int(j) for j in removed), m)
                got = w[list(members(mask))]
                assert np.abs(got - scheme.weights_for(mask)).max() <= 1e-10

    def test_total_weight_never_grows(self):
        rng = np.random.default_rng(9)
        for m in (3, 5):
            graph = random_conserving_graph(rng, m)
            total_initial = graph.initial_weights.sum()
            for _, _, w in scheme_from_graph(graph).entries():
                assert w.sum() <= total_initial + 1e-10

    def test_leaky_graph_flagged_by_validate(self):
        # all weight parked on node 0 with nowhere to go
        scheme = scheme_from_graph(GraphSpec(2, [1.0, 0.0], np.zeros((2, 2))))
        assert validate(scheme)["valid"] is False


class TestValidate:
    def test_dunnett_scheme(self):
        m = 3
        table = {
            mask: np.full(mask.bit_count(), 1.0 / mask.bit_count())
            for mask in iter_masks(m)
        }
        flags = validate(WeightingScheme(m, table))
        assert flags == {"valid": True, "exhaustive": True, "monotone": True}

    def test_zero_sum_subset_invalid(self):
        table = {1: np.array([0.0]), 2: np.array([1.0]), 3: np.array([0.5, 0.5])}
        assert validate(WeightingScheme(2, table))["valid"] is False

    def test_non_monotone_detected(self):
        table = {1: np.array([0.2]), 2: np.array([1.0]), 3: np.array([0.5, 0.5])}
        flags = validate(WeightingScheme(2, table))
        assert flags["monotone"] is False
        assert flags["valid"] is True

    def test_missing_subset_rejected(self):
        with pytest.raises(InputError):
            WeightingScheme(2, {1: np.array([1.0]), 3: np.array([0.5, 0.5])})


class TestRescaleProportional:
    def test_pair(self):
        table = {1: np.array([0.4]), 2: np.array([0.4]), 3: np.array([0.4, 0.4])}
        out = rescale_proportional(WeightingScheme(2, table))
        np.testing.assert_allclose(out.weights_for(3), [0.5, 0.5])

    def test_idempotent(self):
        scheme = scheme_from_graph(cyclic_graph_m6())
        once = rescale_proportional(scheme)
        twice = rescale_proportional(once)
        for mask in iter_masks(6):
            np.testing.assert_array_equal(once.weights_for(mask), twice.weights_for(mask))

    def test_preserves_ratios(self):
        table = {1: np.array([0.1]), 2: np.array([0.3]), 3: np.array([0.1, 0.3])}
        out = rescale_proportional(WeightingScheme(2, table))
        w = out.weights_for(3)
        assert w[1] / w[0] == pytest.approx(3.0, rel=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)


class TestXieScheme:
    def test_singleton(self):
        scheme = xie_scheme([1.0, 1.0])
        assert scheme.weights_for([0])[0] == 1.0

    def test_pair_from_initials(self):
        scheme = xie_scheme([0.4, 0.4, 0.2])
        np.testing.assert_allclose(scheme.weights_for([1, 2]), [2 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(scheme.weights_for([0, 2]), [2 / 3, 1 / 3], atol=1e-15)

    def test_equal_initials_give_dunnett_weights_exactly(self):
        # power-of-two m: every ratio is exact in binary floating point
        scheme = xie_scheme([0.25, 0.25, 0.25, 0.25])
        for mask, mem, w in scheme.entries():
            assert np.all(w == 1.0 / len(mem))

    def test_equal_initials_dunnett_weights_other_m(self):
        for m in (3, 6):
            scheme = xie_scheme(np.full(m, 1.0 / m))
            for mask, mem, w in scheme.entries():
                assert np.abs(w - 1.0 / len(mem)).max() <= 1e-12

    def test_matches_rescaled_constant_scheme(self):
        init = [0.5, 0.3, 0.2]
        a = xie_scheme(init)
        b = rescale_proportional(constant_scheme(init))
        for mask in iter_masks(3):
            assert np.abs(a.weights_for(mask) - b.weights_for(mask)).max() <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            xie_scheme([0.5, 0.0])
        with pytest.raises(InputError):
            xie_scheme([0.5, -0.1])

    def test_is_proportional_flag(self):
        assert xie_scheme([0.4, 0.4, 0.2]).is_proportional()
        assert not scheme_from_graph(cyclic_graph_m6()).is_proportional()
