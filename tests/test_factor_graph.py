"""Graph construction and sum-product against a brute-force enumeration oracle."""

from itertools import product

import numpy as np
import pytest

from beliefmesh.factor_graph import (
    CyclicWithTreeSweepError,
    Factor,
    FactorGraph,
    GraphStructureError,
    SumProductResult,
    Variable,
    sum_product,
)
from beliefmesh.inference import exact_posterior, infer_states
from modelgen import random_model, random_observation

import factor_graph_reference as reference


def oracle_marginals(g: FactorGraph) -> dict[str, np.ndarray]:
    """Enumerate every joint assignment; independent of the message passing code."""
    order = [v.id for v in g.variables]
    cards = [v.cardinality for v in g.variables]
    totals = {vid: np.zeros(c) for vid, c in zip(order, cards)}
    z = 0.0
    for assignment in product(*(range(c) for c in cards)):
        at = dict(zip(order, assignment))
        w = 1.0
        for f in g.factors:
            w *= float(f.table[tuple(at[v] for v in f.var_ids)])
        z += w
        for vid in order:
            totals[vid][at[vid]] += w
    return {vid: t / z for vid, t in totals.items()}


def random_tree_graph(rng, max_vars=8, max_card=4) -> FactorGraph:
    n = int(rng.integers(2, max_vars + 1))
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(n)]
    variables = [Variable(f"v{i}", cards[i]) for i in range(n)]
    factors = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        table = rng.random((cards[parent], cards[i])) + 0.05
        factors.append(Factor(f"pair{i}", (f"v{parent}", f"v{i}"), table))
    for i in range(n):
        if rng.random() < 0.5:
            factors.append(Factor(f"un{i}", (f"v{i}",), rng.random(cards[i]) + 0.05))
    return FactorGraph(variables, factors)


class TestConstruction:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(GraphStructureError):
            FactorGraph(
                [Variable("x", 2), Variable("x", 2)],
                [Factor("f", ("x",), np.ones(2))],
            )

    def test_rejects_rank_mismatch(self):
        with pytest.raises(GraphStructureError):
            FactorGraph([Variable("x", 2)], [Factor("f", ("x",), np.ones((2, 2)))])

    def test_rejects_cardinality_mismatch(self):
        with pytest.raises(GraphStructureError):
            FactorGraph([Variable("x", 3)], [Factor("f", ("x",), np.ones(2))])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphStructureError):
            FactorGraph(
                [Variable("x", 2), Variable("y", 2)],
                [Factor("f", ("x",), np.ones(2))],
            )

    def test_rejects_negative_table(self):
        with pytest.raises(GraphStructureError):
            FactorGraph([Variable("x", 2)], [Factor("f", ("x",), np.array([1.0, -0.5]))])

    def test_rejects_repeated_variable(self):
        # a factor's arguments are distinct variables; f(x, x) would be read as
        # two independent copies of x and give p(x) = [0.36, 0.64], not [0.25, 0.75]
        with pytest.raises(GraphStructureError, match="repeated"):
            FactorGraph([Variable("x", 2)], [Factor("f", ("x", "x"), [[1.0, 5.0], [5.0, 3.0]])])

    @pytest.mark.parametrize(
        "variables, factors, message",
        [
            ([], [], "graph needs at least one variable"),
            ([Variable("x", 0)], [], "variable x: cardinality must be >= 1"),
            (
                [Variable("x", 2)],
                [Factor("f", ("y",), np.ones(2))],
                "factor f: unknown variable y",
            ),
        ],
    )
    def test_rejects_malformed_nodes(self, variables, factors, message):
        with pytest.raises(GraphStructureError, match=f"^{message}$"):
            FactorGraph(variables, factors)


class TestContradictoryEvidence:
    def test_all_zero_factor_is_an_all_zero_message(self):
        g = FactorGraph([Variable("x", 2)], [Factor("f", ("x",), np.zeros(2))])
        with pytest.raises(ZeroDivisionError, match="all-zero message f -> x: contradictory"):
            sum_product(g)

    def test_unary_factors_with_disjoint_support_leave_no_marginal(self):
        g = FactorGraph(
            [Variable("x", 2)],
            [Factor("f", ("x",), np.array([1.0, 0.0])), Factor("g", ("x",), np.array([0.0, 1.0]))],
        )
        with pytest.raises(ZeroDivisionError, match="variable x: all marginal mass vanished"):
            sum_product(g)




def model_graph(m, obs) -> FactorGraph:
    """One timestep of a model as a graph: a prior per hidden factor and one
    likelihood factor per modality, clamped to its observed outcome."""
    states = tuple(f"s{f}" for f in range(m.num_factors))
    variables = [Variable(s, d) for s, d in zip(states, m.factor_dims)]
    factors = [Factor(f"D{f}", (s,), m.D[f].probs) for f, s in enumerate(states)]
    factors += [Factor(f"A{mm}", states, m.A[mm][o]) for mm, o in enumerate(obs)]
    return FactorGraph(variables, factors)


class TestSumProduct:
    def test_single_variable_product_of_unary_factors(self):
        g = FactorGraph(
            [Variable("x", 2)],
            [
                Factor("prior", ("x",), np.array([0.5, 0.5])),
                Factor("like", ("x",), np.array([0.9, 0.1])),
            ],
        )
        result = sum_product(g)
        np.testing.assert_allclose(result.marginals["x"].probs, [0.9, 0.1], atol=1e-12)

    def test_chain_matches_enumeration(self):
        # three steps of a one-factor model: a prior, a clamped likelihood per
        # step and the control-0 transition between consecutive steps
        rng = np.random.default_rng(6)
        m = random_model(rng, num_factors=1, num_modalities=1, max_states=3)
        obs = [random_observation(rng, m)[0] for _ in range(3)]
        d = m.factor_dims[0]
        variables = [Variable(f"s@t{t}", d) for t in range(3)]
        factors = [Factor("D", ("s@t0",), m.D[0].probs)]
        factors += [Factor(f"A@t{t}", (f"s@t{t}",), m.A[0][o]) for t, o in enumerate(obs)]
        factors += [
            Factor(f"B@t{t}", (f"s@t{t}", f"s@t{t + 1}"), m.B[0][:, :, 0].T) for t in range(2)
        ]
        g = FactorGraph(variables, factors)
        result = sum_product(g)
        oracle = oracle_marginals(g)
        for vid, got in result.marginals.items():
            np.testing.assert_allclose(got.probs, oracle[vid], atol=1e-10)

    def test_random_trees_match_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = random_tree_graph(rng)
            result = sum_product(g)
            oracle = oracle_marginals(g)
            for vid, got in result.marginals.items():
                np.testing.assert_allclose(got.probs, oracle[vid], atol=1e-10)

    def test_tree_sweep_accepts_an_empty_variable_id(self):
        g = FactorGraph(
            [Variable("", 2), Variable("y", 2)],
            [Factor("f", ("", "y"), np.array([[0.9, 0.1], [0.2, 0.8]]))],
        )
        result = sum_product(g)
        for vid, probs in oracle_marginals(g).items():
            np.testing.assert_allclose(result.marginals[vid].probs, probs, atol=1e-12)

    def test_messages_stay_normalized(self):
        rng = np.random.default_rng(10)
        g = random_tree_graph(rng)
        result = sum_product(g)
        for msg in result.messages.values():
            assert msg.sum() == pytest.approx(1.0, abs=1e-9)

    def test_cyclic_graph_rejected_by_tree_sweep(self):
        g = FactorGraph(
            [Variable("x", 2), Variable("y", 2)],
            [
                Factor("f1", ("x", "y"), np.ones((2, 2))),
                Factor("f2", ("x", "y"), np.eye(2) + 0.1),
            ],
        )
        with pytest.raises(CyclicWithTreeSweepError):
            sum_product(g)

    def test_marginal_errors(self):
        g = FactorGraph([Variable("x", 2)], [Factor("f", ("x",), np.ones(2))])
        np.testing.assert_allclose(sum_product(g).marginals["x"].probs, [0.5, 0.5])


class TestPurity:
    def test_sum_product_leaves_no_state_on_the_graph(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_tree_graph(rng)
            first, second = sum_product(g), sum_product(g)
            assert_same_result(first, second)
            assert_same_result(second, sum_product(FactorGraph(g.variables, g.factors)))


def assert_same_result(got, want):
    """Equal marginals and messages, in the same order, bit for bit."""
    assert list(got.marginals) == list(want.marginals)
    for vid, q in want.marginals.items():
        assert np.array_equal(got.marginals[vid].probs, q.probs), vid
    assert list(got.messages) == list(want.messages)
    for key, msg in want.messages.items():
        assert np.array_equal(got.messages[key], msg), key


class TestAgainstReference:
    """sum_product against the stateful graph it replaced
    (factor_graph_reference.py): equal arrays, not just close ones."""

    def test_tree_sweep_on_random_trees(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            g = random_tree_graph(rng)
            ref_g = reference.FactorGraph(g.variables, g.factors)
            ref_g.run_tree_sweep()
            want = SumProductResult(
                marginals={v.id: ref_g.marginal(v.id) for v in g.variables},
                messages=ref_g.messages,
            )
            assert_same_result(sum_product(g), want)


class TestAgreementWithInference:
    def test_two_routes_to_the_same_posterior(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            m = random_model(rng, num_factors=1)
            obs = random_observation(rng, m)
            result = sum_product(model_graph(m, obs))
            mf = infer_states(m, obs)
            exact, _ = exact_posterior(m, obs)
            graph_post = result.marginals["s0"].probs
            np.testing.assert_allclose(graph_post, exact.factors[0].probs, atol=1e-10)
            l1 = np.abs(graph_post - mf.belief.factors[0].probs).sum()
            assert l1 < 1e-6

    def test_two_factor_model_graph_gives_the_exact_posterior(self):
        # two priors and one likelihood over both factors form a tree, so BP
        # is exact where mean field is not
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = random_model(rng, num_factors=2, num_modalities=1)
            obs = random_observation(rng, m)
            result = sum_product(model_graph(m, obs))
            exact, _ = exact_posterior(m, obs)
            for f, q in enumerate(exact.factors):
                np.testing.assert_allclose(result.marginals[f"s{f}"].probs, q.probs, atol=1e-10)
