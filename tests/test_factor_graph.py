"""Graph construction and sum-product against a brute-force enumeration oracle."""

from itertools import product

import numpy as np
import pytest

from beliefmesh.core import Categorical
from beliefmesh.factor_graph import (
    CyclicWithTreeSweepError,
    Factor,
    FactorGraph,
    GraphStructureError,
    Schedule,
    SumProductResult,
    Variable,
    build_dual_graph,
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


class TestBuildDualGraph:
    def test_single_timestep_structure(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, num_factors=2, num_modalities=1)
        g = build_dual_graph(m, random_observation(rng, m))
        assert len(g.variables) == 2
        assert len(g.factors) == 3  # two priors + one clamped likelihood

    def test_chain_structure(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, num_factors=1, num_modalities=1)
        obs = [[0], [1], [0]]
        g = build_dual_graph(m, obs, controls=[[0], [0]])
        assert len(g.variables) == 3
        kinds = sorted(f.id[0] for f in g.factors)
        assert kinds == ["A", "A", "A", "B", "B", "D"]

    def test_clamping_slices_the_table(self):
        from test_core import tiny_model

        m = tiny_model(A=(np.array([[0.9, 0.1], [0.1, 0.9]]),))
        g = build_dual_graph(m, (0,))
        (a_node,) = [f for f in g.factors if f.id.startswith("A")]
        np.testing.assert_allclose(a_node.table, [0.9, 0.1])

    def test_unobserved_modality_keeps_constant_table(self):
        from test_core import tiny_model

        g = build_dual_graph(tiny_model(), (None,))
        (a_node,) = [f for f in g.factors if f.id.startswith("A")]
        np.testing.assert_allclose(a_node.table, [1.0, 1.0])

    def test_edge_list_dump(self):
        from test_core import tiny_model

        g = build_dual_graph(tiny_model(), (0,))
        dump = g.edge_list()
        assert "var s0@t0 2" in dump
        assert "edge D0 s0@t0" in dump
        assert "edge A0@t0 s0@t0" in dump

    @pytest.mark.parametrize("obs", [(-1,), (2,), [[0], [-1]], [[0], [2]]])
    def test_rejects_outcome_out_of_range(self, obs):
        from test_core import tiny_model

        controls = None if len(obs) == 1 else [[0]]
        with pytest.raises(ValueError, match="outcome"):
            build_dual_graph(tiny_model(), obs, controls=controls)

    @pytest.mark.parametrize("u", [-1, 2])
    def test_rejects_control_out_of_range(self, u):
        from test_core import tiny_model

        with pytest.raises(ValueError, match="control"):
            build_dual_graph(tiny_model(), [[0], [1]], controls=[[u]])

    @pytest.mark.parametrize("row", [[], [0, 0]])
    def test_rejects_control_row_of_wrong_width(self, row):
        from test_core import tiny_model

        with pytest.raises(ValueError, match="one per factor"):
            build_dual_graph(tiny_model(), [[0], [1]], controls=[row])


class TestSumProduct:
    def test_single_variable_product_of_unary_factors(self):
        g = FactorGraph(
            [Variable("x", 2)],
            [
                Factor("prior", ("x",), np.array([0.5, 0.5])),
                Factor("like", ("x",), np.array([0.9, 0.1])),
            ],
        )
        result = sum_product(g, Schedule(mode="tree-sweep"))
        np.testing.assert_allclose(result.marginals["x"].probs, [0.9, 0.1], atol=1e-12)
        assert result.converged and result.iterations == 1

    def test_uniform_tables_converge_immediately(self):
        g = FactorGraph(
            [Variable("x", 2), Variable("y", 2)],
            [Factor("f", ("x", "y"), np.ones((2, 2)))],
        )
        result = sum_product(g, Schedule(mode="flooding"))
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.marginals["x"].probs, [0.5, 0.5])

    def test_chain_matches_enumeration(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, num_factors=1, num_modalities=1, max_states=3)
        obs = [[random_observation(rng, m)[0]] for _ in range(3)]
        g = build_dual_graph(m, obs, controls=[[0], [0]])
        result = sum_product(g, Schedule(mode="tree-sweep"))
        oracle = oracle_marginals(g)
        for vid, got in result.marginals.items():
            np.testing.assert_allclose(got.probs, oracle[vid], atol=1e-10)

    def test_random_trees_match_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = random_tree_graph(rng)
            result = sum_product(g, Schedule(mode="tree-sweep"))
            oracle = oracle_marginals(g)
            for vid, got in result.marginals.items():
                np.testing.assert_allclose(got.probs, oracle[vid], atol=1e-10)

    def test_tree_sweep_accepts_an_empty_variable_id(self):
        g = FactorGraph(
            [Variable("", 2), Variable("y", 2)],
            [Factor("f", ("", "y"), np.array([[0.9, 0.1], [0.2, 0.8]]))],
        )
        result = sum_product(g, Schedule(mode="tree-sweep"))
        for vid, probs in oracle_marginals(g).items():
            np.testing.assert_allclose(result.marginals[vid].probs, probs, atol=1e-12)

    def test_flooding_agrees_with_tree_sweep_on_trees(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g1 = random_tree_graph(rng)
            g2 = FactorGraph(g1.variables, g1.factors)
            exact = sum_product(g1, Schedule(mode="tree-sweep"))
            approx = sum_product(g2, Schedule(mode="flooding", max_iters=500, tol=1e-10))
            assert approx.converged
            for vid in exact.marginals:
                np.testing.assert_allclose(
                    approx.marginals[vid].probs, exact.marginals[vid].probs, atol=1e-6
                )

    def test_messages_stay_normalized(self):
        rng = np.random.default_rng(10)
        g = random_tree_graph(rng)
        result = sum_product(g, Schedule(mode="flooding", max_iters=7))
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
            sum_product(g, Schedule(mode="tree-sweep"))

    def test_loopy_flooding_is_flagged_when_it_stalls(self):
        # near-deterministic XOR-style coupling makes flooding oscillate
        xor = np.array([[0.05, 0.95], [0.95, 0.05]])
        g = FactorGraph(
            [Variable("x", 2), Variable("y", 2)],
            [
                Factor("f1", ("x", "y"), xor),
                Factor("f2", ("x", "y"), np.eye(2) + 0.01),
                Factor("bias", ("x",), np.array([0.9, 0.1])),
            ],
        )
        result = sum_product(g, Schedule(mode="flooding", max_iters=3, tol=1e-12))
        assert isinstance(result, SumProductResult)
        assert not result.converged  # best-effort marginals still present
        assert set(result.marginals) == {"x", "y"}

    def test_marginal_errors(self):
        g = FactorGraph([Variable("x", 2)], [Factor("f", ("x",), np.ones(2))])
        np.testing.assert_allclose(sum_product(g).marginals["x"].probs, [0.5, 0.5])


class TestPurity:
    def test_sum_product_leaves_no_state_on_the_graph(self):
        # the stalled loopy graph of test_loopy_flooding_is_flagged_when_it_stalls
        xor = np.array([[0.05, 0.95], [0.95, 0.05]])
        g = FactorGraph(
            [Variable("x", 2), Variable("y", 2)],
            [
                Factor("f1", ("x", "y"), xor),
                Factor("f2", ("x", "y"), np.eye(2) + 0.01),
                Factor("bias", ("x",), np.array([0.9, 0.1])),
            ],
        )
        schedule = Schedule(mode="flooding", max_iters=3, tol=1e-12)
        first, second = sum_product(g, schedule), sum_product(g, schedule)
        assert_same_result(first, second)

        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_tree_graph(rng)
            sum_product(g, Schedule(mode="tree-sweep"))
            after = sum_product(g, Schedule(mode="flooding"))
            fresh = sum_product(FactorGraph(g.variables, g.factors), Schedule(mode="flooding"))
            assert after.iterations == fresh.iterations > 1
            assert_same_result(after, fresh)


def assert_same_result(got, want):
    assert got.converged == want.converged
    assert got.iterations == want.iterations
    assert list(got.marginals) == list(want.marginals)
    for vid, q in want.marginals.items():
        assert np.array_equal(got.marginals[vid].probs, q.probs), vid


def random_dual_graph_case(rng):
    """A model with partly unobserved rows over 1-3 timesteps; with two hidden
    factors and two or more timesteps the dual graph has loops."""
    m = random_model(rng, num_factors=int(rng.integers(1, 3)))
    T = int(rng.integers(1, 4))
    obs = [
        [None if rng.random() < 0.3 else o for o in random_observation(rng, m)]
        for _ in range(T)
    ]
    controls = [[int(rng.integers(0, n)) for n in m.num_controls] for _ in range(T - 1)]
    return m, obs, controls


class TestAgainstReference:
    """sum_product and build_dual_graph against the stateful graph they
    replaced (factor_graph_reference.py): equal arrays, not just close ones."""

    def check(self, g, ref_g, schedule):
        got = sum_product(g, schedule)
        ref_schedule = reference.Schedule(schedule.mode, schedule.max_iters, schedule.tol)
        want = reference.sum_product(ref_g, ref_schedule)
        assert_same_result(got, want)
        assert list(got.messages) == list(ref_g.messages)
        for key, msg in ref_g.messages.items():
            assert np.array_equal(got.messages[key], msg), key
        return got

    def test_tree_sweep_on_random_trees(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            g = random_tree_graph(rng)
            self.check(g, reference.FactorGraph(g.variables, g.factors), Schedule("tree-sweep"))

    def test_flooding_on_random_trees_and_dual_graphs(self):
        rng = np.random.default_rng(32)
        converged = loopy = 0
        for i in range(80):
            schedule = Schedule("flooding", max_iters=int(rng.integers(1, 81)))
            if i % 2:
                g = random_tree_graph(rng)
                ref_g = reference.FactorGraph(g.variables, g.factors)
            else:
                m, obs, controls = random_dual_graph_case(rng)
                g = build_dual_graph(m, obs, controls)
                ref_g = reference.build_dual_graph(m, obs, controls)
                assert g.edge_list() == ref_g.edge_list()
                loopy += not ref_g.is_tree()
            converged += self.check(g, ref_g, schedule).converged
        assert 0 < converged < 80  # stalled runs are covered too
        assert loopy > 10


class TestAgreementWithInference:
    def test_two_routes_to_the_same_posterior(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            m = random_model(rng, num_factors=1)
            obs = random_observation(rng, m)
            g = build_dual_graph(m, obs)
            result = sum_product(g, Schedule(mode="tree-sweep"))
            mf = infer_states(m, obs)
            exact, _ = exact_posterior(m, obs)
            graph_post = result.marginals["s0@t0"].probs
            np.testing.assert_allclose(graph_post, exact.factors[0].probs, atol=1e-10)
            l1 = np.abs(graph_post - mf.belief.factors[0].probs).sum()
            assert l1 < 1e-6
