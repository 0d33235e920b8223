"""Expected free energy and the recursive planner, against hand values and
an unpruned tree-search oracle."""

from itertools import product

import numpy as np
import pytest

from beliefmesh import planning
from beliefmesh.core import (
    BeliefState,
    Categorical,
    DimMismatchError,
    GenerativeModel,
    Policy,
)
from beliefmesh.planning import (
    BadControlIndexError,
    BudgetExceededError,
    NonPositiveGammaError,
    expected_free_energy,
    expected_states,
    policy_posterior,
    sophisticated_root_values,
)
from info_gain_reference import policy_info_gain
from modelgen import random_belief, random_model, random_observation


def chain_model(a, c=None, b=None, d=None, n_controls=1):
    a = np.asarray(a, dtype=float)
    dim = a.shape[1]
    if b is None:
        b = np.repeat(np.eye(dim)[:, :, None], n_controls, axis=2)
    policies = tuple(Policy(((u,),)) for u in range(b.shape[2]))
    return GenerativeModel(
        factor_dims=(dim,),
        modality_dims=(a.shape[0],),
        A=(a,),
        B=(np.asarray(b, dtype=float),),
        C=(np.zeros(a.shape[0]) if c is None else np.asarray(c, dtype=float),),
        D=(Categorical.uniform(dim) if d is None else Categorical(np.asarray(d, dtype=float)),),
        E=Categorical.uniform(len(policies)),
        policies=policies,
    )


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestExpectedStates:
    def test_identity_dynamics(self):
        m = chain_model(np.eye(2))
        b = BeliefState((Categorical(np.array([0.7, 0.3])),))
        rollout = expected_states(m, b, Policy(((0,), (0,), (0,))))
        assert len(rollout) == 3
        for q in rollout:
            np.testing.assert_allclose(q.factors[0].probs, [0.7, 0.3])

    def test_swap_one_step(self):
        m = chain_model(np.eye(2), b=SWAP[:, :, None])
        b = BeliefState((Categorical(np.array([0.7, 0.3])),))
        (q,) = expected_states(m, b, Policy(((0,),)))
        np.testing.assert_allclose(q.factors[0].probs, [0.3, 0.7])

    def test_swap_is_involution(self):
        m = chain_model(np.eye(2), b=SWAP[:, :, None])
        b = BeliefState((Categorical(np.array([0.7, 0.3])),))
        rollout = expected_states(m, b, Policy(((0,), (0,))))
        np.testing.assert_allclose(rollout[1].factors[0].probs, [0.7, 0.3])

    def test_bad_control_index(self):
        m = chain_model(np.eye(2))
        with pytest.raises(BadControlIndexError):
            expected_states(m, m.initial_belief(), Policy(((4,),)))

    def test_policy_of_wrong_width(self):
        m = chain_model(np.eye(2))
        with pytest.raises(DimMismatchError):
            expected_states(m, m.initial_belief(), Policy(((0, 0),)))


class TestExpectedFreeEnergy:
    def test_identity_a_uniform_c(self):
        m = chain_model(np.eye(2))
        r = expected_free_energy(m, m.initial_belief(), m.policies[0])
        assert r.risk == pytest.approx(0.0, abs=1e-12)
        assert r.ambiguity == pytest.approx(0.0, abs=1e-12)
        assert r.G == pytest.approx(0.0, abs=1e-12)
        assert r.info_gain == pytest.approx(np.log(2.0), abs=1e-12)
        assert r.pragmatic == pytest.approx(-np.log(2.0), abs=1e-12)
        assert -r.info_gain - r.pragmatic == pytest.approx(r.G, abs=1e-10)

    def test_uniform_a_is_pure_ambiguity(self):
        m = chain_model(np.full((2, 2), 0.5))
        r = expected_free_energy(m, m.initial_belief(), m.policies[0])
        assert r.ambiguity == pytest.approx(np.log(2.0), abs=1e-12)
        assert r.info_gain == pytest.approx(0.0, abs=1e-12)
        assert r.G == pytest.approx(np.log(2.0), abs=1e-12)

    def test_preference_risk(self):
        m = chain_model(np.eye(2), c=np.log([0.9, 0.1]))
        r = expected_free_energy(m, m.initial_belief(), m.policies[0])
        expect = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
        assert r.risk == pytest.approx(expect, abs=1e-12)
        assert r.G == pytest.approx(expect, abs=1e-12)

    def test_decomposition_identities_on_random_models(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            m = random_model(rng)
            b = random_belief(rng, m)
            pol = m.policies[int(rng.integers(len(m.policies)))]
            r = expected_free_energy(m, b, pol)
            assert abs(r.info_gain - policy_info_gain(m, b, pol)) < 1e-10
            assert r.G - (r.risk + r.ambiguity) == pytest.approx(0.0, abs=1e-10)
            assert r.G - (-r.info_gain - r.pragmatic) == pytest.approx(0.0, abs=1e-10)
            assert r.info_gain >= 0.0
            assert r.ambiguity >= 0.0
            assert r.risk >= 0.0

    def test_info_gain_exact_on_large_joint_state_spaces(self):
        # three factors and more than 4096 joint states: the gain must stay
        # exact however large the joint state space grows
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 12:
            m = random_model(rng, num_factors=3, max_states=30)
            if int(np.prod(m.factor_dims)) <= 4096:
                continue
            b = random_belief(rng, m)
            pol = m.policies[int(rng.integers(len(m.policies)))]
            r = expected_free_energy(m, b, pol)
            assert abs(r.info_gain - policy_info_gain(m, b, pol)) < 1e-10
            checked += 1

    def test_deterministic_a_has_zero_ambiguity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            perm = rng.permutation(d)
            a = np.zeros((d, d))
            a[perm, np.arange(d)] = 1.0
            m = chain_model(a)
            r = expected_free_energy(m, random_belief(rng, m), m.policies[0])
            assert r.ambiguity == pytest.approx(0.0, abs=1e-12)

    def test_horizon_sums_over_timesteps(self):
        m = chain_model(np.full((2, 2), 0.5))
        two_step = Policy(((0,), (0,)))
        r = expected_free_energy(m, m.initial_belief(), two_step)
        assert r.G == pytest.approx(2 * np.log(2.0), abs=1e-12)


class TestRLSpecialCase:
    def test_argmin_g_is_argmax_pragmatic_when_info_gain_constant(self):
        # deterministic readout and permutation dynamics pin the epistemic
        # term across actions, so only expected value can break ties
        rng = np.random.default_rng(37)
        for _ in range(100):
            d = 3
            perm = rng.permutation(d)
            a = np.zeros((d, d))
            a[perm, np.arange(d)] = 1.0
            b = np.zeros((d, d, d))
            for u in range(d):
                p = rng.permutation(d)
                b[p, np.arange(d), u] = 1.0
            m = chain_model(a, c=rng.normal(0, 2, size=d), b=b)
            belief = random_belief(rng, m)
            reports = [expected_free_energy(m, belief, pol) for pol in m.policies]
            gains = [r.info_gain for r in reports]
            assert max(gains) - min(gains) < 1e-10
            g_rank = int(np.argmin([r.G for r in reports]))
            value_rank = int(np.argmax([r.pragmatic for r in reports]))
            assert g_rank == value_rank


class TestPolicyPosterior:
    def test_flat_g(self):
        pp = policy_posterior([0.0, 0.0], Categorical.uniform(2), gamma=1.0)
        np.testing.assert_allclose(pp.probs, [0.5, 0.5])

    def test_known_value(self):
        pp = policy_posterior([0.0, np.log(3.0)], Categorical.uniform(2), gamma=1.0)
        np.testing.assert_allclose(pp.probs, [0.75, 0.25], atol=1e-12)

    def test_prior_dominates_at_tiny_gamma(self):
        e = Categorical(np.array([0.2, 0.8]))
        pp = policy_posterior([5.0, -3.0], e, gamma=1e-12)
        np.testing.assert_allclose(pp.probs, e.probs, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(41)
        g = rng.normal(size=4)
        e = Categorical(rng.dirichlet(np.ones(4)))
        a = policy_posterior(g, e, gamma=2.0)
        b = policy_posterior(g + 17.3, e, gamma=2.0)
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)

    def test_rejects_bad_gamma(self):
        with pytest.raises(NonPositiveGammaError):
            policy_posterior([0.0, 0.0], Categorical.uniform(2), gamma=0.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            policy_posterior([0.0, 0.0, 0.0], Categorical.uniform(2), gamma=1.0)


def plan(m, belief, **kw):
    """Best first action and its tree value; ties go to the lowest action."""
    actions, values, _ = sophisticated_root_values(m, belief, **kw)
    best = int(np.argmin(values))
    return actions[best], float(values[best])


def oracle_tree_value(m, belief, depth):
    """Exhaustive (unpruned) tree search, written with plain loops."""
    actions = list(product(*(range(n) for n in m.num_controls)))

    def recurse(b, d):
        best = None
        for u in actions:
            g = expected_free_energy(m, b, Policy((u,))).G
            val = g
            if d > 1:
                (q_next,) = expected_states(m, b, Policy((u,)))
                w = q_next.arrays()[0]
                for f in range(1, m.num_factors):
                    w = np.multiply.outer(w, q_next.arrays()[f])
                acc = 0.0
                for o in product(*(range(dm) for dm in m.modality_dims)):
                    like = np.ones(m.factor_dims)
                    for mm, idx in enumerate(o):
                        like = like * m.A[mm][idx]
                    p_o = float((w * like).sum())
                    if p_o == 0.0:
                        continue
                    joint = w * like / p_o
                    margs = []
                    for f in range(m.num_factors):
                        axes = tuple(a for a in range(m.num_factors) if a != f)
                        margs.append(
                            Categorical(joint.sum(axis=axes) if axes else joint)
                        )
                    acc += p_o * recurse(BeliefState(tuple(margs)), d - 1)[1]
                val = g + acc
            if best is None or val < best[1]:
                best = (u, val)
        return best

    return recurse(belief, depth)


class TestSophisticatedPlanner:
    def test_depth_one_reduces_to_one_step_argmin(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = random_model(rng, horizon=1)
            b = random_belief(rng, m)
            action, value = plan(m, b, depth=1)
            gs = [expected_free_energy(m, b, pol).G for pol in m.policies]
            best = int(np.argmin(gs))
            assert action == m.policies[best].controls[0]
            assert value == pytest.approx(gs[best], abs=1e-12)

    def test_unpruned_matches_oracle_at_depth_two(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            m = random_model(rng, num_modalities=1, max_outcomes=2)
            b = random_belief(rng, m)
            action, value = plan(m, b, depth=2, prune_threshold=0.0)
            oracle_action, oracle_value = oracle_tree_value(m, b, 2)
            assert value == pytest.approx(oracle_value, abs=1e-10)
            assert action == oracle_action

    def test_pruning_changes_low_probability_branches_only(self):
        # a 0.95/0.05 predictive split at threshold 1/16 drops the rare branch
        a = np.array([[0.95, 0.95], [0.05, 0.05]])
        m = chain_model(a, b=np.stack([np.eye(2), SWAP], axis=2))
        b = m.initial_belief()
        _, pruned = plan(m, b, depth=2, prune_threshold=1.0 / 16.0)
        _, full = plan(m, b, depth=2, prune_threshold=0.0)
        # the pruned tree keeps only the dominant branch; values stay close
        assert pruned == pytest.approx(full, abs=0.1)

    def test_all_branches_pruned_keeps_the_best(self):
        m = chain_model(np.full((4, 2), 0.25))
        action, value = plan(m, m.initial_belief(), depth=2, prune_threshold=0.5)
        assert np.isfinite(value)

    def test_depth_below_one_is_rejected(self):
        m = chain_model([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(ValueError, match="depth must be >= 1"):
            sophisticated_root_values(m, m.initial_belief(), depth=0)

    def test_budget_exceeded(self, monkeypatch):
        rng = np.random.default_rng(53)
        m = random_model(rng, num_factors=2, num_modalities=2)
        monkeypatch.setattr(planning, "NODE_BUDGET", 5)
        with pytest.raises(BudgetExceededError):
            plan(m, m.initial_belief(), depth=3)

    def test_root_values_align_with_actions(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            m = random_model(rng)
            b = random_belief(rng, m)
            actions, values, reports = sophisticated_root_values(m, b, depth=2)
            assert len(actions) == len(values) == len(reports)
            for u, report in zip(actions, reports):
                assert report == expected_free_energy(m, b, Policy((u,)))
            _, one_step, _ = sophisticated_root_values(m, b, depth=1)
            assert one_step.tolist() == [r.G for r in reports]
