"""Perception/learning/model evidence against hand calculations and enumeration oracles."""

import dataclasses
from itertools import product

import numpy as np
import pytest

from beliefmesh import inference
from beliefmesh.core import (
    Categorical,
    DimMismatchError,
    DirichletCounts,
    GenerativeModel,
    Policy,
    kl_divergence,
)
from beliefmesh.inference import (
    MeanFieldResult,
    ShapeMismatchError,
    TooLargeError,
    ZeroEvidenceError,
    dirichlet_mean,
    exact_posterior,
    infer_states,
    update_likelihood_counts,
    update_transition_counts,
    variational_free_energy,
)
import mean_field_reference
from modelgen import random_belief, random_model, random_observation


def oracle_enumerate(m, obs, prior=None):
    """Pure-Python joint enumeration: independent of the library's array code."""
    priors = [p.probs for p in (prior or m.D)]
    joint = {}
    for s in product(*(range(d) for d in m.factor_dims)):
        p = 1.0
        for f, sf in enumerate(s):
            p *= priors[f][sf]
        for mm, o in enumerate(obs):
            p *= m.A[mm][(o,) + s]
        joint[s] = p
    evidence = sum(joint.values())
    marginals = [np.zeros(d) for d in m.factor_dims]
    for s, p in joint.items():
        for f, sf in enumerate(s):
            marginals[f][sf] += p / evidence
    return marginals, np.log(evidence)


def two_state_model(a=None, d=None):
    from test_core import tiny_model

    overrides = {}
    if a is not None:
        overrides["A"] = (np.asarray(a, dtype=float),)
    if d is not None:
        overrides["D"] = (Categorical(np.asarray(d, dtype=float)),)
    return tiny_model(**overrides)


class TestExactPosterior:
    def test_hand_example(self):
        m = two_state_model(a=[[0.9, 0.1], [0.1, 0.9]])
        belief, log_ev = exact_posterior(m, (0,))
        np.testing.assert_allclose(belief.factors[0].probs, [0.9, 0.1], atol=1e-12)
        assert log_ev == pytest.approx(np.log(0.5), abs=1e-12)

    def test_symmetric_flip(self):
        m = two_state_model(a=[[0.9, 0.1], [0.1, 0.9]])
        belief, _ = exact_posterior(m, (1,))
        np.testing.assert_allclose(belief.factors[0].probs, [0.1, 0.9], atol=1e-12)

    def test_uniform_likelihood_returns_prior(self):
        m = two_state_model(a=[[0.5, 0.5], [0.5, 0.5]], d=[0.3, 0.7])
        belief, log_ev = exact_posterior(m, (0,))
        np.testing.assert_allclose(belief.factors[0].probs, [0.3, 0.7], atol=1e-12)
        assert log_ev == pytest.approx(np.log(0.5), abs=1e-12)

    def test_zero_evidence(self):
        m = two_state_model(a=[[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ZeroEvidenceError):
            exact_posterior(m, (1,))
        with pytest.raises(ZeroEvidenceError, match="observation impossible under the prior"):
            infer_states(m, (1,))
        # only state 1 emits observation 1, and the prior rules it out
        m = two_state_model(a=np.eye(2), d=[1.0, 0.0])
        with pytest.raises(ZeroEvidenceError):
            exact_posterior(m, (1,))
        with pytest.raises(ZeroEvidenceError, match="observation impossible under the prior"):
            infer_states(m, (1,))

    def test_enumeration_guard(self):
        big = GenerativeModel(
            factor_dims=(101, 101, 101),
            modality_dims=(2,),
            A=(np.full((2, 101, 101, 101), 0.5),),
            B=(np.eye(101)[:, :, None],) * 3,
            C=(np.zeros(2),),
            D=(Categorical.uniform(101),) * 3,
            E=Categorical.uniform(1),
            policies=(Policy(((0, 0, 0),)),),
        )
        with pytest.raises(TooLargeError):
            exact_posterior(big, (0,))
        # exactly ENUMERATION_GUARD joint states still enumerate
        at_guard = GenerativeModel(
            factor_dims=(1000, 1000),
            modality_dims=(2,),
            A=(np.full((2, 1000, 1000), 0.5),),
            B=(np.eye(1000)[:, :, None],) * 2,
            C=(np.zeros(2),),
            D=(Categorical.uniform(1000),) * 2,
            E=Categorical.uniform(1),
            policies=(Policy(((0, 0),)),),
        )
        assert 1000 * 1000 == inference.ENUMERATION_GUARD
        _, log_ev = exact_posterior(at_guard, (0,))
        assert log_ev == pytest.approx(np.log(0.5), abs=1e-12)

    def test_matches_pure_python_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_model(rng)
            obs = random_observation(rng, m)
            belief, log_ev = exact_posterior(m, obs)
            oracle_marg, oracle_log_ev = oracle_enumerate(m, obs)
            assert log_ev == pytest.approx(oracle_log_ev, abs=1e-10)
            for f in range(m.num_factors):
                np.testing.assert_allclose(
                    belief.factors[f].probs, oracle_marg[f], atol=1e-10
                )

    def test_rejects_bad_observation(self):
        m = two_state_model()
        with pytest.raises(DimMismatchError):
            exact_posterior(m, (0, 1))
        with pytest.raises(DimMismatchError):
            exact_posterior(m, (5,))


class TestFreeEnergy:
    def test_tight_at_exact_posterior(self):
        m = two_state_model(a=[[0.9, 0.1], [0.1, 0.9]])
        belief, log_ev = exact_posterior(m, (0,))
        report = variational_free_energy(belief, m, (0,))
        assert report.free_energy == pytest.approx(-log_ev, abs=1e-8)
        assert -log_ev == pytest.approx(np.log(2.0), abs=1e-12)

    def test_at_prior(self):
        m = two_state_model(a=[[0.9, 0.1], [0.1, 0.9]])
        report = variational_free_energy(m.initial_belief(), m, (0,))
        assert report.complexity == pytest.approx(0.0, abs=1e-12)
        assert report.accuracy == pytest.approx(0.5 * np.log(0.9) + 0.5 * np.log(0.1), abs=1e-12)
        assert report.free_energy == pytest.approx(1.2039728043259361, abs=1e-10)

    def test_uninformative_likelihood_bound_is_tight_at_prior(self):
        m = two_state_model(a=[[0.5, 0.5], [0.5, 0.5]])
        _, log_ev = exact_posterior(m, (0,))
        report = variational_free_energy(m.initial_belief(), m, (0,))
        assert report.free_energy == pytest.approx(-log_ev, abs=1e-12)

    def test_bound_on_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = random_model(rng)
            obs = random_observation(rng, m)
            q = random_belief(rng, m)
            _, log_ev = exact_posterior(m, obs)
            report = variational_free_energy(q, m, obs)
            assert report.free_energy >= -log_ev - 1e-9
            decomposition = report.complexity - report.accuracy
            assert report.free_energy - decomposition == pytest.approx(0.0, abs=1e-10)

    def test_tightness_on_random_single_factor_models(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = random_model(rng, num_factors=1)
            obs = random_observation(rng, m)
            belief, log_ev = exact_posterior(m, obs)
            report = variational_free_energy(belief, m, obs)
            assert report.free_energy == pytest.approx(-log_ev, abs=1e-8)

    def test_dim_mismatch(self):
        m = two_state_model()
        from beliefmesh.core import BeliefState

        with pytest.raises(DimMismatchError):
            variational_free_energy(BeliefState((Categorical.uniform(3),)), m, (0,))

    def test_infinite_when_q_contradicts_evidence(self):
        m = two_state_model(a=[[1.0, 0.0], [0.0, 1.0]])
        from beliefmesh.core import BeliefState

        q = BeliefState((Categorical(np.array([0.0, 1.0])),))
        report = variational_free_energy(q, m, (0,))
        assert report.free_energy == np.inf


class TestInferStates:
    def test_single_factor_matches_exact(self):
        m = two_state_model(a=[[0.9, 0.1], [0.1, 0.9]])
        result = infer_states(m, (0,))
        assert isinstance(result, MeanFieldResult)
        assert result.converged
        np.testing.assert_allclose(result.belief.factors[0].probs, [0.9, 0.1], atol=1e-8)

    def test_uniform_likelihood_converges_immediately(self):
        m = two_state_model(a=[[0.5, 0.5], [0.5, 0.5]], d=[0.3, 0.7])
        result = infer_states(m, (0,))
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.belief.factors[0].probs, [0.3, 0.7], atol=1e-12)

    def test_oracle_equivalence_single_factor(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_model(rng, num_factors=1)
            obs = random_observation(rng, m)
            result = infer_states(m, obs)
            exact, _ = exact_posterior(m, obs)
            l1 = np.abs(result.belief.factors[0].probs - exact.factors[0].probs).sum()
            assert result.converged
            assert l1 < 1e-6

    def test_separable_two_factor_model(self):
        # modality 0 reads factor 0 only, modality 1 reads factor 1 only:
        # the joint posterior factorizes, so mean field is exact here
        rng = np.random.default_rng(19)
        a0 = rng.dirichlet(np.ones(2), size=2).T
        a1 = rng.dirichlet(np.ones(3), size=3).T
        m = GenerativeModel(
            factor_dims=(2, 3),
            modality_dims=(2, 3),
            A=(
                np.repeat(a0[:, :, None], 3, axis=2),
                np.repeat(a1[:, None, :], 2, axis=1),
            ),
            B=(np.eye(2)[:, :, None], np.eye(3)[:, :, None]),
            C=(np.zeros(2), np.zeros(3)),
            D=(Categorical.uniform(2), Categorical.uniform(3)),
            E=Categorical.uniform(1),
            policies=(Policy(((0, 0),)),),
        )
        result = infer_states(m, (1, 2))
        exact, _ = exact_posterior(m, (1, 2))
        for f in range(2):
            np.testing.assert_allclose(
                result.belief.factors[f].probs, exact.factors[f].probs, atol=1e-6
            )

    def test_two_factor_descends_and_respects_bound(self):
        # on correlated posteriors mean field only approximates the marginals,
        # but it must never do worse than the prior and never beat the evidence
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = random_model(rng, num_factors=2)
            obs = random_observation(rng, m)
            result = infer_states(m, obs)
            _, log_ev = exact_posterior(m, obs)
            f_result = variational_free_energy(result.belief, m, obs).free_energy
            f_prior = variational_free_energy(m.initial_belief(), m, obs).free_energy
            assert f_result >= -log_ev - 1e-9
            assert f_result <= f_prior + 1e-9

    def test_nonconvergence_is_flagged_not_raised(self, monkeypatch):
        m = two_state_model(a=[[0.9, 0.1], [0.1, 0.9]])
        monkeypatch.setattr(inference, "MAX_ITERS", 1)
        monkeypatch.setattr(inference, "TOL", 1e-12)
        result = infer_states(m, (0,))
        assert not result.converged
        assert result.iterations == 1
        assert result.residual > 1e-12
        assert result.belief.factors[0].dim == 2

    def test_respects_prior_override(self):
        m = two_state_model(a=[[0.9, 0.1], [0.1, 0.9]])
        from beliefmesh.core import BeliefState

        prior = BeliefState((Categorical(np.array([0.99, 0.01])),))
        result = infer_states(m, (1,), prior=prior)
        exact, _ = exact_posterior(m, (1,), prior=prior)
        np.testing.assert_allclose(
            result.belief.factors[0].probs, exact.factors[0].probs, atol=1e-6
        )

    def test_matches_the_reference_loop_bit_for_bit(self):
        # coupled two-factor models take tens of damped sweeps, so a changed
        # damping or sweep order moves the belief or the counts
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_model(rng, num_factors=2, num_modalities=2)
            obs = random_observation(rng, m)
            got = infer_states(m, obs)
            want = mean_field_reference.infer_states(m, obs)
            assert got.iterations > 20
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            for a, b in zip(got.belief.arrays(), want.belief.arrays()):
                assert np.array_equal(a, b)

    def test_matches_the_reference_loop_on_hard_zero_likelihoods(self):
        # zeros in A give -inf log-likelihoods, which the loop floors at
        # LOG_FLOOR while a peer factor is still uncertain; a moved floor
        # changes the belief or the iteration count of many of these models
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 40:
            m = random_model(rng, num_factors=2, num_modalities=2)
            A = []
            for a in m.A:
                a = np.where(rng.random(a.shape) < 0.3, 0.0, a)
                a[0][a.sum(axis=0) == 0] = 1.0  # an emptied column puts its mass on outcome 0
                A.append(a / a.sum(axis=0))
            m = dataclasses.replace(m, A=tuple(A))
            obs = random_observation(rng, m)
            try:
                want = mean_field_reference.infer_states(m, obs)
            except ZeroEvidenceError:
                continue
            got = infer_states(m, obs)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            for a, b in zip(got.belief.arrays(), want.belief.arrays()):
                assert np.array_equal(a, b)
            checked += 1


class TestLikelihoodLearning:
    def test_direct_accumulation(self):
        from beliefmesh.core import BeliefState

        counts = DirichletCounts(np.ones((2, 2)))
        q = BeliefState((Categorical(np.array([0.9, 0.1])),))
        new = update_likelihood_counts(counts, 0, q)
        np.testing.assert_allclose(new.counts, [[1.9, 1.1], [1.0, 1.0]])

    def test_expected_likelihood_normalizes_outcome_axis(self):
        counts = DirichletCounts(np.array([[1.9, 1.1], [1.0, 1.0]]))
        a_hat = dirichlet_mean(counts)
        assert a_hat[0, 0] == pytest.approx(1.9 / 2.9, abs=1e-12)
        np.testing.assert_allclose(a_hat.sum(axis=0), 1.0)

    def test_monte_carlo_recovery(self):
        from beliefmesh.core import BeliefState

        rng = np.random.default_rng(42)
        true_a = np.array([[0.9, 0.1], [0.1, 0.9]])
        counts = DirichletCounts(np.ones((2, 2)))
        q = BeliefState((Categorical(np.array([1.0, 0.0])),))
        for _ in range(1000):
            o = int(rng.choice(2, p=true_a[:, 0]))
            counts = update_likelihood_counts(counts, o, q)
        assert dirichlet_mean(counts)[0, 0] == pytest.approx(0.9, abs=0.05)

    def test_shape_mismatch(self):
        from beliefmesh.core import BeliefState

        counts = DirichletCounts(np.ones((2, 2)))
        with pytest.raises(ShapeMismatchError):
            update_likelihood_counts(counts, 0, BeliefState((Categorical.uniform(3),)))
        with pytest.raises(ShapeMismatchError):
            update_likelihood_counts(counts, 5, BeliefState((Categorical.uniform(2),)))


class TestTransitionLearning:
    def test_direct_accumulation(self):
        counts = DirichletCounts(np.ones((2, 2, 1)))
        new = update_transition_counts(
            counts, Categorical(np.array([1.0, 0.0])), Categorical(np.array([0.0, 1.0])), 0
        )
        assert new.counts[1, 0, 0] == 2.0
        assert new.counts.sum() == 5.0

    def test_uniform_outer_product(self):
        counts = DirichletCounts(np.ones((2, 2, 2)))
        new = update_transition_counts(counts, Categorical.uniform(2), Categorical.uniform(2), 1)
        np.testing.assert_allclose(new.counts[:, :, 1], 1.25)
        np.testing.assert_allclose(new.counts[:, :, 0], 1.0)

    def test_swap_dynamics_recovered(self):
        counts = DirichletCounts(np.ones((2, 2, 1)))
        state = 0
        for _ in range(1000):
            nxt = 1 - state
            counts = update_transition_counts(
                counts, Categorical.delta(state, 2), Categorical.delta(nxt, 2), 0
            )
            state = nxt
        b_hat = dirichlet_mean(counts)[:, :, 0]
        np.testing.assert_allclose(b_hat, [[0.0, 1.0], [1.0, 0.0]], atol=0.05)

    def test_belief_dims_must_match_the_counts(self):
        counts = DirichletCounts(np.ones((2, 2, 1)))
        with pytest.raises(ShapeMismatchError, match=r"beliefs \(3, 2\) != count dims \(2, 2\)"):
            update_transition_counts(counts, Categorical.uniform(2), Categorical.uniform(3), 0)

    def test_control_out_of_range(self):
        counts = DirichletCounts(np.ones((2, 2, 1)))
        with pytest.raises(ShapeMismatchError):
            update_transition_counts(counts, Categorical.uniform(2), Categorical.uniform(2), 3)


class TestModelSelection:
    def test_generating_model_accumulates_lower_free_energy(self):
        # generator: state 0 with prior 0.8, noisy identity readout; its
        # marginal p(o=0) = 0.74 explains the stream better than a coin does.
        # A model's free energy over independent trials is the sum of -ln p(o).
        rng = np.random.default_rng(0)
        truth = two_state_model(a=[[0.9, 0.1], [0.1, 0.9]], d=[0.8, 0.2])
        vague = two_state_model(a=[[0.5, 0.5], [0.5, 0.5]], d=[0.8, 0.2])
        observations = []
        for _ in range(10):
            state = 0 if rng.random() < 0.8 else 1
            observations.append((int(rng.choice(2, p=truth.A[0][:, state])),))

        def accumulated_free_energy(m):
            return -sum(exact_posterior(m, o)[1] for o in observations)

        assert accumulated_free_energy(truth) < accumulated_free_energy(vague)
