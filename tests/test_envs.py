"""Environment/model agreement: the agent's tables must replicate the process."""

import dataclasses
import itertools

import numpy as np
import pytest

from beliefmesh.core import Categorical, GenerativeModel, InvalidModelError
from beliefmesh.envs import (
    CUE_LEFT,
    CUE_NONE,
    CUE_RIGHT,
    ELEPHANT,
    EMPTY,
    FEATURES,
    STATUE,
    TMAZE_CENTER,
    TMAZE_CUE,
    TMAZE_LEFT,
    TMAZE_RIGHT,
    VAL_NEUTRAL,
    VAL_PUNISH,
    VAL_REWARD,
    ElephantRoomEnv,
    TMazeEnv,
    build_elephant_model,
    build_tmaze_model,
    feel_log_evidence,
    pooled_elephant_posterior,
)


class TestTMazeEnv:
    def test_reset_starts_at_center_with_neutral_obs(self):
        env = TMazeEnv()
        for seed in range(20):
            obs = env.reset(seed)
            assert obs == (TMAZE_CENTER, VAL_NEUTRAL, CUE_NONE)
            assert env.true_state()[0] == TMAZE_CENTER

    def test_side_depends_on_seed_and_both_occur(self):
        env = TMazeEnv()
        sides = set()
        for seed in range(40):
            env.reset(seed)
            sides.add(env.true_state()[1])
        assert sides == {0, 1}

    def test_same_seed_same_side(self):
        a, b = TMazeEnv(), TMazeEnv()
        for seed in range(10):
            a.reset(seed)
            b.reset(seed)
            assert a.true_state() == b.true_state()

    def test_cue_location_names_the_side(self):
        env = TMazeEnv()
        for seed in range(20):
            env.reset(seed)
            side = env.true_state()[1]
            obs = env.step((TMAZE_CUE, 0))
            assert obs[2] == (CUE_LEFT if side == 0 else CUE_RIGHT)
            assert obs[1] == VAL_NEUTRAL

    def test_correct_arm_rewards_wrong_arm_punishes(self):
        for seed in range(20):
            env = TMazeEnv()
            env.reset(seed)
            side = env.true_state()[1]
            good = TMAZE_LEFT if side == 0 else TMAZE_RIGHT
            bad = TMAZE_RIGHT if side == 0 else TMAZE_LEFT
            assert env.step((good, 0))[1] == VAL_REWARD
            env.reset(seed)
            assert env.step((bad, 0))[1] == VAL_PUNISH

    def test_arms_are_absorbing(self):
        env = TMazeEnv()
        env.reset(0)
        env.step((TMAZE_LEFT, 0))
        for u in range(4):
            env.step((u, 0))
            assert env.true_state()[0] == TMAZE_LEFT

    def test_center_and_cue_allow_any_move(self):
        env = TMazeEnv()
        env.reset(3)
        env.step((TMAZE_CUE, 0))
        env.step((TMAZE_CENTER, 0))
        assert env.true_state()[0] == TMAZE_CENTER


class TestTMazeModel:
    def test_model_passes_validation(self):
        assert isinstance(build_tmaze_model(), GenerativeModel)

    def test_scaled_likelihood_is_rejected(self):
        m = build_tmaze_model()
        with pytest.raises(InvalidModelError) as err:
            dataclasses.replace(m, A=(m.A[0] * 1.7,) + m.A[1:])
        assert err.value.violations
        assert all(v.startswith("A[0][:, ") and "sums to 1.7" in v for v in err.value.violations)

    def test_dimensions(self):
        m = build_tmaze_model()
        assert m.factor_dims == (4, 2)
        assert m.modality_dims == (4, 3, 3)
        assert len(m.policies) == 4
        assert all(p.horizon == 1 for p in m.policies)

    def test_likelihoods_reproduce_the_process(self):
        """For every (location, side) the deterministic generative tables must
        put probability one on exactly the tuple the environment emits."""
        m = build_tmaze_model()
        for side in (0, 1):
            for loc in range(4):
                env = TMazeEnv()
                obs = env.reset(_seed_with_side(side))
                if loc != TMAZE_CENTER:
                    obs = env.step((loc, 0))
                assert env.true_state() == (loc, side)
                for g, o in enumerate(obs):
                    assert m.A[g][o, loc, side] == 1.0

    def test_transitions_reproduce_the_process(self):
        m = build_tmaze_model()
        for start in range(4):
            for u in range(4):
                env = TMazeEnv()
                env.reset(_seed_with_side(0))
                if start != TMAZE_CENTER:
                    env.step((start, 0))
                assert env.true_state()[0] == start
                env.step((u, 0))
                dest = env.true_state()[0]
                assert m.B[0][dest, start, u] == 1.0

    def test_side_is_static(self):
        m = build_tmaze_model()
        np.testing.assert_array_equal(m.B[1][:, :, 0], np.eye(2))

    def test_preference_override(self):
        m = build_tmaze_model(preferences=[0.0, 0.0, 0.0])
        np.testing.assert_array_equal(m.C[1], np.zeros(3))

    def test_default_preferences_rank_reward_over_neutral_over_punish(self):
        m = build_tmaze_model()
        c = m.C[1]
        assert c[VAL_REWARD] > c[VAL_NEUTRAL] > c[VAL_PUNISH]


def _seed_with_side(side):
    for s in range(100):
        env = TMazeEnv()
        env.reset(s)
        if env.true_state()[1] == side:
            return s
    raise AssertionError("no seed found")


class TestElephantRoomEnv:
    def test_noiseless_observation_is_the_feature_bit(self):
        for what in (ELEPHANT, STATUE, EMPTY):
            for loc in range(3):
                env = ElephantRoomEnv(loc, true_what=what, noise=0.0)
                felt, where = env.reset(0)
                assert felt == int(FEATURES[loc, what])
                assert where == loc

    def test_noise_flips_at_the_configured_rate(self):
        env = ElephantRoomEnv(0, true_what=ELEPHANT, noise=0.25)
        env.reset(7)
        flips = sum(env.step()[0] == 0 for _ in range(20000))
        assert abs(flips / 20000 - 0.25) < 0.02

    def test_same_seed_same_stream(self):
        a = ElephantRoomEnv(1, noise=0.4)
        b = ElephantRoomEnv(1, noise=0.4)
        sa = [a.reset(5)] + [a.step() for _ in range(30)]
        sb = [b.reset(5)] + [b.step() for _ in range(30)]
        assert sa == sb

    def test_rejects_bad_location_and_noise(self):
        with pytest.raises(ValueError):
            ElephantRoomEnv(3)
        with pytest.raises(ValueError):
            ElephantRoomEnv(0, noise=1.5)


class TestElephantModel:
    def test_model_passes_validation(self):
        for loc in range(3):
            assert isinstance(build_elephant_model(loc), GenerativeModel)

    def test_rejects_a_location_outside_the_room(self):
        for loc in (-1, 3):
            with pytest.raises(ValueError, match="location"):
                build_elephant_model(loc)

    def test_feel_likelihood_matches_feature_table(self):
        m = build_elephant_model(0, noise=0.1)
        for loc in range(3):
            for what in range(3):
                expected = 0.9 if FEATURES[loc, what] else 0.1
                assert m.A[0][1, what, loc] == pytest.approx(expected)

    def test_where_is_pinned(self):
        for loc in range(3):
            m = build_elephant_model(loc)
            assert m.D[1].probs[loc] == 1.0

    def test_feel_log_evidence_slices_the_likelihood(self):
        m = build_elephant_model(2, noise=0.2)
        vec = feel_log_evidence(m, 1, 2)
        np.testing.assert_allclose(np.exp(vec), m.A[0][1, :, 2])

    def test_single_vantage_point_is_ambiguous(self):
        """A noiseless feel from any one location leaves two live hypotheses."""
        for loc in range(3):
            felt = int(FEATURES[loc, ELEPHANT])
            post = pooled_elephant_posterior([(felt, loc)], noise=0.0)
            assert post.probs.max() <= 0.5 + 1e-12
            assert np.count_nonzero(post.probs) == 2

    def test_three_vantage_points_resolve_the_scene(self):
        obs = [(int(FEATURES[loc, ELEPHANT]), loc) for loc in range(3)]
        post = pooled_elephant_posterior(obs, noise=0.0)
        np.testing.assert_allclose(post.probs, [1.0, 0.0, 0.0], atol=1e-12)

    def test_pooled_posterior_matches_bayes_by_hand(self):
        # feel=1 at all three locations, eps = 0.1:
        # elephant .9^3, statue .9*.1*.9, empty .1*.9*.1
        post = pooled_elephant_posterior([(1, 0), (1, 1), (1, 2)], noise=0.1)
        raw = np.array([0.729, 0.081, 0.009])
        np.testing.assert_allclose(post.probs, raw / raw.sum(), atol=1e-12)

    def test_pooled_rejects_impossible_evidence(self):
        with pytest.raises(ValueError):
            pooled_elephant_posterior([(1, 0), (0, 0)], noise=0.0)

    def test_only_the_elephant_is_ambiguous_from_every_vantage_point(self):
        """The elephant presents a feature at every location, each shared with
        one rival explanation; the rivals each have a location whose absence
        pattern gives them away."""
        resolvable = {what: [] for what in range(3)}
        for what in range(3):
            for loc in range(3):
                felt = int(FEATURES[loc, what])
                post = pooled_elephant_posterior([(felt, loc)], noise=0.0)
                if np.count_nonzero(post.probs) == 1:
                    resolvable[what].append(loc)
        assert resolvable[ELEPHANT] == []
        assert resolvable[STATUE] == [1]
        assert resolvable[EMPTY] == [0, 2]
