"""Task environments (generative processes) and the matching agent models.

The environment owns the true state and the observation noise; agents only
ever see outcome indices. TMazeEnv.true_state() exists for metrics, never for agents.
"""

from __future__ import annotations

import numpy as np

from .core import BeliefState, Categorical, GenerativeModel, Policy, log_stable

# --- T-maze ------------------------------------------------------------------
#
# Locations: 0 center, 1 left arm, 2 right arm, 3 cue.
# Hidden reward side: 0 left, 1 right. The cue location names the side
# outright; the arms pay out reward or punishment and cannot be left.

TMAZE_CENTER, TMAZE_LEFT, TMAZE_RIGHT, TMAZE_CUE = 0, 1, 2, 3
VAL_NEUTRAL, VAL_REWARD, VAL_PUNISH = 0, 1, 2
CUE_NONE, CUE_LEFT, CUE_RIGHT = 0, 1, 2

TMAZE_PREFERENCES = np.array([0.0, 2.0, -6.0])


class TMazeEnv:
    """Two-observation-modality maze plus a deterministic location readout."""

    def __init__(self):
        self._loc = TMAZE_CENTER
        self._side = 0

    def reset(self, seed: int):
        rng = np.random.default_rng(seed)
        self._side = int(rng.integers(0, 2))
        self._loc = TMAZE_CENTER
        return self._observe()

    def step(self, action):
        u = int(action[0])
        if self._loc in (TMAZE_CENTER, TMAZE_CUE):
            self._loc = u
        # arms are absorbing: moves from an arm do nothing
        return self._observe()

    def true_state(self):
        return (self._loc, self._side)

    def _observe(self):
        loc_obs = self._loc
        if self._loc == TMAZE_LEFT:
            val = VAL_REWARD if self._side == 0 else VAL_PUNISH
        elif self._loc == TMAZE_RIGHT:
            val = VAL_REWARD if self._side == 1 else VAL_PUNISH
        else:
            val = VAL_NEUTRAL
        if self._loc == TMAZE_CUE:
            cue = CUE_LEFT if self._side == 0 else CUE_RIGHT
        else:
            cue = CUE_NONE
        return (loc_obs, val, cue)


def build_tmaze_model(preferences=None) -> GenerativeModel:
    """Agent's model of the maze: factors (location, side); modalities
    (location readout, valence, cue signal). All tables are exact copies of
    the process; only the reward side is unknown."""
    c_val = TMAZE_PREFERENCES if preferences is None else np.asarray(preferences, dtype=float)

    a_loc = np.zeros((4, 4, 2))
    for loc in range(4):
        a_loc[loc, loc, :] = 1.0

    a_val = np.zeros((3, 4, 2))
    a_val[VAL_NEUTRAL, TMAZE_CENTER, :] = 1.0
    a_val[VAL_NEUTRAL, TMAZE_CUE, :] = 1.0
    a_val[VAL_REWARD, TMAZE_LEFT, 0] = 1.0
    a_val[VAL_PUNISH, TMAZE_LEFT, 1] = 1.0
    a_val[VAL_REWARD, TMAZE_RIGHT, 1] = 1.0
    a_val[VAL_PUNISH, TMAZE_RIGHT, 0] = 1.0

    a_cue = np.zeros((3, 4, 2))
    a_cue[CUE_NONE, :TMAZE_CUE, :] = 1.0
    a_cue[CUE_LEFT, TMAZE_CUE, 0] = 1.0
    a_cue[CUE_RIGHT, TMAZE_CUE, 1] = 1.0

    b_loc = np.zeros((4, 4, 4))
    for u in range(4):
        b_loc[u, TMAZE_CENTER, u] = 1.0
        b_loc[u, TMAZE_CUE, u] = 1.0
        b_loc[TMAZE_LEFT, TMAZE_LEFT, u] = 1.0
        b_loc[TMAZE_RIGHT, TMAZE_RIGHT, u] = 1.0
    b_side = np.eye(2)[:, :, None]

    policies = tuple(Policy(((u, 0),)) for u in range(4))
    return GenerativeModel(
        factor_dims=(4, 2),
        modality_dims=(4, 3, 3),
        A=(a_loc, a_val, a_cue),
        B=(b_loc, b_side),
        C=(np.zeros(4), c_val, np.zeros(3)),
        D=(Categorical.delta(TMAZE_CENTER, 4), Categorical.uniform(2)),
        E=Categorical.uniform(4),
        policies=policies,
    )


# --- Elephant room -----------------------------------------------------------
#
# One shared "what" (elephant, statue, empty) and a private "where" per agent.
# Each location exposes one binary felt feature; a lone feel is consistent
# with two of the three explanations, so no single vantage point resolves the
# scene, but the three together do.

WHAT_NAMES = ("elephant", "statue", "empty")
ELEPHANT, STATUE, EMPTY = 0, 1, 2
NUM_LOCATIONS = 3
DEFAULT_NOISE = 0.1  # chance that a feel reads the opposite of the feature

# FEATURES[location][what] = is the felt feature present?
FEATURES = np.array(
    [
        [1, 1, 0],  # broad curved mass: elephant or statue
        [1, 0, 1],  # yielding warmth: elephant or empty draft
        [1, 1, 0],  # rough solid flank: elephant or statue
    ],
    dtype=float,
)


def _check_location(location: int) -> None:
    if not (0 <= location < NUM_LOCATIONS):
        raise ValueError(f"location {location} outside [0, {NUM_LOCATIONS})")


class ElephantRoomEnv:
    """Static scene observed from one location with confusion noise."""

    def __init__(self, location: int, true_what: int = ELEPHANT, noise: float = DEFAULT_NOISE):
        _check_location(location)
        if not (0.0 <= noise <= 1.0):
            raise ValueError(f"noise must be in [0, 1], got {noise}")
        self.location = location
        self.true_what = int(true_what)
        self.noise = float(noise)
        self._rng = np.random.default_rng(0)

    def reset(self, seed: int):
        self._rng = np.random.default_rng(seed)
        return self._observe()

    def step(self, action=None):
        return self._observe()

    def _observe(self):
        present = FEATURES[self.location, self.true_what]
        felt = present if self._rng.random() >= self.noise else 1.0 - present
        return (int(felt), self.location)


def build_elephant_model(location: int, noise: float = DEFAULT_NOISE) -> GenerativeModel:
    """One agent's model: shared "what" factor, private "where" pinned to the
    agent's location; a binary feel modality and a deterministic location
    readout."""
    _check_location(location)
    eps = float(noise)
    a_feel = np.zeros((2, 3, NUM_LOCATIONS))
    for loc in range(NUM_LOCATIONS):
        for what in range(3):
            p_present = (1.0 - eps) if FEATURES[loc, what] else eps
            a_feel[1, what, loc] = p_present
            a_feel[0, what, loc] = 1.0 - p_present

    a_where = np.zeros((NUM_LOCATIONS, 3, NUM_LOCATIONS))
    for loc in range(NUM_LOCATIONS):
        a_where[loc, :, loc] = 1.0

    return GenerativeModel(
        factor_dims=(3, NUM_LOCATIONS),
        modality_dims=(2, NUM_LOCATIONS),
        A=(a_feel, a_where),
        B=(np.eye(3)[:, :, None], np.eye(NUM_LOCATIONS)[:, :, None]),
        C=(np.zeros(2), np.zeros(NUM_LOCATIONS)),
        D=(Categorical.uniform(3), Categorical.delta(location, NUM_LOCATIONS)),
        E=Categorical.uniform(1),
        policies=(Policy(((0, 0),)),),
    )


def feel_log_evidence(model: GenerativeModel, feel_obs: int, location: int) -> np.ndarray:
    """ln p(feel | what, where=location): the shareable evidence vector."""
    return log_stable(model.A[0][int(feel_obs), :, int(location)])


def pooled_elephant_posterior(observations, noise: float = DEFAULT_NOISE) -> Categorical:
    """Exact posterior of one agent holding every vantage point's feel.

    observations: list of (feel, location) pairs.
    """
    eps = float(noise)
    post = np.full(3, 1.0 / 3.0)
    for felt, loc in observations:
        like = np.array(
            [
                ((1.0 - eps) if FEATURES[loc, w] else eps) if felt else
                (eps if FEATURES[loc, w] else (1.0 - eps))
                for w in range(3)
            ]
        )
        post = post * like
    total = post.sum()
    if total <= 0:
        raise ValueError("observations have zero joint probability")
    return Categorical(post / total)
