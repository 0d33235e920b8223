"""End-to-end acceptance gate.

Eight numbered checks, each a single test that prints one PASS line with the
measured quantities (run with -s or read captured output). Tolerances are
pinned here and nowhere loosened; statistical checks use frozen seeds that
were verified to clear each gate with margin before being committed.
"""

import numpy as np
import pytest

from info_gain_reference import policy_info_gain
from modelgen import random_belief, random_model, random_observation
from test_codec import random_message
from test_factor_graph import oracle_marginals, random_tree_graph
from test_inference import oracle_enumerate
from test_planning import chain_model

from beliefmesh.config import ExperimentConfig
from beliefmesh.core import BeliefState, Categorical, DirichletCounts
from beliefmesh.envs import (
    TMAZE_CUE,
    TMAZE_LEFT,
    TMAZE_RIGHT,
    build_tmaze_model,
    pooled_elephant_posterior,
)
from beliefmesh.factor_graph import sum_product
from beliefmesh.harness import run_collective, run_single_agent, write_logs
from beliefmesh.inference import (
    dirichlet_mean,
    exact_posterior,
    infer_states,
    update_likelihood_counts,
    update_transition_counts,
    variational_free_energy,
)
from beliefmesh.net.codec import DecodeError, decode_message, encode_message
from beliefmesh.planning import expected_free_energy


def test_criterion_1_vfe_bound_and_tightness():
    """F upper-bounds surprise for any belief and touches it at the posterior."""
    rng = np.random.default_rng(101)
    min_margin = np.inf
    worst_gap = 0.0
    for _ in range(200):
        m = random_model(rng, num_factors=1, max_states=5, max_outcomes=4)
        obs = random_observation(rng, m)
        post, log_ev = exact_posterior(m, obs)

        q = random_belief(rng, m)
        bound = variational_free_energy(q, m, obs)
        assert bound.free_energy >= -log_ev - 1e-9
        min_margin = min(min_margin, bound.free_energy + log_ev)

        tight = variational_free_energy(post, m, obs)
        gap = abs(tight.free_energy - (-log_ev))
        assert gap < 1e-8
        worst_gap = max(worst_gap, gap)
    # the bound must also survive models whose posterior q cannot represent
    for _ in range(100):
        m = random_model(rng, num_factors=2)
        obs = random_observation(rng, m)
        _, log_ev = exact_posterior(m, obs)
        q = random_belief(rng, m)
        bound = variational_free_energy(q, m, obs)
        assert bound.free_energy >= -log_ev - 1e-9
        min_margin = min(min_margin, bound.free_energy + log_ev)
    print(
        f"ACCEPTANCE 1 PASS: F >= -ln p(o) on 300 models "
        f"(smallest margin {min_margin:.2e}), posterior gap <= {worst_gap:.2e}"
    )


def test_criterion_2_decomposition_identities():
    """F = complexity - accuracy; G = risk + ambiguity = -info_gain - pragmatic,
    with info_gain checked against the Bayes-route oracle."""
    rng = np.random.default_rng(202)
    worst_f = 0.0
    worst_g = 0.0
    worst_ig = 0.0
    for _ in range(500):
        m = random_model(rng)
        obs = random_observation(rng, m)
        q = random_belief(rng, m)
        rep = variational_free_energy(q, m, obs)
        err_f = abs(rep.free_energy - (rep.complexity - rep.accuracy))
        assert err_f < 1e-10
        worst_f = max(worst_f, err_f)

        belief = random_belief(rng, m)
        policy = m.policies[int(rng.integers(len(m.policies)))]
        efe = expected_free_energy(m, belief, policy)
        err_ig = abs(efe.info_gain - policy_info_gain(m, belief, policy))
        assert err_ig < 1e-10
        worst_ig = max(worst_ig, err_ig)
        err_g = max(
            abs(efe.G - (efe.risk + efe.ambiguity)),
            abs((efe.risk + efe.ambiguity) - (-efe.info_gain - efe.pragmatic)),
        )
        assert err_g < 1e-10
        worst_g = max(worst_g, err_g)
    print(
        f"ACCEPTANCE 2 PASS: 500 models, max |F-(cplx-acc)| {worst_f:.2e}, "
        f"max decomposition gap {worst_g:.2e}, max info_gain gap to oracle {worst_ig:.2e}"
    )


def test_criterion_3_oracle_equivalence():
    """Mean field matches enumeration where exact; sum-product matches it on trees."""
    rng = np.random.default_rng(303)
    worst_mf = 0.0
    for _ in range(100):
        m = random_model(rng, num_factors=1, max_states=6, max_outcomes=4)
        obs = random_observation(rng, m)
        marginals, _ = oracle_enumerate(m, obs)
        result = infer_states(m, obs)
        err = float(np.abs(result.belief.factors[0].probs - marginals[0]).sum())
        assert err < 1e-6
        worst_mf = max(worst_mf, err)

    worst_bp = 0.0
    for _ in range(50):
        g = random_tree_graph(rng)
        expected = oracle_marginals(g)
        got = sum_product(g)
        for vid, probs in expected.items():
            err = float(np.abs(got.marginals[vid].probs - probs).sum())
            assert err < 1e-10
            worst_bp = max(worst_bp, err)
    print(
        f"ACCEPTANCE 3 PASS: mean-field max L1 {worst_mf:.2e} (100 models), "
        f"sum-product max L1 {worst_bp:.2e} (50 trees)"
    )


def test_criterion_4_rl_special_case():
    """With the epistemic term pinned, EFE ranking is expected-utility ranking."""
    rng = np.random.default_rng(404)
    for i in range(100):
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
        assert int(np.argmin([r.G for r in reports])) == int(
            np.argmax([r.pragmatic for r in reports])
        )
    print("ACCEPTANCE 4 PASS: argmin G == argmax pragmatic on 100 constant-gain instances")


def test_criterion_5_collective_inference():
    """Sharing reaches the pooled posterior immediately and synchronizes."""
    shared = run_collective(
        ExperimentConfig(scenario="elephant", agents=3, steps=3, seed=0, noise=0.0)
    )
    first_round_obs = [(traj.records[0].obs[0], traj.records[0].obs[1]) for traj in shared.trajectories]
    pooled = pooled_elephant_posterior(first_round_obs, noise=0.0)
    worst = 0.0
    for traj in shared.trajectories:
        err = float(np.abs(traj.records[0].beliefs[0] - pooled.probs).sum())
        assert err < 1e-6
        worst = max(worst, err)

    series = shared.synchrony_series
    assert series[2] <= 1e-6
    assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    solo = run_collective(
        ExperimentConfig(scenario="elephant", agents=3, steps=3, seed=0, noise=0.0, k=0)
    )
    true_what = solo.extras["true_what"]
    solo_max = max(
        traj.records[-1].beliefs[0][true_what] for traj in solo.trajectories
    )
    shared_min = min(
        traj.records[-1].beliefs[0][true_what] for traj in shared.trajectories
    )
    assert solo_max <= 0.6
    assert shared_min >= 0.95
    print(
        f"ACCEPTANCE 5 PASS: pooled gap {worst:.2e}, synchrony by round 3 "
        f"{series[2]:.2e}, solo true-state belief {solo_max:.3f} <= 0.6, "
        f"collective {shared_min:.3f} >= 0.95"
    )


def test_criterion_6_curiosity_behavior():
    """Default preferences: cue first, then the right arm. Flat preferences:
    the arm choice loses its bias."""
    cue_first = 0
    resolved = 0
    for seed in range(100):
        r = run_single_agent(ExperimentConfig(scenario="tmaze", steps=2, seed=seed))
        acts = r.extras["actions"]
        side = r.extras["reward_side"]
        good = TMAZE_LEFT if side == 0 else TMAZE_RIGHT
        if acts[0] == TMAZE_CUE:
            cue_first += 1
            if acts[1] == good:
                resolved += 1
    assert cue_first >= 95

    flat = build_tmaze_model(preferences=[0.0, 0.0, 0.0])
    arms = {TMAZE_LEFT: 0, TMAZE_RIGHT: 0}
    for seed in range(100):
        r = run_single_agent(
            ExperimentConfig(scenario="tmaze", steps=2, seed=seed), model=flat
        )
        arm = next((l for l in r.extras["locations"] if l in arms), None)
        if arm is not None:
            arms[arm] += 1
    total = arms[TMAZE_LEFT] + arms[TMAZE_RIGHT]
    left_share = arms[TMAZE_LEFT] / total
    assert 0.4 <= left_share <= 0.6
    print(
        f"ACCEPTANCE 6 PASS: cue-before-arm {cue_first}/100 (correct arm after "
        f"{resolved}), flat-preference arm split {arms[TMAZE_LEFT]}/{arms[TMAZE_RIGHT]} "
        f"(left share {left_share:.2f})"
    )


def test_criterion_7_protocol_robustness(tmp_path):
    """Codec totality and CRC integrity; transports interchangeable bit-for-bit."""
    rng = np.random.default_rng(707)
    for _ in range(1000):
        msg = random_message(rng)
        buf = encode_message(msg)
        back = decode_message(buf)
        assert back == msg
        assert encode_message(back) == buf

    seeds = [encode_message(random_message(rng)) for _ in range(25)]
    crashes = 0
    for i in range(100_000):
        mode = i % 3
        if mode == 0:
            buf = rng.bytes(int(rng.integers(0, 150)))
        elif mode == 1:
            base = seeds[int(rng.integers(len(seeds)))]
            buf = base[: int(rng.integers(0, len(base) + 1))]
        else:
            base = bytearray(seeds[int(rng.integers(len(seeds)))])
            for _ in range(int(rng.integers(1, 6))):
                base[int(rng.integers(len(base)))] ^= 1 << int(rng.integers(8))
            buf = bytes(base)
        try:
            decode_message(buf)
        except DecodeError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0

    detected = 0
    flips = 200
    for _ in range(flips):
        base = bytearray(seeds[int(rng.integers(len(seeds)))])
        base[int(rng.integers(len(base)))] ^= 1 << int(rng.integers(8))
        with pytest.raises(DecodeError):
            decode_message(bytes(base))
        detected += 1
    assert detected == flips

    cfg = dict(scenario="elephant", agents=3, steps=3, seed=19, noise=0.2)
    mem_dir, sock_dir = tmp_path / "mem", tmp_path / "sock"
    write_logs(run_collective(ExperimentConfig(**cfg, transport="mem")), mem_dir)
    write_logs(run_collective(ExperimentConfig(**cfg, transport="socket")), sock_dir)
    for i in range(3):
        name = f"agent{i}.csv"
        assert (mem_dir / name).read_bytes() == (sock_dir / name).read_bytes()
    print(
        "ACCEPTANCE 7 PASS: 1000 bit-exact roundtrips, 100000 fuzz buffers with "
        f"0 crashes, {detected}/{flips} bit flips detected, mem == socket logs"
    )


def test_criterion_8_learning_convergence():
    """Expected Dirichlet parameters approach the generating tensors."""
    rng = np.random.default_rng(14)
    true_a = rng.dirichlet(np.full(3, 0.5), size=2).T
    counts = DirichletCounts(np.ones((3, 2)))
    for i in range(1000):
        s = i % 2
        o = int(rng.choice(3, p=true_a[:, s]))
        counts = update_likelihood_counts(
            counts, o, BeliefState((Categorical.delta(s, 2),))
        )
    a_err = float(np.abs(dirichlet_mean(counts) - true_a).sum(axis=0).max())
    assert a_err <= 0.05

    true_b = rng.dirichlet(np.full(2, 0.5), size=(2, 1)).transpose(2, 0, 1)
    bcounts = DirichletCounts(np.ones((2, 2, 1)))
    for i in range(1000):
        s = i % 2
        nxt = int(rng.choice(2, p=true_b[:, s, 0]))
        bcounts = update_transition_counts(
            bcounts, Categorical.delta(s, 2), Categorical.delta(nxt, 2), 0
        )
    b_err = float(np.abs(dirichlet_mean(bcounts) - true_b).sum(axis=0).max())
    assert b_err <= 0.05
    print(
        f"ACCEPTANCE 8 PASS: after 1000 updates, likelihood max column L1 "
        f"{a_err:.4f} and transition max column L1 {b_err:.4f} (<= 0.05)"
    )
