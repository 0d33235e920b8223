"""Runner behavior: determinism, logged quantities, sharing effects, logs."""

import csv
import dataclasses
import json
import math
import threading

import numpy as np
import pytest

from beliefmesh.config import ExperimentConfig, config_from_dict
from beliefmesh.core import BeliefState, Categorical, DimMismatchError, Policy
from beliefmesh.envs import (
    ELEPHANT,
    TMAZE_CUE,
    TMAZE_LEFT,
    TMAZE_RIGHT,
    build_elephant_model,
    build_tmaze_model,
)
from beliefmesh import harness
from beliefmesh.harness import (
    AgentTrajectory,
    RunResult,
    _action_prior,
    mean_pairwise_synchrony,
    run_collective,
    run_experiment,
    run_single_agent,
    write_logs,
)
from beliefmesh.net import MemoryBus, SpatialAddress, decode_message, encode_message, transport
from beliefmesh.planning import expected_free_energy, expected_states
import collective_reference


def tmaze_cfg(**kw):
    base = dict(scenario="tmaze", steps=2, seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def elephant_cfg(**kw):
    base = dict(scenario="elephant", agents=3, steps=3, seed=0, noise=0.0)
    base.update(kw)
    return ExperimentConfig(**base)


def pair_synchrony(p, q) -> float:
    return mean_pairwise_synchrony([p, q])


class TestSynchrony:
    def test_identical_beliefs_score_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert pair_synchrony(p, p) == 0.0

    def test_disjoint_deltas_score_ln_two(self):
        assert pair_synchrony(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_symmetric_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert pair_synchrony(p, q) == pytest.approx(pair_synchrony(q, p), abs=1e-15)
            assert pair_synchrony(p, q) == max(0.0, collective_reference.js_divergence(p, q))

    def test_accepts_categoricals_and_rejects_dim_mismatch(self):
        assert pair_synchrony(Categorical.uniform(3), Categorical.uniform(3)) == 0.0
        with pytest.raises(DimMismatchError):
            pair_synchrony(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))

    def test_hand_value_for_disjoint_overlap(self):
        # JS([.5,.5,0], [.5,0,.5]): each KL to the midpoint is .5 ln 2
        got = pair_synchrony(np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.0, 0.5]))
        assert got == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_mean_pairwise_averages_all_pairs(self):
        beliefs = [
            np.array([0.5, 0.5, 0.0]),
            np.array([0.5, 0.0, 0.5]),
            np.array([0.5, 0.5, 0.0]),
        ]
        expected = (0.5 * math.log(2) + 0.0 + 0.5 * math.log(2)) / 3
        assert mean_pairwise_synchrony(beliefs) == pytest.approx(expected, abs=1e-12)

    def test_single_belief_scores_zero(self):
        assert mean_pairwise_synchrony([np.array([1.0, 0.0])]) == 0.0


class TestSynchronyAgainstReference:
    """The array-op synchrony equals the pair-by-pair reference with ==."""

    @pytest.mark.parametrize("n", range(13))
    def test_random_beliefs_with_zero_entries(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(30):
            d = int(rng.integers(1, 10))
            beliefs = []
            for _ in range(n):
                p = rng.dirichlet(np.full(d, 10.0 ** rng.uniform(-2, 1)))
                p[rng.random(d) < 0.3] = 0.0
                p[int(rng.integers(d))] += 1e-3
                beliefs.append(p / p.sum())
            if n and rng.random() < 0.2:
                beliefs[-1] = beliefs[0]
            got = mean_pairwise_synchrony(beliefs)
            assert got == collective_reference.mean_pairwise_synchrony(beliefs)

    def test_midpoint_underflow_scores_inf_like_the_reference(self):
        # 0.5 * (5e-324 + 0) rounds to 0: KL puts q > 0 on a zero midpoint
        beliefs = [np.array([1.0, 5e-324]), np.array([1.0, 0.0]), np.array([0.5, 0.5])]
        assert collective_reference.mean_pairwise_synchrony(beliefs) == math.inf
        assert mean_pairwise_synchrony(beliefs) == math.inf

    @pytest.mark.parametrize(
        "kw",
        [
            dict(agents=3, noise=0.1),
            dict(agents=7, noise=0.2, k=2, seed=4),
            dict(agents=12, noise=0.25, k=0, seed=2),
            dict(agents=12, noise=0.1, k=5, seed=1),
        ],
    )
    def test_beliefs_of_real_rounds(self, kw):
        r = run_collective(elephant_cfg(steps=4, **kw))
        for t, logged in enumerate(r.synchrony_series):
            beliefs = [traj.records[t].beliefs[0] for traj in r.trajectories]
            want = collective_reference.mean_pairwise_synchrony(beliefs)
            assert mean_pairwise_synchrony(beliefs) == want
            assert logged == want

    @pytest.mark.parametrize(
        "beliefs",
        [
            [np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])],
            [[0.5, 0.5], [0.2, 0.3, 0.5], [1.0, 0.0]],  # ragged: np.asarray would raise ValueError
            [Categorical.uniform(2), Categorical.uniform(2), Categorical.uniform(4)],
            [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])],
            [np.array([]), np.array([])],
        ],
    )
    def test_bad_beliefs_raise_dim_mismatch(self, beliefs):
        with pytest.raises(DimMismatchError):
            collective_reference.mean_pairwise_synchrony(beliefs)
        with pytest.raises(DimMismatchError):
            mean_pairwise_synchrony(beliefs)


class TestHelpers:
    def test_action_prior_marginalizes_policy_prior(self):
        m = build_tmaze_model()
        actions = [(u, 0) for u in range(4)]
        np.testing.assert_allclose(_action_prior(m, actions), np.full(4, 0.25))

    def test_transition_prior_applies_controlled_dynamics(self):
        m = build_tmaze_model()
        belief = BeliefState((Categorical.delta(0, 4), Categorical(np.array([0.3, 0.7]))))
        (out,) = expected_states(m, belief, Policy(((TMAZE_CUE, 0),)))
        np.testing.assert_allclose(out.factors[0].probs, np.eye(4)[TMAZE_CUE])
        np.testing.assert_allclose(out.factors[1].probs, [0.3, 0.7])


class TestSingleAgent:
    def test_rejects_wrong_scenario(self):
        with pytest.raises(ValueError, match="tmaze"):
            run_single_agent(elephant_cfg())

    def test_same_seed_reproduces_bitwise(self):
        a = run_single_agent(tmaze_cfg(seed=5))
        b = run_single_agent(tmaze_cfg(seed=5))
        assert a.extras == b.extras
        for ra, rb in zip(a.trajectories[0].records, b.trajectories[0].records):
            assert ra.action == rb.action
            assert ra.obs == rb.obs
            assert ra.free_energy == rb.free_energy
            for xa, xb in zip(ra.beliefs, rb.beliefs):
                np.testing.assert_array_equal(xa, xb)

    def test_seed_one_goes_cue_then_correct_arm(self):
        r = run_single_agent(tmaze_cfg(seed=1))
        acts = r.extras["actions"]
        side = r.extras["reward_side"]
        good = TMAZE_LEFT if side == 0 else TMAZE_RIGHT
        assert acts[0] == TMAZE_CUE
        assert acts[1] == good
        assert r.extras["final_location"] == good

    def test_side_posterior_collapses_after_cue_visit(self):
        r = run_single_agent(tmaze_cfg(seed=1))
        t0, t1 = r.trajectories[0].records
        np.testing.assert_allclose(t0.beliefs[1], [0.5, 0.5], atol=1e-9)
        assert t1.beliefs[1].max() > 1.0 - 1e-9

    def test_free_energy_and_efe_are_finite(self):
        for seed in range(5):
            r = run_single_agent(tmaze_cfg(seed=seed, steps=3))
            for rec in r.trajectories[0].records:
                assert math.isfinite(rec.free_energy)
                assert math.isfinite(rec.efe.G)
                assert rec.efe.G == pytest.approx(rec.efe.risk + rec.efe.ambiguity, abs=1e-10)

    def test_records_cover_every_step(self):
        r = run_single_agent(tmaze_cfg(steps=4))
        assert [rec.t for rec in r.trajectories[0].records] == [0, 1, 2, 3]
        assert len(r.extras["actions"]) == 4

    def test_observation_at_t0_is_the_reset_observation(self):
        r = run_single_agent(tmaze_cfg())
        assert r.trajectories[0].records[0].obs == (0, 0, 0)

    def test_every_policy_gets_an_efe_report(self):
        r = run_single_agent(tmaze_cfg())
        rec = r.trajectories[0].records[0]
        assert len(rec.policy_efes) == 4
        # the chosen action's report is the matching single-step policy's
        idx = rec.action[0]
        assert rec.efe.G == pytest.approx(rec.policy_efes[idx].G, abs=1e-12)

    def test_logged_reports_are_the_planners_root_reports(self):
        m = build_tmaze_model()
        for depth in (1, 4):
            r = run_single_agent(tmaze_cfg(seed=3, steps=3, depth=depth))
            for rec in r.trajectories[0].records:
                assert rec.efe is rec.policy_efes[rec.action[0]]
                belief = BeliefState(tuple(Categorical(b) for b in rec.beliefs))
                for u, report in enumerate(rec.policy_efes):
                    assert report == expected_free_energy(m, belief, Policy(((u, 0),)))

    def test_tiny_gamma_recovers_the_policy_prior(self):
        r = run_single_agent(tmaze_cfg(gamma=1e-12))
        for rec in r.trajectories[0].records:
            np.testing.assert_allclose(rec.action_probs, np.full(4, 0.25), atol=1e-9)


class TestCollective:
    def test_rejects_wrong_scenario(self):
        with pytest.raises(ValueError, match="elephant"):
            run_collective(tmaze_cfg())

    def test_sharing_reaches_the_pooled_belief_in_one_round(self):
        r = run_collective(elephant_cfg())
        for traj in r.trajectories:
            np.testing.assert_allclose(traj.records[0].beliefs[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_sharing_synchrony_is_zero_from_the_start(self):
        r = run_collective(elephant_cfg())
        assert all(s <= 1e-12 for s in r.synchrony_series)

    def test_without_sharing_agents_stay_ambiguous(self):
        r = run_collective(elephant_cfg(k=0, steps=4))
        finals = [traj.records[-1].beliefs[0] for traj in r.trajectories]
        np.testing.assert_allclose(finals[0], [0.5, 0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(finals[1], [0.5, 0.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(finals[2], [0.5, 0.5, 0.0], atol=1e-12)
        expected = 2 * (0.5 * math.log(2)) / 3
        assert r.synchrony_series[-1] == pytest.approx(expected, abs=1e-12)

    def test_k_one_picks_the_complementary_vantage_point(self):
        """Agent 0 shares a feature pattern with agent 2, so with one pick it
        must fuse agent 1's view, which resolves the scene."""
        r = run_collective(elephant_cfg(k=1))
        np.testing.assert_allclose(
            r.trajectories[0].records[0].beliefs[0], [1.0, 0.0, 0.0], atol=1e-12
        )

    def test_same_seed_reproduces_bitwise(self):
        a = run_collective(elephant_cfg(noise=0.25, seed=3, steps=4))
        b = run_collective(elephant_cfg(noise=0.25, seed=3, steps=4))
        assert a.synchrony_series == b.synchrony_series
        for ta, tb in zip(a.trajectories, b.trajectories):
            for ra, rb in zip(ta.records, tb.records):
                assert ra.obs == rb.obs
                for xa, xb in zip(ra.beliefs, rb.beliefs):
                    np.testing.assert_array_equal(xa, xb)

    def test_socket_transport_matches_memory_transport_bitwise(self):
        mem = run_collective(elephant_cfg(noise=0.2, seed=11, steps=3))
        sock = run_collective(elephant_cfg(noise=0.2, seed=11, steps=3, transport="socket"))
        for ta, tb in zip(mem.trajectories, sock.trajectories):
            for ra, rb in zip(ta.records, tb.records):
                assert ra.free_energy == rb.free_energy
                for xa, xb in zip(ra.beliefs, rb.beliefs):
                    np.testing.assert_array_equal(xa, xb)
        assert mem.extras["decode_errors"] == [0, 0, 0]
        assert sock.extras["decode_errors"] == [0, 0, 0]

    def test_foreign_origin_is_ignored_and_the_run_finishes(self, tmp_path, monkeypatch):
        class ForeignBus(MemoryBus):
            """Delivers each frame, then a copy signed by room/agent-x."""

            def _deliver(self, sender, frame):
                super()._deliver(sender, frame)
                stranger = SpatialAddress(("room", "agent-x"))
                copy = dataclasses.replace(decode_message(frame), origin=stranger)
                super()._deliver(sender, encode_message(copy))

        cfg = elephant_cfg(noise=0.2, seed=11, steps=3)
        write_logs(run_collective(cfg), tmp_path / "clean")
        monkeypatch.setattr(harness, "MemoryBus", ForeignBus)
        write_logs(run_collective(cfg), tmp_path / "foreign")
        for name in ("agent0.csv", "agent1.csv", "agent2.csv", "manifest.json"):
            clean = (tmp_path / "clean" / name).read_bytes()
            assert (tmp_path / "foreign" / name).read_bytes() == clean

    def test_free_energy_is_finite_even_with_hard_zeros(self):
        for cfg in (elephant_cfg(), elephant_cfg(k=0)):
            r = run_collective(cfg)
            for traj in r.trajectories:
                for rec in traj.records:
                    assert math.isfinite(rec.free_energy)

    def test_failed_connect_closes_the_hub_and_the_endpoints_opened(self, monkeypatch):
        opened = []

        class FailingEndpoint(transport.SocketEndpoint):
            def __init__(self, address, name=""):
                if len(opened) == 2:
                    raise OSError(24, "Too many open files")
                super().__init__(address, name)
                opened.append(self)

        threads = threading.active_count()
        monkeypatch.setattr(transport, "SocketEndpoint", FailingEndpoint)
        with pytest.raises(OSError, match="Too many open files"):
            run_collective(elephant_cfg(agents=4, transport="socket"))
        assert threading.active_count() == threads
        assert len(opened) == 2
        assert all(ep._sock.fileno() == -1 for ep in opened)

    def test_solo_socket_run_opens_one_hub_and_matches_mem(self, tmp_path, monkeypatch):
        hubs = []

        class CountingHub(harness.SocketHub):
            def __init__(self):
                super().__init__()
                hubs.append(self)

        monkeypatch.setattr(harness, "SocketHub", CountingHub)
        sock = run_collective(elephant_cfg(agents=4, k=0, noise=0.2, transport="socket"))
        assert len(hubs) == 1
        assert sock.extras["decode_errors"] == [0] * 4
        mem = run_collective(elephant_cfg(agents=4, k=0, noise=0.2))
        got = write_logs(sock, tmp_path / "socket")
        want = write_logs(mem, tmp_path / "mem")
        csvs = [(p.name, p.read_bytes()) for p in want if p.suffix == ".csv"]
        assert [(p.name, p.read_bytes()) for p in got if p.suffix == ".csv"] == csvs

    def test_more_agents_than_locations_wraps_vantage_points(self):
        r = run_collective(elephant_cfg(agents=5, steps=2))
        assert r.extras["locations"] == [0, 1, 2, 0, 1]
        for traj in r.trajectories:
            np.testing.assert_allclose(traj.records[0].beliefs[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_one_model_per_vantage_point(self, monkeypatch):
        built = []

        def build(location, noise):
            built.append(location)
            return build_elephant_model(location, noise=noise)

        monkeypatch.setattr(harness, "build_elephant_model", build)
        run_collective(elephant_cfg(agents=7, steps=1))
        assert built == [0, 1, 2]

    def test_solo_posteriors_miss_the_pooled_truth_by_wide_margin(self):
        from beliefmesh.envs import pooled_elephant_posterior

        r = run_collective(elephant_cfg(k=0))
        obs = [(traj.records[0].obs[0], traj.records[0].obs[1]) for traj in r.trajectories]
        pooled = pooled_elephant_posterior(obs, noise=0.0)
        gaps = [
            np.abs(traj.records[-1].beliefs[0] - pooled.probs).sum()
            for traj in r.trajectories
        ]
        assert max(gaps) > 0.1


class TestCollectiveAgainstReference:
    """Whole runs against collective_reference.run_collective, byte for byte
    in the logs; noise 0 takes the floored-evidence path."""

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.3, 0.5])
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_logs_match_the_reference_run(self, tmp_path, n, noise):
        variants = [dict(transport=t, k=k) for t in ("mem", "socket") for k in (0, 1, None)]
        for i, variant in enumerate(variants):
            cfg = elephant_cfg(agents=n, steps=4, noise=noise, **variant)
            got = write_logs(run_collective(cfg), tmp_path / f"got{i}")
            want = write_logs(collective_reference.run_collective(cfg), tmp_path / f"want{i}")
            assert [(p.name, p.read_bytes()) for p in got] == [
                (p.name, p.read_bytes()) for p in want
            ], variant


class TestLogs:
    def test_write_logs_produces_csv_per_agent_and_manifest(self, tmp_path):
        r = run_collective(elephant_cfg())
        paths = write_logs(r, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["agent0.csv", "agent1.csv", "agent2.csv", "manifest.json"]

    def test_csv_layout_and_float_round_trip(self, tmp_path):
        r = run_single_agent(tmaze_cfg())
        write_logs(r, tmp_path)
        with (tmp_path / "agent0.csv").open() as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:2] == ["t", "factor"]
        assert header[2:6] == ["b0", "b1", "b2", "b3"]
        assert header[6:] == [
            "free_energy", "G", "risk", "ambiguity", "info_gain", "pragmatic", "action", "obs",
        ]
        # two steps x two factors
        assert len(body) == 4
        rec = r.trajectories[0].records[0]
        first = body[0]
        assert first[0] == "0" and first[1] == "0"
        assert float(first[6]) == rec.free_energy
        assert float(first[7]) == rec.efe.G
        assert first[12] == "3|0"
        assert first[13] == "0|0|0"
        # the side factor row pads beliefs and leaves step columns empty
        side = body[1]
        assert side[1] == "1"
        assert side[4] == "" and side[6] == ""

    def test_reruns_write_identical_bytes(self, tmp_path):
        cfg = elephant_cfg(noise=0.3, seed=21, out_dir=None)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_logs(run_collective(cfg), a_dir)
        write_logs(run_collective(cfg), b_dir)
        for name in ("agent0.csv", "agent1.csv", "agent2.csv", "manifest.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_tmaze_reruns_write_identical_bytes(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_logs(run_single_agent(tmaze_cfg(seed=13, steps=3)), a_dir)
        write_logs(run_single_agent(tmaze_cfg(seed=13, steps=3)), b_dir)
        for name in ("agent0.csv", "manifest.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        r = run_collective(elephant_cfg(seed=2))
        write_logs(r, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["scenario"] == "elephant"
        assert manifest["config"]["seed"] == 2
        assert manifest["agents"] == 3
        assert manifest["final_mean_pairwise_synchrony"] == r.synchrony_series[-1]
        assert manifest["extras"]["true_what"] == ELEPHANT

    @pytest.mark.parametrize(
        "a, b",
        [
            (dict(scenario="tmaze", gamma=4), dict(scenario="tmaze", gamma=4.0)),
            (
                dict(scenario="tmaze", prune_threshold=0),
                dict(scenario="tmaze", prune_threshold=0.0),
            ),
            (dict(scenario="elephant", noise=0), dict(scenario="elephant", noise=0.0)),
            (dict(scenario="elephant"), dict(scenario="elephant", agents=3)),
        ],
    )
    def test_equal_configs_write_identical_manifests(self, tmp_path, a, b):
        cfg_a, cfg_b = ExperimentConfig(**a, steps=1), ExperimentConfig(**b, steps=1)
        assert cfg_a == cfg_b
        write_logs(run_experiment(cfg_a), tmp_path / "a")
        write_logs(run_experiment(cfg_b), tmp_path / "b")
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "fields",
        [
            dict(scenario="tmaze", steps=2, seed=3, depth=3, gamma=4.0),
            dict(scenario="elephant", agents=4, steps=3, seed=1, k=2, noise=0.2),
            dict(scenario="elephant", steps=2, seed=2, transport="socket"),
        ],
    )
    def test_the_manifest_config_replays_the_run(self, tmp_path, fields):
        first = run_experiment(ExperimentConfig(**fields, out_dir=str(tmp_path / "first")))
        logged = json.loads(first.logs[-1].read_text())["config"]
        replay_cfg = config_from_dict({**logged, "out_dir": str(tmp_path / "replay")})
        assert replay_cfg == ExperimentConfig(**fields, out_dir=str(tmp_path / "replay"))
        replay = run_experiment(replay_cfg)
        # the manifests too: where the logs went is not part of the run
        assert [(p.name, p.read_bytes()) for p in replay.logs] == [
            (p.name, p.read_bytes()) for p in first.logs
        ]

    def test_tmaze_manifest_has_no_synchrony(self, tmp_path):
        r = run_single_agent(tmaze_cfg())
        write_logs(r, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["final_mean_pairwise_synchrony"] is None


class TestRunExperiment:
    def test_dispatch_and_log_writing(self, tmp_path):
        out = tmp_path / "run"
        cfg = ExperimentConfig(scenario="tmaze", steps=2, seed=1, out_dir=str(out))
        result = run_experiment(cfg)
        assert isinstance(result, RunResult)
        assert result.logs == (out / "agent0.csv", out / "manifest.json")
        assert all(path.exists() for path in result.logs)

    def test_no_out_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_experiment(ExperimentConfig(scenario="tmaze", steps=1, seed=0))
        assert list(tmp_path.iterdir()) == []
        assert result.logs == ()
