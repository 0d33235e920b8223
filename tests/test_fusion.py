"""Fusion exactness, associativity, and information-gain source selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefmesh.core import Categorical, DimMismatchError, GenerativeModel, Policy
from beliefmesh.envs import build_elephant_model
from beliefmesh.inference import exact_posterior
from beliefmesh.net import (
    BeliefMessage,
    KTooLargeError,
    SpatialAddress,
    expected_info_gain_of_source,
    fuse_evidence,
    select_sources,
)
import collective_reference
from info_gain_reference import source_info_gain


def msg(log_evidence, precision=1.0, who="x"):
    return BeliefMessage(
        origin=SpatialAddress((who,)),
        factor_id=0,
        log_evidence=np.asarray(log_evidence, dtype=float),
        precision=precision,
    )


def random_likelihood(rng, n_out, n_states):
    return rng.dirichlet(np.ones(n_out), size=n_states).T


@st.composite
def fusion_cases(draw, max_dim=5, max_msgs=5):
    d = draw(st.integers(2, max_dim))
    weights = draw(
        st.lists(st.floats(1e-3, 1e3, allow_nan=False), min_size=d, max_size=d)
    )
    prior = Categorical(np.array(weights) / np.sum(weights))
    n = draw(st.integers(0, max_msgs))
    msgs = [
        msg(
            draw(st.lists(st.floats(-30, 30, allow_nan=False), min_size=d, max_size=d)),
            precision=draw(st.floats(0, 8, allow_nan=False)),
            who=f"m{i}",
        )
        for i in range(n)
    ]
    return prior, msgs


class TestFuseEvidence:
    def test_two_agreeing_messages(self):
        prior = Categorical.uniform(2)
        evidence = np.log([0.9, 0.1])
        fused = fuse_evidence(prior, [msg(evidence, who="a"), msg(evidence, who="b")])
        np.testing.assert_allclose(fused.probs, [81 / 82, 1 / 82], atol=1e-12)

    def test_empty_fusion_returns_prior(self):
        prior = Categorical(np.array([0.3, 0.7]))
        fused = fuse_evidence(prior, [])
        np.testing.assert_allclose(fused.probs, prior.probs, atol=1e-15)

    def test_zero_precision_message_is_inert(self):
        prior = Categorical(np.array([0.3, 0.7]))
        fused = fuse_evidence(prior, [msg(np.log([0.99, 0.01]), precision=0.0)])
        np.testing.assert_allclose(fused.probs, prior.probs, atol=1e-15)

    def test_own_evidence_only(self):
        prior = Categorical.uniform(2)
        fused = fuse_evidence(prior, [], own_log_evidence=np.log([0.9, 0.1]))
        np.testing.assert_allclose(fused.probs, [0.9, 0.1], atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(61)
        prior = Categorical(rng.dirichlet(np.ones(4)))
        msgs = [
            msg(rng.normal(0, 2, size=4), precision=float(rng.uniform(0, 3)), who=f"m{i}")
            for i in range(5)
        ]
        a = fuse_evidence(prior, msgs)
        b = fuse_evidence(prior, msgs[::-1])
        c = fuse_evidence(prior, [msgs[3], msgs[0], msgs[4], msgs[2], msgs[1]])
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)
        np.testing.assert_allclose(a.probs, c.probs, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(67)
        prior = Categorical(rng.dirichlet(np.ones(3)))
        m1 = msg(rng.normal(size=3), who="a")
        m2 = msg(rng.normal(size=3), who="b")
        joint = fuse_evidence(prior, [m1, m2])
        staged = fuse_evidence(fuse_evidence(prior, [m1]), [m2])
        np.testing.assert_allclose(joint.probs, staged.probs, atol=1e-12)

    def test_matches_pooled_model_posterior(self):
        # two agents with private readouts of one shared factor: fusing B's
        # message into A's evidence equals one agent owning both observations
        rng = np.random.default_rng(71)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            prior = Categorical(rng.dirichlet(np.ones(d)))
            la = random_likelihood(rng, int(rng.integers(2, 4)), d)
            lb = random_likelihood(rng, int(rng.integers(2, 4)), d)
            oa = int(rng.integers(la.shape[0]))
            ob = int(rng.integers(lb.shape[0]))
            fused = fuse_evidence(
                prior,
                [msg(np.log(lb[ob]), who="b")],
                own_log_evidence=np.log(la[oa]),
            )
            pooled = GenerativeModel(
                factor_dims=(d,),
                modality_dims=(la.shape[0], lb.shape[0]),
                A=(la.reshape(la.shape[0], d), lb.reshape(lb.shape[0], d)),
                B=(np.eye(d)[:, :, None],),
                C=(np.zeros(la.shape[0]), np.zeros(lb.shape[0])),
                D=(prior,),
                E=Categorical.uniform(1),
                policies=(Policy(((0,),)),),
            )
            exact, _ = exact_posterior(pooled, (oa, ob))
            np.testing.assert_allclose(fused.probs, exact.factors[0].probs, atol=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            fuse_evidence(Categorical.uniform(2), [msg(np.zeros(3))])
        with pytest.raises(DimMismatchError):
            fuse_evidence(Categorical.uniform(2), [], own_log_evidence=np.zeros(3))


class TestFusionProperties:
    @settings(max_examples=150, deadline=None)
    @given(fusion_cases(), st.data())
    def test_sender_order_never_matters(self, case, data):
        prior, msgs = case
        shuffled = data.draw(st.permutations(msgs))
        a = fuse_evidence(prior, msgs)
        b = fuse_evidence(prior, shuffled)
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(fusion_cases())
    def test_result_is_always_a_distribution(self, case):
        prior, msgs = case
        fused = fuse_evidence(prior, msgs)
        assert np.all(fused.probs >= 0)
        assert np.sum(fused.probs) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(fusion_cases(), st.data())
    def test_zero_precision_messages_are_always_inert(self, case, data):
        prior, msgs = case
        dead = msg(
            data.draw(st.lists(st.floats(-30, 30), min_size=prior.dim, max_size=prior.dim)),
            precision=0.0,
            who="dead",
        )
        with_dead = fuse_evidence(prior, [*msgs, dead])
        without = fuse_evidence(prior, msgs)
        np.testing.assert_allclose(with_dead.probs, without.probs, atol=1e-12)


class TestExpectedInfoGain:
    def test_identity_source_resolves_everything(self):
        gain = expected_info_gain_of_source(Categorical.uniform(2), np.eye(2))
        assert gain == pytest.approx(np.log(2.0), abs=1e-12)

    def test_uniform_source_is_useless(self):
        gain = expected_info_gain_of_source(Categorical.uniform(2), np.full((3, 2), 1 / 3))
        assert gain == pytest.approx(0.0, abs=1e-12)

    def test_no_gain_without_uncertainty(self):
        belief = Categorical(np.array([1.0, 0.0]))
        rng = np.random.default_rng(73)
        gain = expected_info_gain_of_source(belief, random_likelihood(rng, 3, 2))
        assert gain == pytest.approx(0.0, abs=1e-12)

    def test_two_routes_to_mutual_information(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            belief = Categorical(rng.dirichlet(np.ones(d)))
            lk = random_likelihood(rng, int(rng.integers(2, 5)), d)
            entropic = expected_info_gain_of_source(belief, lk)
            bayes = source_info_gain(belief, lk)
            assert entropic == pytest.approx(bayes, abs=1e-10)

    def test_rejects_non_stochastic_columns(self):
        with pytest.raises(ValueError):
            expected_info_gain_of_source(Categorical.uniform(2), np.ones((2, 2)))


class TestSelectSources:
    def test_informative_beats_uniform(self):
        sources = [(7, np.full((2, 2), 0.5)), (3, np.eye(2))]
        assert select_sources(Categorical.uniform(2), sources, k=1) == [3]

    def test_k_equals_all(self):
        sources = [(1, np.eye(2)), (2, np.full((2, 2), 0.5))]
        assert set(select_sources(Categorical.uniform(2), sources, k=2)) == {1, 2}

    def test_ties_break_to_lower_id(self):
        sources = [(9, np.eye(2)), (4, np.eye(2))]
        assert select_sources(Categorical.uniform(2), sources, k=1) == [4]

    def test_descending_order(self):
        noisy = np.array([[0.8, 0.2], [0.2, 0.8]])
        sources = [(1, noisy), (2, np.eye(2)), (3, np.full((2, 2), 0.5))]
        assert select_sources(Categorical.uniform(2), sources, k=3) == [2, 1, 3]

    @pytest.mark.parametrize("low, high", [(1, 0), (0, 1), (1, 2), (2, 1)])
    def test_equal_gain_elephant_sources_tie_to_lower_id(self, low, high):
        # at a uniform belief the location-1 source and the location-0/2
        # sources are equally informative, so the lower id must win
        def source(loc):
            return build_elephant_model(loc).A[0][:, :, loc]

        sources = [(1, source(low)), (2, source(high))]
        gains = [expected_info_gain_of_source(Categorical.uniform(3), lk) for _, lk in sources]
        assert gains[0] == gains[1]
        assert select_sources(Categorical.uniform(3), sources, k=1) == [1]

    def test_layout_does_not_change_the_score(self):
        # lk @ q sums a strided view in another order than a contiguous copy;
        # scoring the contiguous form makes equal entries score equal floats
        rng = np.random.default_rng(0)
        for _ in range(200):
            d, n_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            stack = rng.dirichlet(np.ones(n_out), size=(d, 3)).transpose(2, 0, 1).copy()
            view = stack[:, :, 0]
            belief = Categorical(rng.dirichlet(np.ones(d)))
            assert expected_info_gain_of_source(belief, view) == expected_info_gain_of_source(
                belief, view.copy()
            )
            assert select_sources(belief, [(1, view), (2, view.copy())], k=1) == [1]
            assert select_sources(belief, [(2, view), (1, view.copy())], k=1) == [1]

    def test_k_too_large(self):
        with pytest.raises(KTooLargeError):
            select_sources(Categorical.uniform(2), [(1, np.eye(2))], k=2)

    def test_k_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            select_sources(Categorical.uniform(2), [(1, np.eye(2))], k=-1)
        # k = 0, a solo run, selects no source
        assert select_sources(Categorical.uniform(2), [(1, np.eye(2))], k=0) == []

    def test_agrees_with_argmax_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            belief = Categorical(rng.dirichlet(np.ones(d)))
            sources = [
                (i, random_likelihood(rng, int(rng.integers(2, 4)), d))
                for i in range(int(rng.integers(2, 6)))
            ]
            k = int(rng.integers(1, len(sources) + 1))
            got = select_sources(belief, sources, k)
            gains = {i: source_info_gain(belief, lk) for i, lk in sources}
            want = sorted(gains, key=lambda i: (-gains[i], i))[:k]
            assert got == want


class TestSelectSourcesAgainstReference:
    """select_sources scores each distinct likelihood once; the reference
    scores every source. Both must give the same ids in the same order."""

    @staticmethod
    def assert_same_for_every_k(belief, sources):
        for k in range(1, len(sources) + 1):
            assert select_sources(belief, sources, k) == collective_reference.select_sources(
                belief, sources, k
            )

    def test_repeated_likelihoods_as_copies_views_and_one_object(self):
        # equal entries as views, copies, Fortran arrays, lists and shared objects
        rng = np.random.default_rng(89)
        for _ in range(60):
            d, n_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            stack = rng.dirichlet(np.ones(n_out), size=(d, 3)).transpose(2, 0, 1).copy()
            views = [stack[:, :, loc] for loc in range(3)]
            layouts = (
                lambda lk: lk,
                np.copy,
                np.asfortranarray,
                lambda lk: lk.tolist(),
                lambda lk: lk[...],
            )
            sources = [
                (int(sid), layouts[int(rng.integers(len(layouts)))](views[int(rng.integers(3))]))
                for sid in rng.permutation(10)
            ]
            belief = Categorical(rng.dirichlet(np.ones(d)))
            self.assert_same_for_every_k(belief, sources)
            self.assert_same_for_every_k(Categorical.uniform(d), sources)

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_elephant_sources_at_uniform_and_solo_beliefs(self, n):
        # built as run_collective builds them; at a uniform belief every
        # vantage point scores the same gain, so the order is all ties
        models = [build_elephant_model(i % 3) for i in range(n)]
        rng = np.random.default_rng(97)
        beliefs = [Categorical.uniform(3)] + [
            Categorical(rng.dirichlet(np.ones(3))) for _ in range(5)
        ]
        for i in range(n):
            sources = [(j, models[j].A[0][:, :, j % 3]) for j in range(n) if j != i]
            for belief in beliefs:
                self.assert_same_for_every_k(belief, sources)

    @pytest.mark.parametrize(
        "bad",
        [
            np.ones((2, 2)),  # columns sum to 2
            np.array([[1.5, 0.0], [-0.5, 1.0]]),  # a negative entry
            np.eye(3),  # wrong state dimension
            np.array([0.5, 0.5]),  # not a matrix
            np.eye(2).reshape(1, 4),  # the bytes of a good source, another shape
            np.eye(2).reshape(4, 1),
            np.array([[1.0, np.nan], [0.0, 0.5]]),  # a NaN entry
        ],
    )
    def test_bad_likelihood_raises_as_the_reference_does(self, bad):
        good = np.eye(2)
        for sources in (
            [(1, good), (2, bad)],
            [(1, bad), (2, good)],
            [(1, good), (2, bad), (3, bad.copy()), (4, good.copy())],
            [(1, bad), (2, bad)],
        ):
            with pytest.raises(ValueError) as want:
                collective_reference.select_sources(Categorical.uniform(2), sources, 1)
            with pytest.raises(ValueError) as got:
                select_sources(Categorical.uniform(2), sources, 1)
            assert type(got.value) is type(want.value)
