"""Probability primitives: hand-computed values and algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefmesh.core import (
    AllZeroError,
    Categorical,
    DimMismatchError,
    DirichletCounts,
    GenerativeModel,
    InvalidModelError,
    NegativeEntryError,
    NonFiniteError,
    Policy,
    entropy,
    kl_divergence,
    normalized_exp,
)

from collective_reference import js_divergence


def simplex(n, max_n=None):
    """Strategy producing a random point on the n-simplex (or up to max_n)."""
    dim = st.just(n) if max_n is None else st.integers(n, max_n)
    return dim.flatmap(
        lambda d: st.lists(
            st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False), min_size=d, max_size=d
        )
    ).map(lambda w: np.array(w) / np.sum(w))


class TestEntropy:
    def test_known_value(self):
        assert entropy([0.25, 0.75]) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_delta_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    @pytest.mark.parametrize("n", range(2, 33))
    def test_uniform_is_log_n(self, n):
        assert entropy(np.full(n, 1.0 / n)) == pytest.approx(np.log(n), abs=1e-12)

    @given(simplex(2, 12))
    def test_bounds(self, p):
        h = entropy(p)
        assert -1e-12 <= h <= np.log(len(p)) + 1e-9


class TestKL:
    def test_known_value(self):
        # 0.9 ln 1.8 + 0.1 ln 0.2
        assert kl_divergence([0.9, 0.1], [0.5, 0.5]) == pytest.approx(0.3680642071684971, abs=1e-12)

    def test_self_is_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_infinite_when_support_escapes(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_zero_q_entry_contributes_nothing(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            kl_divergence([0.5, 0.5], [1.0 / 3] * 3)

    @given(simplex(2, 8), st.data())
    def test_nonnegative(self, q, data):
        p = data.draw(simplex(len(q)))
        assert kl_divergence(q, p) >= -1e-12

    @given(simplex(2, 8))
    def test_zero_iff_equal(self, p):
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


class TestJS:
    def test_disjoint_deltas_hit_ln2(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.log(2.0), abs=1e-12)

    @given(simplex(2, 8), st.data())
    def test_symmetric_and_bounded(self, a, data):
        b = data.draw(simplex(len(a)))
        d_ab = js_divergence(a, b)
        d_ba = js_divergence(b, a)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert -1e-12 <= d_ab <= np.log(2.0) + 1e-12


class TestCategorical:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Categorical(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntryError):
            Categorical(np.array([-0.1, 1.1]))

    def test_accepts_within_tolerance(self):
        Categorical(np.array([0.5, 0.5 + 5e-10]))

    def test_probs_are_read_only(self):
        c = Categorical.uniform(3)
        with pytest.raises(ValueError):
            c.probs[0] = 1.0

    def test_delta(self):
        np.testing.assert_array_equal(Categorical.delta(1, 3).probs, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize(
        "probs, error, message",
        [
            (np.full((2, 2), 0.25), DimMismatchError, r"1-D vector, got shape \(2, 2\)"),
            (np.array([]), DimMismatchError, r"1-D vector, got shape \(0,\)"),
            (np.array([np.nan, 1.0]), NonFiniteError, "entries must be finite"),
        ],
    )
    def test_rejects_malformed(self, probs, error, message):
        with pytest.raises(error, match=message):
            Categorical(probs)


class TestNormalizedExp:
    def test_all_minus_inf_has_no_direction(self):
        with pytest.raises(AllZeroError, match="all logits are -inf"):
            normalized_exp(np.array([-np.inf, -np.inf]))


class TestDirichletCounts:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            DirichletCounts(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError, match="Dirichlet counts must be finite"):
            DirichletCounts(np.array([1.0, np.inf]))

    def test_read_only(self):
        dc = DirichletCounts(np.ones((2, 2)))
        with pytest.raises(ValueError):
            dc.counts[0, 0] = 5.0


class TestPolicy:
    def test_horizon_and_width(self):
        p = Policy(((0, 1), (1, 0)))
        assert p.horizon == 2
        assert p.num_factors == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Policy(())

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            Policy(((0, 1), (1,)))


def tiny_model(**overrides) -> GenerativeModel:
    """Two-state single factor, one binary modality, stay/flip controls."""
    fields = dict(
        factor_dims=(2,),
        modality_dims=(2,),
        A=(np.array([[0.9, 0.1], [0.1, 0.9]]),),
        B=(np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])], axis=2),),
        C=(np.array([0.0, 0.0]),),
        D=(Categorical.uniform(2),),
        E=Categorical.uniform(2),
        policies=(Policy(((0,),)), Policy(((1,),))),
    )
    fields.update(overrides)
    return GenerativeModel(**fields)


def violations_of(**overrides) -> list[str]:
    with pytest.raises(InvalidModelError) as err:
        tiny_model(**overrides)
    return err.value.violations


class TestValidateModel:
    def test_clean_model_has_no_violations(self):
        assert isinstance(tiny_model(), GenerativeModel)

    def test_bad_a_column(self):
        (v,) = violations_of(A=(np.array([[0.9, 0.3], [0.1, 0.9]]),))
        assert "A[0]" in v and "1.2" in v

    def test_bad_b_column(self):
        b = np.stack([np.eye(2), np.eye(2)], axis=2).copy()
        b[0, 0, 1] = 0.5
        (v,) = violations_of(B=(b,))
        assert "B[0]" in v

    def test_negative_entry_located(self):
        a = np.array([[1.1, 0.1], [-0.1, 0.9]])
        assert "A[0][1, 0]: negative entry -0.1" in violations_of(A=(a,))

    def test_policy_control_out_of_range(self):
        bad = violations_of(policies=(Policy(((0,),)), Policy(((2,),))))
        assert any("out of range" in v for v in bad)

    def test_e_dim_must_match_policy_count(self):
        assert any(v.startswith("E:") for v in violations_of(E=Categorical.uniform(3)))

    def test_d_dim_mismatch(self):
        assert any(v.startswith("D[0]") for v in violations_of(D=(Categorical.uniform(3),)))

    def test_error_lists_every_violation(self):
        a = np.array([[0.9, 0.3], [0.1, 0.9]])
        with pytest.raises(InvalidModelError) as err:
            tiny_model(A=(a,), E=Categorical.uniform(3))
        assert isinstance(err.value, ValueError)
        assert len(err.value.violations) == 2
        for v in err.value.violations:
            assert v in str(err.value)

    @pytest.mark.parametrize("table", ["A", "B"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_fails_its_column(self, table, value):
        model = tiny_model()
        t = np.array(getattr(model, table)[0])
        t[(1,) + (0,) * (t.ndim - 1)] = value
        (v,) = violations_of(**{table: (t,)})
        assert v.startswith(f"{table}[0][:, ") and "not 1" in v

    def test_column_tolerance_is_stochastic_tol(self):
        # columns 1 + 5e-10 and 1 + 2e-9 straddle STOCHASTIC_TOL = 1e-9
        tiny_model(A=(np.array([[0.9, 0.1 + 5e-10], [0.1, 0.9]]),))
        (v,) = violations_of(A=(np.array([[0.9, 0.1 + 2e-9], [0.1, 0.9]]),))
        assert v.startswith("A[0][:, (1,)]")

    def test_wrong_table_count_stops_the_check(self):
        # a second A tensor and a bad column: only the count is reported
        a = np.array([[0.9, 0.3], [0.1, 0.9]])
        assert violations_of(A=(a, a)) == ["A: expected 1 modality tensors, got 2"]

    def test_b_without_a_control_axis_stops_the_check(self):
        (v,) = violations_of(B=(np.eye(2),))
        assert v.startswith("B[0]: shape (2, 2)")

    @pytest.mark.parametrize(
        "overrides, violations",
        [
            (
                dict(factor_dims=(), B=(), D=()),
                ["factor_dims: need at least one hidden factor"],
            ),
            (
                dict(modality_dims=(), A=(), C=()),
                ["modality_dims: need at least one modality"],
            ),
            (
                dict(factor_dims=(1,)),
                [
                    "factor_dims[0]: cardinality 1 < 2",
                    "A[0]: shape (2, 2) != (2, 1)",
                    "B[0]: shape (2, 2, 2) incompatible with factor dim 1",
                    "D[0]: dimension 2 != factor dim 1",
                ],
            ),
            (
                dict(modality_dims=(1,)),
                [
                    "modality_dims[0]: cardinality 1 < 2",
                    "A[0]: shape (2, 2) != (1, 2)",
                    "C[0]: shape (2,) != (1,)",
                ],
            ),
            (
                dict(B=(np.stack([[[1.1, 0.0], [-0.1, 1.0]], np.eye(2)], axis=2),)),
                ["B[0][1, 0, 0]: negative entry -0.1"],
            ),
            (dict(C=(np.array([0.0, np.inf]),)), ["C[0]: non-finite log-preference"]),
            (
                dict(policies=(Policy(((0,),)), Policy(((0,), (1,))))),
                ["policies: mixed horizons [1, 2]"],
            ),
            (
                dict(policies=(Policy(((0,),)), Policy(((0, 1),)))),
                ["policies[1]: 2 controls per step, expected 1"],
            ),
        ],
    )
    def test_each_violation_is_named(self, overrides, violations):
        assert violations_of(**overrides) == violations
