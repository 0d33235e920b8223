"""Perception, learning, and model selection as nested timescales of inference.

Fast: state posteriors by free-energy minimization (mean-field fixed point,
with exact enumeration as the reference implementation). Slow: Dirichlet
count updates on the likelihood and transition tensors. Slower: selecting
among whole models by their evidence, the ln p(o) that exact_posterior
returns with each posterior.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .core import (
    BeliefState,
    Categorical,
    DimMismatchError,
    DirichletCounts,
    GenerativeModel,
    kl_divergence,
    log_stable,
    normalized_exp,
)

ENUMERATION_GUARD = 10**6

# Weight of the old log-posterior in each damped mean-field update; the fixed
# point is declared once no posterior moves by TOL (L-inf) in one sweep, and
# MAX_ITERS sweeps end the search either way.
DAMPING = 0.5
MAX_ITERS = 50
TOL = 1e-8

# The finite stand-in for ln 0. It sits above ln of the smallest normal double
# (about -708), so a state kept alive only by the floor scores exp(floor) ~ 1e-300
# and vanishes next to any real support after normalization. It caps
# log-likelihoods inside mean-field messages, so a factor still uncertain about
# its peers cannot annihilate a state that some peer configuration supports,
# and the log-evidence an agent sends, since wire vectors must stay finite.
LOG_FLOOR = -690.0

# Mass below this after normalization is either floor residue (a floored entry
# that enters with weight >= 1/2 scores at most exp(floor / 2) ~ 1e-150) or a
# genuine probability so small that dropping it is far inside every tolerance;
# snap() returns it to an exact zero so downstream KL terms see true support.
SNAP_EPS = 1e-150


def snap(probs: np.ndarray) -> np.ndarray:
    """Zero every entry below SNAP_EPS, then renormalize."""
    probs = np.where(probs < SNAP_EPS, 0.0, probs)
    return probs / probs.sum()


class TooLargeError(ValueError):
    """Joint state space exceeds the enumeration guard."""


class ZeroEvidenceError(ValueError):
    """The observation has probability zero under the model."""


class ShapeMismatchError(ValueError):
    """Count tensor shape does not match the update operands."""


@dataclass(frozen=True)
class FreeEnergyReport:
    free_energy: float
    complexity: float
    accuracy: float


@dataclass(frozen=True)
class MeanFieldResult:
    """Fixed-point output; non-convergence is flagged, never hidden."""

    belief: BeliefState
    converged: bool
    iterations: int
    residual: float


def _check_observation(m: GenerativeModel, obs: Sequence[int]) -> tuple[int, ...]:
    o = tuple(int(i) for i in obs)
    if len(o) != m.num_modalities:
        raise DimMismatchError(
            f"observation names {len(o)} modalities, model has {m.num_modalities}"
        )
    for mm, i in enumerate(o):
        if not (0 <= i < m.modality_dims[mm]):
            raise DimMismatchError(f"observation[{mm}]={i} outside [0, {m.modality_dims[mm]})")
    return o


def _joint_size(m: GenerativeModel) -> int:
    return int(np.prod(m.factor_dims))


def joint_log_likelihood(m: GenerativeModel, obs: Sequence[int]) -> np.ndarray:
    """ln p(o|s) over the joint state, shape factor_dims."""
    o = _check_observation(m, obs)
    total = np.zeros(m.factor_dims)
    for mm, idx in enumerate(o):
        total += log_stable(m.A[mm][idx])
    return total


def exact_posterior(
    m: GenerativeModel,
    obs: Sequence[int],
    prior: BeliefState | None = None,
) -> tuple[BeliefState, float]:
    """Reference posterior by enumerating every joint state, then marginalizing.

    Returns (per-factor marginals of the joint posterior, ln p(o)).
    """
    if _joint_size(m) > ENUMERATION_GUARD:
        raise TooLargeError(f"joint state space {_joint_size(m)} exceeds {ENUMERATION_GUARD}")
    priors = (prior or m.initial_belief()).arrays()
    joint_prior = _expected_joint(priors)
    like = np.ones(m.factor_dims)
    for mm, idx in enumerate(_check_observation(m, obs)):
        like = like * m.A[mm][idx]
    joint = joint_prior * like
    evidence = float(joint.sum())
    if evidence <= 0.0:
        raise ZeroEvidenceError(f"observation {tuple(obs)} has zero probability")
    joint /= evidence
    return BeliefState(tuple(map(Categorical, _marginals(joint)))), float(np.log(evidence))


def _expected_joint(qs: Sequence[np.ndarray]) -> np.ndarray:
    """Joint state weights prod_f q_f(s_f), shape = the factors' dims."""
    return reduce(np.multiply.outer, qs)


def _marginals(joint: np.ndarray, batch: int = 0) -> list[np.ndarray]:
    """Per-factor marginals of a joint whose first `batch` axes index separate
    joints (the inverse of _expected_joint); each keeps those batch axes."""
    F = joint.ndim - batch
    return [joint.sum(axis=tuple(batch + g for g in range(F) if g != f)) for f in range(F)]


def _masked_expectation(weights: np.ndarray, log_tensor: np.ndarray) -> float:
    """E_w[log_tensor] with the 0 * ln 0 = 0 convention (may be -inf)."""
    support = weights > 0
    if np.any(support & np.isneginf(log_tensor)):
        return float("-inf")
    terms = np.where(support, weights * np.where(support, log_tensor, 0.0), 0.0)
    return float(terms.sum())


def variational_free_energy(
    q: BeliefState,
    m: GenerativeModel,
    obs: Sequence[int],
    prior: BeliefState | None = None,
) -> FreeEnergyReport:
    """F = complexity - accuracy for a factorized q; an upper bound on -ln p(o)."""
    if q.dims != m.factor_dims:
        raise DimMismatchError(f"belief dims {q.dims} != factor dims {m.factor_dims}")
    ref = prior or m.initial_belief()
    complexity = sum(
        kl_divergence(qf.probs, df.probs) for qf, df in zip(q.factors, ref.factors)
    )
    weights = _expected_joint(q.arrays())
    accuracy = _masked_expectation(weights, joint_log_likelihood(m, obs))
    return FreeEnergyReport(
        free_energy=float(complexity - accuracy),
        complexity=float(complexity),
        accuracy=accuracy,
    )


def infer_states(
    m: GenerativeModel,
    obs: Sequence[int],
    prior: BeliefState | None = None,
) -> MeanFieldResult:
    """Mean-field fixed point: sweep factors, each posterior proportional to
    exp(ln prior + expected log-likelihood under the other factors' posteriors).

    Updates are damped in log space. Stops when the L-inf posterior change
    drops below TOL; otherwise returns the best effort with converged=False.
    """
    log_like = joint_log_likelihood(m, obs)
    priors = (prior or m.initial_belief()).arrays()
    prior_support = _expected_joint(priors)
    if not np.any(np.isfinite(log_like) & (prior_support > 0)):
        raise ZeroEvidenceError("observation impossible under the prior")
    qs = [p.copy() for p in priors]
    F = m.num_factors
    iterations = 0
    residual = float("inf")
    for iterations in range(1, MAX_ITERS + 1):
        worst = 0.0
        for f in range(F):
            others = [qs[g] for g in range(F) if g != f]
            if others:
                moved = np.moveaxis(log_like, f, 0)
                # floor the log-likelihood so a factor still uncertain about
                # its peers cannot annihilate a state that some peer
                # configuration supports (geometric-mean messages otherwise
                # propagate -inf through any zero)
                flat = np.maximum(moved.reshape(moved.shape[0], -1), LOG_FLOOR)
                wf = _expected_joint(others).reshape(-1)
                support = wf > 0
                with np.errstate(invalid="ignore"):
                    prod = flat * wf[None, :]
                expected_ll = np.where(support[None, :], prod, 0.0).sum(axis=1)
            else:
                expected_ll = log_like
            target = log_stable(priors[f]) + expected_ll
            blended = DAMPING * log_stable(qs[f]) + (1.0 - DAMPING) * target
            new_q = normalized_exp(blended)
            worst = max(worst, float(np.max(np.abs(new_q - qs[f]))))
            qs[f] = new_q
        residual = worst
        if residual < TOL:
            break
    belief = BeliefState(tuple(Categorical(snap(q)) for q in qs))
    return MeanFieldResult(
        belief=belief,
        converged=residual < TOL,
        iterations=iterations,
        residual=residual,
    )


def update_likelihood_counts(
    counts: DirichletCounts,
    obs: int,
    q: BeliefState,
) -> DirichletCounts:
    """counts[o, s1, ...] += prod_f q_f(s_f), for the observed o only."""
    expected = counts.counts.shape[1:]
    if q.dims != expected:
        raise ShapeMismatchError(f"belief dims {q.dims} != count state dims {expected}")
    if not (0 <= obs < counts.counts.shape[0]):
        raise ShapeMismatchError(f"outcome {obs} outside [0, {counts.counts.shape[0]})")
    new = counts.counts.copy()
    new[obs] += _expected_joint(q.arrays())
    return DirichletCounts(new)


def update_transition_counts(
    counts: DirichletCounts,
    q_prev: Categorical,
    q_next: Categorical,
    u: int,
) -> DirichletCounts:
    """counts[s', s, u] += q_next(s') * q_prev(s)."""
    d_next, d_prev, n_controls = counts.counts.shape
    if q_next.dim != d_next or q_prev.dim != d_prev:
        raise ShapeMismatchError(
            f"beliefs ({q_next.dim}, {q_prev.dim}) != count dims ({d_next}, {d_prev})"
        )
    if not (0 <= u < n_controls):
        raise ShapeMismatchError(f"control {u} outside [0, {n_controls})")
    new = counts.counts.copy()
    new[:, :, u] += np.outer(q_next.probs, q_prev.probs)
    return DirichletCounts(new)


def dirichlet_mean(counts: DirichletCounts) -> np.ndarray:
    """Posterior-mean likelihood or transition tensor: counts normalized over
    axis 0 (outcomes, or next states)."""
    c = counts.counts
    return c / c.sum(axis=0, keepdims=True)
