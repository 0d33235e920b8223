"""Reference mean-field fixed point: the loop of inference.infer_states,
copied unchanged, with its damping and log floor held here as constants.

Kept so a change to the library's loop, its damping or its log floor shows
up as a different belief, iteration count or convergence flag on random
two-factor models, which reach neither an exact delta nor a uniform belief.
The floor is exercised by the models whose likelihoods have hard zeros.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from beliefmesh.core import BeliefState, Categorical, GenerativeModel, log_stable, normalized_exp
from beliefmesh.inference import (
    MeanFieldResult,
    ZeroEvidenceError,
    _expected_joint,
    joint_log_likelihood,
    snap,
)

DAMPING = 0.5
LOG_FLOOR = -690.0


def infer_states(
    m: GenerativeModel,
    obs: Sequence[int],
    prior: BeliefState | None = None,
    max_iters: int = 50,
    tol: float = 1e-8,
) -> MeanFieldResult:
    log_like = joint_log_likelihood(m, obs)
    priors = (prior or m.initial_belief()).arrays()
    prior_support = _expected_joint(priors)
    if not np.any(np.isfinite(log_like) & (prior_support > 0)):
        raise ZeroEvidenceError("observation impossible under the prior")
    qs = [p.copy() for p in priors]
    F = m.num_factors
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iters + 1):
        worst = 0.0
        for f in range(F):
            others = [qs[g] for g in range(F) if g != f]
            if others:
                moved = np.moveaxis(log_like, f, 0)
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
        if residual < tol:
            break
    belief = BeliefState(tuple(Categorical(snap(q)) for q in qs))
    return MeanFieldResult(
        belief=belief,
        converged=residual < tol,
        iterations=iterations,
        residual=residual,
    )
