"""Evidence fusion over a shared factor, and choosing whom to listen to.

Messages carry log-evidence, not posteriors: multiplying likelihoods is exact
and associative, while multiplying posteriors would double-count the shared
prior. Fusing every message therefore reproduces the posterior of one agent
holding all observations.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core import (
    Categorical,
    DimMismatchError,
    column_faults,
    conditional_entropies,
    entropy,
    kl_divergence,  # noqa: F401 -- unused; perfbench/tracer.py patches net.fusion.kl_divergence
    log_stable,
    normalized_exp,
)
from .messages import BeliefMessage


class KTooLargeError(ValueError):
    """Asked for more sources than exist."""


def fuse_evidence(
    prior: Categorical,
    msgs: Iterable[BeliefMessage],
    own_log_evidence=None,
) -> Categorical:
    """q proportional to exp(ln prior + own log-evidence + sum_i precision_i * log-evidence_i).

    Order-independent and associative; an empty fusion returns the prior.
    """
    logits = log_stable(prior.probs).copy()
    if own_log_evidence is not None:
        own = np.asarray(own_log_evidence, dtype=np.float64)
        if own.shape != (prior.dim,):
            raise DimMismatchError(
                f"own evidence has {own.shape} entries, factor has {prior.dim}"
            )
        logits = logits + own
    for msg in msgs:
        if msg.log_evidence.size != prior.dim:
            raise DimMismatchError(
                f"message from {msg.origin.canonical()} carries "
                f"{msg.log_evidence.size} entries, factor has {prior.dim}"
            )
        logits = logits + msg.precision * msg.log_evidence
    return Categorical(normalized_exp(logits))


def _check_source_likelihood(belief: Categorical, likelihood) -> np.ndarray:
    # contiguous, so lk @ q sums in one order whatever the caller's layout
    lk = np.ascontiguousarray(likelihood, dtype=np.float64)
    if lk.ndim != 2 or lk.shape[1] != belief.dim:
        raise DimMismatchError(
            f"source likelihood shape {lk.shape} incompatible with belief dim {belief.dim}"
        )
    neg, sums, failing = column_faults(lk)
    if neg is not None:
        raise ValueError("source likelihood entries must be >= 0")
    if failing:
        raise ValueError(f"source likelihood columns must be finite and sum to 1, got {sums}")
    return lk


def expected_info_gain_of_source(belief: Categorical, source_likelihood) -> float:
    """Mutual information between the shared factor and the source's outcome:
    H[q(o)] - E_q[H[p(o|s)]]."""
    lk = _check_source_likelihood(belief, source_likelihood)
    gain = entropy(lk @ belief.probs) - float(belief.probs @ conditional_entropies(lk))
    return max(0.0, gain)


def select_sources(
    belief: Categorical,
    sources: Sequence[tuple],
    k: int,
) -> list:
    """Ids of the k sources (none for k = 0) with the greatest expected information
    gain, descending; exact ties go to the lower id. Each distinct likelihood is scored once."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(sources):
        raise KTooLargeError(f"k={k} but only {len(sources)} sources")
    gains, scored = {}, []
    for sid, likelihood in sources:
        lk = np.asarray(likelihood, dtype=np.float64)
        key = (lk.shape, lk.tobytes())
        if key not in gains:
            gains[key] = expected_info_gain_of_source(belief, lk)
        scored.append((gains[key], sid))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [sid for _, sid in scored[:k]]
