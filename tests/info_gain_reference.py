"""Information gain by the Bayes route, kept as the independent oracle for the
entropy route H[q(o)] - E_q[H[p(o|s)]] that the library computes.

Each outcome's posterior is formed explicitly and its KL divergence from the
prior is weighted by the outcome's probability: sum_o q(o) KL[q(s|o) || q(s)].
The loops are the library's own earlier implementation, copied unchanged.
"""

import numpy as np

from beliefmesh.core import BeliefState, Categorical, GenerativeModel, Policy, kl_divergence
from beliefmesh.inference import _expected_joint
from beliefmesh.planning import expected_states


def _info_gain_joint(w: np.ndarray, a: np.ndarray, q_o: np.ndarray) -> float:
    """Bayes-route mutual information on the enumerated joint state."""
    flat_w = w.reshape(-1)
    gain = 0.0
    for o in range(a.shape[0]):
        if q_o[o] <= 0:
            continue
        post = (flat_w * a[o].reshape(-1)) / q_o[o]
        gain += q_o[o] * kl_divergence(post, flat_w)
    return gain


def policy_info_gain(m: GenerativeModel, belief: BeliefState, policy: Policy) -> float:
    """Information gain of a policy, summed over its timesteps and modalities."""
    info_gain = 0.0
    for q_t in expected_states(m, belief, policy):
        w = _expected_joint(q_t.arrays())
        for a in m.A:
            axes_s = (list(range(1, a.ndim)), list(range(m.num_factors)))
            q_o = np.tensordot(a, w, axes=axes_s)
            info_gain += _info_gain_joint(w, a, q_o)
    return float(info_gain)


def source_info_gain(belief: Categorical, source_likelihood) -> float:
    """Mutual information between a shared factor and a source's outcome."""
    lk = np.asarray(source_likelihood, dtype=np.float64)
    q_o = lk @ belief.probs
    gain = 0.0
    for o in range(lk.shape[0]):
        if q_o[o] <= 0:
            continue
        posterior = lk[o] * belief.probs / q_o[o]
        gain += q_o[o] * kl_divergence(posterior, belief.probs)
    return max(0.0, float(gain))
