"""Reference source selection and synchrony: the loops the collective used
before it scored each distinct likelihood once and computed synchrony with
array ops, copied unchanged.

Kept so the production routines can be checked against them with ==: the
same ids in the same order, and the same float bit for bit.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from beliefmesh.core import js_divergence
from beliefmesh.net.fusion import KTooLargeError, expected_info_gain_of_source


def select_sources(belief, sources, k: int) -> list:
    """Ids of the k sources with the greatest expected information gain,
    descending; exact ties go to the lower id. Scores every source."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(sources):
        raise KTooLargeError(f"k={k} but only {len(sources)} sources")
    scored = [
        (expected_info_gain_of_source(belief, likelihood), sid)
        for sid, likelihood in sources
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [sid for _, sid in scored[:k]]


def synchrony(p, q) -> float:
    """Jensen-Shannon divergence between two belief vectors; 0 means aligned,
    ln 2 means disjoint support."""
    return max(0.0, js_divergence(p, q))


def mean_pairwise_synchrony(beliefs) -> float:
    pairs = list(combinations(beliefs, 2))
    if not pairs:
        return 0.0
    return float(np.mean([synchrony(a, b) for a, b in pairs]))
