"""Probability primitives and the discrete generative model container.

Conventions used throughout the package:
  - probabilities are stored in linear space as float64; log space is used
    only transiently inside exp-and-normalize steps (``normalized_exp``)
  - 0 * ln 0 = 0
  - stochasticity is checked to 1e-9 and never repaired silently; building
    a GenerativeModel raises InvalidModelError with every violation found
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STOCHASTIC_TOL = 1e-9


class AllZeroError(ValueError):
    """Vector of all zeros where a direction was required."""


class NegativeEntryError(ValueError):
    """Negative entry in a nonnegative vector."""


class DimMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class NonFiniteError(ValueError):
    """NaN or infinity where finite values were required."""


class InvalidModelError(ValueError):
    """Raised with the full list of model violations, one per line."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid model:\n" + "\n".join(f"  - {v}" for v in self.violations))


def _as_vector(x) -> np.ndarray:
    v = np.asarray(getattr(x, "probs", x), dtype=np.float64)
    if v.ndim != 1:
        raise DimMismatchError(f"expected 1-D vector, got shape {v.shape}")
    if v.size < 1:
        raise DimMismatchError("expected dimension >= 1")
    return v


@dataclass(frozen=True)
class Categorical:
    """Normalized probability vector over a finite set."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64, copy=True)
        if p.ndim != 1 or p.size < 1:
            raise DimMismatchError(f"Categorical needs a 1-D vector, got shape {p.shape}")
        if np.any(p < 0):
            raise NegativeEntryError("Categorical entries must be >= 0")
        if not np.isfinite(p).all():
            raise NonFiniteError("Categorical entries must be finite")
        if abs(float(p.sum()) - 1.0) > STOCHASTIC_TOL:
            raise ValueError(f"Categorical must sum to 1 within {STOCHASTIC_TOL}, got {p.sum()!r}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return self.probs.size

    @staticmethod
    def uniform(n: int) -> "Categorical":
        return Categorical(np.full(n, 1.0 / n))

    @staticmethod
    def delta(index: int, n: int) -> "Categorical":
        p = np.zeros(n)
        p[index] = 1.0
        return Categorical(p)


@dataclass(frozen=True)
class DirichletCounts:
    """Strictly positive concentration parameters, same shape as the tensor they parameterize."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.float64, copy=True)
        if not np.isfinite(c).all():
            raise NonFiniteError("Dirichlet counts must be finite")
        if np.any(c <= 0):
            raise ValueError("Dirichlet counts must be strictly positive")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class Policy:
    """Candidate course of action: time-major per-factor control indices."""

    controls: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ctl = tuple(tuple(int(c) for c in step) for step in self.controls)
        if len(ctl) < 1:
            raise ValueError("policy horizon must be >= 1")
        widths = {len(step) for step in ctl}
        if len(widths) != 1:
            raise ValueError("every policy step must name one control per factor")
        object.__setattr__(self, "controls", ctl)

    @property
    def horizon(self) -> int:
        return len(self.controls)

    @property
    def num_factors(self) -> int:
        return len(self.controls[0])


@dataclass(frozen=True)
class BeliefState:
    """Per-factor categorical posteriors held by one agent."""

    factors: tuple[Categorical, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    def arrays(self) -> list[np.ndarray]:
        return [f.probs for f in self.factors]


@dataclass(frozen=True)
class GenerativeModel:
    """Discrete generative model; building one with any violation raises InvalidModelError.

    A[m] : p(o_m | s_1..s_F), shape (modality_dims[m], *factor_dims); every
           slice over the outcome axis is a distribution
    B[f] : p(s' | s, u), shape (d_f, d_f, n_controls_f), column-stochastic
    C[m] : log-preferences over outcomes (unnormalized)
    D[f] : initial prior per factor
    E    : prior over policies
    """

    factor_dims: tuple[int, ...]
    modality_dims: tuple[int, ...]
    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    C: tuple[np.ndarray, ...]
    D: tuple[Categorical, ...]
    E: Categorical
    policies: tuple[Policy, ...]

    def __post_init__(self):
        object.__setattr__(self, "factor_dims", tuple(int(d) for d in self.factor_dims))
        object.__setattr__(self, "modality_dims", tuple(int(d) for d in self.modality_dims))
        for name in ("A", "B", "C"):
            arrays = tuple(np.array(a, dtype=np.float64, copy=True) for a in getattr(self, name))
            for a in arrays:
                a.setflags(write=False)
            object.__setattr__(self, name, arrays)
        object.__setattr__(self, "D", tuple(self.D))
        object.__setattr__(self, "policies", tuple(self.policies))
        violations = _model_violations(self)
        if violations:
            raise InvalidModelError(violations)

    @property
    def num_factors(self) -> int:
        return len(self.factor_dims)

    @property
    def num_modalities(self) -> int:
        return len(self.modality_dims)

    @property
    def num_controls(self) -> tuple[int, ...]:
        return tuple(b.shape[2] for b in self.B)

    def initial_belief(self) -> BeliefState:
        return BeliefState(factors=self.D)


def normalized_exp(logits: np.ndarray) -> np.ndarray:
    """exp(z) / sum(exp(z)) on a raw array, shifted by max(z) for stability.
    Tolerates -inf entries (zero probability)."""
    z = np.asarray(logits, dtype=np.float64)
    m = np.max(z)
    if m == -np.inf:
        raise AllZeroError("all logits are -inf")
    e = np.exp(z - m)
    return e / e.sum()


def log_stable(p: np.ndarray) -> np.ndarray:
    """Elementwise ln with ln 0 = -inf and no warning noise."""
    with np.errstate(divide="ignore"):
        return np.log(p)


def entropy(p) -> float:
    """Shannon entropy in nats, 0 * ln 0 = 0."""
    return float(conditional_entropies(_as_vector(p)))


def conditional_entropies(likelihood: np.ndarray) -> np.ndarray:
    """H[p(o|s)] in nats per state, for a likelihood shaped (outcomes, *state dims)."""
    logs = np.where(likelihood > 0, log_stable(likelihood), 0.0)
    return -(likelihood * logs).sum(axis=0)


def kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """KL(q || p) in nats along the last axis, 0 * ln 0 = 0. Where q > 0 meets
    p = 0, ln 0 = -inf makes the divergence +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0, q * (np.log(q) - np.log(p)), 0.0).sum(axis=-1)


def kl_divergence(q, p) -> float:
    """KL(q || p) in nats. +inf where q puts mass that p excludes."""
    qv, pv = _as_vector(q), _as_vector(p)
    if qv.size != pv.size:
        raise DimMismatchError(f"KL operands differ in dimension: {qv.size} vs {pv.size}")
    return float(kl_rows(qv, pv))


def column_faults(t: np.ndarray) -> tuple[tuple | None, np.ndarray, list[tuple]]:
    """Index of t's smallest entry if negative (else None), t's sums over axis 0, and the
    indices of the columns not summing to 1 within STOCHASTIC_TOL, non-finite ones included."""
    neg = tuple(map(int, np.unravel_index(np.nanargmin(t), t.shape))) if (t < 0).any() else None
    sums = t.sum(axis=0)
    failing = [tuple(i) for i in np.argwhere(~(abs(sums - 1.0) <= STOCHASTIC_TOL)).tolist()]
    return neg, sums, failing


def _model_violations(m: GenerativeModel) -> list[str]:
    """Every model invariant that m breaks, each with a path to the offending
    slice. A wrong table count or number of axes stops the check there."""
    F, M = m.num_factors, m.num_modalities
    bad: list[str] = []
    if F < 1:
        bad.append("factor_dims: need at least one hidden factor")
    if M < 1:
        bad.append("modality_dims: need at least one modality")
    for name, want, what in (("A", M, "modality tensors"), ("B", F, "factor tensors"),
                             ("C", M, "preference vectors"), ("D", F, "priors")):
        if len(getattr(m, name)) != want:
            bad.append(f"{name}: expected {want} {what}, got {len(getattr(m, name))}")
    for f, b in enumerate(m.B):
        if b.ndim != 3:
            bad.append(f"B[{f}]: shape {b.shape} is not (next, previous, control)")
    if bad:
        return bad

    for f, d in enumerate(m.factor_dims):
        if d < 2:
            bad.append(f"factor_dims[{f}]: cardinality {d} < 2")
    for mm, d in enumerate(m.modality_dims):
        if d < 2:
            bad.append(f"modality_dims[{mm}]: cardinality {d} < 2")

    for mm, a in enumerate(m.A):
        want = (m.modality_dims[mm],) + m.factor_dims
        if a.shape != want:
            bad.append(f"A[{mm}]: shape {a.shape} != {want}")
            continue
        neg, sums, failing = column_faults(a)
        if neg is not None:
            bad.append(f"A[{mm}]{list(neg)}: negative entry {a[neg]}")
        for key in failing[:8]:
            bad.append(f"A[{mm}][:, {key}]: outcome slice sums to {sums[key]:.6g}, not 1")

    for f, b in enumerate(m.B):
        d = m.factor_dims[f]
        if b.shape[0] != d or b.shape[1] != d or b.shape[2] < 1:
            bad.append(f"B[{f}]: shape {b.shape} incompatible with factor dim {d}")
            continue
        neg, sums, failing = column_faults(b)
        if neg is not None:
            bad.append(f"B[{f}]{list(neg)}: negative entry {b[neg]}")
        for s, u in failing[:8]:
            bad.append(f"B[{f}][:, {s}, {u}]: column sums to {sums[s, u]:.6g}, not 1")

    for mm, c in enumerate(m.C):
        if c.shape != (m.modality_dims[mm],):
            bad.append(f"C[{mm}]: shape {c.shape} != ({m.modality_dims[mm]},)")
        elif not np.isfinite(c).all():
            bad.append(f"C[{mm}]: non-finite log-preference")

    for f, d_prior in enumerate(m.D):
        if d_prior.dim != m.factor_dims[f]:
            bad.append(f"D[{f}]: dimension {d_prior.dim} != factor dim {m.factor_dims[f]}")

    if len(m.policies) > 0:
        if m.E.dim != len(m.policies):
            bad.append(f"E: dimension {m.E.dim} != number of policies {len(m.policies)}")
        horizons = {p.horizon for p in m.policies}
        if len(horizons) > 1:
            bad.append(f"policies: mixed horizons {sorted(horizons)}")
        n_controls = m.num_controls
        for i, pol in enumerate(m.policies):
            if pol.num_factors != F:
                bad.append(f"policies[{i}]: {pol.num_factors} controls per step, expected {F}")
                continue
            for t, step in enumerate(pol.controls):
                for f, u in enumerate(step):
                    if not (0 <= u < n_controls[f]):
                        bad.append(
                            f"policies[{i}].controls[{t}][{f}]: control {u} out of range "
                            f"[0, {n_controls[f]})"
                        )
    return bad
