"""Factor graphs dual to generative models, and sum-product message passing.

A graph holds variable nodes (one per hidden factor per timestep) and factor
nodes (priors, clamped likelihoods, transitions), and nothing else: no
messages, no run state. `sum_product` is a pure function of a graph and a
schedule that returns the marginals, whether the run converged, the iteration
count and the final messages. Two schedules: an exact single sweep pair for
trees, and damped flooding for loopy graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Categorical, GenerativeModel, log_stable, normalized_exp

# Weight of the old log-message in each damped flooding update.
DAMPING = 0.5


class GraphStructureError(ValueError):
    """Graph violates a structural invariant (ids, shapes, connectivity)."""


class CyclicWithTreeSweepError(ValueError):
    """Tree-sweep schedule on a graph with a cycle."""


@dataclass(frozen=True)
class Variable:
    id: str
    cardinality: int


@dataclass(frozen=True)
class Factor:
    id: str
    var_ids: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=np.float64, copy=True)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "var_ids", tuple(self.var_ids))


@dataclass(frozen=True)
class Schedule:
    mode: str = "flooding"
    max_iters: int = 100
    tol: float = 1e-8

    def __post_init__(self):
        if self.mode not in ("tree-sweep", "flooding"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


@dataclass(frozen=True)
class SumProductResult:
    marginals: dict[str, Categorical]
    converged: bool
    iterations: int
    messages: dict[tuple[str, str], np.ndarray]


class FactorGraph:
    """Bipartite variable/factor graph: structure and validation only."""

    def __init__(self, variables: Sequence[Variable], factors: Sequence[Factor]):
        self.variables = list(variables)
        self.factors = list(factors)
        self._vars = {v.id: v for v in self.variables}
        self._facs = {f.id: f for f in self.factors}
        self._validate()
        # a variable's neighbours are its factors in factor order; a factor's are its var_ids
        self._adj: dict[str, list[str]] = {v.id: [] for v in self.variables}
        for f in self.factors:
            self._adj[f.id] = list(f.var_ids)
            for vid in f.var_ids:
                self._adj[vid].append(f.id)
        # breadth-first from the first variable: each node's parent, in visit order
        self._parent: dict[str, str | None] = {self.variables[0].id: None}
        queue = deque(self._parent)
        while queue:
            node = queue.popleft()
            for nb in self._adj[node]:
                if nb not in self._parent:
                    self._parent[nb] = node
                    queue.append(nb)
        if len(self._parent) != len(self._adj):
            raise GraphStructureError("graph must be connected")

    def _validate(self):
        ids = [v.id for v in self.variables] + [f.id for f in self.factors]
        if len(set(ids)) != len(ids):
            raise GraphStructureError("node ids must be unique")
        if not self.variables:
            raise GraphStructureError("graph needs at least one variable")
        for v in self.variables:
            if v.cardinality < 1:
                raise GraphStructureError(f"variable {v.id}: cardinality must be >= 1")
        for f in self.factors:
            if len(set(f.var_ids)) != len(f.var_ids):
                raise GraphStructureError(f"factor {f.id}: repeated variable in {f.var_ids}")
            if f.table.ndim != len(f.var_ids):
                raise GraphStructureError(
                    f"factor {f.id}: table rank {f.table.ndim} != arity {len(f.var_ids)}"
                )
            if np.any(f.table < 0):
                raise GraphStructureError(f"factor {f.id}: negative table entry")
            for axis, vid in enumerate(f.var_ids):
                if vid not in self._vars:
                    raise GraphStructureError(f"factor {f.id}: unknown variable {vid}")
                want = self._vars[vid].cardinality
                if f.table.shape[axis] != want:
                    raise GraphStructureError(
                        f"factor {f.id}: axis {axis} has size {f.table.shape[axis]}, "
                        f"variable {vid} has cardinality {want}"
                    )

    def edge_list(self) -> str:
        """Plain-text dump of structure: node declarations then edges."""
        lines = [f"var {v.id} {v.cardinality}" for v in self.variables]
        lines += [f"factor {f.id} {len(f.var_ids)}" for f in self.factors]
        for f in self.factors:
            for vid in f.var_ids:
                lines.append(f"edge {f.id} {vid}")
        return "\n".join(lines) + "\n"

    def _incoming(self, vid: str, skip: str | None, msgs) -> np.ndarray:
        """Product of the messages into variable vid from every factor but skip."""
        out = np.ones(self._vars[vid].cardinality)
        for fid in self._adj[vid]:
            if fid != skip:
                out = out * msgs[(fid, vid)]
        return out

    def _message(self, src: str, dst: str, msgs) -> np.ndarray:
        """Normalized message src -> dst computed from the messages in msgs."""
        if src in self._vars:
            out = self._incoming(src, dst, msgs)
        else:
            f = self._facs[src]
            target = f.var_ids.index(dst)
            out = np.moveaxis(f.table, target, 0)
            for other in (v for i, v in enumerate(f.var_ids) if i != target):
                out = np.tensordot(out, msgs[(other, src)], axes=(1, 0))
        total = out.sum()
        if total <= 0:
            raise ZeroDivisionError(
                f"all-zero message {src} -> {dst}: contradictory evidence"
            )
        return out / total


def sum_product(g: FactorGraph, schedule: Schedule | None = None) -> SumProductResult:
    """Marginals of every variable; the graph is only read, never changed."""
    s = schedule or Schedule()
    msgs: dict[tuple[str, str], np.ndarray] = {}
    if s.mode == "tree-sweep":
        if sum(len(f.var_ids) for f in g.factors) != len(g.variables) + len(g.factors) - 1:
            raise CyclicWithTreeSweepError(
                "tree-sweep schedule requires an acyclic graph; use flooding"
            )
        # leaves to root, then root to leaves: every message's inputs come first
        upward = [(node, p) for node, p in reversed(g._parent.items()) if p is not None]
        downward = [(p, node) for node, p in g._parent.items() if p is not None]
        for src, dst in upward + downward:
            msgs[(src, dst)] = g._message(src, dst, msgs)
        converged, iterations = True, 1
    else:
        for f in g.factors:
            for vid in f.var_ids:
                card = g._vars[vid].cardinality
                msgs[(vid, f.id)] = np.full(card, 1.0 / card)
                msgs[(f.id, vid)] = np.full(card, 1.0 / card)
        for iterations in range(1, s.max_iters + 1):
            old = msgs
            msgs, residual = {}, 0.0
            for key in old:
                new = g._message(*key, old)
                mixed = normalized_exp(
                    DAMPING * log_stable(old[key]) + (1.0 - DAMPING) * log_stable(new)
                )
                residual = max(residual, float(np.max(np.abs(mixed - old[key]))))
                msgs[key] = mixed
            if residual < s.tol:
                break
        converged = residual < s.tol
    marginals = {}
    for v in g.variables:
        out = g._incoming(v.id, None, msgs)
        total = out.sum()
        if total <= 0:
            raise ZeroDivisionError(f"variable {v.id}: all marginal mass vanished")
        marginals[v.id] = Categorical(out / total)
    return SumProductResult(
        marginals=marginals, converged=converged, iterations=iterations, messages=msgs
    )


def _normalize_observations(m: GenerativeModel, obs) -> list[list[int | None]]:
    M = m.num_modalities
    if obs is None:
        return [[None] * M]
    seq = list(obs)
    if not seq:
        raise ValueError("observations must cover at least one timestep")
    if len(seq) == M and all(x is None or isinstance(x, (int, np.integer)) for x in seq):
        seq = [seq]
    steps = []
    for step in seq:
        row = list(step)
        if len(row) != M:
            raise ValueError(f"each timestep needs {M} outcome entries, got {len(row)}")
        row = [None if x is None else int(x) for x in row]
        for mm, (o, n) in enumerate(zip(row, m.modality_dims)):
            if o is not None and not 0 <= o < n:
                raise ValueError(f"outcome {o} for modality {mm} outside [0, {n})")
        steps.append(row)
    return steps


def build_dual_graph(
    m: GenerativeModel,
    obs=None,
    controls: Sequence[Sequence[int]] | None = None,
) -> FactorGraph:
    """Graph mirroring a model: one variable per hidden factor per timestep,
    unary prior factors at t=0, likelihood factors clamped by slicing when a
    modality is observed (an unobserved modality keeps a constant table so
    the graph stays connected), and pairwise transition factors between
    consecutive timesteps.

    obs: per-modality outcome indices (None = unobserved) for one timestep,
    or a list of such rows for a multi-timestep chain. controls: per
    transition, per factor control indices (defaults to control 0).
    """
    steps = _normalize_observations(m, obs)
    T = len(steps)
    if controls is None:
        controls = [[0] * m.num_factors for _ in range(T - 1)]
    if len(controls) != T - 1:
        raise ValueError(f"need {T - 1} control rows for {T} timesteps")
    if any(len(row) != m.num_factors for row in controls):
        raise ValueError(f"every control row needs {m.num_factors} entries, one per factor")

    variables = [
        Variable(id=f"s{f}@t{t}", cardinality=m.factor_dims[f])
        for t in range(T)
        for f in range(m.num_factors)
    ]
    factors: list[Factor] = []
    for f in range(m.num_factors):
        factors.append(Factor(id=f"D{f}", var_ids=(f"s{f}@t0",), table=m.D[f].probs))
    for t, row in enumerate(steps):
        state_vars = tuple(f"s{f}@t{t}" for f in range(m.num_factors))
        for mm, o in enumerate(row):
            table = m.A[mm][o] if o is not None else np.ones(m.factor_dims)
            factors.append(Factor(id=f"A{mm}@t{t}", var_ids=state_vars, table=table))
    for t in range(T - 1):
        for f in range(m.num_factors):
            u = int(controls[t][f])
            if not 0 <= u < m.num_controls[f]:
                raise ValueError(f"control {u} for factor {f} outside [0, {m.num_controls[f]})")
            factors.append(
                Factor(
                    id=f"B{f}@t{t}",
                    var_ids=(f"s{f}@t{t}", f"s{f}@t{t + 1}"),
                    table=m.B[f][:, :, u].T,
                )
            )
    return FactorGraph(variables, factors)
