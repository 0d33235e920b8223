"""Factor graphs dual to generative models, and sum-product message passing.

A graph holds variable nodes (one per hidden factor per timestep) and factor
nodes (priors, clamped likelihoods, transitions). Two schedules: an exact
single sweep pair for trees, and damped flooding for loopy graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from beliefmesh.core import Categorical, GenerativeModel, log_stable, normalized_exp

# Weight of the old log-message in each damped flooding update.
DAMPING = 0.5


class GraphStructureError(ValueError):
    """Graph violates a structural invariant (ids, shapes, connectivity)."""


class CyclicWithTreeSweepError(ValueError):
    """Tree-sweep schedule on a graph with a cycle."""


class UnknownVariableError(KeyError):
    """No variable with the requested id."""


class NotYetRunError(RuntimeError):
    """Marginals requested before any sum_product pass."""


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


class FactorGraph:
    """Bipartite variable/factor graph with a per-directed-edge message store."""

    def __init__(self, variables: Sequence[Variable], factors: Sequence[Factor]):
        self.variables = list(variables)
        self.factors = list(factors)
        self._vars = {v.id: v for v in self.variables}
        self._facs = {f.id: f for f in self.factors}
        self.messages: dict[tuple[str, str], np.ndarray] = {}
        self._ran = False
        self._validate()
        self._var_neighbors: dict[str, list[str]] = {v.id: [] for v in self.variables}
        for f in self.factors:
            for vid in f.var_ids:
                self._var_neighbors[vid].append(f.id)

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
        if not self._connected():
            raise GraphStructureError("graph must be connected")

    def _adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {v.id: [] for v in self.variables}
        for f in self.factors:
            adj[f.id] = list(f.var_ids)
            for vid in f.var_ids:
                adj[vid].append(f.id)
        return adj

    def _connected(self) -> bool:
        adj = self._adjacency()
        start = self.variables[0].id
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        return len(seen) == len(adj)

    def is_tree(self) -> bool:
        n_edges = sum(len(f.var_ids) for f in self.factors)
        n_nodes = len(self.variables) + len(self.factors)
        return n_edges == n_nodes - 1

    def edge_list(self) -> str:
        """Plain-text dump of structure: node declarations then edges."""
        lines = [f"var {v.id} {v.cardinality}" for v in self.variables]
        lines += [f"factor {f.id} {len(f.var_ids)}" for f in self.factors]
        for f in self.factors:
            for vid in f.var_ids:
                lines.append(f"edge {f.id} {vid}")
        return "\n".join(lines) + "\n"

    # -- message passing ----------------------------------------------------

    def _msg(self, src: str, dst: str, cardinality: int) -> np.ndarray:
        key = (src, dst)
        if key not in self.messages:
            self.messages[key] = np.full(cardinality, 1.0 / cardinality)
        return self.messages[key]

    def _var_to_factor(self, vid: str, fid: str, msgs) -> np.ndarray:
        v = self._vars[vid]
        out = np.ones(v.cardinality)
        for other in self._var_neighbors[vid]:
            if other != fid:
                out = out * msgs[(other, vid)]
        total = out.sum()
        if total <= 0:
            raise ZeroDivisionError(
                f"all-zero message {vid} -> {fid}: contradictory evidence"
            )
        return out / total

    def _factor_to_var(self, fid: str, vid: str, msgs) -> np.ndarray:
        f = self._facs[fid]
        target = f.var_ids.index(vid)
        t = np.moveaxis(f.table, target, 0)
        for other in (v for i, v in enumerate(f.var_ids) if i != target):
            t = np.tensordot(t, msgs[(other, fid)], axes=(1, 0))
        total = t.sum()
        if total <= 0:
            raise ZeroDivisionError(
                f"all-zero message {fid} -> {vid}: contradictory evidence"
            )
        return t / total

    def _directed_edges(self) -> list[tuple[str, str]]:
        edges = []
        for f in self.factors:
            for vid in f.var_ids:
                edges.append((vid, f.id))
                edges.append((f.id, vid))
        return edges

    def _sweep_order(self) -> list[tuple[str, str]]:
        """Directed edges of a tree ordered so every message's inputs come first."""
        adj = self._adjacency()
        root = self.variables[0].id
        parent = {root: None}
        order = [root]
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if nb not in parent:
                    parent[nb] = node
                    order.append(nb)
                    queue.append(nb)
        upward = [(node, parent[node]) for node in reversed(order) if parent[node]]
        downward = [(parent[node], node) for node in order if parent[node]]
        return upward + downward

    def run_tree_sweep(self) -> int:
        if not self.is_tree():
            raise CyclicWithTreeSweepError(
                "tree-sweep schedule requires an acyclic graph; use flooding"
            )
        for src, dst in self._sweep_order():
            if src in self._vars:
                self.messages[(src, dst)] = self._var_to_factor(src, dst, self.messages)
            else:
                self.messages[(src, dst)] = self._factor_to_var(src, dst, self.messages)
        self._ran = True
        return 1

    def run_flooding(self, max_iters: int, tol: float) -> tuple[bool, int]:
        edges = self._directed_edges()
        for src, dst in edges:
            card = self._vars[dst].cardinality if dst in self._vars else self._vars[src].cardinality
            self._msg(src, dst, card)
        iterations = 0
        residual = np.inf
        for iterations in range(1, max_iters + 1):
            old = self.messages
            fresh = {}
            for src, dst in edges:
                if src in self._vars:
                    fresh[(src, dst)] = self._var_to_factor(src, dst, old)
                else:
                    fresh[(src, dst)] = self._factor_to_var(src, dst, old)
            blended = {}
            residual = 0.0
            for key, new in fresh.items():
                mixed = normalized_exp(
                    DAMPING * log_stable(old[key]) + (1.0 - DAMPING) * log_stable(new)
                )
                residual = max(residual, float(np.max(np.abs(mixed - old[key]))))
                blended[key] = mixed
            self.messages = blended
            if residual < tol:
                break
        self._ran = True
        return residual < tol, iterations

    def marginal(self, var_id: str) -> Categorical:
        if var_id not in self._vars:
            raise UnknownVariableError(var_id)
        if not self._ran:
            raise NotYetRunError("run sum_product before asking for marginals")
        v = self._vars[var_id]
        out = np.ones(v.cardinality)
        for fid in self._var_neighbors[var_id]:
            out = out * self.messages[(fid, var_id)]
        total = out.sum()
        if total <= 0:
            raise ZeroDivisionError(f"variable {var_id}: all marginal mass vanished")
        return Categorical(out / total)


def sum_product(g: FactorGraph, schedule: Schedule | None = None) -> SumProductResult:
    s = schedule or Schedule()
    if s.mode == "tree-sweep":
        iterations = g.run_tree_sweep()
        converged = True
    else:
        converged, iterations = g.run_flooding(s.max_iters, s.tol)
    marginals = {v.id: g.marginal(v.id) for v in g.variables}
    return SumProductResult(marginals=marginals, converged=converged, iterations=iterations)


def marginal(g: FactorGraph, var_id: str) -> Categorical:
    return g.marginal(var_id)


def _normalize_observations(m: GenerativeModel, obs) -> list[list[int | None]]:
    M = m.num_modalities
    if obs is None:
        return [[None] * M]
    seq = list(obs)
    if not seq:
        raise ValueError("observations must cover at least one timestep")
    if len(seq) == M and all(x is None or isinstance(x, (int, np.integer)) for x in seq):
        return [[None if x is None else int(x) for x in seq]]
    steps = []
    for step in seq:
        row = list(step)
        if len(row) != M:
            raise ValueError(f"each timestep needs {M} outcome entries, got {len(row)}")
        steps.append([None if x is None else int(x) for x in row])
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
            factors.append(
                Factor(
                    id=f"B{f}@t{t}",
                    var_ids=(f"s{f}@t{t}", f"s{f}@t{t + 1}"),
                    table=m.B[f][:, :, u].T,
                )
            )
    return FactorGraph(variables, factors)
