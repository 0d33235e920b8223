"""Reference tree sum-product: the stateful factor graph that the library's
pure `sum_product` replaced, trimmed to its tree sweep and copied unchanged.

The graph stores its messages on itself; `run_tree_sweep` fills them in one
pass leaves-to-root and one root-to-leaves, and `marginal` reads a variable's
product of incoming messages. Kept so the library's marginals and messages can
be checked against it with `np.array_equal`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from beliefmesh.core import Categorical


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

    # -- message passing ----------------------------------------------------

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
