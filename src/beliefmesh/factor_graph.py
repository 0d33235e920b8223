"""Tree factor graphs and exact sum-product message passing.

A graph holds variable nodes and factor nodes (tables over their variables),
and nothing else: no messages, no run state. `sum_product` is a pure function
of an acyclic graph that returns every variable's marginal and the final
messages, from one sweep leaves-to-root and one root-to-leaves; on a tree
that pair of sweeps is exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Categorical


class GraphStructureError(ValueError):
    """Graph violates a structural invariant (ids, shapes, connectivity)."""


class CyclicWithTreeSweepError(ValueError):
    """Tree sweep asked of a graph with a cycle."""


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
class SumProductResult:
    marginals: dict[str, Categorical]
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


def sum_product(g: FactorGraph) -> SumProductResult:
    """Exact marginals of every variable of a tree; the graph is only read, never changed."""
    if sum(len(f.var_ids) for f in g.factors) != len(g.variables) + len(g.factors) - 1:
        raise CyclicWithTreeSweepError("sum-product tree sweep requires an acyclic graph")
    # leaves to root, then root to leaves: every message's inputs come first
    upward = [(node, p) for node, p in reversed(g._parent.items()) if p is not None]
    downward = [(p, node) for node, p in g._parent.items() if p is not None]
    msgs: dict[tuple[str, str], np.ndarray] = {}
    for src, dst in upward + downward:
        msgs[(src, dst)] = g._message(src, dst, msgs)
    marginals = {}
    for v in g.variables:
        out = g._incoming(v.id, None, msgs)
        total = out.sum()
        if total <= 0:
            raise ZeroDivisionError(f"variable {v.id}: all marginal mass vanished")
        marginals[v.id] = Categorical(out / total)
    return SumProductResult(marginals=marginals, messages=msgs)
