"""Pearson screening of linearly related parameters and keep/remove selection.

Parameters are only ever screened within one measurement group; biochemical
(fluid phase) and hematologic (cellular phase) parameters are never
correlated against each other, which the API enforces by building one graph
per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NoReturn

import numpy as np

from .records import CaseRecord, value_columns


class Group(str, Enum):
    BIOCHEMICAL = "biochem"
    HEMATOLOGIC = "hematologic"


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise Pearson coefficients; undefined pairs are simply absent."""

    params: tuple[str, ...]
    coefficients: dict[tuple[str, str], float]  # keyed (a, b) with a < b


def check_min_pairs(min_pairs: int) -> None:
    """A coefficient needs at least two shared cases."""
    if min_pairs < 2:
        raise ValueError("min_pairs must be at least 2")


def check_threshold(threshold: float) -> None:
    """An edge threshold is a coefficient magnitude in (0, 1]."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")


def pearson_matrix(
    cases: Iterable[CaseRecord], params: Iterable[str], min_pairs: int
) -> CorrelationMatrix:
    """Pairwise-complete Pearson coefficients over the given parameters.

    A pair gets no entry when fewer than min_pairs cases carry both values,
    or when either column is constant on the shared cases. Insufficient data
    just leaves the pair undefined; a non-finite measured value is an error,
    and the first one in case order, then parameter order, is named. cases
    is read once, into one float64 column per parameter
    (records.value_columns), whose finiteness is checked column-wise.
    """
    check_min_pairs(min_pairs)
    params = tuple(params)
    if not params:
        raise ValueError("no parameters to correlate")
    cases = list(cases)
    columns = value_columns(cases, params)
    if columns is None:
        _refuse_first_non_finite(cases, params)
    coefficients: dict[tuple[str, str], float] = {}
    for i, a in enumerate(params):
        for b in params[i + 1:]:
            xa, xb = columns[a], columns[b]
            shared = ~np.isnan(xa) & ~np.isnan(xb)
            if int(shared.sum()) < min_pairs:
                continue
            # exact power-of-two scaling to max |x| in [0.5, 1): no moment overflows
            x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (xa[shared], xb[shared]))
            sx, sy = float(x.std()), float(y.std())
            if sx == 0.0 or sy == 0.0:
                continue
            r = float(((x - x.mean()) * (y - y.mean())).mean()) / (sx * sy)
            key = (a, b) if a < b else (b, a)
            coefficients[key] = max(-1.0, min(1.0, r))
    return CorrelationMatrix(params, coefficients)


def _refuse_first_non_finite(cases: list[CaseRecord], params: tuple[str, ...]) -> NoReturn:
    """Raise for the first non-finite value in case order, then parameter order."""
    for case in cases:
        for p in params:
            if not math.isfinite(case.values.get(p, 0.0)):
                raise ValueError(f"case {case.case_id}: non-finite value {case.values[p]} for {p}")
    raise AssertionError("no measured value is non-finite")


@dataclass(frozen=True)
class CorrelationGraph:
    """Parameters of one group, with edges where |r| reached the threshold."""

    group: Group
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    threshold: float


def build_graph(
    matrix: CorrelationMatrix, threshold: float, group: Group = Group.BIOCHEMICAL
) -> CorrelationGraph:
    """Keep an edge for every pair whose coefficient magnitude reaches threshold."""
    check_threshold(threshold)
    group = Group(group)
    edges = tuple(
        (a, b, r)
        for (a, b), r in sorted(matrix.coefficients.items())
        if abs(r) >= threshold
    )
    return CorrelationGraph(group, tuple(matrix.params), edges, threshold)


@dataclass(frozen=True)
class ComponentDecision:
    """What happened to one connected component."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    kept: tuple[str, ...]
    removed: tuple[str, ...]
    rule: str


@dataclass(frozen=True)
class PruneResult:
    kept: frozenset[str]
    removed: frozenset[str]
    components: tuple[ComponentDecision, ...]


def prune_components(graph: CorrelationGraph) -> PruneResult:
    """Decide, per connected component, which parameters stay.

    Rules in order: isolated nodes always stay; in a two-node component the
    lexicographically first name stays (a fixed stand-in for an arbitrary
    pick); when every node has the same degree, the node with the largest
    total |r| over its edges stays alone; otherwise the highest-degree node
    is the hub and stays together with every neighbour that also touches a
    second node. Ties anywhere fall back to the |r| total, then the name, so
    identical inputs always give identical results.
    """
    adjacency: dict[str, dict[str, float]] = {node: {} for node in graph.nodes}
    for a, b, r in graph.edges:
        adjacency[a][b] = r
        adjacency[b][a] = r
    weight = {nd: math.fsum(abs(r) for r in adjacency[nd].values()) for nd in graph.nodes}
    degree = {nd: len(adjacency[nd]) for nd in graph.nodes}

    decisions = []
    visited: set[str] = set()
    for start in graph.nodes:
        if start in visited:
            continue
        component = _component(start, adjacency)
        visited |= component
        nodes = tuple(sorted(component))
        edges = tuple((a, b, r) for a, b, r in graph.edges if a in component)
        if len(nodes) == 1:
            kept, rule = set(nodes), "isolated"
        elif len(nodes) == 2:
            kept, rule = {nodes[0]}, "two-node-first-name"
        elif len({degree[nd] for nd in nodes}) == 1:
            best = min(nodes, key=lambda nd: (-weight[nd], nd))
            kept, rule = {best}, "equal-degree-max-weight"
        else:
            hub = min(nodes, key=lambda nd: (-degree[nd], -weight[nd], nd))
            kept = {hub} | {nd for nd in adjacency[hub] if degree[nd] >= 2}
            rule = "hub-and-shared-neighbours"
        removed = component - kept
        decisions.append(
            ComponentDecision(nodes, edges, tuple(sorted(kept)), tuple(sorted(removed)), rule)
        )
    kept_all = frozenset(nd for d in decisions for nd in d.kept)
    removed_all = frozenset(nd for d in decisions for nd in d.removed)
    return PruneResult(kept_all, removed_all, tuple(decisions))


def _component(start: str, adjacency: dict[str, dict[str, float]]) -> set[str]:
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop()
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    return seen
