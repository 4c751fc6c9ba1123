"""Dependency graphs of root sets: vertices are roots, edges join
non-orthogonal pairs.  Two indicator families with no connecting edges are
independent, so degree statistics of these graphs feed the normal
approximation bounds."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import PropertyViolationError, TooLargeError
from .rootsys import RootSystem

ANTICHAIN_ENUMERATION_CAP = 10**6

# Most candidate pairs build_graph tests, so that its graph stays under about 1 GB:
# `depgraph` of A99 and A139 with d = rank, where every pair is an edge, peaked at
# 105 MB for 485,100 pairs and 259 MB for 1,342,740, about 180 bytes a pair.
MAX_GRAPH_PAIRS = 4_000_000


class DependencyGraph(NamedTuple):
    """Undirected graph keyed by canonical root ids; equality is decidable."""

    vertices: tuple[int, ...]
    adjacency: dict[int, frozenset[int]]
    max_degree: int
    component_sizes: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adjacency.values()) // 2

    def edges(self):
        for v in self.vertices:
            for w in self.adjacency[v]:
                if v < w:
                    yield (v, w)


def build_graph(rs: RootSystem, psi) -> DependencyGraph:
    """Graph on psi with edges between non-orthogonal distinct roots.

    Only roots whose vectors share a (component, coordinate) cell can be
    non-orthogonal, so only those pairs have their inner product tested.
    """
    ids = sorted({rs.index(r) for r in psi})
    roots = {v: rs.root(v) for v in ids}
    cells = {v: [(r.component, k) for k, _ in rs._vector(r)] for v, r in roots.items()}
    adj: dict[int, set[int]] = {v: set() for v in ids}
    buckets: dict[tuple[int, int], list[int]] = {}
    for v in ids:
        for cell in cells[v]:
            buckets.setdefault(cell, []).append(v)
    pairs = sum(len(b) * (len(b) - 1) // 2 for b in buckets.values())
    if pairs > MAX_GRAPH_PAIRS:
        raise TooLargeError(pairs, MAX_GRAPH_PAIRS, what="candidate pair count", limit="pair limit")
    for v in ids:
        # ascending pairs, as the all-pairs loop visits them: edges() follows set order
        for w in sorted({w for cell in cells[v] for w in buckets[cell] if w > v}):
            if rs._ip(roots[v], roots[w]) != 0:
                adj[v].add(w)
                adj[w].add(v)
    sizes = []
    seen: set[int] = set()
    for v in ids:
        if v in seen:
            continue
        comp = 0
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            comp += 1
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        sizes.append(comp)
    return DependencyGraph(
        vertices=tuple(ids),
        adjacency={v: frozenset(s) for v, s in adj.items()},
        max_degree=max((len(s) for s in adj.values()), default=0),
        component_sizes=tuple(sorted(sizes)),
    )


def check_antichain_degree(rs: RootSystem, psi):
    """Measure (is_antichain, max_degree, edge_count); assert antichain bounds.

    For a nonempty antichain the edge count is at most ``|psi| - 1`` and the
    maximum degree at most 3; violations raise
    :class:`PropertyViolationError`.
    """
    roots = list({rs.index(r): r for r in psi}.values())
    graph = build_graph(rs, roots)
    anti = rs.is_antichain(roots)
    if anti and roots:
        if graph.edge_count > len(roots) - 1:
            raise PropertyViolationError(
                f"antichain with {graph.edge_count} dependent pairs > |psi|-1 = {len(roots) - 1}"
            )
        if graph.max_degree > 3:
            raise PropertyViolationError(
                f"antichain with dependency degree {graph.max_degree} > 3"
            )
    return anti, graph.max_degree, graph.edge_count


def degree_bound_phi_d(rs: RootSystem, d: int):
    """Max dependency degree of the bounded-height root set, with its bound.

    Classical components obey the linear bound ``4 d``; a G2 component never
    exceeds 5 (one less than its number of positive roots).
    """
    if d < 1:
        raise PropertyViolationError("d must be positive")
    psi = rs.roots_up_to_height(d)
    graph = build_graph(rs, psi)
    classical_present = any(c.family != "G2" for c in rs.spec.components)
    bound = 4 * d if classical_present else 5
    for v in graph.vertices:
        fam = rs.spec.components[rs.root(v).component].family
        limit = 5 if fam == "G2" else 4 * d
        if len(graph.adjacency[v]) > limit:
            raise PropertyViolationError(
                f"vertex {rs.render_root(rs.root(v))} has degree "
                f"{len(graph.adjacency[v])} > {limit}"
            )
    return graph.max_degree, bound


def _antichain_count(rs: RootSystem) -> int:
    """Antichains of the root poset, the empty one included: the W-Catalan number,
    a product over the components."""
    def catalan(family, n):
        if family == "A":
            return math.comb(2 * n + 2, n + 1) // (n + 2)
        if family == "D":
            return math.comb(2 * n, n) - math.comb(2 * n - 2, n - 1)
        return 8 if family == "G2" else math.comb(2 * n, n)

    return math.prod(catalan(*c) for c in rs.spec.components)


def antichains(rs: RootSystem, limit: int = ANTICHAIN_ENUMERATION_CAP):
    """Yield every nonempty antichain (as a tuple of root ids), DFS order.

    Refuses with :class:`TooLargeError` before any work when there are more
    than ``limit``.
    """
    count = _antichain_count(rs) - 1
    if count > limit:
        raise TooLargeError(count, limit, what="antichain count", limit="antichain limit")
    n = len(rs.roots)
    comparable = [set() for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            ra, rb = rs.roots[a], rs.roots[b]
            if rs.poset_leq(ra, rb) or rs.poset_leq(rb, ra):
                comparable[a].add(b)
                comparable[b].add(a)

    def extend(chosen, start):
        for k in range(start, n):
            if any(k in comparable[c] for c in chosen):
                continue
            chosen.append(k)
            yield tuple(chosen)
            yield from extend(chosen, k + 1)
            chosen.pop()

    yield from extend([], 0)


def vertex_names(rs: RootSystem, graph: DependencyGraph) -> dict[int, str]:
    """Each vertex's root rendered once, by root id, in vertex order."""
    return {v: rs.render_root(rs.root(v)) for v in graph.vertices}


def edge_csv_rows(rs: RootSystem, graph: DependencyGraph):
    names = vertex_names(rs, graph)
    yield ("source", "target")
    for v, w in graph.edges():
        yield (names[v], names[w])


def to_dot(rs: RootSystem, graph: DependencyGraph) -> str:
    names = vertex_names(rs, graph)
    lines = ["graph dependency {"]
    lines += [f'  "{name}";' for name in names.values()]
    lines += [f'  "{names[v]}" -- "{names[w]}";' for v, w in graph.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
