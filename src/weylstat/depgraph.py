"""Dependency graphs of root sets: vertices are roots, edges join
non-orthogonal pairs.  Two indicator families with no connecting edges are
independent, so degree statistics of these graphs feed the normal
approximation bounds.

One rule, in :func:`_cells`, decides dependency.  ``clt`` and the degree
checks read only :func:`degrees`, counted from the cells' sizes; only
:func:`build_graph`, for the ``depgraph`` command, lists edges."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import PropertyViolationError, TooLargeError
from .rootsys import Root, RootSystem

ANTICHAIN_ENUMERATION_CAP = 10**6

# Most candidate pairs build_graph tests, so that its graph stays under about 1 GB:
# `depgraph` of A99 and A139 with d = rank, where every pair is an edge, peaked at
# 58 MB for 485,100 pairs and 174 MB for 1,342,740, about 120 bytes a pair.
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


# The G2 roots orthogonal in pairs, by table entry: r1 _|_ r6, r2 _|_ r4, r3 _|_ r5.
_G2_PARTNERS = {1: 6, 6: 1, 2: 4, 4: 2, 3: 5, 5: 3}


def _cells(rs: RootSystem, psi):
    """Psi's ids, ascending; each id's cells; each id's partner in Psi, or None;
    and each cell's ids.  Two distinct roots are dependent iff they share a
    cell and are not partners.  A classical root's cells are its (component,
    coordinate) pairs, and ``N[i,j]`` and ``P[i,j]``, the one pair sharing
    both, are orthogonal partners.  Every two G2 roots share a coordinate, so
    a G2 root's one cell is its component, and its partner is the one G2 root
    orthogonal to it.
    """
    id_of = {r: rs.index(r) for r in psi}
    cells, partner, members = {}, {}, {}
    for r, v in id_of.items():
        c = r.component
        if r.form == "G":
            cells[v], mate = ((c, 0),), Root(c, "G", _G2_PARTNERS[r.i])
        elif r.form == "O":
            cells[v], mate = ((c, r.i),), None
        else:
            cells[v], mate = ((c, r.i), (c, r.j)), Root(c, "P" if r.form == "N" else "N", r.i, r.j)
        partner[v] = id_of.get(mate)
        for cell in cells[v]:
            members.setdefault(cell, []).append(v)
    return sorted(cells), cells, partner, members


def degrees(rs: RootSystem, psi) -> dict[int, int]:
    """Each root id of Psi with its dependency degree, in O(|Psi|): the other
    roots in its cells, less its partner in Psi once per cell."""
    ids, cells, partner, members = _cells(rs, psi)
    return {v: sum(len(members[c]) - 1 for c in cells[v]) - len(cells[v]) * (partner[v] is not None)
            for v in ids}


def build_graph(rs: RootSystem, psi) -> DependencyGraph:
    """Graph on psi with edges between non-orthogonal distinct roots.

    Edges follow the rule of :func:`_cells`: only roots sharing a cell are
    candidates, and each is joined to all of them but its partner.
    """
    ids, cells, partner, members = _cells(rs, psi)
    pairs = sum(len(b) * (len(b) - 1) // 2 for b in members.values())
    if pairs > MAX_GRAPH_PAIRS:
        raise TooLargeError(pairs, MAX_GRAPH_PAIRS, what="candidate pair count", limit="pair limit")
    adj: dict[int, frozenset[int]] = {}
    for v in ids:
        near = {w for cell in cells[v] for w in members[cell]} - {v, partner[v]}
        # filled in ascending order, as the all-pairs loop filled it: edges() is not sorted (a frozenset
        # iterates in hash-table order) but follows the layout this gives, which the output pins
        adj[v] = frozenset(set(sorted(near)))
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
        adjacency=adj,
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
    degree = degrees(rs, roots).values()
    max_degree, edge_count = max(degree, default=0), sum(degree) // 2
    anti = rs.is_antichain(roots)
    if anti and roots:
        if edge_count > len(roots) - 1:
            raise PropertyViolationError(
                f"antichain with {edge_count} dependent pairs > |psi|-1 = {len(roots) - 1}"
            )
        if max_degree > 3:
            raise PropertyViolationError(
                f"antichain with dependency degree {max_degree} > 3"
            )
    return anti, max_degree, edge_count


def degree_bound_phi_d(rs: RootSystem, d: int):
    """Max dependency degree of the bounded-height root set, with its bound.

    Classical components obey the linear bound ``4 d``.  A G2 vertex has
    degree at most 4: the other 5 roots less its one orthogonal partner.  A
    system of G2 factors alone reports the bound 5, one less than its number
    of positive roots.
    """
    if d < 1:
        raise PropertyViolationError("d must be positive")
    degree = degrees(rs, rs.roots_up_to_height(d))
    classical_present = any(c.family != "G2" for c in rs.spec.components)
    bound = 4 * d if classical_present else 5
    for v, deg in degree.items():
        fam = rs.spec.components[rs.root(v).component].family
        limit = 4 if fam == "G2" else 4 * d
        if deg > limit:
            raise PropertyViolationError(
                f"vertex {rs.render_root(rs.root(v))} has degree {deg} > {limit}"
            )
    return max(degree.values(), default=0), bound


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
