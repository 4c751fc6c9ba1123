"""Positive-root catalogs for types A, B, C, D, G2 and their products.

A catalog holds every positive root of a (possibly reducible) crystallographic
system together with its height, exact inner-product data, and the cover
relations of the root poset.  Classical components live in their standard
coordinates:

* type A, rank r: ``N[i,j] = e_j - e_i`` inside ``R^(r+1)``,
* type B_n: additionally ``O[i] = e_i`` and ``P[i,j] = e_j + e_i``,
* type C_n: as B_n but ``O[i]`` is the long root ``2 e_i``,
* type D_n: ``N`` and ``P`` roots only.

G2 is realized by a fixed six-root table over its two simple roots with an
exact 2x2 Gram matrix (short norm 2, long norm 6), avoiding irrational
ambient coordinates.

Normalization note: the standard literature leaves the type C ambient scaling
open; here ``O[i]`` is stored as the long root ``2 e_i`` so that the sign of
an inner product matches the reflection geometry.  Its reflection coincides
with that of ``e_i``.

Catalog order is part of the public contract: components in spec order, and
inside a component roots sorted by ``(height, form, i, j)``.  All derived
file and CLI outputs inherit this order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InternalConsistencyError, InvalidSpecError, StaleRootError

FAMILIES = ("A", "B", "C", "D", "G2")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 2, "G2": 2}

# G2 root table over the simple pair (alpha short, gamma long), in catalog
# order r1..r6: coefficient vectors, heights, squared norms and Gram matrix.
_G2_COEFFS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))
_G2_HEIGHTS = (1, 1, 2, 3, 4, 5)
_G2_GRAM = ((2, -3), (-3, 6))


def _g2_ip(u, v):
    (a, b), (c, d) = u, v
    return 2 * a * c + 6 * b * d - 3 * (a * d + b * c)


@dataclass(frozen=True)
class Component:
    """One irreducible factor of a system descriptor."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpecError(f"unknown family {self.family!r}")
        if self.family == "G2" and self.rank != 2:
            raise InvalidSpecError("G2 has fixed rank 2")
        if self.rank < _MIN_RANK[self.family]:
            raise InvalidSpecError(
                f"family {self.family} requires rank >= {_MIN_RANK[self.family]}, got {self.rank}"
            )

    def __str__(self):
        return "G2" if self.family == "G2" else f"{self.family}{self.rank}"

    @property
    def dimension(self) -> int:
        """Number of ambient coordinates used by the classical realization."""
        if self.family == "A":
            return self.rank + 1
        return self.rank


@dataclass(frozen=True)
class FamilySpec:
    """Ordered list of components in pairwise orthogonal coordinate blocks."""

    components: tuple[Component, ...]

    def __post_init__(self):
        if not self.components:
            raise InvalidSpecError("empty system descriptor")

    @property
    def rank(self) -> int:
        return sum(c.rank for c in self.components)

    def __str__(self):
        return "x".join(str(c) for c in self.components)


_COMPONENT_RE = re.compile(r"^(G2|[ABCD])(\d*)$")


def parse_spec(text: str) -> FamilySpec:
    """Parse a descriptor like ``A4``, ``B10``, ``G2`` or ``A3xB4``."""
    parts = []
    for token in text.strip().split("x"):
        m = _COMPONENT_RE.match(token.strip())
        if not m:
            raise InvalidSpecError(f"cannot parse component {token!r}")
        family, digits = m.groups()
        if family == "G2":
            if digits:
                raise InvalidSpecError("G2 takes no rank suffix")
            parts.append(Component("G2", 2))
        else:
            if not digits:
                raise InvalidSpecError(f"missing rank in component {token!r}")
            parts.append(Component(family, int(digits)))
    return FamilySpec(tuple(parts))


@dataclass(frozen=True, order=True)
class Root:
    """A positive root: labeled classical form or a G2 table entry.

    ``form`` is one of ``N`` (e_j - e_i), ``O`` (e_i, resp. 2 e_i in type C),
    ``P`` (e_j + e_i) or ``G`` (G2 table entry ``i`` in 1..6, ``j`` unused).
    """

    component: int
    form: str
    i: int
    j: int = 0


class RootSystem:
    """Immutable positive-root catalog; safe to share across threads.

    Build through :func:`build`; the constructor is internal.
    """

    def __init__(self, spec: FamilySpec, validate: bool = True):
        self.spec = spec
        roots: list[Root] = []
        heights: list[int] = []
        norms: list[int] = []
        # parent_edges[k] lists (parent_id, simple_id) with root_k - simple = parent.
        parent_edges: list[tuple[tuple[int, int], ...]] = []
        comp_root_ranges: list[tuple[int, int]] = []

        for ci, comp in enumerate(spec.components):
            start = len(roots)
            items = _component_roots(ci, comp)
            locate = _locator(items, start)
            for root, ht in items:
                roots.append(root)
                heights.append(ht)
                norms.append(_norm_sq(comp.family, root))
                parent_edges.append(_cover_parents(comp.family, root, locate))
            comp_root_ranges.append((start, len(roots)))

        self.roots: tuple[Root, ...] = tuple(roots)
        self.heights: tuple[int, ...] = tuple(heights)
        self._norms = tuple(norms)
        self._index = {r: k for k, r in enumerate(roots)}
        self._comp_ranges = tuple(comp_root_ranges)

        hidx: dict[int, list[int]] = {}
        for k, h in enumerate(heights):
            hidx.setdefault(h, []).append(k)
        self.height_index = {h: tuple(ids) for h, ids in sorted(hidx.items())}
        self.max_height = max(heights)

        self._parent_edges = tuple(parent_edges)
        self.covers: tuple[tuple[int, int], ...] = tuple(
            sorted((p, k) for k, edges in enumerate(parent_edges) for p, _ in edges)
        )

        if validate:
            self._validate()

    # -- basic access ------------------------------------------------------

    def __len__(self):
        return len(self.roots)

    def index(self, root: Root) -> int:
        try:
            return self._index[root]
        except KeyError:
            raise StaleRootError(f"root {root} is not in the catalog of {self.spec}") from None

    def height(self, root: Root) -> int:
        return self.heights[self.index(root)]

    def component_family(self, root: Root) -> str:
        return self.spec.components[root.component].family

    @property
    def irreducible(self) -> bool:
        return len(self.spec.components) == 1

    def simple_roots(self) -> tuple[Root, ...]:
        return tuple(self.roots[k] for k in self.height_index[1])

    def component_root_ids(self, ci: int) -> range:
        a, b = self._comp_ranges[ci]
        return range(a, b)

    # -- geometry ----------------------------------------------------------

    def inner_product(self, beta: Root, gamma: Root) -> Fraction:
        """Exact ambient inner product; 0 across components."""
        return Fraction(self.inner_product_int(beta, gamma))

    def inner_product_int(self, beta: Root, gamma: Root) -> int:
        b, g = self.index(beta), self.index(gamma)
        return self._ip_ids(b, g)

    def _ip_ids(self, b: int, g: int) -> int:
        rb, rg = self.roots[b], self.roots[g]
        if rb.component != rg.component:
            return 0
        if rb.form == "G":
            return _g2_ip(_G2_COEFFS[rb.i - 1], _G2_COEFFS[rg.i - 1])
        # Both roots share the component's coordinate block, so its offset cancels.
        fam = self.spec.components[rb.component].family
        total = 0
        for ib, cb in _sparse_vector(fam, rb):
            for ig, cg in _sparse_vector(fam, rg):
                if ib == ig:
                    total += cb * cg
        return total

    def norm_sq(self, beta: Root) -> int:
        return self._norms[self.index(beta)]

    def reflection_order(self, beta: Root, gamma: Root) -> int:
        """Order of the rotation composed of the two reflections: 1, 2, 3, 4 or 6."""
        b, g = self.index(beta), self.index(gamma)
        ip = self._ip_ids(b, g)
        c = Fraction(ip * ip, self._norms[b] * self._norms[g])
        try:
            return _ORD_FROM_COS2[c]
        except KeyError:
            raise InternalConsistencyError(
                f"cos^2 angle {c} between {beta} and {gamma} is not crystallographic"
            ) from None

    # -- poset -------------------------------------------------------------

    @cached_property
    def _ancestor_masks(self) -> tuple[int, ...] | None:
        # Bitmask DP over the graded cover relation; skipped for huge catalogs.
        if len(self.roots) > 4096:
            return None
        masks = [0] * len(self.roots)
        for h in sorted(self.height_index):
            if h == 1:
                continue
            for k in self.height_index[h]:
                m = 0
                for p, _ in self._parent_edges[k]:
                    m |= masks[p] | (1 << p)
                masks[k] = m
        return tuple(masks)

    def poset_leq(self, beta: Root, gamma: Root) -> bool:
        """True iff ``beta <= gamma`` in the root poset (closure of covers)."""
        b, g = self.index(beta), self.index(gamma)
        if b == g:
            return True
        if self.heights[b] >= self.heights[g]:
            return False
        masks = self._ancestor_masks
        if masks is not None:
            return bool(masks[g] >> b & 1)
        seen = {g}
        frontier = [g]
        while frontier:
            nxt = []
            for k in frontier:
                for p, _ in self._parent_edges[k]:
                    if p == b:
                        return True
                    if p not in seen and self.heights[p] > self.heights[b]:
                        seen.add(p)
                        nxt.append(p)
            frontier = nxt
        return False

    def is_antichain(self, roots) -> bool:
        """True iff all distinct pairs are incomparable both ways."""
        ids = [self.index(r) for r in roots]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                x, y = self.roots[ids[a]], self.roots[ids[b]]
                if self.poset_leq(x, y) or self.poset_leq(y, x):
                    return False
        return True

    # -- height slices -----------------------------------------------------

    def roots_of_height(self, d: int) -> tuple[Root, ...]:
        """All roots of height exactly ``d`` in catalog order (empty if none)."""
        return tuple(self.roots[k] for k in self.height_index.get(d, ()))

    def roots_up_to_height(self, d: int) -> tuple[Root, ...]:
        """All roots of height at most ``d`` in catalog order."""
        return tuple(r for k, r in enumerate(self.roots) if self.heights[k] <= d)

    # -- expansions over simple roots ---------------------------------------

    @cached_property
    def _expansions(self) -> tuple[tuple[int, ...], ...]:
        simple_pos = {k: p for p, k in enumerate(self.height_index[1])}
        n_simple = len(simple_pos)
        exp = [None] * len(self.roots)
        for h in sorted(self.height_index):
            for k in self.height_index[h]:
                if h == 1:
                    v = [0] * n_simple
                    v[simple_pos[k]] = 1
                else:
                    p, s = self._parent_edges[k][0]
                    v = list(exp[p])
                    v[simple_pos[s]] += 1
                exp[k] = tuple(v)
        return tuple(exp)

    def simple_coefficients(self, root: Root) -> tuple[int, ...]:
        """Coefficients of ``root`` over the simple roots, in catalog order."""
        return self._expansions[self.index(root)]

    # -- validation ----------------------------------------------------------

    def _validate(self):
        for ci, comp in enumerate(self.spec.components):
            count = len(self.component_root_ids(ci))
            expected = _positive_root_count(comp)
            if count != expected:
                raise InternalConsistencyError(
                    f"component {comp}: {count} roots, expected {expected}"
                )
        for k in range(len(self.roots)):
            h = self.heights[k]
            edges = self._parent_edges[k]
            if h == 1:
                if edges:
                    raise InternalConsistencyError("height-1 root with a cover parent")
            else:
                if not edges:
                    raise InternalConsistencyError(f"root {self.roots[k]} has no cover parent")
                for p, s in edges:
                    if self.heights[p] != h - 1 or self.heights[s] != 1:
                        raise InternalConsistencyError("cover relation is not graded")

    # -- rendering -----------------------------------------------------------

    def _component_prefixes(self) -> tuple[str, ...]:
        # repeated components get an ordinal suffix so parsing stays injective
        names = [str(c) for c in self.spec.components]
        dup = {n for n in names if names.count(n) > 1}
        occur: dict[str, int] = {}
        out = []
        for name in names:
            occur[name] = occur.get(name, 0) + 1
            out.append(f"{name}.{occur[name]}" if name in dup else name)
        return tuple(out)

    def render_root(self, root: Root) -> str:
        """Render in the CLI/CSV grammar, e.g. ``N[1,4]``, ``B4:P[1,2]``, ``r5``."""
        self.index(root)
        if root.form == "G":
            body = f"r{root.i}"
        elif root.form == "O":
            body = f"O[{root.i}]"
        else:
            body = f"{root.form}[{root.i},{root.j}]"
        if self.irreducible:
            return body
        return f"{self._component_prefixes()[root.component]}:{body}"

    def parse_root(self, text: str) -> Root:
        """Inverse of :meth:`render_root`; accepts an optional component prefix."""
        text = text.strip()
        comp = 0
        if ":" in text:
            prefix, body = text.split(":", 1)
            prefixes = self._component_prefixes()
            if prefix in prefixes:
                comp = prefixes.index(prefix)
            else:
                plain = [str(c) for c in self.spec.components]
                if prefix not in plain:
                    raise StaleRootError(f"unknown component prefix {prefix!r} in {text!r}")
                comp = plain.index(prefix)
        else:
            body = text
            if not self.irreducible:
                raise StaleRootError(f"component prefix required for product system: {text!r}")
        m = re.match(r"^r(\d+)$", body)
        if m:
            root = Root(comp, "G", int(m.group(1)))
        else:
            m = re.match(r"^([NOP])\[(\d+)(?:,(\d+))?\]$", body)
            if not m:
                raise StaleRootError(f"cannot parse root {text!r}")
            form, i, j = m.group(1), int(m.group(2)), m.group(3)
            root = Root(comp, form, i, int(j) if j is not None else 0)
        self.index(root)  # membership check
        return root


_ORD_FROM_COS2 = {
    Fraction(0): 2,
    Fraction(1, 4): 3,
    Fraction(1, 2): 4,
    Fraction(3, 4): 6,
    Fraction(1): 1,
}


def _component_roots(ci: int, comp: Component):
    """Yield (root, height) pairs of one component, sorted by (height, form, i, j)."""
    fam, n = comp.family, comp.rank
    items = []
    if fam == "G2":
        for k in range(6):
            items.append((Root(ci, "G", k + 1), _G2_HEIGHTS[k]))
    else:
        dim = comp.dimension
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                items.append((Root(ci, "N", i, j), j - i))
        if fam == "B":
            for i in range(1, n + 1):
                items.append((Root(ci, "O", i), i))
        if fam == "C":
            for i in range(1, n + 1):
                items.append((Root(ci, "O", i), 2 * i - 1))
        if fam in ("B", "C", "D"):
            shift = {"B": 0, "C": -1, "D": -2}[fam]
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    items.append((Root(ci, "P", i, j), i + j + shift))
    items.sort(key=lambda t: (t[1], t[0].form, t[0].i, t[0].j))
    return items


def _positive_root_count(comp: Component) -> int:
    fam, n = comp.family, comp.rank
    if fam == "A":
        m = n + 1
        return m * (m - 1) // 2
    if fam in ("B", "C"):
        return n * n
    if fam == "D":
        return n * (n - 1)
    return 6


def _norm_sq(fam: str, root: Root) -> int:
    if fam == "G2":
        v = _G2_COEFFS[root.i - 1]
        return _g2_ip(v, v)
    if root.form == "O":
        return 1 if fam == "B" else 4
    return 2


def _sparse_vector(fam: str, root: Root) -> tuple[tuple[int, int], ...]:
    """Nonzero (coordinate, coefficient) pairs of a classical root in its component."""
    if root.form == "N":
        return ((root.i, -1), (root.j, 1))
    if root.form == "P":
        return ((root.i, 1), (root.j, 1))
    return ((root.i, 1 if fam == "B" else 2),)


def _locator(items, start: int):
    """Catalog id of a root of one component, from its (form, i, j).

    Roots on one diagonal (``N`` roots with equal ``j - i``, ``P`` roots with
    equal ``i + j``) share a height, so catalog order keeps them contiguous
    with consecutive ``i``; ``O`` and ``G`` roots are diagonals of their own.
    One table entry per diagonal therefore locates every root.
    """
    first: dict[tuple[str, int], tuple[int, int]] = {}
    for k, (r, _) in enumerate(items, start):
        first.setdefault((r.form, _diagonal(r.form, r.i, r.j)), (k, r.i))

    def locate(form: str, i: int, j: int = 0) -> int:
        k, i0 = first[(form, _diagonal(form, i, j))]
        return k + i - i0

    return locate


def _diagonal(form: str, i: int, j: int) -> int:
    if form == "N":
        return j - i
    if form == "P":
        return i + j
    return i


def _cover_parents(fam: str, r: Root, locate) -> tuple[tuple[int, int], ...]:
    """Ids of the roots obtained by subtracting one simple root, as (parent, simple) pairs."""
    out = []
    if fam == "G2":
        k = r.i
        if k == 3:
            out = [(locate("G", 2), locate("G", 1)), (locate("G", 1), locate("G", 2))]
        elif k == 4:
            out = [(locate("G", 3), locate("G", 1))]
        elif k == 5:
            out = [(locate("G", 4), locate("G", 1))]
        elif k == 6:
            out = [(locate("G", 5), locate("G", 2))]
        return tuple(out)

    i, j = r.i, r.j
    if r.form == "N":
        if i + 1 < j:
            out.append((locate("N", i + 1, j), locate("N", i, i + 1)))
            out.append((locate("N", i, j - 1), locate("N", j - 1, j)))
        return tuple(out)

    if r.form == "O":
        if fam == "B":
            if i > 1:
                out.append((locate("N", 1, i), locate("O", 1)))
                out.append((locate("O", i - 1), locate("N", i - 1, i)))
        else:  # type C
            if i > 1:
                out.append((locate("P", i - 1, i), locate("N", i - 1, i)))
        return tuple(out)

    # P roots
    if fam == "B":
        if i < j - 1:
            out.append((locate("P", i, j - 1), locate("N", j - 1, j)))
        if i >= 2:
            out.append((locate("P", i - 1, j), locate("N", i - 1, i)))
        if i == 1:
            out.append((locate("O", j), locate("O", 1)))
    elif fam == "C":
        if i < j - 1:
            out.append((locate("P", i, j - 1), locate("N", j - 1, j)))
        else:  # i == j - 1: subtracting N[j-1,j] leaves the long root 2 e_{j-1}
            out.append((locate("O", j - 1), locate("N", j - 1, j)))
        if i >= 2:
            out.append((locate("P", i - 1, j), locate("N", i - 1, i)))
        if i == 1:
            out.append((locate("N", 1, j), locate("O", 1)))
    else:  # type D
        if i < j - 1:
            out.append((locate("P", i, j - 1), locate("N", j - 1, j)))
        if i >= 2 and not (i - 1 == 1 and j == 2):
            out.append((locate("P", i - 1, j), locate("N", i - 1, i)))
        if i == 1 and j > 2:
            out.append((locate("N", 2, j), locate("P", 1, 2)))
        if i == 2:
            out.append((locate("N", 1, j), locate("P", 1, 2)))
    return tuple(out)


def build(spec: FamilySpec | str, validate: bool = True) -> RootSystem:
    """Construct the full positive-root catalog for ``spec``.

    Accepts either a :class:`FamilySpec` or its string form (``"B4"``,
    ``"A3xB4"``).  Heights are stored and cross-checked against the graded
    cover relation when ``validate`` is set.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    return RootSystem(spec, validate=validate)
