"""Positive-root catalogs for types A, B, C, D, G2 and their products.

A catalog holds every positive root of a (possibly reducible) crystallographic
system together with its height, exact inner-product data, and the cover
relations of the root poset.  Classical components live in their standard
coordinates:

* type A, rank r: ``N[i,j] = e_j - e_i`` inside ``R^(r+1)``,
* type B_n: additionally ``O[i] = e_i`` and ``P[i,j] = e_j + e_i``,
* type C_n: as B_n but ``O[i]`` is the long root ``2 e_i``,
* type D_n: ``N`` and ``P`` roots only.

G2 is realized by a fixed six-root table over its two simple roots, placed
in the plane ``x_1 + x_2 + x_3 = 0`` of ``Z^3`` (short norm 2, long norm 6),
so that every root is an integer vector with a few nonzero coordinates.
Its Weyl group is defined once here, from these vectors: ``_G2_ROWS`` holds
the 12 images of the generic point ``(-3, 1, 2)`` under the reflections in
the two simple roots, and both the object model in ``weyl`` and the counting
kernel in ``stats`` derive their G2 tables from it.  The one reflection
helper, ``_reflect``, builds these rows and every simple reflection of weyl.

Normalization note: the standard literature leaves the type C ambient scaling
open; here ``O[i]`` is stored as the long root ``2 e_i`` so that the sign of
an inner product matches the reflection geometry.  Its reflection coincides
with that of ``e_i``.

Catalog order is part of the public contract: components in spec order, and
inside a component roots sorted by ``(height, form, i, j)``.  All derived
file and CLI outputs inherit this order.

Inside a component, the roots of one form on one diagonal (``N`` roots with
equal ``j - i``, ``P`` roots with equal ``i + j``) share a height, so they
hold consecutive ids with consecutive ``i``; each ``O`` and ``G`` root is a
diagonal of its own.  A catalog stores only these runs, whose number grows
with the rank, and derives ids, heights, norms and cover parents from them
by arithmetic.  Cover parents follow from one table of rules, affine maps of
a child's ``(i, j)``; validation checks each rule on each run, allocating
nothing per root, and no part of the catalog needs numpy.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import InternalConsistencyError, InvalidSpecError, StaleRootError, TooLargeError

FAMILIES = ("A", "B", "C", "D", "G2")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 2, "G2": 2}

# Largest catalog build() accepts: A999 (499,500 roots) fits, A100000 does not.
MAX_CATALOG_ROOTS = 2_000_000

# Default cap on an exact law's price: elements enumerated, 128 per recursion transition.
DEFAULT_CAP = 10**7

# G2 root table over the simple pair (alpha short, gamma long), in catalog
# order r1..r6: coefficient vectors, whose sums are the heights.
_G2_COEFFS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))

# The same roots as sparse vectors a * alpha + b * gamma of the plane
# x_1 + x_2 + x_3 = 0, with alpha = e_3 - e_2 and gamma = 2 e_2 - e_1 - e_3:
# r1..r6 are e_3 - e_2, 2 e_2 - e_1 - e_3, e_2 - e_1, e_3 - e_1,
# 2 e_3 - e_1 - e_2 and e_2 + e_3 - 2 e_1.
_G2_VECTORS = tuple(
    tuple((k, c) for k, c in enumerate((-b, 2 * b - a, a - b), 1) if c) for a, b in _G2_COEFFS
)


def _g2_test(vector):
    """The classical test (form, i, j) that holds on a row iff it inverts the G2
    root of sparse ``vector``.  A short root e_j - e_i is an N test.  A long root
    +-(2e_k - e_a - e_b) pairs with the plane as +-3x_k, so it reads one sign:
    x_k < 0 for +2, an O test; for -2, x_k > 0, which is x_a + x_b < 0 there, a P test.
    """
    coeff = dict(vector)
    order = sorted(coeff, key=coeff.get)  # by coefficient, ties by coordinate
    if len(order) == 2:
        return ("N", *order)
    if coeff[order[-1]] == 2:
        return ("O", order[-1], 0)
    return ("P", *order[1:])


# A row of _G2_ROWS inverts the G2 root r_k iff the test of entry k holds on it.
_G2_TESTS = {k: _g2_test(v) for k, v in enumerate(_G2_VECTORS, 1)}


def _reflect(x, vector):
    """``x - 2<x, b>/<b, b> b`` for the root ``b`` of sparse 1-based ``vector``; the
    ratio is an integer at every integer point (of G2's plane, for G2)."""
    c = 2 * sum(v * x[k - 1] for k, v in vector) // sum(v * v for _, v in vector)
    y = list(x)
    for k, v in vector:
        y[k - 1] -= c * v
    return tuple(y)


def _g2_orbit(point):
    """Images of ``point`` under the reflections in r1 and r2, breadth first."""
    rows = [point]
    for x in rows:  # the list grows while it is read: a breadth-first queue
        for r in _G2_VECTORS[:2]:
            y = _reflect(x, r)
            if y not in rows:
                rows.append(y)
    return tuple(rows)


# W(G2), defined once: row t is w_t^-1 (-3, 1, 2) for element t.  The point pairs
# with r1..r6 to 1, 3, 4, 5, 6 and 9, all distinct, so each row fixes its element.
_G2_ROWS = _g2_orbit((-3, 1, 2))


class _ComponentFields(NamedTuple):
    family: str
    rank: int


class Component(_ComponentFields):
    """One irreducible factor of a system descriptor.

    A named tuple, like :class:`Root`: it equals, hashes and unpacks as the
    plain tuple ``(family, rank)``.  Construction checks the fields, also
    when a pickled copy is loaded.
    """

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in FAMILIES:
            raise InvalidSpecError(f"unknown family {family!r}")
        if family == "G2" and rank != 2:
            raise InvalidSpecError("G2 has fixed rank 2")
        if rank < _MIN_RANK[family]:
            raise InvalidSpecError(f"family {family} requires rank >= {_MIN_RANK[family]}, got {rank}")
        return super().__new__(cls, family, rank)

    def __str__(self):
        return "G2" if self.family == "G2" else f"{self.family}{self.rank}"

    @property
    def dimension(self) -> int:
        """Number of ambient coordinates used by the classical realization."""
        return _dimension(self.family, self.rank)


class _FamilySpecFields(NamedTuple):
    components: tuple[Component, ...]


class FamilySpec(_FamilySpecFields):
    """Ordered list of components in pairwise orthogonal coordinate blocks."""

    __slots__ = ()

    def __new__(cls, components: tuple[Component, ...]):
        if not components:
            raise InvalidSpecError("empty system descriptor")
        return super().__new__(cls, components)

    @property
    def rank(self) -> int:
        return sum(c.rank for c in self.components)

    def __str__(self):
        return "x".join(str(c) for c in self.components)


_COMPONENT_RE = re.compile(r"^(G2|[ABCD])(\d*)$")


def _integer(text: str, error: type[Exception]) -> int:
    """``int(text)``, raising ``error`` where Python refuses a number of too many digits."""
    try:
        return int(text)
    except ValueError:
        raise error(f"a number of {len(text.strip())} digits is too long") from None


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
            parts.append(Component(family, _integer(digits, InvalidSpecError)))
    return FamilySpec(tuple(parts))


class Root(NamedTuple):
    """A positive root: labeled classical form or a G2 table entry.

    ``form`` is one of ``N`` (e_j - e_i), ``O`` (e_i, resp. 2 e_i in type C),
    ``P`` (e_j + e_i) or ``G`` (G2 table entry ``i`` in 1..6, ``j`` unused).
    A named tuple: it hashes, compares and sorts as the plain tuple
    ``(component, form, i, j)``.
    """

    component: int
    form: str
    i: int
    j: int = 0


class _Run(NamedTuple):
    """Consecutive catalog ids holding the roots of one diagonal of one form.

    The roots are ``i = first_i .. first_i + length - 1``, ``j`` following
    from the diagonal (see :func:`_partner`); all share one height.
    """

    component: int
    form: str
    diagonal: int
    first_id: int
    first_i: int
    length: int
    height: int


class RootSystem:
    """Immutable positive-root catalog; safe to share across threads.

    Build through :func:`build`; the constructor is internal.  The catalog is
    stored as diagonal runs, so ids, heights and cover parents follow by
    arithmetic; the tuples :attr:`roots`, :attr:`heights` and :attr:`covers`
    are built the first time they are read.
    """

    def __init__(self, spec: FamilySpec, validate: bool = True):
        size = sum(_positive_root_count(c) for c in spec.components)
        if size > MAX_CATALOG_ROOTS:
            raise TooLargeError(size, MAX_CATALOG_ROOTS, what="catalog size", limit="catalog limit")
        self.spec = spec
        runs: list[_Run] = []
        comp_root_ranges: list[tuple[int, int]] = []
        start = 0
        for ci, comp in enumerate(spec.components):
            first = start
            for form, diag, i0, length, height in _component_runs(comp):
                runs.append(_Run(ci, form, diag, start, i0, length, height))
                start += length
            comp_root_ranges.append((first, start))
        self._runs = tuple(runs)
        self._run_starts = tuple(r.first_id for r in runs)
        self._run_of = {(r.component, r.form, r.diagonal): r for r in runs}
        self._comp_ranges = tuple(comp_root_ranges)
        self._size = start
        self.max_height = max(r.height for r in runs)
        if validate:
            self._validate()

    # -- basic access ------------------------------------------------------

    def __len__(self):
        return self._size

    def _locate(self, root: Root) -> tuple[_Run, int]:
        """The run holding ``root`` and its catalog id."""
        try:
            run = self._run_of[root.component, root.form, _diagonal(root.form, root.i, root.j)]
            offset = operator.index(root.i) - run.first_i
            if 0 <= offset < run.length and (run.form in "NP" or root.j == 0):
                return run, run.first_id + offset
        except (AttributeError, KeyError, TypeError):
            pass
        raise StaleRootError(f"root {root} is not in the catalog of {self.spec}")

    def index(self, root: Root) -> int:
        return self._locate(root)[1]

    def root(self, k: int) -> Root:
        """The root with catalog id ``k``."""
        k = operator.index(k)
        if not 0 <= k < self._size:
            raise IndexError(f"root id {k} out of range for {self.spec}")
        run = self._runs[bisect.bisect_right(self._run_starts, k) - 1]
        i = run.first_i + k - run.first_id
        return Root(run.component, run.form, i, _partner(run.form, run.diagonal, i))

    def height(self, root: Root) -> int:
        return self._locate(root)[0].height

    @property
    def irreducible(self) -> bool:
        return len(self.spec.components) == 1

    def simple_roots(self) -> tuple[Root, ...]:
        return self.roots_of_height(1)

    def component_root_ids(self, ci: int) -> range:
        a, b = self._comp_ranges[ci]
        return range(a, b)

    # -- materialized views ------------------------------------------------

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        """Every root in catalog order."""
        return _decode_runs(self._runs)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Height of every root, by catalog id."""
        return tuple(itertools.chain.from_iterable([r.height] * r.length for r in self._runs))

    @cached_property
    def height_index(self) -> dict[int, tuple[int, ...]]:
        """Catalog ids of each height, ascending; heights in increasing order."""
        hidx: dict[int, list[int]] = {}
        for r in self._runs:
            hidx.setdefault(r.height, []).extend(range(r.first_id, r.first_id + r.length))
        return {h: tuple(ids) for h, ids in sorted(hidx.items())}

    @cached_property
    def _parent_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``_parent_edges[k]`` lists (parent_id, simple_id) with root_k - simple = parent."""
        out: list[tuple[tuple[int, int], ...]] = []
        for run, pieces in self._cover_pieces():
            # between consecutive piece ends one set of rules applies, in rule order
            ends = {run.first_i, run.first_i + run.length}.union(*(p[:2] for p in pieces))
            for a, b in itertools.pairwise(sorted(ends)):
                edges = [zip(_ids(p, a - lo, b - lo), _ids(s, a - lo, b - lo))
                         for lo, stop, p, s in pieces if lo <= a < stop]
                out += zip(*edges) if edges else [()] * (b - a)
        return tuple(out)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Every cover (parent_id, child_id), sorted."""
        size, keys = self._size, []
        for run, pieces in self._cover_pieces():
            for lo, stop, (_, parent, step), _ in pieces:
                key = parent * size + run.first_id + lo - run.first_i  # affine in i
                keys += range(key, key + (step * size + 1) * (stop - lo), step * size + 1)
        keys.sort()
        # a list first: the garbage collector retraces a tuple grown from an iterator
        return tuple(list(map(divmod, keys, itertools.repeat(size))))

    def _cover_pieces(self):
        """Each run, in catalog order, with a piece ``[lo, stop, parent, simple]`` per rule
        that covers its roots ``lo <= i < stop``: for their parents and for the simple
        roots subtracted, (run holding them, id of the image of ``lo``, id step)."""
        rules, run_of = [_rules(c.family) for c in self.spec.components], self._run_of
        for run in self._runs:
            d, first, last = run.diagonal, run.first_i, run.first_i + run.length - 1
            pieces = []
            for conds, *targets in rules[run.component].get(run.form, ()):
                lo, hi = first, last
                for slope, b, c in conds:  # slope * i + b * d + c >= 0
                    rest = b * d + c
                    if slope > 0:
                        lo = max(lo, -(rest // slope))
                    elif slope < 0:
                        hi = min(hi, rest // -slope)
                    elif rest < 0:
                        hi = lo - 1
                if lo > hi:
                    continue
                piece = [lo, hi + 1]
                for form, (a, b, c), (e, f, g) in targets:  # both end images in one run
                    image = run_of.get((run.component, form, e * lo + f * d + g))
                    i0 = a * lo + b * d + c - image.first_i if image else -1  # offsets there;
                    i1 = i0 + a * (hi - lo)  # the diagonal moves by e per root
                    if e * (hi - lo) or not (0 <= i0 < image.length and 0 <= i1 < image.length):
                        raise InternalConsistencyError(
                            f"cover rule maps {run.form} diagonal {d} outside one {form} run")
                    piece.append((image, image.first_id + i0, a))
                pieces.append(piece)
            yield run, pieces

    # -- geometry ----------------------------------------------------------

    def inner_product(self, beta: Root, gamma: Root) -> Fraction:
        """Exact ambient inner product; 0 across components."""
        return Fraction(self.inner_product_int(beta, gamma))

    def inner_product_int(self, beta: Root, gamma: Root) -> int:
        self.index(beta)
        self.index(gamma)
        return self._ip(beta, gamma)

    def _vector(self, root: Root) -> tuple[tuple[int, int], ...]:
        """Nonzero (coordinate, coefficient) pairs of a catalog root in its component."""
        if root.form == "G":
            return _G2_VECTORS[root.i - 1]
        if root.form == "N":
            return ((root.i, -1), (root.j, 1))
        if root.form == "P":
            return ((root.i, 1), (root.j, 1))
        return ((root.i, 1 if self.spec.components[root.component].family == "B" else 2),)

    def _ip(self, rb: Root, rg: Root) -> int:
        """Inner product of two catalog roots (membership unchecked)."""
        if rb.component != rg.component:
            return 0
        # Both roots share the component's coordinate block, so its offset cancels.
        total = 0
        vg = self._vector(rg)
        for kb, cb in self._vector(rb):
            for kg, cg in vg:
                if kb == kg:
                    total += cb * cg
        return total

    def norm_sq(self, beta: Root) -> int:
        self.index(beta)
        return self._ip(beta, beta)

    def _angle(self, beta: Root, gamma: Root) -> Fraction:
        """Angle between two catalog roots as a multiple of pi, read from :data:`_ANGLES`."""
        ip = self.inner_product_int(beta, gamma)
        c = Fraction(ip * ip, self.norm_sq(beta) * self.norm_sq(gamma))
        try:
            return _ANGLES[c, (ip > 0) - (ip < 0)]
        except KeyError:
            raise InternalConsistencyError(
                f"angle between {beta} and {gamma} (cos^2 = {c}) is not crystallographic"
            ) from None

    def reflection_order(self, beta: Root, gamma: Root) -> int:
        """Order of the rotation composed of the two reflections: 1, 2, 3, 4 or 6.

        The rotation turns by twice the angle ``q * pi``, so its order is the
        denominator of ``q``.
        """
        return self._angle(beta, gamma).denominator

    # -- poset -------------------------------------------------------------

    def poset_leq(self, beta: Root, gamma: Root) -> bool:
        """True iff ``beta <= gamma`` in the root poset.

        That is, ``gamma - beta`` is a nonnegative sum of simple roots: every
        simple coefficient of ``beta`` is at most that of ``gamma``.
        """
        if self.height(beta) >= self.height(gamma):
            return beta == gamma
        low, high = self.simple_coefficients(beta), self.simple_coefficients(gamma)
        return all(b <= g for b, g in zip(low, high))

    def is_antichain(self, roots) -> bool:
        """True iff all distinct pairs are incomparable both ways."""
        ids = [self.index(r) for r in roots]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                x, y = self.root(ids[a]), self.root(ids[b])
                if self.poset_leq(x, y) or self.poset_leq(y, x):
                    return False
        return True

    # -- height slices -----------------------------------------------------

    def roots_of_height(self, d: int) -> tuple[Root, ...]:
        """All roots of height exactly ``d`` in catalog order (empty if none)."""
        return _decode_runs(r for r in self._runs if r.height == d)

    def roots_up_to_height(self, d: int) -> tuple[Root, ...]:
        """All roots of height at most ``d`` in catalog order."""
        return _decode_runs(r for r in self._runs if r.height <= d)

    def diagonal_runs(self, ids) -> dict[int, tuple[tuple[str, int, int, int], ...]]:
        """Each component's roots among the ascending ids ``ids``, as the counting kernel's
        sorted maximal runs (form, diagonal, first i, last i) of coordinate tests: ``O``
        roots share the diagonal 0 and a ``G`` root is its test in :data:`_G2_TESTS`.
        The ids are cut at the catalog's runs by bisection, so no root is decoded.
        """
        pieces, p = [], 0
        while p < len(ids):
            run = self._runs[bisect.bisect_right(self._run_starts, ids[p]) - 1]
            stop = bisect.bisect_left(ids, run.first_id + run.length, p)
            whole = ids[stop - 1] - ids[p] == stop - 1 - p  # the ids there are consecutive
            for first, last in [(ids[p], ids[stop - 1])] if whole else zip(ids[p:stop], ids[p:stop]):
                form, diag, lo = run.form, run.diagonal, run.first_i + first - run.first_id
                hi = lo + last - first
                if form == "G":  # one root, read as its coordinate test
                    form, lo, j = _G2_TESTS[lo]
                    diag, hi = _diagonal(form, lo, j), lo
                pieces.append((run.component, form, 0 if form == "O" else diag, lo, hi))
            p = stop
        out: dict[int, list] = {}
        for ci, form, diag, lo, hi in sorted(pieces):  # pieces that meet on a diagonal merge
            runs = out.setdefault(ci, [])
            if runs and runs[-1][:2] == (form, diag) and runs[-1][3] == lo - 1:
                lo = runs.pop()[2]
            runs.append((form, diag, lo, hi))
        return {ci: tuple(runs) for ci, runs in out.items()}

    # -- expansions over simple roots ---------------------------------------

    def simple_coefficients(self, root: Root) -> tuple[int, ...]:
        """Coefficients of ``root`` over the simple roots, in catalog order.

        Follows the chain of first cover parents down to a simple root; each
        step subtracts one simple root.
        """
        simple = {k: p for p, k in enumerate(self.height_index[1])}
        coeffs = [0] * len(simple)
        k = self.index(root)
        while self._parent_edges[k]:
            k, s = self._parent_edges[k][0]
            coeffs[simple[s]] += 1
        coeffs[simple[k]] += 1
        return tuple(coeffs)

    # -- validation ----------------------------------------------------------

    def _validate(self):
        for ci, comp in enumerate(self.spec.components):
            count, expected = len(self.component_root_ids(ci)), _positive_root_count(comp)
            if count != expected:
                raise InternalConsistencyError(
                    f"component {comp}: {count} roots, expected {expected}")
        orphan, graded = None, True
        for run, pieces in self._cover_pieces():
            if run.height == 1 and pieces:
                raise InternalConsistencyError("height-1 root with a cover parent")
            reach = run.first_i if run.height > 1 else run.first_i + run.length  # first uncovered
            for lo, stop, parent, simple in sorted(pieces):
                if lo <= reach < stop:
                    reach = stop
                graded &= parent[0].height == run.height - 1 and simple[0].height == 1
            if orphan is None and reach < run.first_i + run.length:
                orphan = run.first_id + reach - run.first_i
        if orphan is not None:
            raise InternalConsistencyError(f"root {self.root(orphan)} has no cover parent")
        if not graded:
            raise InternalConsistencyError("cover relation is not graded")

    # -- rendering -----------------------------------------------------------

    @cached_property
    def _component_prefixes(self) -> tuple[str, ...]:
        """Each component's prefix in the root grammar, such as ``B4`` or ``A2.1``."""
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
        return f"{self._component_prefixes[root.component]}:{body}"

    def parse_root(self, text: str) -> Root:
        """Inverse of :meth:`render_root`; accepts an optional component prefix."""
        text = text.strip()
        comp = 0
        if ":" in text:
            prefix, body = text.split(":", 1)
            prefixes = self._component_prefixes
            if prefix not in prefixes:
                raise StaleRootError(f"unknown component prefix {prefix!r} in {text!r}")
            comp = prefixes.index(prefix)
        else:
            body = text
            if not self.irreducible:
                raise StaleRootError(f"component prefix required for product system: {text!r}")
        m = re.match(r"^r(\d+)$", body)
        if m:
            root = Root(comp, "G", _integer(m.group(1), StaleRootError))
        else:
            m = re.match(r"^([NOP])\[(\d+)(?:,(\d+))?\]$", body)
            if not m:
                raise StaleRootError(f"cannot parse root {text!r}")
            form, i, j = m.group(1), _integer(m.group(2), StaleRootError), m.group(3)
            root = Root(comp, form, i, _integer(j, StaleRootError) if j is not None else 0)
        try:
            self.index(root)
        except StaleRootError:
            raise StaleRootError(f"root {text!r} is not in the catalog of {self.spec}") from None
        return root


_ANGLES = {
    # (cos^2, sign of inner product) -> angle as a multiple of pi
    (Fraction(1), 1): Fraction(0),
    (Fraction(3, 4), 1): Fraction(1, 6),
    (Fraction(1, 2), 1): Fraction(1, 4),
    (Fraction(1, 4), 1): Fraction(1, 3),
    (Fraction(0), 0): Fraction(1, 2),
    (Fraction(1, 4), -1): Fraction(2, 3),
    (Fraction(1, 2), -1): Fraction(3, 4),
    (Fraction(3, 4), -1): Fraction(5, 6),
}


def _component_runs(comp: Component):
    """(form, diagonal, first i, length, height) of each run of one component.

    Every run lies at one height and each height holds at most one run of
    each form, so sorting the runs by ``(height, form, first i)`` puts the
    roots in catalog order.
    """
    fam, n = comp.family, comp.rank
    if fam == "G2":
        return [("G", k, k, 1, sum(c)) for k, c in enumerate(_G2_COEFFS, 1)]
    dim = comp.dimension
    runs = [("N", d, 1, dim - d, d) for d in range(1, dim)]
    if fam == "B":
        runs += [("O", i, i, 1, i) for i in range(1, n + 1)]
    if fam == "C":
        runs += [("O", i, i, 1, 2 * i - 1) for i in range(1, n + 1)]
    if fam in ("B", "C", "D"):
        shift = {"B": 0, "C": -1, "D": -2}[fam]
        for s in range(3, 2 * n):  # P[i, s - i] for max(1, s - n) <= i < s / 2
            lo = max(1, s - n)
            runs.append(("P", s, lo, (s - 1) // 2 - lo + 1, s + shift))
    runs.sort(key=lambda run: (run[4], run[0], run[2]))
    return runs


def _decode_runs(runs) -> tuple[Root, ...]:
    """The roots of ``runs``, run after run."""
    out: list[Root] = []
    for r in runs:
        c, form, d = r.component, r.form, r.diagonal
        values = range(r.first_i, r.first_i + r.length)
        if form == "N":
            out.extend(Root(c, form, i, i + d) for i in values)
        elif form == "P":
            out.extend(Root(c, form, i, d - i) for i in values)
        else:
            out.extend(Root(c, form, i) for i in values)
    return tuple(out)


def _positive_root_count(comp: Component) -> int:
    fam, n = comp.family, comp.rank
    if fam == "A":
        return math.comb(comp.dimension, 2)
    if fam in ("B", "C"):
        return n * n
    if fam == "D":
        return n * (n - 1)
    return 6


def _diagonal(form: str, i, j):
    """The diagonal of a root's run: ``j - i`` for ``N``, ``i + j`` for ``P``, else ``i``."""
    if form == "N":
        return j - i
    if form == "P":
        return i + j
    return i


def _partner(form: str, diag: int, i: int) -> int:
    """The ``j`` of the root ``i`` on a diagonal (0 for ``O`` and ``G``)."""
    if form == "N":
        return i + diag
    if form == "P":
        return diag - i
    return 0


# G2 covers as (child, parent, simple) table entries, each child's parents in order.
_G2_COVERS = ((3, 2, 1), (3, 1, 2), (4, 3, 1), (5, 4, 1), (6, 5, 2))

# Cover rules of the classical families: (families, child form, conditions, parent,
# simple).  A rule subtracts a simple root from the children (form, i, j) with
# a*i + b*j + c >= 0 for each condition (a, b, c); parent and simple are (form, i', j'),
# a coordinate (a, b, c) being a*i + b*j + c.  On a run, the conditions bound i.
_I, _J, _ONE, _TWO, _NIL = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2), (0, 0, 0)
_I_1, _I1, _J_1 = (1, 0, -1), (1, 0, 1), (0, 1, -1)  # i - 1, i + 1, j - 1
_GAP, _I2, _I_LE1 = (-1, 1, -2), (1, 0, -2), (-1, 0, 1)  # i < j - 1, i >= 2, i <= 1
_COVER_RULES = (
    ("ABCD", "N", [_GAP], ("N", _I1, _J), ("N", _I, _I1)),  # N[i+1,j] + N[i,i+1]
    ("ABCD", "N", [_GAP], ("N", _I, _J_1), ("N", _J_1, _J)),  # N[i,j-1] + N[j-1,j]
    ("B", "O", [_I2], ("N", _ONE, _I), ("O", _ONE, _NIL)),  # N[1,i] + O[1]
    ("B", "O", [_I2], ("O", _I_1, _NIL), ("N", _I_1, _I)),  # O[i-1] + N[i-1,i]
    ("C", "O", [_I2], ("P", _I_1, _I), ("N", _I_1, _I)),  # P[i-1,i] + N[i-1,i]
    ("BCD", "P", [_GAP], ("P", _I, _J_1), ("N", _J_1, _J)),  # P[i,j-1] + N[j-1,j]
    ("C", "P", [(1, -1, 1)], ("O", _J_1, _NIL), ("N", _J_1, _J)),  # i = j - 1: O[j-1] + N[j-1,j]
    ("BCD", "P", [_I2], ("P", _I_1, _J), ("N", _I_1, _I)),  # P[i-1,j] + N[i-1,i]
    ("B", "P", [_I_LE1], ("O", _J, _NIL), ("O", _ONE, _NIL)),  # i = 1: O[j] + O[1]
    ("C", "P", [_I_LE1], ("N", _ONE, _J), ("O", _ONE, _NIL)),  # i = 1: N[1,j] + O[1]
    ("D", "P", [_I_LE1, (0, 1, -3)], ("N", _TWO, _J), ("P", _ONE, _TWO)),  # j > 2: N[2,j] + P[1,2]
    ("D", "P", [_I2, (-1, 0, 2)], ("N", _ONE, _J), ("P", _ONE, _TWO)),  # i = 2: N[1,j] + P[1,2]
)


def _rules(family: str) -> dict[str, list]:
    """A family's cover rules by child form, with every map a map of ``(i, d)``."""
    if family == "G2":  # entry c covers entry p, subtracting entry s
        rules = [("G", [(1, 0, -c), (-1, 0, c)], ("G", (0, 0, p), _NIL), ("G", (0, 0, s), _NIL))
                 for c, p, s in _G2_COVERS]
    else:
        rules = [rule[1:] for rule in _COVER_RULES if family in rule[0]]
    out: dict[str, list] = {}
    for form, conds, *targets in rules:
        images = [(target, mi, tuple(map(_diagonal, [target] * 3, mi, mj)))
                  for target, *maps in targets for mi, mj in [_on_run(form, maps)]]
        out.setdefault(form, []).append([_on_run(form, conds), *images])
    return out


def _on_run(form: str, maps) -> list[tuple[int, int, int]]:
    """Maps (a, b, c) of ``(i, j)`` as maps of ``(i, d)`` on a run of diagonal ``d``."""
    sigma, t = _partner(form, 0, 1), int(form in "NP")  # there j = sigma * i + t * d
    return [(a + b * sigma, b * t, c) for a, b, c in maps]


def _ids(image, a: int, b: int):
    """Ids of the images of the roots ``a .. b - 1`` of a piece, counted from its start."""
    _, first, step = image
    return range(first + a * step, first + b * step, step) if step else (first,) * (b - a)


def build(spec: FamilySpec | str, validate: bool = True) -> RootSystem:
    """Construct the full positive-root catalog for ``spec``.

    Accepts either a :class:`FamilySpec` or its string form (``"B4"``,
    ``"A3xB4"``).  Heights are stored and cross-checked against the graded
    cover relation when ``validate`` is set.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    return RootSystem(spec, validate=validate)


# -- coordinates, signs, group orders and seeds -------------------------------------
# Both engines need these: the object model in ``weyl`` and the numpy engine
# in ``stats``.  They live here, beside the catalog, so that neither engine
# has to import the other.

def _dimension(family: str, rank: int) -> int:
    """Number of coordinates of a classical component: rank + 1 for A, else rank."""
    return rank + 1 if family == "A" else rank


def _free_signs(family: str, rank: int) -> int:
    """Free signs of a classical element, 0 for A, rank for B and C, rank - 1 for D; each
    later sign is their product (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 8)."""
    return {"A": 0, "D": rank - 1}.get(family, rank)


def _sign_vectors(family: str, rank: int) -> list[tuple[int, ...]]:
    """Every sign vector of a classical element in enumeration order: the free signs
    in ``itertools.product((1, -1), repeat=free)`` order, each later sign their product."""
    dim, free = _dimension(family, rank), _free_signs(family, rank)
    return [s + (math.prod(s),) * (dim - free) for s in itertools.product((1, -1), repeat=free)]


def component_order(comp: Component) -> int:
    """Order of the Weyl group of one irreducible component."""
    if comp.family == "G2":
        return len(_G2_ROWS)
    return math.factorial(comp.dimension) << _free_signs(*comp)


def group_order(rs: RootSystem) -> int:
    return math.prod(component_order(c) for c in rs.spec.components)


def derived_seed(master: int, stream) -> int:
    """Split function for independent rng streams: sha256 of ``master:stream``."""
    import hashlib  # only seeded runs need it

    digest = hashlib.sha256(f"{master}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
