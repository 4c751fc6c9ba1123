"""Weyl group elements, their action on roots, enumeration and sampling.

An element is read through its row ``w^-1 p``, for a generic dominant point
``p`` of each component: a root ``beta`` is an inversion iff
``<beta, w^-1 p> < 0``.  A classical component has ``p = (1, ..., n)``, and its
row is the signed one-line word that :func:`render_element` prints; the part
stores it as a permutation of ``1..n`` plus a sign vector, by ``rootsys``'s
one sign rule (type A: all signs positive; type D: evenly many negative
signs).  The G2 component has ``p = (-3, 1, 2)``, and its part is the index
of its row in ``rootsys._G2_ROWS``; the 12-element group table is read off
the root vectors.  The constructors make each part from its row, and the
simple reflections reflect ``p`` by ``rootsys``'s one reflection formula.
Roots, parts and elements are named tuples (:class:`~weylstat.rootsys.Root`,
:class:`SignedPermPart`, :class:`G2Part`, :class:`WeylElement`), so
construction runs in C, and a ``Root`` or a part hashes and compares in C
too; a ``Root`` therefore also equals the plain tuple of its fields and
unpacks like one.  An element keeps its own equality: its parts and its
system's descriptor, not the catalog object.

Composition convention, locked by tests: ``compose(u, v)`` is the map
``x -> u(v(x))``.

Enumeration order is a public contract: per component, lexicographic
permutations crossed with ``rootsys._sign_vectors`` (lexicographic in the free
signs, ``+`` before ``-``), components combined most-significant-first; G2 in
table order.
"""

from __future__ import annotations

import itertools
import random  # annotations only, but typing.get_type_hints resolves them at run time
import re
import weakref
from math import prod
from operator import itemgetter, mul
from typing import NamedTuple

from .errors import ComponentMismatchError, TooLargeError, WeylstatError
# Group orders, the cap and the seed split are defined beside the catalog and
# re-exported here unchanged.
from .rootsys import (
    _G2_ROWS,
    _G2_VECTORS,
    DEFAULT_CAP,
    Root,
    RootSystem,
    _free_signs,
    _integer,
    _reflect,
    _sign_vectors,
    component_order,
    derived_seed,
    group_order,
)


# -- G2 group table ----------------------------------------------------------

def _g2_compose(u, v):
    return tuple(u[abs(t) - 1] * (1 if t > 0 else -1) for t in v)


# Element t as the signed indices of w_t(r1..r6).  w_t^-1 (-3, 1, 2) is row t, so
# w_t(r_k) is the signed root whose pairing with (-3, 1, 2), row 0, is <r_k, row t>.
_G2_PAIRINGS = tuple(tuple(sum(c * x[k - 1] for k, c in v) for v in _G2_VECTORS) for x in _G2_ROWS)
_G2_ELEMS = tuple(
    tuple((_G2_PAIRINGS[0].index(abs(p)) + 1) * (1 if p > 0 else -1) for p in row) for row in _G2_PAIRINGS
)
_G2_MUL = tuple(tuple(_G2_ELEMS.index(_g2_compose(a, b)) for b in _G2_ELEMS) for a in _G2_ELEMS)
_G2_INV = tuple(row.index(0) for row in _G2_MUL)
_G2_ORDER = len(_G2_ELEMS)
# Per-element bitmask over the six roots: bit k set iff r_{k+1} is an inversion.
_G2_INV_MASKS = tuple(
    sum(1 << k for k, t in enumerate(g) if t < 0) for g in _G2_ELEMS
)


# -- element data model -------------------------------------------------------

class SignedPermPart(NamedTuple):
    """One classical component: ``e_i -> signs[i-1] * e_(perm[i-1])``."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]


class G2Part(NamedTuple):
    """The G2 component: an index into the 12-element group table."""

    index: int


class WeylElement(NamedTuple):
    """Immutable group element of the system it was created for.

    Two elements are equal when their systems have the same descriptor and
    their parts are equal; the catalog object itself is not compared, and
    the repr leaves it out.
    """

    system: RootSystem
    parts: tuple[SignedPermPart | G2Part, ...]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts and self.system.spec == other.system.spec

    def __ne__(self, other):  # else tuple's own, which compares the catalog objects
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.system.spec, self.parts))

    def __repr__(self):
        return f"WeylElement(parts={self.parts!r})"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return compose(self, other)


def _new_element(rs, parts, new=tuple.__new__, cls=WeylElement):
    """A :class:`WeylElement` of trusted parts, built in C without the named tuple's ``__new__``."""
    return new(cls, (rs, parts))


_G2_PARTS = tuple(map(G2Part, range(_G2_ORDER)))


def _point(comp):
    """The generic dominant point ``p`` of a component: the identity's row."""
    return _G2_ROWS[0] if comp.family == "G2" else tuple(range(1, comp.dimension + 1))


def _part(comp, row):
    """The part of ``comp`` whose row ``w^-1 p`` is ``row``."""
    if comp.family == "G2":
        return _G2_PARTS[_G2_ROWS.index(row)]
    return SignedPermPart(tuple(map(abs, row)), tuple(1 if v > 0 else -1 for v in row))


def identity(rs: RootSystem) -> WeylElement:
    return _new_element(rs, tuple(_part(c, _point(c)) for c in rs.spec.components))


def _validated_part(comp, part):
    if comp.family == "G2":
        if not isinstance(part, G2Part) or not 0 <= part.index < _G2_ORDER:
            raise WeylstatError(f"invalid G2 part {part!r}")
        return part
    if not isinstance(part, SignedPermPart):
        raise WeylstatError(f"expected a signed permutation, got {part!r}")
    if sorted(part.perm) != list(_point(comp)) or len(part.signs) != len(part.perm):
        raise WeylstatError(f"malformed signed permutation {part!r}")
    free = _free_signs(*comp)
    head = part.signs[:free]
    if any(s not in (1, -1) for s in head) or any(s != prod(head) for s in part.signs[free:]):
        raise WeylstatError(f"{comp} signs {part.signs} are not {free} free +-1 and then their product")
    return part


def element(rs: RootSystem, parts) -> WeylElement:
    """Assemble an element from per-component parts, validating invariants."""
    comps = rs.spec.components
    parts = tuple(parts)
    if len(parts) != len(comps):
        raise ComponentMismatchError(f"expected {len(comps)} parts, got {len(parts)}")
    return _new_element(rs, tuple(
        _validated_part(c, p) for c, p in zip(comps, parts)
    ))


# -- action on roots ----------------------------------------------------------

def apply(w: WeylElement, beta: Root) -> tuple[Root, int]:
    """Image of ``beta`` under ``w`` as (canonical positive root, sign)."""
    rs = w.system
    rs.index(beta)  # membership check, raises for stale roots
    part = w.parts[beta.component]
    ci = beta.component
    if isinstance(part, G2Part):
        t = _G2_ELEMS[part.index][beta.i - 1]
        return Root(ci, "G", abs(t)), (1 if t > 0 else -1)
    # sum c_k e_k goes to sum c_k s_k e_perm(k): one coordinate is an O root,
    # two (coefficients +-1) an N root if their signs differ, else a P root,
    # and the sign is that of the last coordinate's coefficient
    *head, (y, cy) = sorted((part.perm[k - 1], c * part.signs[k - 1]) for k, c in rs._vector(beta))
    sign = 1 if cy > 0 else -1
    if not head:
        return Root(ci, "O", y), sign
    (x, cx), = head
    return Root(ci, "P" if cx == cy else "N", x, y), sign


def is_inversion(w: WeylElement, beta: Root) -> bool:
    """True iff ``w`` sends ``beta`` to a negative root."""
    return apply(w, beta)[1] < 0


# By system id, one slot per component: G2's root sets, or None until a part
# comes and then (the last part, its roots).  A finalizer drops the entry before
# the id can be reused; a slot holds its part, so the part's id cannot be reused
# either; and a slot is replaced in one store, so threads see old or new.
_INVERSION_SLOTS: dict[int, list] = {}


def inversion_set(w: WeylElement) -> set[Root]:
    """The positive roots ``w`` sends to negative roots, as a new set.

    Reads the signed one-line values ``v`` of each classical part: ``N[i,j]``
    is an inversion iff ``v_j < v_i``, ``P[i,j]`` iff ``v_i + v_j < 0`` and
    ``O[i]`` iff ``v_i < 0``, the tests :func:`apply` agrees with.  A classical
    component keeps the last part object met there with its roots (O(1) memory), so
    a part is computed once while it keeps coming; the result does not depend on call order.
    """
    rs = w.system
    slots = _INVERSION_SLOTS.get(id(rs))
    if slots is None:
        slots = _INVERSION_SLOTS.setdefault(id(rs), [
            tuple(frozenset(r for k, r in enumerate(tests) if mask >> k & 1) for mask in _G2_INV_MASKS)
            if comp.family == "G2" else None
            for comp, tests in zip(rs.spec.components, rs.sign_tests)
        ])
        weakref.finalize(rs, _INVERSION_SLOTS.pop, id(rs), None)
    out, k = set(), 0
    for part in w.parts:
        slot = slots[k]
        if isinstance(part, G2Part):
            out.update(slot[part.index])
        elif slot is not None and slot[0] is part:
            out.update(slot[1])
        else:
            found = set()
            add = found.add
            v = (0, *map(mul, part.perm, part.signs))
            n_tests, p_tests, o_tests = rs.sign_tests[k]
            for i, j, r in n_tests:
                if v[j] < v[i]:
                    add(r)
            for i, j, r in p_tests:
                if v[i] + v[j] < 0:
                    add(r)
            for i, r in o_tests:
                if v[i] < 0:
                    add(r)
            slots[k] = (part, found)
            out.update(found)
        k += 1
    return out


# -- group structure -----------------------------------------------------------

# One slot per component position, (pu, pv, product); composing signed
# permutations does not read the family, so no system key.
_COMPOSE_SLOTS: dict[int, tuple] = {}


def compose(u: WeylElement, v: WeylElement) -> WeylElement:
    """The element ``x -> u(v(x))``; a component reuses its last product while
    the same two part objects come back (O(1) memory, independent of call order).
    """
    if u.system is not v.system and u.system.spec != v.system.spec:
        raise ComponentMismatchError(f"element of {u.system.spec} used with system {v.system.spec}")
    parts, k = [], 0
    for pu in u.parts:
        pv = v.parts[k]
        if isinstance(pu, G2Part):
            parts.append(_G2_PARTS[_G2_MUL[pu.index][pv.index]])
        else:
            slot = _COMPOSE_SLOTS.get(k)
            if slot is None or slot[0] is not pu or slot[1] is not pv:
                # reads pv.perm's 1-based values from 1-prefixed tuples (a classical
                # part has two entries or more, so ``at`` returns a tuple)
                at = itemgetter(*pv.perm)
                slot = _COMPOSE_SLOTS[k] = (pu, pv, tuple.__new__(SignedPermPart, (
                    at((0, *pu.perm)), tuple(map(mul, pv.signs, at((0, *pu.signs)))))))
            parts.append(slot[2])
        k += 1
    return tuple.__new__(WeylElement, (u.system, tuple(parts)))


def inverse(w: WeylElement) -> WeylElement:
    parts = []
    for comp, p in zip(w.system.spec.components, w.parts):
        if isinstance(p, G2Part):
            parts.append(_G2_PARTS[_G2_INV[p.index]])
        else:  # the inverse's row is w p = sum_k k s_k e_perm(k)
            row = [0] * len(p.perm)
            for k, (t, s) in enumerate(zip(p.perm, p.signs), 1):
                row[t - 1] = s * k
            parts.append(_part(comp, tuple(row)))
    return _new_element(w.system, tuple(parts))


def simple_reflection(rs: RootSystem, alpha: Root) -> WeylElement:
    """Reflection in a simple root (non-simple roots are rejected).

    A reflection is its own inverse, so its row is the image of ``p``.
    """
    if rs.height(alpha) != 1:
        raise WeylstatError(f"{alpha} is not a simple root")
    return _new_element(rs, tuple(
        _part(c, _reflect(_point(c), rs._vector(alpha)) if k == alpha.component else _point(c))
        for k, c in enumerate(rs.spec.components)
    ))


def longest_element(rs: RootSystem) -> WeylElement:
    """The unique element sending every positive root to a negative one.

    Its row is antidominant: ``p`` reversed in type A; ``-p`` in B, C, G2 and
    D of even rank; in D of odd rank ``-p`` with its first entry kept positive.
    """
    parts = []
    for comp in rs.spec.components:
        p = _point(comp)
        if comp.family == "A":
            row = p[::-1]
        elif comp.family == "D" and comp.rank % 2:
            row = (p[0], *(-x for x in p[1:]))
        else:
            row = tuple(-x for x in p)
        parts.append(_part(comp, row))
    return _new_element(rs, tuple(parts))


# -- enumeration ----------------------------------------------------------------

def _component_parts_iter(comp):
    if comp.family == "G2":
        yield from _G2_PARTS
        return
    sign_vectors = _sign_vectors(*comp)
    for perm in itertools.permutations(range(1, comp.dimension + 1)):
        for signs in sign_vectors:
            yield SignedPermPart(perm, signs)


def enumerate_elements(rs: RootSystem, cap: int = DEFAULT_CAP):
    """Yield every group element exactly once, in the documented order.

    The order is estimated from the order formula up front; exceeding ``cap``
    raises :class:`TooLargeError` before any work is done.  The first
    component's parts are made 4,096 at a time; the others' are all held.
    """
    order = group_order(rs)
    if order > cap:
        raise TooLargeError(order, cap)
    first, *rest = (_component_parts_iter(c) for c in rs.spec.components)
    rest = [tuple(parts) for parts in rest]
    while block := tuple(itertools.islice(first, 4096)):
        yield from map(tuple.__new__, itertools.repeat(WeylElement),
                       zip(itertools.repeat(rs), itertools.product(block, *rest)))


# -- sampling --------------------------------------------------------------------

def sample_uniform(rs: RootSystem, rng: random.Random) -> WeylElement:
    """One exactly uniform draw from the group.

    Per component: unbiased shuffle for the permutation; a fair bit for each
    free sign (``rootsys._free_signs``), each later sign their product (exact
    for D's even parity, since the parity classes are equinumerous); G2 picks
    a uniform table index.
    """
    parts = []
    for comp in rs.spec.components:
        if comp.family == "G2":
            parts.append(_G2_PARTS[rng.randrange(_G2_ORDER)])
            continue
        perm = list(range(1, comp.dimension + 1))
        rng.shuffle(perm)
        signs = [1 - 2 * rng.getrandbits(1) for _ in range(_free_signs(*comp))]
        signs += [prod(signs)] * (len(perm) - len(signs))  # each later sign their product
        parts.append(SignedPermPart(tuple(perm), tuple(signs)))
    return _new_element(rs, tuple(parts))


# -- parabolic decomposition -------------------------------------------------------

def parabolic_decompose(w: WeylElement, gamma: set[Root] | list[Root] | tuple[Root, ...]):
    """Split ``w = wq * wp`` with ``wp`` in the standard parabolic subgroup.

    ``gamma`` must consist of simple roots.  ``wq`` sends every root of
    ``gamma`` to a positive root; computed by greedily peeling reflections
    off the right while some root of ``gamma`` is an inversion.
    """
    rs = w.system
    gamma = sorted(set(gamma), key=rs.index)
    for alpha in gamma:
        if rs.height(alpha) != 1:
            raise WeylstatError(f"{alpha} is not a simple root")
    refl = {alpha: simple_reflection(rs, alpha) for alpha in gamma}
    wq = w
    wp = identity(rs)
    while True:
        desc = next((a for a in gamma if is_inversion(wq, a)), None)
        if desc is None:
            return wq, wp
        wq = compose(wq, refl[desc])
        wp = compose(refl[desc], wp)


# -- rendering ----------------------------------------------------------------------

_G2_CHUNK = re.compile(r"g(\d+)")
_SIGNED_PERM_CHUNK = re.compile(r"\[(\s*[+-]?\d+\s*(?:,\s*[+-]?\d+\s*)*)\]")


def render_element(w: WeylElement) -> str:
    """One-line notation, e.g. ``[3,-1,2]`` for a B3 element, ``g7`` for G2."""
    chunks = []
    for p in w.parts:
        if isinstance(p, G2Part):
            chunks.append(f"g{p.index}")
        else:
            vals = [s * t for t, s in zip(p.perm, p.signs)]
            chunks.append("[" + ",".join(str(v) for v in vals) + "]")
    return "x".join(chunks)


def parse_element(rs: RootSystem, text: str) -> WeylElement:
    """Inverse of :func:`render_element`: one chunk per component, joined by ``x``."""
    comps = rs.spec.components
    chunks = [chunk.strip() for chunk in text.strip().split("x")]
    if len(chunks) != len(comps):
        raise ComponentMismatchError(f"expected {len(comps)} parts, got {len(chunks)} in {text!r}")
    parts = []
    for comp, chunk in zip(comps, chunks):
        g2 = comp.family == "G2"
        m = (_G2_CHUNK if g2 else _SIGNED_PERM_CHUNK).fullmatch(chunk)
        if m is None:
            raise WeylstatError(f"cannot read {chunk!r} as a {comp} part")
        vals = tuple(_integer(v, WeylstatError) for v in m[1].split(","))
        parts.append(G2Part(vals[0]) if g2 else _part(comp, vals))
    return element(rs, parts)
