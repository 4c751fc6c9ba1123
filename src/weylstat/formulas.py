"""Closed-form covariance and variance results in exact rational arithmetic.

The covariance of two root indicators depends only on the rotation order of
the two reflections and the sign of the inner product; the variance of the
bounded-height and fixed-height inversion statistics in the four classical
families is piecewise polynomial in (n, d) with parity splits.  Every branch
below is pinned against exact group enumeration by the test suite; a handful
of branch boundaries and coefficients that fail that cross-check in their
commonly circulated form are corrected here (each correction is exercised by
tests at the exact boundary).

Family conventions: type A formulas are keyed by the permutation degree
``n`` (the rank is ``n - 1``); types B, C, D are keyed by the rank itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InternalConsistencyError, RangeError, WeylstatError
from .rootsys import Root, RootSystem

F = Fraction

DEFAULT_EPSILON = F(1, 100)


# -- pairwise covariance -------------------------------------------------------

def cov_closed(rs: RootSystem, beta: Root, gamma: Root) -> Fraction:
    """Covariance of two root indicators: 0 iff orthogonal, else
    ``sign(<beta,gamma>) * (1/4 - 1/(2 ord))``; 1/4 on the diagonal."""
    if beta == gamma:
        return F(1, 4)
    ip = rs.inner_product_int(beta, gamma)
    if ip == 0:
        return F(0)
    o = rs.reflection_order(beta, gamma)
    mag = F(1, 4) - F(1, 2 * o)
    return mag if ip > 0 else -mag


def angle_of(rs: RootSystem, beta: Root, gamma: Root) -> Fraction:
    """Angle between two catalog roots, as a multiple of pi (0 for a root and itself)."""
    return rs._angle(beta, gamma)


def cov_closed_angle(rs: RootSystem, beta: Root, gamma: Root) -> Fraction:
    """Covariance via the angle form ``(3 pi - 6 phi) / (12 pi)``.

    Cross-validation path: agrees with :func:`cov_closed` on all pairs,
    ``1/4`` on the diagonal.
    """
    q = angle_of(rs, beta, gamma)  # phi = q * pi
    return F(3 - 6 * q, 12)


# -- piecewise variance tables ----------------------------------------------------

class VarianceQuery(NamedTuple):
    family: str
    n: int
    d: int
    statistic: str  # "descents" or "inversions"


def _ev(d):
    return d % 2 == 0


def _od(d):
    return d % 2 == 1


# Each row: (label, predicate(n, d), value(n, d)).
_TABLES = {
    ("A", "descents"): [
        ("2d<=n", lambda n, d: 2 * d <= n, lambda n, d: F(n + d, 12)),
        ("2d>=n", lambda n, d: 2 * d >= n, lambda n, d: F(n - d, 4)),
    ],
    ("A", "inversions"): [
        ("2d<=n", lambda n, d: 2 * d <= n,
         lambda n, d: F(d**3, 18) + F(d * d, 24) + (F(n, 12) - F(1, 72)) * d),
        ("2d>=n", lambda n, d: 2 * d >= n,
         lambda n, d: -F(d**3, 6) + (F(n, 3) - F(7, 24)) * d * d
         + (-F(n * n, 6) + F(5 * n, 12) - F(1, 8)) * d
         + F(n**3, 36) - F(n * n, 12) + F(n, 18)),
    ],
    ("B", "descents"): [
        ("d<=n/2,even", lambda n, d: 2 * d <= n and _ev(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 12)),
        ("d<=n/2,odd", lambda n, d: 2 * d <= n and _od(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 24)),
        ("n/2<d<=2n/3,even", lambda n, d: 2 * d > n and 3 * d <= 2 * n and _ev(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 6)),
        ("n/2<d<=2n/3,odd", lambda n, d: 2 * d > n and 3 * d <= 2 * n and _od(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 8)),
        ("2n/3<d<=n,even", lambda n, d: 3 * d > 2 * n and d <= n and _ev(d),
         lambda n, d: F(d, 24) + F(n, 12)),
        ("2n/3<=d<=n,odd", lambda n, d: 3 * d >= 2 * n and d <= n and _od(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 8)),
        ("n<=d,even", lambda n, d: d >= n and _ev(d), lambda n, d: -F(d, 8) + F(n, 4)),
        ("n<=d,odd", lambda n, d: d >= n and _od(d), lambda n, d: -F(d, 8) + F(n, 4) + F(1, 8)),
    ],
    ("B", "inversions"): [
        ("d<=n/2,even", lambda n, d: 2 * d <= n and _ev(d),
         lambda n, d: F(d**3, 36) + F(d * d, 48) + (F(n, 12) + F(1, 72)) * d),
        ("d<=n/2,odd", lambda n, d: 2 * d <= n and _od(d),
         lambda n, d: F(d**3, 36) + F(d * d, 48) + (F(n, 12) + F(1, 72)) * d + F(1, 48)),
        ("n/2<=d<=2n/3,even", lambda n, d: 2 * d >= n and 3 * d <= 2 * n and _ev(d),
         lambda n, d: F(d**3, 36) + F(3 * d * d, 16) + (-F(n, 12) + F(7, 72)) * d
         + F(n * n, 24) - F(n, 24)),
        ("n/2<=d<2n/3,odd", lambda n, d: 2 * d >= n and 3 * d < 2 * n and _od(d),
         lambda n, d: F(d**3, 36) + F(3 * d * d, 16) + (-F(n, 12) + F(7, 72)) * d
         + F(n * n, 24) - F(n, 24) + F(1, 48)),
        ("2n/3<=d<=n,even", lambda n, d: 3 * d >= 2 * n and d <= n and _ev(d),
         lambda n, d: F(d**3, 36) + (F(n, 6) - F(1, 36)) * d - F(n * n, 24) + F(n, 24)),
        ("2n/3<=d<=n,odd", lambda n, d: 3 * d >= 2 * n and d <= n and _od(d),
         lambda n, d: F(d**3, 36) + (F(n, 6) + F(7, 72)) * d - F(n * n, 24) - F(n, 24) + F(1, 24)),
        ("n<=d,even", lambda n, d: d >= n and _ev(d),
         lambda n, d: -F(d**3, 12) + (F(n, 3) - F(1, 24)) * d * d
         + (-F(n * n, 3) + F(n, 6) - F(1, 24)) * d + F(n**3, 9) + F(n, 18)),
        ("n<=d,odd", lambda n, d: d >= n and _od(d),
         lambda n, d: -F(d**3, 12) + (F(n, 3) - F(1, 24)) * d * d
         + (-F(n * n, 3) + F(n, 6) + F(1, 12)) * d + F(n**3, 9) - F(n, 36) + F(1, 24)),
    ],
    ("C", "descents"): [
        ("d<=2n/3,even", lambda n, d: 3 * d <= 2 * n and _ev(d),
         lambda n, d: F(d, 24) + F(n, 12)),
        # corrected boundary: valid on all of d <= 2n/3, not only d <= n/2
        ("d<=2n/3,odd", lambda n, d: 3 * d <= 2 * n and _od(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 24)),
        ("2n/3<=d<=n,even", lambda n, d: 3 * d >= 2 * n and d <= n and _ev(d),
         lambda n, d: F(d, 24) + F(n, 12)),
        ("2n/3<d<=n,odd", lambda n, d: 3 * d > 2 * n and d <= n and _od(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 8)),
        ("n<=d,even", lambda n, d: d >= n and _ev(d), lambda n, d: -F(d, 8) + F(n, 4)),
        ("n<=d,odd", lambda n, d: d >= n and _od(d), lambda n, d: -F(d, 8) + F(n, 4) + F(1, 8)),
    ],
    ("C", "inversions"): [
        ("d<=2n/3,even", lambda n, d: 3 * d <= 2 * n and _ev(d),
         lambda n, d: F(d**3, 36) + F(d * d, 48) + (F(n, 12) + F(1, 72)) * d),
        ("d<=2n/3,odd", lambda n, d: 3 * d <= 2 * n and _od(d),
         lambda n, d: F(d**3, 36) + F(d * d, 48) + (F(n, 12) + F(1, 72)) * d + F(1, 48)),
        # corrected constant: (n^2 - n)/24, making both boundaries coherent
        ("2n/3<=d<=n,even", lambda n, d: 3 * d >= 2 * n and d <= n and _ev(d),
         lambda n, d: F(d**3, 36) + F(11 * d * d, 96) + (-F(n, 24) + F(11, 144)) * d
         + F(n * n, 24) - F(n, 24)),
        ("2n/3<d<=n,odd", lambda n, d: 3 * d > 2 * n and d <= n and _od(d),
         lambda n, d: F(d**3, 36) + F(11 * d * d, 96) + (-F(n, 24) + F(5, 36)) * d
         + F(n * n, 24) - F(n, 12) + F(5, 96)),
        ("n<=d,even", lambda n, d: d >= n and _ev(d),
         lambda n, d: -F(d**3, 12) + (F(n, 3) - F(13, 96)) * d * d
         + (-F(n * n, 3) + F(11 * n, 24) - F(1, 16)) * d
         + F(n**3, 9) - F(5 * n * n, 24) + F(7 * n, 72)),
        # corrected linear coefficient: no -1/16 term in the odd case
        ("n<=d,odd", lambda n, d: d >= n and _od(d),
         lambda n, d: -F(d**3, 12) + (F(n, 3) - F(13, 96)) * d * d
         + (-F(n * n, 3) + F(11 * n, 24)) * d
         + F(n**3, 9) - F(5 * n * n, 24) + F(n, 18) + F(5, 96)),
    ],
    ("D", "descents"): [
        ("d<n/2,even", lambda n, d: 2 * d < n and _ev(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 6)),
        ("d<n/2,odd", lambda n, d: 2 * d < n and _od(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 8)),
        ("n/2<=d<2n/3,even", lambda n, d: 2 * d >= n and 3 * d < 2 * n and _ev(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 3)),
        ("n/2<=d<=2n/3,odd", lambda n, d: 2 * d >= n and 3 * d <= 2 * n and _od(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(7, 24)),
        ("2n/3<=d<n,even", lambda n, d: 3 * d >= 2 * n and d < n and _ev(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(1, 6)),
        ("2n/3<=d<n,odd", lambda n, d: 3 * d >= 2 * n and d < n and _od(d),
         lambda n, d: F(d, 24) + F(n, 12) + F(7, 24)),
        ("n<=d,even", lambda n, d: d >= n and _ev(d), lambda n, d: -F(d, 8) + F(n, 4) - F(1, 4)),
        ("n<=d,odd", lambda n, d: d >= n and _od(d), lambda n, d: -F(d, 8) + F(n, 4) - F(1, 8)),
    ],
    ("D", "inversions"): [
        # corrected linear coefficient: 1/18, matching the odd case
        ("d<n/2,even", lambda n, d: 2 * d < n and _ev(d),
         lambda n, d: F(d**3, 36) + F(d * d, 48) + (F(n, 12) + F(1, 18)) * d),
        ("d<n/2,odd", lambda n, d: 2 * d < n and _od(d),
         lambda n, d: F(d**3, 36) + F(d * d, 48) + (F(n, 12) + F(1, 18)) * d + F(1, 16)),
        ("n/2<=d<2n/3,even", lambda n, d: 2 * d >= n and 3 * d < 2 * n and _ev(d),
         lambda n, d: F(d**3, 36) + F(17 * d * d, 48) + (-F(n, 4) + F(5, 9)) * d
         + F(n * n, 12) - F(n, 4) + F(1, 6)),
        ("n/2<=d<2n/3,odd", lambda n, d: 2 * d >= n and 3 * d < 2 * n and _od(d),
         lambda n, d: F(d**3, 36) + F(17 * d * d, 48) + (-F(n, 4) + F(5, 9)) * d
         + F(n * n, 12) - F(n, 4) + F(11, 48)),
        ("2n/3<=d<n,even", lambda n, d: 3 * d >= 2 * n and d < n and _ev(d),
         lambda n, d: F(d**3, 36) + F(d * d, 6) + F(13 * d, 72)),
        # corrected constant: +1/6 instead of -1/6
        ("2n/3<=d<n,odd", lambda n, d: 3 * d >= 2 * n and d < n and _od(d),
         lambda n, d: F(d**3, 36) + F(d * d, 6) + F(11 * d, 36) - F(n, 12) + F(1, 6)),
        ("n<=d,even", lambda n, d: d >= n and _ev(d),
         lambda n, d: -F(d**3, 12) + (F(n, 3) - F(5, 12)) * d * d
         + (-F(n * n, 3) + n - F(17, 24)) * d
         + F(n**3, 9) - F(5 * n * n, 12) + F(13 * n, 18) - F(5, 12)),
        ("n<=d,odd", lambda n, d: d >= n and _od(d),
         lambda n, d: -F(d**3, 12) + (F(n, 3) - F(5, 12)) * d * d
         + (-F(n * n, 3) + n - F(7, 12)) * d
         + F(n**3, 9) - F(5 * n * n, 12) + F(23 * n, 36) - F(1, 4)),
    ],
}

_MAX_D = {
    "A": lambda n: n - 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: 2 * n - 1,
    "D": lambda n: 2 * n - 3,
}
_MIN_N = {"A": 2, "B": 2, "C": 2, "D": 2}


def _check_query(q: VarianceQuery):
    if q.family not in _MAX_D:
        raise RangeError(f"no closed variance formulas for family {q.family!r}")
    if q.statistic not in ("descents", "inversions"):
        raise RangeError(f"unknown statistic {q.statistic!r}")
    if q.n < _MIN_N[q.family]:
        raise RangeError(f"family {q.family} formulas require n >= {_MIN_N[q.family]}")
    top = _MAX_D[q.family](q.n)
    if not 1 <= q.d <= top:
        raise RangeError(
            f"d = {q.d} out of range 1..{top} for {q.family} with n = {q.n}"
        )


def variance_with_branch(q: VarianceQuery) -> tuple[Fraction, str]:
    """Evaluate the piecewise variance formula; returns (value, branch label).

    Where several non-strict branch predicates hold simultaneously the branch
    values are asserted equal; a disagreement indicates a table bug.
    """
    _check_query(q)
    rows = _TABLES[(q.family, q.statistic)]
    hits = [(lab, val(q.n, q.d)) for lab, pred, val in rows if pred(q.n, q.d)]
    if not hits:
        raise InternalConsistencyError(
            f"no branch applies for {q} (table coverage bug)"
        )
    values = {v for _, v in hits}
    if len(values) > 1:
        raise InternalConsistencyError(f"branches disagree for {q}: {hits}")
    label = hits[0][0] if len(hits) == 1 else "|".join(lab for lab, _ in hits)
    return hits[0][1], label


def var_descents(q: VarianceQuery) -> Fraction:
    """Variance of the fixed-height inversion count (height exactly d)."""
    if q.statistic != "descents":
        q = VarianceQuery(q.family, q.n, q.d, "descents")
    return variance_with_branch(q)[0]


def var_inversions(q: VarianceQuery) -> Fraction:
    """Variance of the bounded-height inversion count (height at most d)."""
    if q.statistic != "inversions":
        q = VarianceQuery(q.family, q.n, q.d, "inversions")
    return variance_with_branch(q)[0]


# -- type B block covariances ---------------------------------------------------

class BlockCovariancesB(NamedTuple):
    """The five mixed-form block covariances of the type B height-d statistic.

    ``pn2``/``no2``/``po2`` carry the factor 2 (both orders of the pair of
    blocks); ``pp`` and ``oo`` are the diagonal blocks.  Together with the
    N,N block from the type A machinery they sum to the type B inversion
    variance.
    """

    pn2: Fraction
    no2: Fraction
    po2: Fraction
    pp: Fraction
    oo: Fraction

    @property
    def total(self) -> Fraction:
        return self.pn2 + self.no2 + self.po2 + self.pp + self.oo


def _pn2(n, d) -> Fraction:
    if 2 * d <= n:
        if _ev(d):
            return -F(d**3, 18) + F(d * d, 16) + F(7 * d, 72)
        return -F(d**3, 18) + F(d * d, 16) + F(d, 18) - F(1, 16)
    if 3 * d <= 2 * n:
        if _ev(d):
            return (F(d**3, 6) + (-F(n, 3) + F(1, 16)) * d * d
                    + (F(n * n, 6) + F(1, 24)) * d - F(n**3, 36) + F(n, 36))
        return (F(d**3, 6) + (-F(n, 3) + F(1, 16)) * d * d
                + F(n * n, 6) * d - F(n**3, 36) + F(n, 36) - F(1, 16))
    if d <= n:
        if _ev(d):
            return (F(d**3, 6) + (-F(n, 3) - F(1, 8)) * d * d
                    + (F(n * n, 6) + F(n, 4) - F(1, 12)) * d
                    - F(n**3, 36) - F(n * n, 12) + F(n, 9))
        return (F(d**3, 6) + (-F(n, 3) - F(1, 8)) * d * d
                + (F(n * n, 6) + F(n, 4)) * d
                - F(n**3, 36) - F(n * n, 12) + F(n, 36) - F(1, 24))
    if _ev(d):
        return (-F(d**3, 18) + (F(n, 4) + F(1, 24)) * d * d
                + (-F(n * n, 3) - F(n, 6) - F(1, 36)) * d
                + F(n**3, 9) + F(n * n, 6) + F(n, 18))
    # corrected constant: +n^2/6 instead of -n^2/6
    return (-F(d**3, 18) + (F(n, 4) + F(1, 24)) * d * d
            + (-F(n * n, 3) - F(n, 6) + F(1, 18)) * d
            + F(n**3, 9) + F(n * n, 6) - F(n, 36) - F(1, 24))


def _no2(n, d) -> Fraction:
    d = min(d, n)  # the N and O blocks saturate at height n
    if 2 * d <= n:
        return -F(d * d, 8) - F(d, 8)
    return F(3 * d * d, 8) + (-F(n, 2) + F(1, 8)) * d + F(n * n, 8) - F(n, 8)


def _po2(n, d) -> Fraction:
    if d <= n:
        v = F(d * d, 8) - F(d, 4)
    else:
        v = -F(d * d, 8) + F(n * d, 2) - F(n * n, 4) - F(n, 4)
    return v + (F(1, 8) if _od(d) else 0)


def _pp(n, d) -> Fraction:
    if d <= n:
        if _ev(d):
            return F(d**3, 36) - F(d * d, 12) + F(d, 18)
        return F(d**3, 36) - F(d * d, 12) + F(7 * d, 72) - F(1, 24)
    if _ev(d):
        return (-F(d**3, 36) + (F(n, 12) + F(1, 24)) * d * d
                + (-F(n, 6) - F(1, 72)) * d - F(n**3, 36) + F(n * n, 24) + F(5 * n, 72))
    # corrected linear coefficient: +1/36 instead of -1/36
    return (-F(d**3, 36) + (F(n, 12) + F(1, 24)) * d * d
            + (-F(n, 6) + F(1, 36)) * d
            - F(n**3, 36) + F(n * n, 24) + F(5 * n, 72) - F(1, 24))


def block_covariances_b(n: int, d: int) -> BlockCovariancesB:
    """The five non-(N,N) block covariances for type B at height cutoff d."""
    if n < 2 or not 1 <= d <= 2 * n - 1:
        raise RangeError(f"d = {d} out of range 1..{2 * n - 1} for B with n = {n}")
    return BlockCovariancesB(
        pn2=_pn2(n, d),
        no2=_no2(n, d),
        po2=_po2(n, d),
        pp=_pp(n, d),
        oo=F(min(d, n), 4),
    )


def nn_block_b(n: int, d: int) -> Fraction:
    """The N,N block of type B: the type A formula at the saturated cutoff."""
    return var_inversions(VarianceQuery("A", n, min(d, n - 1), "inversions"))


# -- interaction counts (type B root classes) --------------------------------------

_PATTERNS = {
    ("N", "N"): ("i=k", "i=l", "j=k", "j=l"),
    ("N", "P"): ("i=k", "i=l", "j=k", "j=l"),
    ("P", "P"): ("i=k", "i=l", "j=k", "j=l"),
    ("N", "O"): ("i=k", "j=k"),
    ("P", "O"): ("i=k", "j=k"),
    ("O", "O"): ("i=j",),
}

_CLASS_RANGE = {
    "N": lambda n: (1, n - 1),
    "O": lambda n: (1, n),
    "P": lambda n: (3, 2 * n - 1),
}


def _index_ranges(cls: str, h: int, n: int):
    """(first-index range, second-index range) of the height-h roots of a class."""
    if cls == "N":
        return (1, n - h), (h + 1, n)
    if cls == "P":
        return (max(1, h - n), (h - 1) // 2), ((h + 2) // 2, min(n, h - 1))
    return (h, h), (h, h)


def _overlap(r1, r2) -> int:
    return max(0, min(r1[1], r2[1]) - max(r1[0], r2[0]) + 1)


def interaction_count(
    family: str, n: int, class_a: str, a: int, class_b: str, b: int, pattern: str
) -> int:
    """Number of index-matching ordered pairs between two height classes.

    Counts pairs (root of ``class_a`` at height ``a``, root of ``class_b``
    at height ``b``) whose indices match the pattern, e.g. ``"i=k"`` equates
    the first index of each root, ``"j=l"`` the second.  N,N counts exclude
    identical pairs (zero for ``a == b`` under ``i=k``/``j=l``); the P,P and
    O,O counts include them.
    """
    if family != "B":
        raise WeylstatError(f"interaction counts are only tabulated for family B, not {family!r}")
    key = (class_a, class_b)
    if key not in _PATTERNS:
        raise WeylstatError(f"unsupported class pair {class_a},{class_b}")
    if pattern not in _PATTERNS[key]:
        raise WeylstatError(f"unsupported pattern {pattern!r} for classes {class_a},{class_b}")
    for cls, h in ((class_a, a), (class_b, b)):
        lo, hi = _CLASS_RANGE[cls](n)
        if not lo <= h <= hi:
            raise RangeError(f"height {h} out of range {lo}..{hi} for class {cls} in B{n}")
    if key == ("O", "O"):
        return 1 if a == b else 0
    if key == ("N", "N") and a == b and pattern in ("i=k", "j=l"):
        return 0
    fa, sa = _index_ranges(class_a, a, n)
    fb, sb = _index_ranges(class_b, b, n)
    lhs = fa if pattern[0] == "i" else sa
    rhs = fb if pattern[2] == "k" else sb
    return _overlap(lhs, rhs)


# -- variance lower bound ------------------------------------------------------------

def var_lower_bound(r: int, d: int, epsilon: Fraction = DEFAULT_EPSILON):
    """Regime classification and lower bound for the bounded-height variance.

    Returns ``(case, bound)`` with case one of ``"r<=d"``, ``"d<=r<=d^2"``,
    ``"d^2<=r"`` and bound ``epsilon`` times ``r^3``, ``d^3`` or ``r*d``.
    At the regime boundaries the bounds coincide, so the tie-break is
    immaterial.
    """
    if r < 1 or d < 1:
        raise RangeError("rank and height must be positive")
    if r <= d:
        return "r<=d", epsilon * r**3
    if d * d <= r:
        return "d^2<=r", epsilon * r * d
    return "d<=r<=d^2", epsilon * d**3
