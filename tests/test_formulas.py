import itertools
import random
import re
from fractions import Fraction as F

import pytest

import weylstat as ws
from weylstat import formulas, stats
from weylstat.formulas import VarianceQuery as Q
from weylstat.rootsys import Root


def test_cov_closed_examples(systems):
    a3 = systems("A3")
    assert formulas.cov_closed(a3, Root(0, "N", 1, 3), Root(0, "N", 1, 3)) == F(1, 4)
    assert formulas.cov_closed(a3, Root(0, "N", 1, 2), Root(0, "N", 2, 3)) == F(-1, 12)
    b4 = systems("B4")
    assert formulas.cov_closed(b4, Root(0, "N", 1, 2), Root(0, "P", 3, 4)) == 0


@pytest.mark.parametrize("spec", ["A5", "B4", "C4", "D4", "G2"])
def test_cov_closed_equals_enumeration(systems, spec):
    rs = systems(spec)
    for beta in rs.roots:
        for gamma in rs.roots:
            assert formulas.cov_closed(rs, beta, gamma) == stats.exact_cov(rs, beta, gamma)


@pytest.mark.parametrize("big, small, forms", [
    ("A499", "A3", "N"), ("B500", "B4", "NOP"), ("C500", "C4", "NOP"), ("D500", "B4", "NP"),
])
def test_cov_closed_at_the_sampling_ranks(systems, big, small, forms):
    """The covariance theorem on random pairs at the sampling workloads' ranks.

    Each pair moves onto a pair of a small system, whose covariance is exact
    by enumeration:
    - the joint law of a pair's two indicators depends only on the order and
      the signs of the at most 4 coordinates of the one-line word ``v`` that
      it reads: ``N[i,j]`` is an inversion iff ``v_j < v_i``, ``P[i,j]`` iff
      ``v_i + v_j < 0`` and ``O[i]`` iff ``v_i < 0``;
    - under a uniform element, the order and signs of m coordinates are a
      uniform element of S_m or B_m; in D_n with m < n the coordinates left
      out absorb the parity, so the m signs are free, and D has no ``O``
      roots, so B_m;
    - an order-preserving relabelling of the coordinates keeps each root's
      form, so it keeps the inner products and the angle.
    """
    small_rs, big_rs = systems(small), systems(big)
    roots = [r for r in small_rs.roots if r.form in forms]
    exact = {(b, g): stats.exact_cov(small_rs, b, g) for b in roots for g in roots}
    rng = random.Random(big)
    n = big_rs.spec.components[0].dimension
    for _ in range(500):
        at = (0, *sorted(rng.sample(range(1, n + 1), 4)))  # at[0] = 0 keeps an O root's j
        beta, gamma = rng.choice(roots), rng.choice(roots)
        moved = [r._replace(i=at[r.i], j=at[r.j]) for r in (beta, gamma)]
        assert formulas.cov_closed(big_rs, *moved) == exact[beta, gamma]


@pytest.mark.parametrize("spec", ["D2", "D3"])
def test_cov_closed_equals_enumeration_when_a_pair_reads_every_coordinate(systems, spec):
    # a pair of D_n may read all n coordinates, and then its law is D_n's own,
    # not B_n's: D4 is enumerated above, the smaller ranks here
    rs = systems(spec)
    for beta in rs.roots:
        for gamma in rs.roots:
            assert formulas.cov_closed(rs, beta, gamma) == stats.exact_cov(rs, beta, gamma)


@pytest.mark.parametrize("spec", ["A5", "B4", "C4", "D4", "G2"])
def test_angle_form_matches_closed_form(systems, spec):
    rs = systems(spec)
    for beta in rs.roots:
        for gamma in rs.roots:
            if beta != gamma:
                assert formulas.cov_closed_angle(rs, beta, gamma) == formulas.cov_closed(rs, beta, gamma)


def test_angle_classification_values(systems):
    b4 = systems("B4")
    assert formulas.angle_of(b4, Root(0, "N", 1, 2), Root(0, "P", 3, 4)) == F(1, 2)
    g2 = systems("G2")
    assert formulas.angle_of(g2, Root(0, "G", 2), Root(0, "G", 3)) == F(1, 6)
    assert formulas.cov_closed_angle(g2, Root(0, "G", 2), Root(0, "G", 3)) == F(1, 6)
    a2 = systems("A2")
    assert formulas.angle_of(a2, Root(0, "N", 1, 2), Root(0, "N", 2, 3)) == F(2, 3)


def test_var_examples():
    assert formulas.var_descents(Q("A", 5, 2, "descents")) == F(7, 12)
    assert formulas.var_descents(Q("A", 5, 1, "descents")) == F(1, 2)
    assert formulas.var_inversions(Q("A", 5, 1, "inversions")) == F(1, 2)
    assert formulas.var_inversions(Q("A", 5, 4, "inversions")) == F(25, 6)
    value, branch = formulas.variance_with_branch(Q("B", 4, 3, "descents"))
    assert value == F(3, 24) + F(4, 12) + F(1, 8) and "odd" in branch


def test_var_range_errors():
    for query in (Q("A", 5, 5, "descents"), Q("B", 4, 8, "inversions"),
                  Q("D", 4, 6, "inversions"), Q("C", 3, 0, "descents")):
        with pytest.raises(ws.RangeError):
            formulas.variance_with_branch(query)
    with pytest.raises(ws.RangeError):
        formulas.var_descents(Q("G2", 2, 1, "descents"))


def _exact(systems, fam, n, d, stat):
    rank = n - 1 if fam == "A" else n
    rs = systems(f"{fam}{rank}")
    psi = rs.roots_of_height(d) if stat == "descents" else rs.roots_up_to_height(d)
    return stats.exact_variance(rs, psi, cap=10**7)


@pytest.mark.parametrize("fam,n", [("A", 4), ("A", 6), ("B", 3), ("C", 3), ("D", 4), ("D", 5)])
def test_var_formulas_match_enumeration(systems, fam, n):
    top = {"A": n - 1, "B": 2 * n - 1, "C": 2 * n - 1, "D": 2 * n - 3}[fam]
    for d in range(1, top + 1):
        for stat in ("descents", "inversions"):
            assert formulas.variance_with_branch(Q(fam, n, d, stat))[0] == _exact(
                systems, fam, n, d, stat
            ), (fam, n, d, stat)


def test_classical_checkpoints():
    for n in range(2, 9):
        assert formulas.var_descents(Q("A", n, 1, "descents")) == F(n + 1, 12)
        assert formulas.var_inversions(Q("A", n, n - 1, "inversions")) == F(
            n * (n - 1) * (2 * n + 5), 72
        )


def test_boundary_branch_coherence():
    # wherever two non-strict predicates hold, the branch polynomials agree,
    # so variance_with_branch returns without the disagreement guard firing
    for fam in ("A", "B", "C", "D"):
        for n in range(2, 30):
            top = {"A": n - 1, "B": 2 * n - 1, "C": 2 * n - 1, "D": 2 * n - 3}[fam]
            for d in range(1, top + 1):
                for stat in ("descents", "inversions"):
                    formulas.variance_with_branch(Q(fam, n, d, stat))


# Six times each term of a branch label, as (coefficient of n, coefficient of d).
_LABEL_TERMS = {"d": (0, 6), "n": (6, 0), "2d": (0, 12), "n/2": (3, 0), "2n/3": (4, 0)}
_LABEL_OPS = {"<": int.__lt__, "<=": int.__le__, ">=": int.__ge__}


def test_branch_labels_state_their_predicates():
    # var prints the labels: each is a chain of <, <= and >= over the terms
    # above, with an optional parity of d, and holds exactly where its lambda does
    for (fam, stat), rows in formulas._TABLES.items():
        for label, pred, _ in rows:
            chain, _, parity = label.partition(",")
            parts = re.split(r"(<=|>=|<)", chain)
            terms = [_LABEL_TERMS[t] for t in parts[::2]]
            ops = [_LABEL_OPS[op] for op in parts[1::2]]
            assert parity in ("", "even", "odd") and len(terms) >= 2, label
            for n in range(2, 61):
                for d in range(1, 2 * n + 2):
                    x = [a * n + b * d for a, b in terms]
                    holds = all(op(lhs, rhs) for op, lhs, rhs in zip(ops, x, x[1:]))
                    if parity:
                        holds = holds and d % 2 == (parity == "odd")
                    assert holds == pred(n, d), (fam, stat, label, n, d)


def test_monotonicity_in_d_formula_only():
    for fam in ("A", "B", "C", "D"):
        for n in range(2, 201):
            top = {"A": n - 1, "B": 2 * n - 1, "C": 2 * n - 1, "D": 2 * n - 3}[fam]
            prev = None
            for d in range(1, top + 1):
                v = formulas.var_inversions(Q(fam, n, d, "inversions"))
                if prev is not None:
                    assert v >= prev, (fam, n, d)
                prev = v


def test_block_covariance_examples():
    for n, d in ((5, 3), (8, 6), (6, 2)):
        assert formulas.block_covariances_b(n, d).oo == F(min(d, n), 4)
    bc = formulas.block_covariances_b(8, 2)  # d <= n/2, d even
    assert bc.no2 == -F(2 * 2, 8) - F(2, 8)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_block_covariances_sum_to_type_b_variance(systems, n):
    rs = systems(f"B{n}")
    for d in range(1, 2 * n):
        total = formulas.block_covariances_b(n, d).total + formulas.nn_block_b(n, d)
        assert total == formulas.var_inversions(Q("B", n, d, "inversions"))
        assert total == stats.exact_variance(rs, rs.roots_up_to_height(d))


def test_block_covariances_match_pairwise_enumeration(systems):
    # each block equals the sum of exact covariances over the form classes
    n = 4
    rs = systems(f"B{n}")
    for d in range(1, 2 * n):
        classes = {"N": [], "O": [], "P": []}
        for k, r in enumerate(rs.roots):
            if rs.heights[k] <= d:
                classes[r.form].append(r)

        def cc(xs, ys):
            return sum(
                formulas.cov_closed(rs, x, y) for x in xs for y in ys
            )

        bc = formulas.block_covariances_b(n, d)
        assert bc.pn2 == 2 * cc(classes["P"], classes["N"])
        assert bc.no2 == 2 * cc(classes["N"], classes["O"])
        assert bc.po2 == 2 * cc(classes["P"], classes["O"])
        assert bc.pp == cc(classes["P"], classes["P"])
        assert bc.oo == cc(classes["O"], classes["O"])
        assert formulas.nn_block_b(n, d) == cc(classes["N"], classes["N"])


def _class_roots(cls, n, h):
    if cls == "N":
        return [(i, i + h) for i in range(1, n - h + 1)]
    if cls == "P":
        return [(k, h - k) for k in range(max(1, h - n), (h - 1) // 2 + 1)]
    return [(h,)] if 1 <= h <= n else []


def _brute_interaction(n, ca, a, cb, b, pattern):
    count = 0
    for r1 in _class_roots(ca, n, a):
        for r2 in _class_roots(cb, n, b):
            if ca == "N" and cb == "N" and r1 == r2:
                continue  # the N,N counts exclude identical pairs
            first = {"i": r1[0], "j": r1[-1]}
            second = {"k": r2[0], "l": r2[-1], "j": r2[0]}
            lhs, rhs = pattern.split("=")
            if first[lhs] == second[rhs]:
                count += 1
    return count


def test_interaction_count_examples():
    assert formulas.interaction_count("B", 6, "N", 2, "N", 3, "i=k") == 6 - 3
    assert formulas.interaction_count("B", 6, "N", 2, "N", 2, "i=k") == 0
    assert formulas.interaction_count("B", 6, "O", 4, "O", 4, "i=j") == 1
    assert formulas.interaction_count("B", 6, "O", 4, "O", 3, "i=j") == 0
    assert formulas.interaction_count("B", 6, "N", 2, "O", 3, "i=k") == 1
    assert formulas.interaction_count("B", 6, "N", 2, "O", 5, "i=k") == 0


@pytest.mark.parametrize("n", list(range(2, 9)))
def test_interaction_count_matches_brute_force(n):
    ranges = {"N": range(1, n), "O": range(1, n + 1), "P": range(3, 2 * n)}
    pairs = {
        ("N", "N"): ("i=k", "i=l", "j=k", "j=l"),
        ("N", "P"): ("i=k", "i=l", "j=k", "j=l"),
        ("P", "P"): ("i=k", "i=l", "j=k", "j=l"),
        ("N", "O"): ("i=k", "j=k"),
        ("P", "O"): ("i=k", "j=k"),
        ("O", "O"): ("i=j",),
    }
    for (ca, cb), patterns in pairs.items():
        for a, b in itertools.product(ranges[ca], ranges[cb]):
            for pattern in patterns:
                assert formulas.interaction_count("B", n, ca, a, cb, b, pattern) == \
                    _brute_interaction(n, ca, a, cb, b, pattern), (n, ca, a, cb, b, pattern)


def test_interaction_count_rejections():
    with pytest.raises(ws.WeylstatError):
        formulas.interaction_count("C", 5, "N", 1, "N", 2, "i=k")
    with pytest.raises(ws.WeylstatError):
        formulas.interaction_count("B", 5, "O", 1, "N", 2, "i=k")
    with pytest.raises(ws.WeylstatError):
        formulas.interaction_count("B", 5, "N", 1, "N", 2, "i=i")
    with pytest.raises(ws.RangeError):
        formulas.interaction_count("B", 5, "N", 5, "N", 2, "i=k")


def test_var_lower_bound_cases():
    eps = F(1, 100)
    assert formulas.var_lower_bound(10, 20) == ("r<=d", eps * 1000)
    assert formulas.var_lower_bound(100, 5) == ("d^2<=r", eps * 500)
    assert formulas.var_lower_bound(50, 10) == ("d<=r<=d^2", eps * 1000)
    case, bound = formulas.var_lower_bound(4, 2, epsilon=F(1, 10))
    assert case == "d^2<=r" and bound == F(8, 10)


def test_var_lower_bound_holds_on_grid():
    for fam in ("A", "B", "C", "D"):
        for n in range(2, 201):
            rank = n - 1 if fam == "A" else n
            top = {"A": n - 1, "B": 2 * n - 1, "C": 2 * n - 1, "D": 2 * n - 3}[fam]
            for d in range(1, top + 1):
                _, bound = formulas.var_lower_bound(rank, d)
                assert formulas.var_inversions(Q(fam, n, d, "inversions")) > bound, (fam, n, d)


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2"])
def test_all_three_covariance_methods_agree_on_equal_roots(systems, spec):
    rs = systems(spec)
    for beta in rs.roots:
        assert formulas.angle_of(rs, beta, beta) == 0
        assert formulas.cov_closed(rs, beta, beta) == F(1, 4)
        assert formulas.cov_closed_angle(rs, beta, beta) == F(1, 4)
        assert stats.exact_cov(rs, beta, beta) == F(1, 4)
