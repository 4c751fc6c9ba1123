import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import weylstat as ws
from weylstat import weyl
from weylstat.rootsys import Root


def test_apply_identity_and_self_reflection(systems):
    a3 = systems("A3")
    e = weyl.identity(a3)
    for beta in a3.roots:
        assert weyl.apply(e, beta) == (beta, 1)
    s = weyl.simple_reflection(a3, Root(0, "N", 1, 2))
    assert weyl.apply(s, Root(0, "N", 1, 2)) == (Root(0, "N", 1, 2), -1)


def test_apply_sign_flip_example(systems):
    b2 = systems("B2")
    w = weyl.element(b2, [weyl.SignedPermPart((1, 2), (-1, 1))])
    assert weyl.apply(w, Root(0, "P", 1, 2)) == (Root(0, "N", 1, 2), 1)


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2", "A2xG2"])
def test_simple_reflections_act_as_reflections(systems, spec):
    # s_alpha(beta) = beta - (2 <beta, alpha> / <alpha, alpha>) alpha, on the root vectors
    rs = systems(spec)

    def vector(root, scale=1):
        return {(root.component, k): scale * c for k, c in rs._vector(root)}

    for alpha in rs.simple_roots():
        s = weyl.simple_reflection(rs, alpha)
        for beta in rs.roots:
            c = Fraction(2 * rs.inner_product_int(beta, alpha), rs.inner_product_int(alpha, alpha))
            expected = vector(beta)
            for key, a in vector(alpha).items():
                expected[key] = expected.get(key, 0) - c * a
            image, sign = weyl.apply(s, beta)
            assert vector(image, sign) == {k: v for k, v in expected.items() if v}, (alpha, beta)


def test_inversion_set_identity_and_longest(systems):
    for spec in ("A3", "B3", "C3", "D4", "G2", "A2xB2"):
        rs = systems(spec)
        assert weyl.inversion_set(weyl.identity(rs)) == set()
        assert weyl.inversion_set(weyl.longest_element(rs)) == set(rs.roots)


def test_longest_element_agrees_with_greedy_ascent(systems):
    for spec in ("A3", "B3", "C4", "D4", "D5", "G2"):
        rs = systems(spec)
        w = weyl.identity(rs)
        simples = rs.simple_roots()
        while True:
            alpha = next((a for a in simples if not weyl.is_inversion(w, a)), None)
            if alpha is None:
                break
            w = weyl.compose(w, weyl.simple_reflection(rs, alpha))
        assert w == weyl.longest_element(rs)


def test_g2_inversion_table(systems):
    g2 = systems("G2")
    s = weyl.simple_reflection(g2, Root(0, "G", 1))
    t = weyl.simple_reflection(g2, Root(0, "G", 2))
    # the length-2 element with first reflection s: inversions r1 and r5
    ts = weyl.compose(t, s)
    assert weyl.inversion_set(ts) == {Root(0, "G", 1), Root(0, "G", 5)}
    # inversion counts over the group: one element per length 0..6 pattern
    lengths = sorted(len(weyl.inversion_set(w)) for w in weyl.enumerate_elements(g2))
    assert lengths == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]


def test_enumeration_counts(systems):
    assert sum(1 for _ in weyl.enumerate_elements(systems("A2"))) == 6
    assert sum(1 for _ in weyl.enumerate_elements(systems("D4"))) == 192
    assert sum(1 for _ in weyl.enumerate_elements(systems("G2"))) == 12
    assert weyl.group_order(systems("B5")) == 2**5 * 120
    assert weyl.group_order(systems("A3xB2xG2")) == 24 * 8 * 12


def test_enumeration_is_duplicate_free(systems):
    for spec in ("B3", "D3", "A2xA2", "G2"):
        rs = systems(spec)
        elems = list(weyl.enumerate_elements(rs))
        assert len(elems) == len(set(elems)) == weyl.group_order(rs)


def test_enumeration_cap(systems):
    b5 = systems("B5")
    with pytest.raises(ws.TooLargeError) as err:
        next(weyl.enumerate_elements(b5, cap=100))
    assert err.value.order == 3840


@pytest.mark.parametrize("spec", ["A6", "A6xA1", "B3xG2", "G2xB3"])
def test_enumeration_order_is_the_product_of_the_parts(systems, spec):
    # A6 has 5,040 parts, more than one block of the first component
    rs = systems(spec)
    parts = itertools.product(*(weyl._component_parts_iter(c) for c in rs.spec.components))
    elements = list(weyl.enumerate_elements(rs))
    assert [w.parts for w in elements] == list(parts)
    # a part that repeats from one element to the next is the same object
    for u, v in zip(elements, elements[1:]):
        assert all(p is q for p, q in zip(u.parts, v.parts) if p == q)


def test_the_first_element_does_not_hold_every_part(systems):
    rs = systems("D7")  # 322,560 parts
    tracemalloc.start()
    try:
        next(weyl.enumerate_elements(rs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_composition_convention_locked(systems):
    # compose(u, v) applies v first: s1(s2(e2-e1)) = s1(e3-e1) = e3-e2,
    # whereas the opposite convention would give -(e3-e1)
    a2 = systems("A2")
    s1 = weyl.simple_reflection(a2, Root(0, "N", 1, 2))
    s2 = weyl.simple_reflection(a2, Root(0, "N", 2, 3))
    w = weyl.compose(s1, s2)
    assert weyl.apply(w, Root(0, "N", 1, 2)) == (Root(0, "N", 2, 3), 1)


def test_action_is_multiplicative(systems):
    rng = random.Random(5)
    for spec in ("A3", "B3", "D4", "G2", "A2xC2"):
        rs = systems(spec)
        for _ in range(60):
            u = weyl.sample_uniform(rs, rng)
            v = weyl.sample_uniform(rs, rng)
            uv = weyl.compose(u, v)
            for beta in rs.roots:
                rv, sv = weyl.apply(v, beta)
                ru, su = weyl.apply(u, rv)
                assert weyl.apply(uv, beta) == (ru, su * sv)


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D4", "G2"])
def test_longest_element_complements_inversions(systems, spec):
    rs = systems(spec)
    w0 = weyl.longest_element(rs)
    all_roots = set(rs.roots)
    for w in weyl.enumerate_elements(rs):
        assert weyl.inversion_set(weyl.compose(w0, w)) == all_roots - weyl.inversion_set(w)


def test_inverse_and_identity(systems):
    rng = random.Random(17)
    for spec in ("B4", "G2", "A2xD3"):
        rs = systems(spec)
        e = weyl.identity(rs)
        for _ in range(40):
            w = weyl.sample_uniform(rs, rng)
            assert weyl.compose(w, weyl.inverse(w)) == e
            assert weyl.compose(weyl.inverse(w), w) == e


def test_sampling_uniform_b2_frequencies(systems):
    b2 = systems("B2")
    rng = random.Random(12345)
    counts = Counter(weyl.sample_uniform(b2, rng) for _ in range(10**5))
    assert len(counts) == 8
    expected = 10**5 / 8
    std = math.sqrt(10**5 * (1 / 8) * (7 / 8))
    for c in counts.values():
        assert abs(c - expected) <= 5 * std


def test_sampling_chi_square_a2(systems):
    a2 = systems("A2")
    rng = random.Random(777)
    n = 10**5
    counts = Counter(weyl.sample_uniform(a2, rng) for _ in range(n))
    expected = n / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 5 degrees of freedom; alpha = 1e-6 corresponds to roughly 33.4
    assert chi2 < 33.4


def test_sampling_covers_d3(systems):
    # coupon collector: 1e5 draws cover the whole group with huge margin
    d3 = systems("D3")
    rng = random.Random(4242)
    seen = {weyl.sample_uniform(d3, rng) for _ in range(10**5)}
    assert len(seen) == weyl.group_order(d3) == len(list(weyl.enumerate_elements(d3)))


def test_sampling_respects_type_invariants(systems):
    rng = random.Random(9)
    d4 = systems("D4")
    for _ in range(200):
        w = weyl.sample_uniform(d4, rng)
        assert w.parts[0].signs.count(-1) % 2 == 0
    a3 = systems("A3")
    for _ in range(50):
        assert all(s == 1 for s in weyl.sample_uniform(a3, rng).parts[0].signs)


def test_sampling_deterministic_given_seed(systems):
    b3 = systems("B3")
    draws1 = [weyl.sample_uniform(b3, random.Random(31)) for _ in range(20)]
    draws2 = [weyl.sample_uniform(b3, random.Random(31)) for _ in range(20)]
    assert draws1 == draws2


def test_parabolic_decompose_examples(systems):
    a2 = systems("A2")
    s1 = weyl.simple_reflection(a2, Root(0, "N", 1, 2))
    s2 = weyl.simple_reflection(a2, Root(0, "N", 2, 3))
    w = weyl.compose(s1, s2)
    wq, wp = weyl.parabolic_decompose(w, [Root(0, "N", 1, 2)])
    assert wq == w and wp == weyl.identity(a2)
    wq, wp = weyl.parabolic_decompose(w, [])
    assert wq == w and wp == weyl.identity(a2)
    wq, wp = weyl.parabolic_decompose(w, a2.simple_roots())
    assert wq == weyl.identity(a2) and wp == w


def test_parabolic_decompose_rejects_non_simple(systems):
    a3 = systems("A3")
    w = weyl.identity(a3)
    with pytest.raises(ws.WeylstatError):
        weyl.parabolic_decompose(w, [Root(0, "N", 1, 3)])


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D4", "G2"])
def test_parabolic_decomposition_properties(systems, spec):
    rs = systems(spec)
    simples = rs.simple_roots()
    elements = list(weyl.enumerate_elements(rs))
    for size in range(len(simples) + 1):
        for gamma in itertools.combinations(simples, size):
            span = [
                beta for beta in rs.roots
                if set(_support(rs, beta)) <= {rs.index(a) for a in gamma}
            ]
            for w in elements:
                wq, wp = weyl.parabolic_decompose(w, gamma)
                assert weyl.compose(wq, wp) == w
                for alpha in gamma:
                    assert not weyl.is_inversion(wq, alpha)
                # positivity transfer on the parabolic subsystem
                for beta in span:
                    assert weyl.is_inversion(w, beta) == weyl.is_inversion(wp, beta)


def _support(rs, beta):
    coeffs = rs.simple_coefficients(beta)
    simple_ids = rs.height_index[1]
    return [simple_ids[k] for k, c in enumerate(coeffs) if c]


def test_element_render_parse_round_trip(systems):
    rng = random.Random(2)
    for spec in ("B3", "G2", "A2xB2"):
        rs = systems(spec)
        for _ in range(25):
            w = weyl.sample_uniform(rs, rng)
            assert weyl.parse_element(rs, weyl.render_element(w)) == w


def test_component_mismatch_rejected(systems):
    a3 = systems("A3")
    b3 = systems("B3")
    w = weyl.identity(a3)
    with pytest.raises(ws.WeylstatError):
        weyl.apply(w, Root(0, "O", 1))  # not a root of A3
    with pytest.raises(ws.ComponentMismatchError):
        weyl.compose(weyl.identity(a3), weyl.identity(b3))


@pytest.mark.parametrize("spec", ["B4", "C3", "D4", "A2xG2"])
def test_inversion_set_matches_apply(systems, spec):
    rs = systems(spec)
    for w in weyl.enumerate_elements(rs):
        assert weyl.inversion_set(w) == {beta for beta in rs.roots if weyl.apply(w, beta)[1] < 0}
