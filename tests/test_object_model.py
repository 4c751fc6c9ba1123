"""The object model's value semantics, its exhaustive oracles, and element parsing."""

import collections
import gc
import hashlib
import itertools
import pickle
import random
import sys
import threading
import weakref
from pathlib import Path

import pytest

import weylstat as ws
from weylstat import rootsys, weyl
from weylstat.rootsys import Root
from weylstat.weyl import G2Part, SignedPermPart, WeylElement


# -- exhaustive oracles ---------------------------------------------------------

@pytest.mark.parametrize("spec", ["A4", "C2xD4", "B3xA2", "G2xB2"])
def test_inversion_set_matches_apply_on_every_element(systems, spec):
    rs = systems(spec)
    for w in weyl.enumerate_elements(rs):
        assert weyl.inversion_set(w) == {beta for beta in rs.roots if weyl.apply(w, beta)[1] < 0}


def test_compose_and_inverse_agree_with_the_root_action(systems):
    rs = systems("B2xG2")
    roots = rs.roots
    pos = {beta: k for k, beta in enumerate(roots)}
    # an element's action: the image (root, sign) of each positive root, by catalog id
    action = {w: tuple(weyl.apply(w, beta) for beta in roots) for w in weyl.enumerate_elements(rs)}
    by_action = {a: w for w, a in action.items()}
    assert len(by_action) == len(action) == 96  # the action is faithful

    def then(first, second):
        # the action of "first, then second"
        out = []
        for r, s in first:
            r2, s2 = second[pos[r]]
            out.append((r2, s * s2))
        return tuple(out)

    def inverted(a):
        out = [None] * len(a)
        for k, (r, s) in enumerate(a):
            out[pos[r]] = (roots[k], s)
        return tuple(out)

    for v, av in action.items():
        v_inv = weyl.inverse(v)
        assert v_inv == by_action[inverted(av)]
        for u, au in action.items():
            assert weyl.compose(u, v) == by_action[then(av, au)]
            assert weyl.compose(u, v_inv) == by_action[then(action[v_inv], au)]


# -- every constructor's output, pinned ---------------------------------------------

_PINNED_SPECS = ("A1", "A3", "B2", "B3", "C3", "D2", "D3", "D4", "D5", "G2", "A2xG2xD3", "B3xB3", "C4xG2")


def _object_model_lines(rs):
    yield repr(weyl.identity(rs))
    yield repr(weyl.longest_element(rs))
    for alpha in rs.roots:
        if rs.height(alpha) == 1:
            yield repr(weyl.simple_reflection(rs, alpha))
    rng = random.Random(7)
    draws = [weyl.sample_uniform(rs, rng) for _ in range(50)]
    for w in draws:
        yield repr(w)
        yield repr(weyl.inverse(w))
        yield repr(weyl.parse_element(rs, weyl.render_element(w)))
    for w in draws[:10]:
        for beta in rs.roots:
            yield repr(weyl.apply(w, beta))
    if weyl.group_order(rs) < 50_000:
        yield from map(repr, weyl.enumerate_elements(rs))


def test_constructors_sampler_and_action_are_pinned(systems):
    # identity, w0, the simple reflections, a seeded stream of sample_uniform
    # with its inverses and parse(render(w)), apply on every root and the
    # enumeration order, byte for byte over systems of every family
    digest = hashlib.sha256()
    for spec in _PINNED_SPECS:
        for line in _object_model_lines(systems(spec)):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "c3f14efa3acc523176e1506cd9575ba1e960b151a26cee1f02e097c91c37c388"


# -- the sign rule ------------------------------------------------------------------

def _signs_allowed(family, signs):
    """The textbook rule: A flips no sign, B and C any, D an even number."""
    if family == "A":
        return -1 not in signs
    return family != "D" or signs.count(-1) % 2 == 0


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D2", "D3", "D4", "D5"])
def test_parts_are_accepted_iff_their_signs_obey_the_rule(systems, spec):
    rs = systems(spec)
    perm = weyl.identity(rs).parts[0].perm
    for signs in itertools.product((1, -1), repeat=len(perm)):
        part = SignedPermPart(perm, signs)
        text = "[" + ",".join(str(s * k) for s, k in zip(signs, perm)) + "]"
        if _signs_allowed(spec[0], signs):
            assert weyl.element(rs, [part]).parts == (part,)
            assert weyl.parse_element(rs, text).parts == (part,)
        else:
            with pytest.raises(ws.WeylstatError):
                weyl.element(rs, [part])
            with pytest.raises(ws.WeylstatError):
                weyl.parse_element(rs, text)


@pytest.mark.parametrize(
    "spec", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D2", "D3", "D4", "D5", "G2"]
)
def test_component_order_counts_the_enumerated_elements(spec):
    comp, = rootsys.parse_spec(spec).components
    assert rootsys.component_order(comp) == len(list(weyl.enumerate_elements(ws.build(str(comp)))))


# -- per-component slots: results do not depend on call order ---------------------

def _inversions_by_apply(w):
    return {beta for beta in w.system.roots if weyl.apply(w, beta)[1] < 0}


def _composed_by_apply(u, v):
    # the action of u(v(x)) on every positive root, read from apply alone
    out = []
    for beta in u.system.roots:
        image, s = weyl.apply(v, beta)
        image, t = weyl.apply(u, image)
        out.append((image, s * t))
    return out


def _check(u, v):
    # a slot keeps a part's roots at its first call and reads them from the
    # second on; a compose slot likewise keeps its product, read from the second
    expected = _inversions_by_apply(u)
    for _ in range(3):
        assert weyl.inversion_set(u) == expected
    expected = _composed_by_apply(u, v)
    for _ in range(2):
        uv = weyl.compose(u, v)
        assert [weyl.apply(uv, beta) for beta in u.system.roots] == expected


@pytest.mark.parametrize("spec", ["B3xG2", "A3xD4", "B3xB3"])
def test_slots_in_shuffled_order_match_apply(systems, spec):
    # B3xB3 has two classical slots, and a shuffled order changes both at once
    rs = systems(spec)
    elements = list(weyl.enumerate_elements(rs))
    order = elements[:]
    random.Random(2101).shuffle(order)
    for u, v in zip(order, elements):
        _check(u, v)
        _check(u, u)


def _q_integer_product(degrees):
    """Coefficients of prod_i [d_i]_q, where [d]_q = 1 + q + ... + q^(d-1)."""
    coeffs = [1]
    for d in degrees:
        wider = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                wider[i + j] += c
        coeffs = wider
    return coeffs


def test_lengths_of_b5xg2_follow_its_degrees_in_any_order(systems):
    # W(B5 x G2) counted by length is prod [d_i]_q over the degrees 2, 4, 6, 8, 10
    # of B5 and 2, 6 of G2 (Humphreys, Reflection Groups and Coxeter Groups,
    # 3.15); w -> w w0 sends length l to 31 - l and is a bijection.  Checked in
    # enumeration order, where parts repeat, and shuffled, where they do not.
    rs = systems("B5xG2")
    w0 = weyl.longest_element(rs)
    expected = _q_integer_product([2, 4, 6, 8, 10, 2, 6])
    assert len(expected) == 32 and sum(expected) == 46080
    elements = list(weyl.enumerate_elements(rs))
    shuffled = elements[:]
    random.Random(3101).shuffle(shuffled)
    for order in (elements, shuffled):
        lengths = [len(weyl.inversion_set(w)) for w in order]
        products = [weyl.compose(w, w0) for w in order]
        assert sorted(collections.Counter(lengths).items()) == list(enumerate(expected))
        assert [31 - len(weyl.inversion_set(wv)) for wv in products] == lengths
        assert len({wv.parts for wv in products}) == 46080


def test_one_part_object_in_two_systems(systems):
    # D3 parts are B3 parts too; a slot keyed on the part alone would hand
    # B3's O roots to D3, or D3's roots to B3
    b3, d3 = systems("B3xG2"), systems("D3xG2")
    parts = [w.parts for w in weyl.enumerate_elements(d3)]
    random.Random(2102).shuffle(parts)
    w0 = {rs: weyl.longest_element(rs) for rs in (b3, d3)}
    for p in parts:
        pair = [weyl.element(rs, p) for rs in (b3, d3)]
        assert pair[0].parts[0] is pair[1].parts[0]
        for w in pair + pair[::-1]:  # each system's slot right after the other's
            _check(w, w0[w.system])
        for w in pair:
            _check(w0[w.system], w)


def test_slots_shared_by_threads(systems):
    rs = systems("B3xG2")
    elements = list(weyl.enumerate_elements(rs))
    w0 = weyl.longest_element(rs)
    expected = {}
    for w in elements:
        _check(w, w0)
        expected[w] = (weyl.inversion_set(w), weyl.compose(w, w0).parts)
    errors = []
    start = threading.Barrier(4, timeout=60)

    def worker(seed):
        # the enumeration order repeats each B3 part 12 times, so threads that
        # start together meet on one part object; a shuffled pass changes it
        # on every call
        order = elements[:]
        random.Random(seed).shuffle(order)
        start.wait()
        for w in elements * 8 + order:
            if (weyl.inversion_set(w), weyl.compose(w, w0).parts) != expected[w]:
                errors.append(w)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_inversion_sets_are_fresh_sets(systems):
    rs = systems("B3xG2")
    w = weyl.parse_element(rs, "[-2,3,1]xg5")
    expected = _inversions_by_apply(w)
    assert len({beta.component for beta in expected}) == 2
    for _ in range(4):  # the part noted, its roots kept, then read twice
        got = weyl.inversion_set(w)
        assert got == expected
        got.clear()
        got.add(rs.roots[0])
    assert weyl.inversion_set(w) is not weyl.inversion_set(w)


def test_a_new_part_at_a_freed_address_is_not_a_hit(systems):
    # each element is freed before the next is built, so a fresh part can
    # take the address of the one a slot last saw; inversion_set and compose
    # run in separate loops, so neither slot keeps the other's part alive
    rs = systems("B3xG2")
    values = [((2, 3, 1), (1, -1, 1)), ((3, 1, 2), (-1, -1, 1))] * 100
    for perm, signs in values:
        w = weyl.element(rs, [SignedPermPart(perm, signs), G2Part(0)])
        for _ in range(2):  # the first call keeps the part's roots, the second reads them
            assert weyl.inversion_set(w) == _inversions_by_apply(w)
        del w
    for perm, signs in values:
        w = weyl.element(rs, [SignedPermPart(perm, signs), G2Part(0)])
        uv = weyl.compose(w, w)
        assert [weyl.apply(uv, beta) for beta in rs.roots] == _composed_by_apply(w, w)
        del w, uv


def test_slots_hold_the_parts_they_match(systems):
    # a freed part's address can be reused, so a slot that held only the
    # address could match a new part; the test above sees that only when the
    # allocator reuses the address, this one checks the reference is held
    rs = systems("B3xG2")
    a, b = SignedPermPart((2, 3, 1), (1, -1, 1)), SignedPermPart((3, 1, 2), (-1, -1, 1))
    free = sys.getrefcount(a)
    weyl.inversion_set(weyl.element(rs, [a, G2Part(0)]))
    x = weyl.element(rs, [b, G2Part(0)])
    weyl.compose(x, x)
    del x
    assert sys.getrefcount(a) > free and sys.getrefcount(b) > free


def test_slots_do_not_keep_a_system_alive():
    rs = ws.build("B3xG2")
    w = weyl.parse_element(rs, "[-2,3,1]xg5")
    weyl.inversion_set(w)
    weyl.compose(w, w)
    gone = weakref.ref(rs)
    del rs, w
    gc.collect()
    assert gone() is None


def test_a_freed_system_leaves_the_inversion_registry():
    # the entry holds a test tuple per root beside the slots; the finalizer drops it
    rs = ws.build("B3xG2")
    weyl.inversion_set(weyl.parse_element(rs, "[-2,3,1]xg5"))
    key = id(rs)
    tests, slots = weyl._INVERSION_SLOTS[key]
    assert len(tests) == len(slots) == 2
    del rs, tests, slots
    gc.collect()
    assert key not in weyl._INVERSION_SLOTS


# -- value semantics of roots, parts and elements ----------------------------------

def test_reprs_are_the_field_reprs():
    assert repr(Root(1, "P", 2, 3)) == "Root(component=1, form='P', i=2, j=3)"
    assert repr(Root(0, "G", 5)) == "Root(component=0, form='G', i=5, j=0)"
    assert repr(SignedPermPart((2, 1), (1, -1))) == "SignedPermPart(perm=(2, 1), signs=(1, -1))"
    assert repr(G2Part(3)) == "G2Part(index=3)"


def test_roots_hash_and_sort_by_their_fields(systems):
    for beta in systems("B3xG2").roots:
        assert hash(beta) == hash((beta.component, beta.form, beta.i, beta.j))
    rs = systems("A2xB2")
    assert sorted(rs.roots) == [
        Root(0, "N", 1, 2), Root(0, "N", 1, 3), Root(0, "N", 2, 3),
        Root(1, "N", 1, 2), Root(1, "O", 1), Root(1, "O", 2), Root(1, "P", 1, 2),
    ]


def test_roots_are_tuples_of_their_fields():
    beta = Root(0, "N", 1, 2)
    assert beta == (0, "N", 1, 2)
    component, form, i, j = beta
    assert (component, form, i, j) == (0, "N", 1, 2)


@pytest.mark.parametrize(
    "value, name", [(Root(0, "O", 1), "i"), (SignedPermPart((1,), (1,)), "signs"), (G2Part(0), "index")]
)
def test_fields_cannot_be_assigned(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))


def test_elements_cannot_be_assigned(systems):
    w = weyl.identity(systems("B2"))
    with pytest.raises(AttributeError):
        w.parts = ()


def test_pickle_round_trip(systems):
    rs = systems("B2xG2")
    w = weyl.parse_element(rs, "[-2,1]xg7")
    for value in (rs.roots[3], *w.parts, w):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
    assert weyl.render_element(pickle.loads(pickle.dumps(w))) == "[-2,1]xg7"


def _built_elements(rs):
    u, v = list(weyl.enumerate_elements(rs))[5:7]
    return {"enumerate": u, "compose": weyl.compose(u, v), "inverse": weyl.inverse(v)}


@pytest.mark.parametrize("source", ["enumerate", "compose", "inverse"])
def test_built_elements_are_values(systems, source):
    rs = systems("B2xG2")
    w = _built_elements(rs)[source]
    twin = weyl.element(ws.build("B2xG2"), list(w.parts))
    assert type(w) is WeylElement and w == twin and hash(w) == hash(twin)
    assert repr(w) == repr(twin) == f"WeylElement(parts={w.parts!r})"
    copy = pickle.loads(pickle.dumps(w))
    assert copy == w and type(copy) is WeylElement and copy.system.spec == rs.spec
    assert weyl.render_element(copy) == weyl.render_element(w)
    with pytest.raises(AttributeError):
        w.parts = twin.parts
    with pytest.raises(AttributeError):
        w.system = rs


def test_element_rejects_plain_tuples_as_parts(systems):
    with pytest.raises(ws.WeylstatError):
        weyl.element(systems("B2"), [((1, 2), (1, 1))])
    with pytest.raises(ws.WeylstatError):
        weyl.element(systems("G2"), [(3,)])


@pytest.mark.parametrize("spec, text", [("A1", "[1]"), ("B2", "[1,2,3]"), ("G2xD3", "g0x[1,2]")])
def test_parts_must_fill_their_component(systems, spec, text):
    with pytest.raises(ws.WeylstatError):
        weyl.parse_element(systems(spec), text)


def test_element_equality_ignores_the_system():
    parts = (SignedPermPart((2, 1), (1, -1)),)
    u, v = WeylElement(ws.build("B2"), parts), WeylElement(ws.build("B2"), parts)
    assert u.system is not v.system
    assert u == v and hash(u) == hash(v)
    assert repr(u) == "WeylElement(parts=(SignedPermPart(perm=(2, 1), signs=(1, -1)),))"


def test_elements_of_different_systems_are_different():
    # the identities of A1, B2 and D2 have the same parts, ((1, 2), (1, 1))
    ids = [weyl.identity(ws.build(spec)) for spec in ("A1", "B2", "D2")]
    assert len({w.parts for w in ids}) == 1
    assert len(set(ids)) == 3
    assert ids[1] != ids[2] and ids[1] == weyl.identity(ws.build("B2"))


# -- parsing -------------------------------------------------------------------------

@pytest.mark.parametrize("text", ["[2,1]x[9,9,9]", "[1,2]x", "[2,1]x[2,1]"])
def test_parse_element_rejects_extra_chunks(systems, text):
    with pytest.raises(ws.ComponentMismatchError):
        weyl.parse_element(systems("A1"), text)


def test_parse_element_rejects_missing_chunks(systems):
    with pytest.raises(ws.ComponentMismatchError):
        weyl.parse_element(systems("A1xG2"), "[2,1]")


@pytest.mark.parametrize(
    "spec, text",
    [("A1", "[]"), ("A1", "[a,b]"), ("A1", "gg"), ("A1", "2,1"), ("A1", "[[2,1]]"),
     ("A1", "[2,,1]"), ("G2", "gg"), ("G2", "g"), ("G2", "[1,2]"), ("G2xB2", "g3x[1,2")],
)
def test_parse_element_rejects_malformed_chunks(systems, spec, text):
    with pytest.raises(ws.WeylstatError) as err:
        weyl.parse_element(systems(spec), text)
    assert type(err.value) is ws.WeylstatError


def test_parse_element_refuses_oversized_integers(systems):
    with pytest.raises(ws.WeylstatError):
        weyl.parse_element(systems("A1"), f"[{'9' * 5000},1]")


def test_parse_element_reads_signs_and_g2_indices(systems):
    w = weyl.parse_element(systems("G2xB2"), " g3 x [-2, 1] ")
    assert w.parts == (G2Part(3), SignedPermPart((2, 1), (-1, 1)))


# -- packaging --------------------------------------------------------------------

def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == ws.__version__
