"""The object model's value semantics, its exhaustive oracles, and element parsing."""

import pickle
from pathlib import Path

import pytest

import weylstat as ws
from weylstat import weyl
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


def test_parse_element_reads_signs_and_g2_indices(systems):
    w = weyl.parse_element(systems("G2xB2"), " g3 x [-2, 1] ")
    assert w.parts == (G2Part(3), SignedPermPart((2, 1), (-1, 1)))


# -- packaging --------------------------------------------------------------------

def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == ws.__version__
