from fractions import Fraction as F
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylstat as ws
from weylstat import depgraph, formulas, stats
from weylstat.rootsys import _G2_VECTORS, Root


def test_simple_roots_form_path_graph(systems):
    for rank in (3, 5, 9):
        rs = systems(f"A{rank}")
        g = depgraph.build_graph(rs, rs.simple_roots())
        assert g.max_degree == 2
        assert g.edge_count == rank - 1
        assert g.component_sizes == (rank,)


def test_d4_simple_roots_form_star(systems):
    d4 = systems("D4")
    g = depgraph.build_graph(d4, d4.roots_of_height(1))
    assert g.max_degree == 3
    assert g.edge_count == 3
    center = d4.index(Root(0, "N", 2, 3))
    assert len(g.adjacency[center]) == 3


def test_orthogonal_pair_has_no_edges(systems):
    b4 = systems("B4")
    g = depgraph.build_graph(b4, [Root(0, "N", 1, 2), Root(0, "P", 3, 4)])
    assert g.edge_count == 0 and g.component_sizes == (1, 1)


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D4", "G2"])
def test_edges_match_nonzero_covariance(systems, spec):
    rs = systems(spec)
    g = depgraph.build_graph(rs, rs.roots)
    for a in range(len(rs.roots)):
        for b in range(a + 1, len(rs.roots)):
            dependent = formulas.cov_closed(rs, rs.roots[a], rs.roots[b]) != 0
            assert (b in g.adjacency[a]) == dependent


def test_check_antichain_degree_examples(systems):
    b4 = systems("B4")
    assert depgraph.check_antichain_degree(b4, [Root(0, "O", 2)]) == (True, 0, 0)
    for d in range(1, 8):
        anti, max_deg, edges = depgraph.check_antichain_degree(b4, b4.roots_of_height(d))
        assert anti and max_deg <= 3
    # a comparable pair is reported as not an antichain, without assertion
    anti, _, _ = depgraph.check_antichain_degree(
        b4, [Root(0, "N", 1, 2), Root(0, "N", 1, 3)]
    )
    assert not anti


@pytest.mark.parametrize("spec", ["A5", "B5", "C5", "D5", "G2"])
def test_all_antichains_obey_bounds(systems, spec):
    rs = systems(spec)
    for ids in depgraph.antichains(rs):
        roots = [rs.roots[k] for k in ids]
        anti, max_deg, edges = depgraph.check_antichain_degree(rs, roots)
        assert anti and max_deg <= 3 and edges <= len(roots) - 1


def test_antichain_count_small_systems(systems):
    # nonempty antichains: one less than the W-Catalan number of the system
    assert len(list(depgraph.antichains(systems("A4")))) == 42 - 1
    assert len(list(depgraph.antichains(systems("B4")))) == 70 - 1
    assert len(list(depgraph.antichains(systems("G2")))) == 8 - 1


def test_antichain_enumeration_cap(systems):
    with pytest.raises(ws.TooLargeError):
        list(depgraph.antichains(systems("B5"), limit=10))


def test_antichains_refuse_before_enumerating():
    # A13 has Cat(14) - 1 = 2,674,439 nonempty antichains
    start = time.perf_counter()
    with pytest.raises(ws.TooLargeError, match="antichain count 2674439 exceeds antichain limit 1000000"):
        next(depgraph.antichains(ws.build("A13")))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("spec", ["A1", "A5", "B3", "C4", "D2", "D3", "D5", "G2", "A2xG2", "B2xD3"])
def test_antichain_limit_is_the_exact_count(systems, spec):
    rs = systems(spec)
    count = sum(1 for _ in depgraph.antichains(rs))
    assert sum(1 for _ in depgraph.antichains(rs, limit=count)) == count
    with pytest.raises(ws.TooLargeError):
        next(depgraph.antichains(rs, limit=count - 1))


def test_degree_bound_examples(systems):
    assert depgraph.degree_bound_phi_d(systems("A9"), 1) == (2, 4)
    max_deg, bound = depgraph.degree_bound_phi_d(systems("B5"), 3)
    assert max_deg <= bound == 12
    max_deg, bound = depgraph.degree_bound_phi_d(systems("G2"), 5)
    assert bound == 5 and max_deg <= 5


def test_degree_bound_product_no_cross_edges(systems):
    rs = systems("A3xB3")
    g = depgraph.build_graph(rs, rs.roots_up_to_height(2))
    for a, b in g.edges():
        assert rs.roots[a].component == rs.roots[b].component
    max_deg, bound = depgraph.degree_bound_phi_d(rs, 2)
    assert max_deg <= bound == 8


@pytest.mark.parametrize("rank", [10, 30, 50])
def test_bounded_height_count_linear_in_rank(systems, rank):
    for fam in ("B", "C", "D"):
        rs = systems(f"{fam}{rank}")
        for d in range(1, 2 * rank, max(1, rank // 3)):
            assert len(rs.roots_up_to_height(d)) <= 2 * rank * d


def test_degree_bound_holds_across_heights(systems):
    for spec in ("A6", "B5", "C5", "D5"):
        rs = systems(spec)
        for d in range(1, rs.max_height + 1):
            max_deg, bound = depgraph.degree_bound_phi_d(rs, d)
            assert max_deg <= bound


def test_exports(systems):
    d4 = systems("D4")
    g = depgraph.build_graph(d4, d4.roots_of_height(1))
    rows = list(depgraph.edge_csv_rows(d4, g))
    assert rows[0] == ("source", "target") and len(rows) == 4
    dot = depgraph.to_dot(d4, g)
    assert dot.startswith("graph dependency {") and dot.count("--") == 3


def test_graph_equality_is_decidable(systems):
    b3 = systems("B3")
    g1 = depgraph.build_graph(b3, b3.roots_up_to_height(2))
    g2 = depgraph.build_graph(b3, list(reversed(b3.roots_up_to_height(2))))
    assert g1 == g2


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D4", "G2"])
def test_antichain_variance_band(systems, spec):
    rs = systems(spec)
    for ids in depgraph.antichains(rs):
        psi = [rs.roots[k] for k in ids]
        var = stats.exact_variance(rs, psi)
        assert F(len(psi), 12) <= var <= F(len(psi), 4)


def _all_pairs_graph(rs, psi):
    """The dependency graph by testing every pair of psi."""
    ids = sorted({rs.index(r) for r in psi})
    adj = {v: set() for v in ids}
    for a, v in enumerate(ids):
        for w in ids[a + 1 :]:
            if rs.inner_product_int(rs.roots[v], rs.roots[w]) != 0:
                adj[v].add(w)
                adj[w].add(v)
    return adj


@pytest.mark.parametrize("spec", ["A6", "B5", "C4", "D5", "A3xG2"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_build_graph_matches_all_pairs(systems, spec, data):
    rs = systems(spec)
    psi = data.draw(st.lists(st.sampled_from(rs.roots), unique=True))
    g = depgraph.build_graph(rs, psi)
    assert g.adjacency == {v: frozenset(s) for v, s in _all_pairs_graph(rs, psi).items()}


@pytest.mark.parametrize("spec", ["A6", "B5", "C4", "D5", "A3xG2", "G2xG2"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_degrees_match_all_pairs(systems, spec, data):
    rs = systems(spec)
    psi = data.draw(st.lists(st.sampled_from(rs.roots), unique=True))
    assert depgraph.degrees(rs, psi) == {v: len(s) for v, s in _all_pairs_graph(rs, psi).items()}


_DEGREE_SYSTEMS = ["A1", "A4", "A7", "B2", "B3", "B6", "C2", "C3", "C6", "D2", "D3", "D4",
                   "D6", "G2", "A3xG2", "B3xC2xD4", "D5xG2", "G2xG2"]


def test_degrees_match_build_graph_on_layers_unions_and_subsets(systems):
    rng = random.Random(33)
    checked = 0
    for spec in _DEGREE_SYSTEMS:
        rs = systems(spec)
        selections = [rs.roots_of_height(d) for d in range(1, rs.max_height + 1)]
        selections += [rs.roots_up_to_height(d) for d in range(1, rs.max_height + 1)]
        selections += [rng.sample(rs.roots, rng.randint(0, len(rs.roots))) for _ in range(30)]
        for psi in selections:
            graph = depgraph.build_graph(rs, psi)
            assert depgraph.degrees(rs, psi) == {v: len(graph.adjacency[v]) for v in graph.vertices}
            checked += 1
    assert checked == 730


def test_g2_partners_are_the_orthogonal_pairs():
    vectors = dict(enumerate(_G2_VECTORS, 1))

    def ip(a, b):
        other = dict(vectors[b])
        return sum(c * other.get(k, 0) for k, c in vectors[a])

    orthogonal = {(a, b) for a in vectors for b in vectors if a != b and ip(a, b) == 0}
    assert set(depgraph._G2_PARTNERS.items()) == orthogonal
