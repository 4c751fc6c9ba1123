from fractions import Fraction
import tracemalloc

import pytest

import weylstat as ws
from weylstat.rootsys import Root


def test_catalog_sizes_and_max_heights(systems):
    assert len(systems("A4")) == 10
    assert max(systems("A4").heights) == 4
    assert len(systems("B4")) == 16
    assert max(systems("B4").heights) == 7
    assert len(systems("C4")) == 16
    assert len(systems("D4")) == 12
    assert len(systems("G2")) == 6
    assert sorted(systems("G2").heights) == [1, 1, 2, 3, 4, 5]


def test_g2_poset_rank_is_five(systems):
    g2 = systems("G2")
    top = g2.roots[g2.height_index[5][0]]
    # longest chain below the top root has length 4
    depth = 0
    current = top
    while g2.height(current) > 1:
        parent_id = g2._parent_edges[g2.index(current)][0][0]
        current = g2.roots[parent_id]
        depth += 1
    assert depth == 4


def test_component_counts_sum_to_catalog(systems):
    for spec in ("A5", "B5", "C5", "D5", "G2", "A3xB4xG2"):
        rs = systems(spec)
        assert sum(len(ids) for ids in rs.height_index.values()) == len(rs)


def test_invalid_specs_rejected():
    for bad in ("B1", "C1", "D1", "G23", "E8", "A0", ""):
        with pytest.raises(ws.InvalidSpecError):
            ws.build(bad)


def test_heights_of_each_form(systems):
    b4 = systems("B4")
    assert b4.height(Root(0, "N", 1, 3)) == 2
    assert b4.height(Root(0, "O", 3)) == 3
    assert b4.height(Root(0, "P", 1, 2)) == 3
    c4 = systems("C4")
    assert c4.height(Root(0, "O", 3)) == 5
    assert c4.height(Root(0, "P", 1, 2)) == 2
    d4 = systems("D4")
    assert d4.height(Root(0, "P", 1, 2)) == 1
    assert d4.height(Root(0, "P", 3, 4)) == 5


def test_inner_product_examples(systems):
    a3 = systems("A3")
    assert a3.inner_product(Root(0, "N", 1, 2), Root(0, "N", 2, 3)) == -1
    b4 = systems("B4")
    assert b4.inner_product(Root(0, "O", 1), Root(0, "N", 1, 3)) == -1
    assert b4.inner_product(Root(0, "N", 1, 2), Root(0, "P", 3, 4)) == 0
    # type C long-root normalization: O[i] carries the 2 e_i geometry
    c3 = systems("C3")
    assert c3.inner_product(Root(0, "O", 2), Root(0, "N", 2, 3)) == -2
    assert c3.norm_sq(Root(0, "O", 2)) == 4


def test_reflection_order_examples(systems):
    a3 = systems("A3")
    assert a3.reflection_order(Root(0, "N", 1, 2), Root(0, "N", 2, 3)) == 3
    b4 = systems("B4")
    assert b4.reflection_order(Root(0, "O", 2), Root(0, "N", 2, 4)) == 4
    for rs, root in ((a3, Root(0, "N", 1, 3)), (b4, Root(0, "P", 2, 4))):
        assert rs.reflection_order(root, root) == 1


def test_type_a_order_table_exhaustive(systems):
    rs = systems("A6")
    for beta in rs.roots:
        for gamma in rs.roots:
            shared = len({beta.i, beta.j} & {gamma.i, gamma.j})
            expected = {2: 1, 0: 2, 1: 3}[shared]
            assert rs.reflection_order(beta, gamma) == expected


def test_type_b_order_tables_exhaustive(systems):
    rs = systems("B5")

    def expected(x, y):
        sx = {x.i, x.j} if x.form != "O" else {x.i}
        sy = {y.i, y.j} if y.form != "O" else {y.i}
        shared = len(sx & sy)
        if x.form == "O" and y.form == "O":
            return 1 if x.i == y.i else 2
        if "O" in (x.form, y.form):
            return 2 if shared == 0 else 4
        if x.form == y.form:
            return {2: 1, 0: 2, 1: 3}[shared]
        # N against P
        return 2 if shared in (0, 2) else 3

    for beta in rs.roots:
        for gamma in rs.roots:
            assert rs.reflection_order(beta, gamma) == expected(beta, gamma)


def test_roots_up_to_height_examples(systems):
    a4 = systems("A4")
    assert [a4.render_root(r) for r in a4.roots_up_to_height(1)] == [
        "N[1,2]", "N[2,3]", "N[3,4]", "N[4,5]",
    ]
    for a in range(1, 5):
        assert len(a4.roots_of_height(a)) == 5 - a
    b4 = systems("B4")
    level3 = {b4.render_root(r) for r in b4.roots_of_height(3)}
    assert level3 == {"P[1,2]", "O[3]", "N[1,4]"}
    upto3 = b4.roots_up_to_height(3)
    assert len(upto3) == 10 and set(b4.roots_of_height(3)) <= set(upto3)
    # d beyond the maximal height
    assert b4.roots_up_to_height(99) == b4.roots
    assert b4.roots_of_height(99) == ()


def test_poset_examples(systems):
    a3 = systems("A3")
    assert a3.poset_leq(Root(0, "N", 1, 2), Root(0, "N", 1, 4))
    assert not a3.poset_leq(Root(0, "N", 1, 4), Root(0, "N", 1, 2))
    b4 = systems("B4")
    p, n = Root(0, "P", 1, 2), Root(0, "N", 1, 4)
    assert not b4.poset_leq(p, n) and not b4.poset_leq(n, p)


@pytest.mark.parametrize("spec", ["A5", "B5", "C5", "D5", "G2", "A2xD3"])
def test_height_slices_are_antichains(systems, spec):
    rs = systems(spec)
    for d in range(1, rs.max_height + 1):
        assert rs.is_antichain(rs.roots_of_height(d))


@pytest.mark.parametrize("spec", ["A5", "B5", "C5", "D5", "G2"])
def test_cover_grading(systems, spec):
    rs = systems(spec)
    for lo, hi in rs.covers:
        assert rs.heights[hi] == rs.heights[lo] + 1
    assert {rs.roots[k] for k in rs.height_index[1]} == set(rs.simple_roots())


@pytest.mark.parametrize("spec", ["A5", "B5", "C5", "D5", "G2"])
def test_order_two_iff_orthogonal(systems, spec):
    rs = systems(spec)
    for beta in rs.roots:
        for gamma in rs.roots:
            o = rs.reflection_order(beta, gamma)
            assert o == rs.reflection_order(gamma, beta)
            assert (o == 2) == (rs.inner_product_int(beta, gamma) == 0)


def test_reducible_components_orthogonal(systems):
    rs = systems("A2xB2")
    for beta in rs.roots:
        for gamma in rs.roots:
            if beta.component != gamma.component:
                assert rs.inner_product(beta, gamma) == 0
                assert rs.reflection_order(beta, gamma) == 2


def test_inner_product_returns_exact_rational(systems):
    value = systems("B3").inner_product(Root(0, "O", 1), Root(0, "O", 1))
    assert isinstance(value, Fraction) and value == 1


def test_deterministic_ordering(systems):
    rs1 = ws.build("B4")
    rs2 = ws.build("B4")
    assert rs1.roots == rs2.roots
    # sorted by (height, form, i, j) within the component
    keys = [(rs1.heights[k], r.form, r.i, r.j) for k, r in enumerate(rs1.roots)]
    assert keys == sorted(keys)


def test_render_parse_round_trip(systems):
    for spec in ("A4", "B4", "C4", "D4", "G2", "A3xB4", "A2xA2"):
        rs = systems(spec)
        for root in rs.roots:
            assert rs.parse_root(rs.render_root(root)) == root


def test_render_grammar_examples(systems):
    a3 = systems("A3")
    assert a3.render_root(Root(0, "N", 1, 4)) == "N[1,4]"
    prod = systems("A3xB4")
    assert prod.render_root(Root(1, "P", 1, 2)) == "B4:P[1,2]"
    assert prod.render_root(Root(0, "N", 1, 4)) == "A3:N[1,4]"
    g2 = systems("G2")
    assert g2.render_root(Root(0, "G", 5)) == "r5"


def test_stale_root_rejected(systems):
    b3 = systems("B3")
    with pytest.raises(ws.StaleRootError):
        b3.inner_product(Root(0, "N", 1, 5), Root(0, "N", 1, 2))
    with pytest.raises(ws.StaleRootError):
        b3.parse_root("Q[1,2]")


@pytest.mark.parametrize("template", ["r{}", "N[{},1]", "P[1,{}]"])
def test_parse_root_refuses_oversized_integers(systems, template):
    with pytest.raises(ws.StaleRootError):
        systems("B3").parse_root(template.format("9" * 5000))


def test_parse_spec_refuses_oversized_integers():
    with pytest.raises(ws.InvalidSpecError):
        ws.parse_spec("A" + "9" * 5000)


def test_simple_coefficients_hold_no_table_of_all_expansions():
    # A150 has 11,325 roots over 150 simple roots: a table of every root's
    # coefficients takes about 17 MB, the walk down its cover parents 4.4 MB.
    rs = ws.build("A150")
    tracemalloc.start()
    try:
        coeffs = rs.simple_coefficients(rs.roots[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coeffs == (1,) * 150
    assert peak < 8_000_000


def _cover_closure(rs):
    """Bit ``b`` of ``below[g]`` is set iff root ``b`` lies below root ``g`` in the closure of covers."""
    below = [1 << k for k in range(len(rs))]
    for lower, upper in sorted(rs.covers, key=lambda edge: rs.heights[edge[1]]):
        below[upper] |= below[lower]
    return below


@pytest.mark.parametrize("spec", ["A5", "B5", "C5", "D5", "G2", "A2xD3"])
def test_poset_order_is_the_closure_of_covers(systems, spec):
    rs = systems(spec)
    below = _cover_closure(rs)
    for b, beta in enumerate(rs.roots):
        for g, gamma in enumerate(rs.roots):
            assert rs.poset_leq(beta, gamma) == bool(below[g] >> b & 1), (beta, gamma)


def test_poset_order_on_a_large_type_a_catalog():
    # A99 has 4,950 roots; N[i,j] = alpha_i + ... + alpha_(j-1), so N[i,j] <= N[k,l]
    # iff the interval i..j-1 lies inside k..l-1.
    import random

    rs = ws.build("A99")
    rng = random.Random(1401)
    for _ in range(2000):
        beta, gamma = rs.root(rng.randrange(len(rs))), rs.root(rng.randrange(len(rs)))
        assert rs.poset_leq(beta, gamma) == (gamma.i <= beta.i and beta.j <= gamma.j)


def test_repeated_components_need_the_ordinal_prefix(systems):
    rs = systems("B3xB3")
    assert rs.parse_root("B3.2:N[1,2]") == Root(1, "N", 1, 2)
    with pytest.raises(ws.StaleRootError, match="unknown component prefix 'B3'"):
        rs.parse_root("B3:N[1,2]")
    assert systems("A3xB4").parse_root("B4:P[1,2]") == Root(1, "P", 1, 2)


@pytest.mark.parametrize("spec", ["G2", "A2xG2", "G2xB3"])
def test_g2_inner_products_match_the_gram_form(systems, spec):
    # <a alpha + b gamma, c alpha + d gamma> with |alpha|^2 = 2, |gamma|^2 = 6, <alpha, gamma> = -3
    from weylstat.rootsys import _G2_COEFFS

    rs = systems(spec)
    g2 = [r for r in rs.roots if r.form == "G"]
    assert len(g2) == 6
    for beta in g2:
        (a, b) = _G2_COEFFS[beta.i - 1]
        assert rs.norm_sq(beta) == 2 * a * a + 6 * b * b - 6 * a * b
        for gamma in g2:
            (c, d) = _G2_COEFFS[gamma.i - 1]
            assert rs.inner_product_int(beta, gamma) == 2 * a * c + 6 * b * d - 3 * (a * d + b * c)


# -- the run view of a root set ---------------------------------------------------

def _reference_runs(rs, ids):
    """The per-root grouping that ``diagonal_runs`` replaced: decode each root, split
    by component, sort the tests by (form, diagonal, i) and merge consecutive i."""
    from weylstat.rootsys import _G2_TESTS

    by_comp = {}
    for k in ids:
        r = rs.roots[k]
        by_comp.setdefault(r.component, []).append(r)
    out = {}
    for ci in sorted(by_comp):
        tests = (_G2_TESTS[r.i] if r.form == "G" else (r.form, r.i, r.j) for r in by_comp[ci])
        runs = []
        for form, diag, i in sorted(
            (form, j - i if form == "N" else i + j if form == "P" else 0, i) for form, i, j in tests
        ):
            if runs and runs[-1][:2] == [form, diag] and runs[-1][3] == i - 1:
                runs[-1][3] = i
            else:
                runs.append([form, diag, i, i])
        out[ci] = tuple(tuple(run) for run in runs)
    return out


RUN_VIEW_SYSTEMS = ["A1", "A4", "A7", "B2", "B3", "B6", "C2", "C3", "C6", "D2", "D3", "D4", "D6",
                    "G2", "A3xG2", "B3xC2xD4", "D5xG2", "G2xG2", "B100xG2"]


@pytest.mark.parametrize("spec", RUN_VIEW_SYSTEMS)
def test_diagonal_runs_equal_the_per_root_grouping(systems, spec):
    # every height layer, every union of heights <= d, and random id sets
    import random

    rs = systems(spec)
    layers = [tuple(ids) for ids in rs.height_index.values()]
    assert len(layers) == rs.max_height
    selections = layers + [tuple(sorted(sum(layers[:d], ()))) for d in range(1, len(layers) + 1)]
    rng = random.Random(spec)
    selections += [tuple(sorted(rng.sample(range(len(rs)), rng.randint(0, len(rs)))))
                   for _ in range(30)]
    for ids in selections:
        view = rs.diagonal_runs(ids)
        assert list(view.items()) == list(_reference_runs(rs, ids).items()), ids


def test_diagonal_runs_read_g2_as_its_coordinate_tests(systems):
    from weylstat import rootsys, stats

    assert stats._G2_TESTS is rootsys._G2_TESTS  # defined once, bound by the kernel's module
    rs = systems("A1xG2")
    assert rs.diagonal_runs(range(1, 7)) == {1: (("N", 1, 1, 2), ("N", 2, 1, 1), ("O", 0, 2, 3),
                                                 ("P", 5, 2, 2))}
    assert rs.diagonal_runs(()) == {}
    assert rs.diagonal_runs((0, 3)) == {0: (("N", 1, 1, 1),), 1: (("N", 1, 1, 1),)}


@pytest.mark.parametrize("spec, stat, d, bits", [
    ("A499", "descents", 1, {0: 16}),  # the workloads' CLI commands
    ("A9", "inversions", 3, {0: 16}),
    ("B100xG2", "inversions", 5, {0: 16, 1: 32}),
])
def test_key_widths_of_the_workloads_read_the_same_runs(systems, spec, stat, d, bits):
    from weylstat import stats

    rs = systems(spec)
    ids = stats._canonical_ids(rs, stats.statistic_roots(rs, stat, d))
    view, reference = rs.diagonal_runs(ids), _reference_runs(rs, ids)
    widths = {}
    for ci, runs in view.items():
        comp = rs.spec.components[ci]
        widths[ci] = stats._key_bits(comp.family, comp.dimension, runs)
        assert widths[ci] == stats._key_bits(comp.family, comp.dimension, reference[ci])
        ones = [1] * len(runs)
        assert stats._recursion_layers(comp, runs, ones) == stats._recursion_layers(comp, reference[ci], ones)
    assert widths == bits
