"""The closed-form catalog against an independent ambient-vector oracle.

Catalogs store diagonal runs and derive ids, heights and cover parents by
arithmetic; these tests rebuild the root poset from integer root vectors and
check every derived piece against it.
"""

import tracemalloc

import pytest

import weylstat as ws
from weylstat import clt, depgraph, rootsys, stats
from weylstat.rootsys import Root

# G2 roots over (alpha short, gamma long), realized in the sum-zero plane of Z^3.
G2_ALPHA, G2_GAMMA = (1, -1, 0), (-2, 1, 1)
G2_TABLE = {1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (2, 1), 5: (3, 1), 6: (3, 2)}

ORACLE_SPECS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BCD" for n in range(2, 8)]
    + ["G2", "A3xB4", "G2xA2", "B3xB3"]
)
PRODUCT_SPECS = ["A3xB4", "G2xA2", "B3xB3", "B3xC3xD4", "A2xG2xA2"]


def _ambient_roots(family, rank):
    """Positive roots of one component as integer vectors, keyed by (form, i, j)."""
    if family == "G2":
        return {
            ("G", k, 0): tuple(a * x + b * y for x, y in zip(G2_ALPHA, G2_GAMMA))
            for k, (a, b) in G2_TABLE.items()
        }
    dim = rank + 1 if family == "A" else rank

    def vec(*terms):
        v = [0] * dim
        for coeff, k in terms:
            v[k - 1] += coeff
        return tuple(v)

    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    out = {("N", i, j): vec((-1, i), (1, j)) for i, j in pairs}
    if family in ("B", "C"):
        scale = 1 if family == "B" else 2
        out.update({("O", i, 0): vec((scale, i)) for i in range(1, rank + 1)})
    if family in ("B", "C", "D"):
        out.update({("P", i, j): vec((1, i), (1, j)) for i, j in pairs})
    return out


def _oracle(spec):
    """(parents, heights): parent pairs (beta - alpha, alpha) and height of each root label."""
    parents, heights = {}, {}
    for ci, comp in enumerate(spec.components):
        roots = _ambient_roots(comp.family, comp.rank)
        label_of = {v: (ci, *key) for key, v in roots.items()}
        vectors = set(label_of)
        add = lambda u, v: tuple(a + b for a, b in zip(u, v))
        sub = lambda u, v: tuple(a - b for a, b in zip(u, v))
        sums = {add(u, v) for u in vectors for v in vectors}
        simple = vectors - sums
        for beta in vectors:
            parents[label_of[beta]] = {
                (label_of[sub(beta, a)], label_of[a]) for a in simple if sub(beta, a) in vectors
            }
        # heights by the grading: simple roots 1, each parent one less
        pending = set(vectors)
        while pending:
            for beta in list(pending):
                ps = parents[label_of[beta]]
                if not ps:
                    heights[label_of[beta]] = 1
                    pending.discard(beta)
                elif all(p in heights for p, _ in ps):
                    heights[label_of[beta]] = 1 + heights[next(iter(ps))[0]]
                    pending.discard(beta)
    return parents, heights


def _label(root):
    return (root.component, root.form, root.i, root.j)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_covers_match_the_ambient_oracle(spec):
    rs = ws.build(spec)
    parents, heights = _oracle(rs.spec)
    assert {_label(r) for r in rs.roots} == set(parents)
    assert len(rs) == len(parents)
    for k, r in enumerate(rs.roots):
        edges = rs._parent_edges[k]
        got = {(_label(rs.root(p)), _label(rs.root(s))) for p, s in edges}
        assert got == parents[_label(r)] and len(edges) == len(got), r
        assert rs.heights[k] == rs.height(r) == heights[_label(r)], r
    expected = sorted(
        (rs.index(Root(*p)), rs.index(Root(*child)))
        for child, pairs in parents.items()
        for p, _ in pairs
    )
    assert rs.covers == tuple(expected)


@pytest.mark.parametrize("spec", ["A5", "B4", "C4", "D5", "G2", "A3xB4", "G2xA2", "B3xB3"])
def test_ids_decode_and_encode(spec):
    rs = ws.build(spec)
    for k in range(len(rs)):
        assert rs.root(k) == rs.roots[k]
        assert rs.index(rs.root(k)) == k
    for k in (-1, len(rs)):
        with pytest.raises(IndexError):
            rs.root(k)


@pytest.mark.parametrize(
    "spec, root",
    [
        ("A3", Root(0, "N", 2, 2)),  # i >= j
        ("A3", Root(0, "N", 3, 2)),
        ("A3", Root(0, "N", 0, 1)),
        ("A3", Root(0, "N", 1, 5)),  # j > dim
        ("A3", Root(0, "O", 1)),  # no O roots in A
        ("A3", Root(0, "P", 1, 2)),  # no P roots in A
        ("D4", Root(0, "O", 1)),  # no O roots in D
        ("B3", Root(0, "N", 1, 4)),
        ("B3", Root(0, "P", 2, 2)),
        ("B3", Root(0, "P", 3, 2)),
        ("B3", Root(0, "P", 2, 4)),
        ("B3", Root(0, "O", 4)),
        ("B3", Root(0, "O", 1, 2)),  # O roots have no j
        ("G2", Root(0, "G", 0)),
        ("G2", Root(0, "G", 7)),
        ("G2", Root(0, "G", 1, 1)),
        ("A3", Root(1, "N", 1, 2)),  # component out of range
        ("A3", Root(-1, "N", 1, 2)),
        ("A3xB4", Root(2, "N", 1, 2)),
        ("A3xB4", Root(0, "O", 1)),
    ],
)
def test_roots_outside_the_catalog_are_stale(spec, root):
    rs = ws.build(spec)
    for query in (rs.index, rs.height, rs.norm_sq, rs.render_root):
        with pytest.raises(ws.StaleRootError):
            query(root)


@pytest.mark.parametrize("spec", PRODUCT_SPECS)
def test_height_slices_follow_the_catalog(spec):
    rs = ws.build(spec)
    for d in range(0, rs.max_height + 2):
        assert rs.roots_of_height(d) == tuple(
            r for k, r in enumerate(rs.roots) if rs.heights[k] == d
        )
        assert rs.roots_up_to_height(d) == tuple(
            r for k, r in enumerate(rs.roots) if rs.heights[k] <= d
        )
    assert rs.max_height == max(rs.heights)
    assert rs.height_index == {
        h: tuple(k for k in range(len(rs)) if rs.heights[k] == h)
        for h in sorted(set(rs.heights))
    }


def test_small_queries_leave_the_catalog_unbuilt():
    rs = ws.build("A99")
    psi = rs.roots_of_height(1)
    assert rs.index(psi[-1]) == 98 and rs.root(len(rs) - 1) == Root(0, "N", 1, 100)
    depgraph.build_graph(rs, psi)
    stats.mc_run(rs, psi, 100, seed=1)
    clt.clt_report(rs, 2, "descents", 100, seed=1)
    assert not {"roots", "heights", "covers", "_parent_edges"} & set(vars(rs))


@pytest.mark.parametrize("spec, count", [("A100000", 100001 * 100000 // 2), ("B100000", 10**10)])
def test_catalog_size_guard_refuses_before_allocating(spec, count):
    tracemalloc.start()
    try:
        with pytest.raises(ws.TooLargeError) as err:
            ws.build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.order, err.value.cap) == (count, rootsys.MAX_CATALOG_ROOTS)
    assert "catalog size" in str(err.value)
    assert peak < 100_000


def test_catalog_size_guard_boundary(monkeypatch):
    monkeypatch.setattr(rootsys, "MAX_CATALOG_ROOTS", 10)
    assert len(ws.build("A4")) == 10
    assert len(ws.build("A2xA2")) == 6
    for spec in ("A5", "A3xA3"):
        with pytest.raises(ws.TooLargeError):
            ws.build(spec)


@pytest.mark.parametrize(
    "covers, message",
    [
        (((3, 2, 1), (3, 1, 2), (4, 2, 1), (5, 4, 1), (6, 5, 2)), "not graded"),
        (((3, 2, 1), (3, 1, 2), (4, 3, 1), (5, 4, 1)), "no cover parent"),
        (((2, 1, 1), (3, 2, 1), (4, 3, 1), (5, 4, 1), (6, 5, 2)), "height-1 root"),
    ],
)
def test_build_validates_the_cover_arrays(monkeypatch, covers, message):
    monkeypatch.setattr(rootsys, "_G2_COVERS", covers)
    with pytest.raises(ws.InternalConsistencyError, match=message):
        ws.build("G2xA3")
    assert len(ws.build("G2xA3", validate=False)) == 12


def _p_to_p_j_minus_1(rule):
    """True for the rule P[i,j] -> P[i,j-1] (subtracting N[j-1,j])."""
    return rule[1] == "P" and rule[3] == ("P", (1, 0, 0), (0, 1, -1))


def _n_to_n_i_plus_1(rule):
    """True for the rule N[i,j] -> N[i+1,j] (subtracting N[i,i+1])."""
    return rule[1] == "N" and rule[3] == ("N", (1, 0, 1), (0, 1, 0))


def _drop_n_rules(rule):
    # either N rule alone leaves every N root its other parent
    return None if rule[1] == "N" else rule


def _drop_c_o_rule(rule):
    # 2e_i -> P[i-1,i] is the only cover of O[i] in type C
    return None if rule[:2] == ("C", "O") else rule


def _shift_parent_along_its_diagonal(rule):
    # P[i,j] -> P[i+1,j-2]: same diagonal, so the last root's image leaves the run
    return (*rule[:3], ("P", (1, 0, 1), (0, 1, -2)), rule[4]) if _p_to_p_j_minus_1(rule) else rule


def _parent_off_one_diagonal(rule):
    # N[i,j] -> N[1,j]: the images of a run spread over several diagonals
    return (*rule[:3], ("N", (0, 0, 1), (0, 1, 0)), rule[4]) if _n_to_n_i_plus_1(rule) else rule


def _parent_stretched_along_its_diagonal(rule):
    # N[i,j] -> N[2i,i+j-1]: right for i = 1, past the end of a longer run
    return (*rule[:3], ("N", (2, 0, 0), (1, 1, -1)), rule[4]) if _n_to_n_i_plus_1(rule) else rule


def _simple_shifted_along_its_diagonal(rule):
    # N[j-1,j] -> N[j,j+1]: the images run backwards, and the first leaves the run
    return (*rule[:4], ("N", (0, 1, 0), (0, 1, 1))) if _p_to_p_j_minus_1(rule) else rule


def _subtract_a_root_of_height_two(rule):
    # N[j-1,j] -> N[j-2,j]: a catalog root, but not a simple one
    return (*rule[:4], ("N", (0, 1, -2), (0, 1, 0))) if _p_to_p_j_minus_1(rule) else rule


def _widen_onto_height_one(rule):
    # D: P[2,j] -> N[1,j] widened to i <= 2 reaches P[1,2], a simple root
    if rule[:2] == ("D", "P") and rule[3] == ("N", (0, 0, 1), (0, 1, 0)):
        return (*rule[:2], [(-1, 0, 2)], *rule[3:])
    return rule


@pytest.mark.parametrize(
    "change, spec, message",
    [
        (_drop_n_rules, "A5", r"root Root\(component=0, form='N', i=1, j=3\) has no cover parent"),
        (_drop_c_o_rule, "C4", r"form='O', i=2, j=0\) has no cover parent"),
        (_shift_parent_along_its_diagonal, "B5", "P diagonal 4 outside one P run"),
        (_shift_parent_along_its_diagonal, "D5", "P diagonal 4 outside one P run"),
        (_parent_off_one_diagonal, "A5", "N diagonal 2 outside one N run"),
        (_parent_stretched_along_its_diagonal, "A5", "N diagonal 2 outside one N run"),
        (_simple_shifted_along_its_diagonal, "B5", "P diagonal 6 outside one N run"),
        (_subtract_a_root_of_height_two, "C5", "not graded"),
        (_widen_onto_height_one, "D4", "height-1 root"),
    ],
)
def test_build_validates_the_classical_rules(monkeypatch, change, spec, message):
    size = len(ws.build(spec))
    rules = [change(rule) for rule in rootsys._COVER_RULES]
    assert rules != list(rootsys._COVER_RULES)
    monkeypatch.setattr(rootsys, "_COVER_RULES", tuple(r for r in rules if r is not None))
    with pytest.raises(ws.InternalConsistencyError, match=message):
        ws.build(spec)
    assert len(ws.build(spec, validate=False)) == size


@pytest.mark.parametrize("spec", ["A999", "B500"])
def test_validation_allocates_nothing_per_root(spec):
    # The numpy validator peaked at 96 MB on A999 and 48 MB on B500.
    tracemalloc.start()
    try:
        rs = ws.build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert not {"roots", "heights", "covers", "_parent_edges"} & set(vars(rs))
