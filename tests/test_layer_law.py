"""The type-A insertion recursion for whole height layers, against the enumerator."""

import math

import pytest

import weylstat as ws
from weylstat import stats
from weylstat.rootsys import component_order


def _enumerated(rs, psi):
    """The law of Psi with every component enumerated, convolved as the exact path does."""
    law = {0: 1}
    view = rs.diagonal_runs(stats._canonical_ids(rs, psi))
    for ci, comp in enumerate(rs.spec.components):
        part = {0: component_order(comp)}
        if ci in view:
            runs = view[ci]
            part = stats._enumerated_law(comp, runs, [1] * len(runs), stats._Workspace())
        law = stats._convolve(law, part)
    return dict(sorted(law.items()))


@pytest.fixture
def always_recurse(monkeypatch):
    """Take the recursion wherever Psi is whole layers, and record each layer law computed."""
    monkeypatch.setattr(stats, "_LAYER_TRANSITION_COST", 0)
    calls = []
    layer_law = stats._layer_law

    def spy(dim, layers):
        calls.append((dim, frozenset(layers)))
        return layer_law(dim, layers)

    monkeypatch.setattr(stats, "_layer_law", spy)
    return calls


@pytest.fixture
def enumerated_blocks(monkeypatch):
    """The workspace of every block that ``_count_rows`` counts."""
    seen = []
    count_rows = stats._count_rows

    def spy(rows, runs, ws=None, **kwargs):
        seen.append(ws)
        return count_rows(rows, runs, ws, **kwargs)

    monkeypatch.setattr(stats, "_count_rows", spy)
    return seen


CASES = [(n, d, stat) for n in range(1, 9) for d in range(1, n + 1)
         for stat in ("inversions", "descents")]


@pytest.mark.parametrize("n, d, stat", CASES)
def test_layer_law_equals_enumeration(systems, n, d, stat):
    rs = systems(f"A{n}")
    comp = rs.spec.components[0]
    runs = rs.diagonal_runs(stats._canonical_ids(rs, stats.statistic_roots(rs, stat, d)))[0]
    layers = set(range(1, d + 1)) if stat == "inversions" else {d}
    law = stats._layer_law(n + 1, layers)
    assert law == stats._enumerated_law(comp, runs, [1] * len(runs), stats._Workspace())
    assert sum(law.values()) == math.factorial(n + 1)


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("heights", [{1, 3}, {2, 4}])
def test_unions_of_layers_take_the_recursion(systems, always_recurse, n, heights):
    rs = systems(f"A{n}")
    psi = [r for h in sorted(heights) for r in rs.roots_of_height(h)]
    assert stats.exact_distribution(rs, psi) == _enumerated(rs, psi)
    assert always_recurse == [(n + 1, frozenset(heights))]


@pytest.mark.parametrize("stat", ["inversions", "descents"])
@pytest.mark.parametrize("spec, d", [("A3xB2", 2), ("A2xG2", 1), ("A4xA3", 2)])
def test_products_recurse_on_their_type_a_factors(systems, always_recurse, spec, d, stat):
    rs = systems(spec)
    psi = stats.statistic_roots(rs, stat, d)
    assert stats.exact_distribution(rs, psi) == _enumerated(rs, psi)
    layers = frozenset(range(1, d + 1) if stat == "inversions" else {d})
    dims = [c.dimension for c in rs.spec.components if c.family == "A"]
    assert always_recurse == [(dim, layers) for dim in dims]


def test_whole_layers_need_no_workspace(systems, monkeypatch, always_recurse, enumerated_blocks):
    made = []
    monkeypatch.setattr(stats, "_Workspace", lambda: made.append(1))
    rs = systems("A5xA3")
    stats.exact_distribution(rs, rs.roots_up_to_height(2))
    assert len(always_recurse) == 2 and enumerated_blocks == [] and made == []


@pytest.mark.parametrize("spec, pick", [
    ("A5", lambda rs: rs.roots_up_to_height(2)[1:]),  # a layer with a root missing
    ("A5", lambda rs: rs.roots_of_height(1) + rs.roots_of_height(2)[:1]),
    ("A4", lambda rs: rs.roots_of_height(1)[1:]),
])
def test_psi_that_is_not_whole_layers_is_enumerated(systems, always_recurse, enumerated_blocks,
                                                    spec, pick):
    rs = systems(spec)
    psi = pick(rs)
    assert stats.exact_distribution(rs, psi) == _enumerated(rs, psi)
    assert always_recurse == [] and enumerated_blocks


def test_weighted_and_joint_laws_are_enumerated(systems, always_recurse, enumerated_blocks):
    rs = systems("A4")
    layer = rs.roots_of_height(1)
    joint = stats.exact_joint_distribution(rs, layer, [])
    assert sum(joint.values()) == 120 and enumerated_blocks
    enumerated_blocks.clear()
    beta, gamma = rs.roots_of_height(4)[0], layer[0]
    for pair in ((beta, beta), (beta, gamma), (gamma, layer[1])):
        assert stats.wpartition_counts(rs, *pair).total == 120
    assert len(enumerated_blocks) == 3 and always_recurse == []


def test_the_cost_rule_picks_the_recursion_on_a9_up_to_height_3(systems, enumerated_blocks):
    rs = systems("A9")
    # transitions: sum over k of perm(k, min(k, D)) * (k + 1)
    assert stats._layer_transitions(10, 3) == 11097
    assert stats._layer_transitions(10, 4) == 55473
    comp = rs.spec.components[0]
    for d, layers in ((1, {1}), (2, {1, 2}), (3, {1, 2, 3}), (4, None), (5, None)):
        runs = rs.diagonal_runs(stats._canonical_ids(rs, rs.roots_up_to_height(d)))[0]
        assert stats._recursion_layers(comp, runs, [1] * len(runs)) == layers
    hist = stats.exact_distribution(rs, rs.roots_up_to_height(3))
    assert sum(hist.values()) == math.factorial(10) and enumerated_blocks == []


def test_the_cap_prices_the_recursion_by_its_transitions(systems):
    rs = systems("A9")
    price = 11097 * stats._LAYER_TRANSITION_COST  # A9 d <= 3 takes the recursion
    with pytest.raises(ws.TooLargeError, match=f"cost .* {price} exceeds enumeration cap"):
        stats.exact_distribution(rs, rs.roots_up_to_height(3), cap=price - 1)
    hist = stats.exact_distribution(rs, rs.roots_up_to_height(3), cap=price)
    assert price == 1420416 and sum(hist.values()) == math.factorial(10)
    # A9 d <= 4 is enumerated, and priced at its order
    with pytest.raises(ws.TooLargeError):
        stats.exact_distribution(rs, rs.roots_up_to_height(4), cap=math.factorial(10) - 1)
