import itertools
import json
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import weylstat as ws
from weylstat import stats, weyl
from weylstat.rootsys import Root

# A degrees-of-freedom or overflow warning from the moments or the bootstrap
# is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_single_root_distribution_half_half(systems):
    for spec, root in (
        ("A4", Root(0, "N", 1, 3)),
        ("B3", Root(0, "O", 2)),
        ("G2", Root(0, "G", 4)),
        ("A2xB2", Root(1, "P", 1, 2)),
    ):
        rs = systems(spec)
        order = weyl.group_order(rs)
        assert stats.exact_distribution(rs, [root]) == {0: order // 2, 1: order // 2}


def test_uniform_family_regression(systems):
    # the chain set {N[1,i]} is uniformly distributed on 0..n-1
    a3 = systems("A3")
    psi = [Root(0, "N", 1, i) for i in (2, 3, 4)]
    assert stats.exact_distribution(a3, psi) == {0: 6, 1: 6, 2: 6, 3: 6}


def test_empty_psi_distribution(systems):
    rs = systems("B3")
    assert stats.exact_distribution(rs, []) == {0: 48}
    run = stats.mc_run(rs, [], 100, seed=1)
    assert run.values == [0] * 100


def test_exact_mean_is_half_the_set_size(systems):
    for spec in ("A4", "B4", "C4", "D4", "G2", "A2xB2"):
        rs = systems(spec)
        for d in (1, 2, 3):
            psi = rs.roots_up_to_height(d)
            assert stats.exact_mean(rs, psi) == F(len(psi), 2)
            hist = stats.exact_distribution(rs, psi)
            n = sum(hist.values())
            assert F(sum(v * c for v, c in hist.items()), n) == F(len(psi), 2)


def test_exact_cov_examples(systems):
    a3 = systems("A3")
    assert stats.exact_cov(a3, Root(0, "N", 1, 2), Root(0, "N", 2, 3)) == F(-1, 12)
    g2 = systems("G2")
    assert stats.exact_cov(g2, Root(0, "G", 2), Root(0, "G", 3)) == F(1, 6)
    for root in (Root(0, "N", 1, 3), Root(0, "N", 2, 4)):
        assert stats.exact_cov(systems("A4"), root, root) == F(1, 4)


def test_wpartition_examples(systems):
    g2 = systems("G2")
    c = stats.wpartition_counts(g2, Root(0, "G", 2), Root(0, "G", 3))
    assert (c.pp, c.pm, c.mp, c.mm) == (5, 1, 1, 5)
    b4 = systems("B4")
    c = stats.wpartition_counts(b4, Root(0, "N", 1, 2), Root(0, "P", 3, 4))
    assert c.pp == c.pm == c.mp == c.mm == 96
    c = stats.wpartition_counts(b4, Root(0, "O", 1), Root(0, "O", 1))
    assert (c.pm, c.mp) == (0, 0) and c.pp == c.mm == 192


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D3", "G2"])
def test_wpartition_identities(systems, spec):
    rs = systems(spec)
    for beta in rs.roots:
        for gamma in rs.roots:
            c = stats.wpartition_counts(rs, beta, gamma)
            assert c.total == weyl.group_order(rs)
            assert c.pp == c.mm and c.pm == c.mp
            if beta != gamma:
                ip = rs.inner_product_int(beta, gamma)
                o = rs.reflection_order(beta, gamma)
                if ip >= 0:
                    assert c.pp == (o - 1) * c.pm
                if ip <= 0:
                    assert c.pm == (o - 1) * c.pp


def test_variance_against_object_level_brute_force(systems):
    rs = systems("C3")
    psi = rs.roots_up_to_height(3)
    values = [
        sum(1 for r in psi if weyl.is_inversion(w, r))
        for w in weyl.enumerate_elements(rs)
    ]
    n = len(values)
    s1, s2 = sum(values), sum(v * v for v in values)
    assert stats.exact_variance(rs, psi) == F(s2, n) - F(s1, n) ** 2


def test_joint_distribution_examples(systems):
    b4 = systems("B4")
    j = stats.exact_joint_distribution(b4, [Root(0, "N", 1, 2)], [Root(0, "P", 3, 4)])
    assert j == {(0, 0): 96, (0, 1): 96, (1, 0): 96, (1, 1): 96}
    a4 = systems("A4")
    j = stats.exact_joint_distribution(a4, [Root(0, "N", 1, 2)], [Root(0, "N", 2, 3)])
    order = weyl.group_order(a4)
    assert any(
        count * order != sum(c for (m1, _), c in j.items() if m1 == key1)
        * sum(c for (_, m2), c in j.items() if m2 == key2)
        for (key1, key2), count in j.items()
    )
    # marginal when the second set is empty
    psi = [Root(0, "N", 1, 2), Root(0, "N", 3, 4)]
    j = stats.exact_joint_distribution(a4, psi, [])
    assert all(m2 == 0 for (_, m2) in j)
    assert sum(j.values()) == order


def test_joint_distribution_guard(systems):
    b4 = systems("B4")
    with pytest.raises(ws.WeylstatError):
        stats.exact_joint_distribution(b4, b4.roots, b4.roots)


def test_too_large_propagates(systems):
    b5 = systems("B5")
    with pytest.raises(ws.TooLargeError):
        stats.exact_distribution(b5, b5.roots, cap=1000)
    with pytest.raises(ws.TooLargeError):
        stats.exact_cov(b5, b5.roots[0], b5.roots[1], cap=1000)


def test_mc_run_reproducible_and_thread_invariant(systems):
    rs = systems("B4")
    psi = rs.roots_up_to_height(3)
    r1 = stats.mc_run(rs, psi, 10_000, seed=99)
    r2 = stats.mc_run(rs, psi, 10_000, seed=99)
    r8 = stats.mc_run(rs, psi, 10_000, seed=99, threads=8)
    assert r1.values == r2.values == r8.values
    assert 0 <= min(r1.values) and max(r1.values) <= len(psi)
    different = stats.mc_run(rs, psi, 10_000, seed=100)
    assert different.values != r1.values


def test_mc_single_root_mean(systems):
    rs = systems("B4")
    run = stats.mc_run(rs, [Root(0, "O", 2)], 10**5, seed=7)
    assert abs(float(run.sample_mean) - 0.5) < 0.01


def test_mc_matches_exact_variance_small_system(systems):
    rs = systems("D4")
    psi = rs.roots_up_to_height(2)
    run = stats.mc_run(rs, psi, 10**5, seed=2024)
    exact = stats.exact_variance(rs, psi)
    se = stats.bootstrap_variance_se(run)
    assert abs(float(run.sample_variance) - float(exact)) <= 3 * se


def test_mc_product_and_g2_systems(systems):
    rs = systems("A2xG2")
    psi = rs.roots_up_to_height(2)
    run = stats.mc_run(rs, psi, 20_000, seed=5)
    assert run.n_samples == 20_000 and len(run.values) == 20_000
    exact_mean = float(stats.exact_mean(rs, psi))
    assert abs(float(run.sample_mean) - exact_mean) < 0.05


def test_samplerun_serialization_round_trip(systems):
    rs = systems("B3")
    run = stats.mc_run(rs, rs.roots_up_to_height(2), 50, seed=3)
    blob = json.dumps(run.to_json_dict())
    data = json.loads(blob)
    assert data["spec"] == "B3" and data["n"] == 50 and len(data["values"]) == 50
    assert data["moments"]["mean"] == str(run.sample_mean)
    compact = run.to_json_dict(include_values=False)
    assert "values" not in compact


def test_samplerun_values_are_the_array_as_python_ints(systems):
    rs = systems("B4xG2")
    run = stats.mc_run(rs, rs.roots_up_to_height(3), 5000, seed=6)
    assert isinstance(run.samples, np.ndarray) and run.samples.shape == (5000,)
    assert type(run.values) is list and {type(v) for v in run.values} == {int}
    assert run.values == run.samples.tolist() and run.values is run.values  # built once
    data = json.loads(json.dumps(run.to_json_dict()))
    assert data == run.to_json_dict()
    assert list(data) == ["spec", "psi", "seed", "n", "values", "moments"]
    assert ", samples=" not in repr(run) and "array(" not in repr(run)
    assert run == stats.mc_run(rs, rs.roots_up_to_height(3), 5000, seed=6, threads=2)


def test_histogram_serialization(systems):
    rs = systems("A3")
    psi = rs.roots_up_to_height(1)
    hist = stats.exact_distribution(rs, psi)
    data = stats.histogram_json(rs, psi, hist)
    assert data["n"] == 24 and data["counts"][0] == [0, 1]
    rows = list(stats.histogram_csv_rows(hist))
    assert rows[0] == ("value", "count") and sum(r[1] for r in rows[1:]) == 24


def test_cap_guards_the_components_enumerated(systems):
    rs = systems("B3xB3")  # each factor has 48 elements
    beta, gamma = rs.parse_root("B3.1:O[1]"), rs.parse_root("B3.2:N[1,2]")
    assert stats.exact_distribution(rs, [beta], cap=48) == {0: 48 * 48 // 2, 1: 48 * 48 // 2}
    with pytest.raises(ws.TooLargeError):
        stats.exact_distribution(rs, [beta, gamma], cap=95)
    assert sum(stats.exact_distribution(rs, [beta, gamma], cap=96).values()) == 48 * 48
    joint = stats.exact_joint_distribution(rs, [beta], [gamma], cap=96)
    assert joint == {key: 48 * 48 // 4 for key in ((0, 0), (0, 1), (1, 0), (1, 1))}
    with pytest.raises(ws.TooLargeError):
        stats.exact_joint_distribution(rs, [beta], [gamma], cap=95)


def _one_line_rows(rs, ci):
    """Signed one-line rows of component ``ci`` over ``enumerate_elements(rs)``."""
    values = (
        s * p
        for w in weyl.enumerate_elements(rs)
        for p, s in zip(w.parts[ci].perm, w.parts[ci].signs)
    )
    return np.fromiter(values, dtype=np.int64).reshape(-1, rs.spec.components[ci].dimension)


BLOCK_SYSTEMS = [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 7)] + ["C3"]
BLOCK_SYSTEMS += [f"D{n}" for n in range(2, 7)] + ["A3xG2"]


@pytest.mark.parametrize("spec", BLOCK_SYSTEMS)
def test_row_blocks_follow_enumeration_order(systems, spec):
    rs = systems(spec)
    orders = [weyl.component_order(c) for c in rs.spec.components]
    for ci, comp in enumerate(rs.spec.components):
        if comp.family == "G2":
            continue
        rows = np.concatenate(list(stats._row_blocks(comp.family, comp.rank)))
        # components combine most-significant-first: repeat by the later orders
        after = math.prod(orders[ci + 1 :])
        before = math.prod(orders[:ci])
        expected = _one_line_rows(rs, ci)
        assert np.array_equal(np.tile(np.repeat(rows, after, axis=0), (before, 1)), expected)


def test_row_blocks_are_bounded(systems):
    rs = systems("B8")
    sizes = [len(rows) for rows in stats._row_blocks("B", 8)]
    assert max(sizes) <= stats.CHUNK_ELEMENTS
    assert sum(sizes) == weyl.group_order(rs)


@pytest.mark.parametrize("spec", ["B3", "D4"])
def test_row_blocks_split_the_sign_vectors(systems, monkeypatch, spec):
    # fewer rows per block than sign vectors: one permutation spans several blocks
    monkeypatch.setattr(stats, "CHUNK_ELEMENTS", 5)
    rs = systems(spec)
    comp = rs.spec.components[0]
    blocks = list(stats._row_blocks(comp.family, comp.rank))
    assert max(len(rows) for rows in blocks) <= 5
    expected = _one_line_rows(rs, 0)
    assert np.array_equal(np.concatenate(blocks), expected)


def _signs_by_product(fam, n):
    """The sign vectors in the order of itertools.product; type D fixes the last sign."""
    if fam in ("B", "C"):
        return list(itertools.product((1, -1), repeat=n))
    rows = []
    for head in itertools.product((1, -1), repeat=n - 1):
        last = 1
        for s in head:
            last *= s
        rows.append(head + (last,))
    return rows


@pytest.mark.parametrize(
    "fam, n", [(f, n) for f in "BC" for n in range(1, 13)] + [("D", n) for n in range(2, 13)]
)
def test_signs_matrix_matches_the_itertools_order(fam, n):
    signs = stats._signs_matrix(fam, n)
    assert signs.dtype == np.int8 and signs.flags.c_contiguous
    assert np.array_equal(signs, np.array(_signs_by_product(fam, n), dtype=np.int8))


@pytest.mark.parametrize("dim, dtype", [(127, np.int8), (128, np.int16)])
def test_row_blocks_use_the_smallest_dtype(dim, dtype):
    # only the first block: the group itself is far too large
    rows = next(stats._row_blocks("A", dim - 1))
    assert rows.dtype == dtype
    expected = list(itertools.islice(itertools.permutations(range(1, dim + 1)), len(rows)))
    assert np.array_equal(rows, np.array(expected))


@pytest.mark.parametrize("fam, rank", [("A", 9), ("B", 4), ("D", 4)])
def test_row_blocks_are_coordinate_major(fam, rank):
    # the run kernel compares contiguous coordinate slices only in this layout
    rows = next(stats._row_blocks(fam, rank))
    assert rows.T.flags.c_contiguous


@pytest.mark.parametrize("k", [1, 3, stats.SUFFIX_POSITIONS])
def test_suffix_table_is_coordinate_major(k):
    table = stats._suffix_table(k)
    assert table.shape == (k, math.factorial(k))
    assert table.flags.c_contiguous


def test_suffix_table_lists_permutations_in_lexicographic_order():
    for k in range(1, stats.SUFFIX_POSITIONS + 1):
        expected = np.array(list(itertools.permutations(range(k))), dtype=np.int8).T
        table = stats._suffix_table(k)
        assert table.dtype == np.int8 and (table == expected).all()


def test_wpartition_guards_the_enumerated_component(systems):
    rs = systems("B3xB3")  # each factor has 48 elements
    beta, gamma = rs.parse_root("B3.1:O[1]"), rs.parse_root("B3.1:N[1,2]")
    with pytest.raises(ws.TooLargeError):
        stats.wpartition_counts(rs, beta, gamma, cap=47)
    assert stats.wpartition_counts(rs, beta, gamma, cap=48).total == 48 * 48
    # roots in different components: nothing is enumerated
    other = rs.parse_root("B3.2:O[1]")
    assert stats.wpartition_counts(rs, beta, other, cap=1).total == 48 * 48


@pytest.mark.parametrize("spec", ["A2xB2", "B2xG2xA1", "B4xA1"])
def test_joint_distribution_against_object_level_brute_force(systems, spec):
    # both sets span components, so a component's bits need not start at bit 0
    rs = systems(spec)
    psi, psi2 = rs.roots[::2], rs.roots[1::3]
    ids1, ids2 = sorted(map(rs.index, psi)), sorted(map(rs.index, psi2))
    expected: dict[tuple[int, int], int] = {}
    for w in weyl.enumerate_elements(rs):
        inv = {rs.index(r) for r in weyl.inversion_set(w)}
        key = tuple(
            sum(1 << k for k, rid in enumerate(ids) if rid in inv) for ids in (ids1, ids2)
        )
        expected[key] = expected.get(key, 0) + 1
    joint = stats.exact_joint_distribution(rs, psi, psi2)
    assert joint == expected
    assert list(joint) == sorted(expected)


def _brute_force_joint(rs, psi, psi2):
    """Joint mask counts over ``weyl.enumerate_elements`` and ``weyl.inversion_set``."""
    ids1, ids2 = sorted(map(rs.index, psi)), sorted(map(rs.index, psi2))
    counts: dict[tuple[int, int], int] = {}
    for w in weyl.enumerate_elements(rs):
        inv = {rs.index(r) for r in weyl.inversion_set(w)}
        key = tuple(
            sum(1 << k for k, rid in enumerate(ids) if rid in inv) for ids in (ids1, ids2)
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_joint_distribution_at_the_guard_matches_brute_force(systems):
    # 20 weighted roots: the kernel's values reach 2**20 - 1 and need its
    # int64 accumulator; roots 6..9 lie in both sets and carry two bits each.
    rs = systems("B4")
    psi, psi2 = rs.roots[:10], rs.roots[6:16]
    assert len(psi) + len(psi2) == stats.JOINT_OUTCOME_GUARD
    expected = _brute_force_joint(rs, psi, psi2)
    joint = stats.exact_joint_distribution(rs, psi, psi2)
    assert joint == expected
    assert list(joint) == sorted(expected)


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2"])
def test_wpartition_of_a_root_with_itself_matches_brute_force(systems, spec):
    rs = systems(spec)
    beta = rs.roots[len(rs) // 2]
    joint = _brute_force_joint(rs, [beta], [beta])
    assert stats.wpartition_counts(rs, beta, beta) == stats.WPartitionCounts(
        joint.get((0, 0), 0), 0, 0, joint.get((1, 1), 0)
    )


def test_joint_law_counts_blocks_sparsely():
    # 2**20 possible values, of which 3,456 occur: a bincount of each block
    # into every bin peaked at 17.8 MB traced
    rs = ws.build("B7")
    psi, psi2 = rs.roots[:10], rs.roots[6:16]
    tracemalloc.start()
    try:
        joint = stats.exact_joint_distribution(rs, psi, psi2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(joint) == 3456 and sum(joint.values()) == weyl.group_order(rs)
    assert peak < 8_000_000


def test_enumeration_blocks_reuse_one_workspace(monkeypatch, systems):
    rs = systems("A9")
    seen = []
    count_rows = stats._count_rows

    def spy(rows, runs, ws=None, **kwargs):
        seen.append(ws)
        return count_rows(rows, runs, ws, **kwargs)

    monkeypatch.setattr(stats, "_count_rows", spy)
    # not whole height layers, so enumerated
    hist = stats.exact_distribution(rs, rs.roots_up_to_height(3)[1:])
    assert sum(hist.values()) == math.factorial(10)
    assert len(seen) == 90  # 10! rows in blocks of 8!
    assert isinstance(seen[0], stats._Workspace)
    assert all(ws is seen[0] for ws in seen)


def test_law_over_several_components_uses_one_workspace(monkeypatch, systems):
    rs = systems("B3xD4")
    seen = []
    count_rows = stats._count_rows

    def spy(rows, runs, ws=None, **kwargs):
        seen.append(ws)
        return count_rows(rows, runs, ws, **kwargs)

    monkeypatch.setattr(stats, "_count_rows", spy)
    hist = stats.exact_distribution(rs, rs.roots_up_to_height(2))
    assert sum(hist.values()) == 48 * 192
    assert len(seen) == 2  # one block per component
    assert isinstance(seen[0], stats._Workspace) and seen[1] is seen[0]


@pytest.mark.parametrize("resamples", [1, 0, -1])
def test_bootstrap_se_needs_two_resamples(systems, resamples):
    import warnings

    rs = systems("A3")
    run = stats.mc_run(rs, rs.roots_of_height(1), 50, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ws.WeylstatError, match="resamples must be at least 2"):
            stats.bootstrap_variance_se(run, resamples=resamples)
        assert stats.bootstrap_variance_se(run, resamples=2) >= 0


def test_bootstrap_se_of_one_atom_is_zero(systems):
    rs = systems("A3")
    run = stats.mc_run(rs, [], 1000, seed=4)
    assert set(run.values) == {0}
    assert stats.bootstrap_variance_se(run) == 0.0


def test_bootstrap_se_matches_the_closed_form_of_the_run_law(systems):
    # The bootstrap resamples the run's own law: the SE of the sample
    # variance of n draws from it is sqrt((mu4 - sigma^4 (n-3)/(n-1)) / n).
    rs = systems("B6")
    run = stats.mc_run(rs, rs.roots_up_to_height(3), 10**5, seed=12)
    n = run.n_samples
    hist = dict(enumerate(np.bincount(run.samples).tolist()))
    mean = F(sum(v * c for v, c in hist.items()), n)
    m2 = F(sum((v - mean) ** 2 * c for v, c in hist.items()), n)
    m4 = F(sum((v - mean) ** 4 * c for v, c in hist.items()), n)
    closed = math.sqrt((m4 - m2**2 * F(n - 3, n - 1)) / n)
    se = stats.bootstrap_variance_se(run, resamples=4000)
    assert abs(se / closed - 1) < 0.05, (se, closed)


def test_bootstrap_se_of_one_sample_is_zero(systems):
    import warnings

    rs = systems("A3")
    run = stats.mc_run(rs, rs.roots_of_height(1), 1, seed=4)
    assert run.sample_variance == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stats.bootstrap_variance_se(run) == 0.0
