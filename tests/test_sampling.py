"""The diagonal-run kernel, the random-key draw and the atom-level KS, each
checked against an exact oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylstat import clt, stats, weyl


def _component_rows(rs, ci, elements):
    """One-line signed rows of component ``ci`` for each element."""
    return np.array(
        [[s * p for p, s in zip(w.parts[ci].perm, w.parts[ci].signs)] for w in elements],
        dtype=np.int64,
    )


def _kernel_values(rs, psi, elements):
    """The statistic of every element, through the run kernel (G2 through its table)."""
    total = np.zeros(len(elements), dtype=np.int64)
    for ci, comp in enumerate(rs.spec.components):
        local = [r for r in psi if r.component == ci]
        if comp.family == "G2":
            mask = sum(1 << (r.i - 1) for r in local)
            total += [(weyl._G2_INV_MASKS[w.parts[ci].index] & mask).bit_count() for w in elements]
        elif local:
            total += stats._count_rows(_component_rows(rs, ci, elements), stats._diagonal_runs(local))
    return total.tolist()


def _oracle_values(psi, elements):
    psi = set(psi)
    return [len(psi & weyl.inversion_set(w)) for w in elements]


KERNEL_SYSTEMS = ("A4", "B4", "C4", "D4", "A2xG2")


@pytest.mark.parametrize("spec", KERNEL_SYSTEMS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_run_kernel_matches_inversion_sets(systems, spec, data):
    rs = systems(spec)
    elements = list(weyl.enumerate_elements(rs))
    psi = data.draw(st.lists(st.sampled_from(rs.roots), unique=True))
    assert _kernel_values(rs, psi, elements) == _oracle_values(psi, elements)


@pytest.mark.parametrize("spec", KERNEL_SYSTEMS)
def test_run_kernel_on_width_one_runs(systems, spec):
    # every other root along each diagonal: no two roots of psi form a run
    rs = systems(spec)
    psi = [r for r in rs.roots if r.form == "G" or r.i % 2 == 1]
    classical = [r for r in psi if r.form != "G"]
    assert all(lo == hi for _, _, lo, hi in stats._diagonal_runs(classical))
    elements = list(weyl.enumerate_elements(rs))
    assert _kernel_values(rs, psi, elements) == _oracle_values(psi, elements)


def _pairwise_oracle(rows, roots):
    """The statistic of each row, testing every root on its own pair of coordinates."""
    total = np.zeros(len(rows), dtype=np.int64)
    for form in "NPO":
        i = np.array([r.i for r in roots if r.form == form], dtype=np.int64) - 1
        j = np.array([r.j for r in roots if r.form == form], dtype=np.int64) - 1
        if form == "N":
            neg = rows[:, j] < rows[:, i]
        elif form == "P":
            neg = rows[:, i] + rows[:, j] < 0
        else:
            neg = rows[:, i] < 0
        total += neg.sum(axis=1)
    return total


@pytest.mark.parametrize("spec, n_roots", [
    ("A499", 255), ("A499", 256), ("A499", 65535), ("A499", 65536), ("A499", 124750), ("B16", 256),
])
def test_run_kernel_accumulator_boundaries(systems, spec, n_roots):
    # the longest element sends every root negative: its value is the run total itself
    rs = systems(spec)
    comp = rs.spec.components[0]
    roots = rs.roots[:n_roots]
    coords = np.arange(1, comp.dimension + 1)
    longest = coords[::-1] if comp.family == "A" else -coords
    drawn = stats._draw_rows(np.random.default_rng(5), comp.family, comp.rank, 3)
    rows = np.vstack([coords, longest, drawn]).astype(np.int64)
    expected = _pairwise_oracle(rows, roots)
    assert expected[:2].tolist() == [0, n_roots]
    runs = stats._diagonal_runs(roots)
    for block in (rows, np.ascontiguousarray(rows.T).T):
        values = stats._count_rows(block, runs)
        assert values.dtype == np.int64
        assert values.tolist() == expected.tolist()


def _chi2_sf(x, k):
    """Survival function of the chi-square law with k degrees of freedom (closed form)."""
    if k % 2 == 0:
        term = total = 1.0
        for i in range(1, k // 2):
            term *= x / (2 * i)
            total += term
        return math.exp(-x / 2) * total
    term = math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    total = 0.0
    for i in range(1, (k + 1) // 2):
        total += term
        term *= x / (2 * i + 1)
    return math.erfc(math.sqrt(x / 2)) + total


def _chi2_pvalue(observed: dict, exact: dict, n: int) -> float:
    """Pearson chi-square p-value over the exact law's values.

    Neighbouring values are pooled until each bin expects at least 5 samples.
    """
    assert set(observed) <= set(exact)
    order = sum(exact.values())
    bins = []  # [observed, expected]
    for v in sorted(exact):
        if not bins or bins[-1][1] >= 5:
            bins.append([0, 0.0])
        bins[-1][0] += observed.get(v, 0)
        bins[-1][1] += n * exact[v] / order
    if len(bins) > 1 and bins[-1][1] < 5:
        obs, exp = bins.pop()
        bins[-1][0] += obs
        bins[-1][1] += exp
    stat = sum((obs - exp) ** 2 / exp for obs, exp in bins)
    return _chi2_sf(stat, len(bins) - 1)


@pytest.mark.parametrize("spec, d", [
    ("A5", 2), ("B4", 3), ("C3", 2), ("D4", 2), ("A2xG2", 2), ("D5", 3), ("C4", 7), ("B3xD4", 2),
])
def test_mc_histogram_matches_exact_law(systems, spec, d):
    rs = systems(spec)
    psi = rs.roots_up_to_height(d)
    n = 50_000
    run = stats.mc_run(rs, psi, n, seed=20261018)
    observed: dict[int, int] = {}
    for v in run.values:
        observed[v] = observed.get(v, 0) + 1
    assert _chi2_pvalue(observed, stats.exact_distribution(rs, psi), n) > 1e-6


def test_redraw_rejects_ties_and_zeros():
    keys = np.array([[5, 3, 9], [0, 4, 7], [2, 2, 8], [1, 6, 3]], dtype=np.int32)
    kept = keys[[0, 3]].copy()
    out = stats._redraw_rejected(np.random.default_rng(1), keys)
    assert out is keys
    assert (keys[[0, 3]] == kept).all()
    expected = stats._random_keys(np.random.default_rng(1), 2, 3)
    assert (keys[[1, 2]] == expected).all()
    assert not stats._tied_or_zero(keys).any()


def _tied_or_zero_oracle(keys):
    s = np.sort(keys, axis=1)
    return (s[:, 0] == 0) | (s[:, 1:] == s[:, :-1]).any(axis=1)


def test_tie_scan_flags_ties_and_zeros_within_rows():
    keys = np.array([
        [4, 9, 4, 7],  # a tie at the start of the sorted row
        [8, 3, 6, 8],  # a tie at its end
        [5, 0, 2, 1],  # a zero key
        [7, 5, 6, 3],
    ], dtype=np.int32)
    assert stats._tied_or_zero(keys).tolist() == [True, True, True, False]


def test_tie_scan_ignores_equal_keys_across_a_row_boundary():
    # sorted, each row ends with the key the next row starts with; in a
    # (m, 1) block every pair of neighbouring keys straddles a row boundary
    keys = np.array([[3, 1, 5], [9, 5, 7], [9, 11, 10]], dtype=np.int32)
    assert not stats._tied_or_zero(keys).any()
    assert not stats._tied_or_zero(np.array([[4], [4], [2], [2], [6]], dtype=np.int32)).any()
    assert stats._tied_or_zero(np.array([[4], [0], [4]], dtype=np.int32)).tolist() == [False, True, False]


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 600), m=st.integers(1, 700),
    top=st.sampled_from([1, 2, 50, 5000, 2**31]), seed=st.integers(0, 2**32 - 1),
)
def test_tie_scan_matches_the_per_row_sort(dim, m, top, seed):
    # small key ranges force ties and zeros; a workspace reused from a larger
    # block must not leak into a smaller one
    rng = np.random.default_rng(seed)
    ws = stats._Workspace()
    stats._tied_or_zero(rng.integers(0, 2**31, size=(m + 1, dim + 1), dtype=np.int32), ws)
    keys = rng.integers(0, top, size=(m, dim), dtype=np.int32)
    expected = _tied_or_zero_oracle(keys)
    assert (stats._tied_or_zero(keys, ws) == expected).all()
    assert (stats._tied_or_zero(keys) == expected).all()


def test_random_keys_drawn_in_pieces_continue_one_word_sequence():
    m, dim = 700, 61  # 21,350 words: two full pieces and part of a third
    assert m * dim // 2 > 2 * stats.RAW_PIECE_WORDS
    keys = stats._random_keys(np.random.default_rng(3), m, dim)
    words = np.random.default_rng(3).bit_generator.random_raw(-(-m * dim // 2))
    expected = (words.astype("<u8").view("<u4")[: m * dim] >> 1).view(np.int32)
    assert (keys.reshape(-1) == expected).all()


def test_mc_run_workspace_matches_throwaway_buffers(systems):
    # one workspace serves components of different dimensions in turn; the
    # values equal those of the helpers run with fresh buffers every call
    rs = systems("B40xA3xD5")
    psi = rs.roots_up_to_height(3)
    n = stats.CHUNK_SAMPLES + 700
    values = []
    for c in range(2):
        rng = np.random.default_rng(weyl.derived_seed(29, c))
        m = min(stats.CHUNK_SAMPLES, n - c * stats.CHUNK_SAMPLES)
        for lo in range(0, m, stats.BLOCK_SAMPLES):
            block = np.zeros(min(stats.BLOCK_SAMPLES, m - lo), dtype=np.int64)
            for ci, comp in enumerate(rs.spec.components):
                runs = stats._diagonal_runs([r for r in psi if r.component == ci])
                block += stats._count_rows(stats._draw_rows(rng, comp.family, comp.rank, len(block)), runs)
            values += block.tolist()
    assert stats.mc_run(rs, psi, n, seed=29).values == values


def test_random_keys_are_31_bit_and_nonnegative():
    keys = stats._random_keys(np.random.default_rng(5), 64, 7)
    assert keys.shape == (64, 7) and keys.dtype == np.int32
    assert keys.min() >= 0 and keys.max() < 2**31


def test_type_d_rows_change_an_even_number_of_signs():
    rows = stats._draw_rows(np.random.default_rng(9), "D", 5, 2000)
    assert ((rows < 0).sum(axis=1) % 2 == 0).all()
    assert (rows < 0)[:, -1].any() and not stats._tied_or_zero(np.abs(rows)).any()


@pytest.mark.parametrize("fam, rank", [("B", 5), ("C", 3), ("D", 4), ("D", 2)])
def test_signed_blocks_are_coordinate_major(fam, rank):
    # the keys come first in the stream, exactly as for type A; the signs follow
    m = 700
    rows = stats._draw_rows(np.random.default_rng(12), fam, rank, m)
    assert rows.shape == (m, rank) and rows.T.flags.c_contiguous
    rng = np.random.default_rng(12)
    keys = stats._redraw_rejected(rng, stats._random_keys(rng, m, rank))
    assert (np.abs(rows) == keys).all()


def test_type_a_blocks_are_the_row_major_keys():
    rows = stats._draw_rows(np.random.default_rng(12), "A", 6, 700)
    rng = np.random.default_rng(12)
    assert rows.flags.c_contiguous
    assert (rows == stats._redraw_rejected(rng, stats._random_keys(rng, 700, 7))).all()


@pytest.mark.parametrize("product, alone", [("A2xB300", "A2"), ("G2xA5xD4", "A5")])
def test_components_without_roots_of_psi_are_not_drawn(systems, product, alone):
    # only the component holding Psi draws from the stream, so the values are
    # those of that component on its own
    rs, single = systems(product), systems(alone)
    ci = next(i for i, c in enumerate(rs.spec.components) if str(c) == alone)
    psi = [r for r in rs.roots_up_to_height(2) if r.component == ci]
    assert len(psi) == len(single.roots_up_to_height(2))
    run = stats.mc_run(rs, psi, 5000, seed=4)
    assert run.values == stats.mc_run(single, single.roots_up_to_height(2), 5000, seed=4).values


@pytest.mark.parametrize("k", [1, 2])
def test_sample_stream_across_chunk_boundaries_and_threads(systems, k):
    rs = systems("B4xG2")
    psi = rs.roots_up_to_height(3)
    n0 = k * stats.CHUNK_SAMPLES
    runs = {}
    for n in (n0 - 1, n0, n0 + 1):
        by_threads = [stats.mc_run(rs, psi, n, seed=41, threads=t).values for t in (1, 2, 8)]
        assert by_threads[0] == by_threads[1] == by_threads[2]
        assert len(by_threads[0]) == n
        runs[n] = by_threads[0]
    full = n0 - stats.CHUNK_SAMPLES  # samples in complete chunks shared by all three
    assert runs[n0 + 1][:n0] == runs[n0]
    assert runs[n0 - 1][:full] == runs[n0][:full]


@pytest.mark.parametrize("spec, d, stat, seed", [
    ("A9", 1, "descents", 3),
    ("B10", 3, "inversions", 11),
    ("D6", 2, "descents", 5),
    ("A2xG2", 2, "inversions", 8),
    ("A99", 1, "descents", 1618),
])
def test_atom_ks_bit_identical_to_per_point_ks(systems, spec, d, stat, seed):
    rs = systems(spec)
    psi = rs.roots_of_height(d) if stat == "descents" else rs.roots_up_to_height(d)
    mean = stats.exact_mean(rs, psi)
    var = clt.theoretical_variance(rs, d, stat)
    run = stats.mc_run(rs, psi, 9_000, seed=seed)
    per_point = clt.ks_distance(clt.standardize(run, mean, var))
    assert clt._ks_over_atoms(run.values, mean, var) == per_point
    report = clt.clt_report(rs, d, stat, 9_000, seed=seed)
    assert report.ks == per_point
