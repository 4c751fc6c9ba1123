"""The diagonal-run kernel, the random-key draw, tie refinement and the
atom-level KS, each checked against an exact oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylstat import clt, stats, weyl
from weylstat.rootsys import Root

# A degrees-of-freedom or overflow warning from the kernel or the moments is
# a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def _coordinate_major(rows):
    """``rows`` as the ``.T`` view of a C-contiguous (dim, m) array, as blocks are drawn."""
    return np.ascontiguousarray(rows.T).T


def _tie_flags_oracle(rows, roots):
    """Rows where some root of ``roots`` compares two equal entries, root by root."""
    flags = np.zeros(len(rows), dtype=bool)
    for r in roots:
        if r.form == "N":
            flags |= rows[:, r.j - 1] == rows[:, r.i - 1]
        elif r.form == "P":
            flags |= rows[:, r.i - 1] == -rows[:, r.j - 1]
    return flags


def test_tie_flags_mark_compared_ties_only():
    roots = [Root(0, "N", 1, 2), Root(0, "P", 2, 3), Root(0, "O", 4)]
    rows = _coordinate_major(np.array([
        [5, 5, 7, 9],  # N[1,2] compares two equal keys
        [3, 7, -7, 1],  # P[2,3] compares w_2 with -w_3
        [4, -4, 6, 0],  # opposite keys under N, and a zero under O: decided
        [9, 1, 1, 9],  # equal keys that no root compares
    ], dtype=np.int32))
    runs = stats._diagonal_runs(roots)
    tied = np.zeros(4, dtype=bool)
    values = stats._count_rows(rows, runs, tied=tied)
    assert tied.tolist() == [True, True, False, False]
    assert values.tolist() == stats._count_rows(rows, runs).tolist() == [0, 0, 1, 1]


def test_tie_scan_ignores_equal_keys_across_a_row_boundary():
    # coordinate-major, equal keys of neighbouring rows sit side by side in
    # memory; they belong to different samples and are never compared
    runs = stats._diagonal_runs([Root(0, "N", 1, 2), Root(0, "N", 2, 3), Root(0, "P", 1, 3)])
    rows = _coordinate_major(np.array([[3, 1, 5], [3, 1, 5], [-3, -1, -5]], dtype=np.int32))
    tied = np.zeros(3, dtype=bool)
    stats._count_rows(rows, runs, tied=tied)
    assert not tied.any()


@pytest.mark.parametrize("spec", ["A6", "B5", "D5"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tie_flags_match_every_compared_pair(systems, spec, data):
    # small key ranges force ties; a workspace grown by a larger block must
    # not leak into a smaller one
    rs = systems(spec)
    dim = rs.spec.components[0].dimension
    roots = data.draw(st.lists(st.sampled_from(rs.roots), unique=True))
    m = data.draw(st.integers(1, 300))
    top = data.draw(st.sampled_from([1, 2, 3, 50, 2**30]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    runs = stats._diagonal_runs(roots)
    ws = stats._Workspace()
    larger = rng.integers(-2, 3, size=(m + 7, dim), dtype=np.int32)
    stats._count_rows(_coordinate_major(larger), runs, ws, tied=np.zeros(m + 7, dtype=bool))
    rows = _coordinate_major(rng.integers(-top, top + 1, size=(m, dim), dtype=np.int32))
    tied = np.zeros(m, dtype=bool)
    values = stats._count_rows(rows, runs, ws, tied=tied)
    assert tied.tolist() == _tie_flags_oracle(rows, roots).tolist()
    assert values.tolist() == stats._count_rows(rows, runs).tolist()


@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_refined_keys_keep_strict_comparisons_and_break_ties(dim, signed):
    # few distinct keys, so most rows hold ties; unsigned (type A) keys may be 0
    keys = np.random.default_rng(dim).integers(0, 4, size=(500, dim), dtype=np.int32)
    rows = 2 * keys - 3 if signed else keys
    refined = stats._refined_keys(np.random.default_rng(8), rows)
    assert refined.dtype == np.int64 and refined.shape == rows.shape
    a, b = rows[:, :, None], rows[:, None, :]
    ra, rb = refined[:, :, None], refined[:, None, :]
    assert (ra < rb)[a < b].all() and (ra + rb < 0)[a + b < 0].all() and (ra + rb > 0)[a + b > 0].all()
    assert ((refined < 0) == (rows < 0)).all()
    # no two entries of a row share a magnitude: no N or P comparison can tie
    distinct = ~np.eye(dim, dtype=bool)
    assert (np.abs(ra) != np.abs(rb))[:, distinct].all()
    # the tie-breaks are one permutation of the stream per row
    rng = np.random.default_rng(8)
    pi = np.array([rng.permutation(dim) for _ in rows])
    magnitude = np.abs(rows).astype(np.int64) * dim + pi
    assert (refined == np.where(rows < 0, -magnitude, magnitude)).all()


def _stream_words(seed, n, bits=32):
    """The first ``n`` ``bits``-wide words of the raw stream of ``default_rng(seed)``."""
    per_raw = 64 // bits
    words = np.random.default_rng(seed).bit_generator.random_raw(-(-n // per_raw))
    return words.astype("<u8").view(f"<u{bits // 8}")[:n].astype(f"u{bits // 8}")


def test_random_keys_drawn_in_pieces_continue_one_word_sequence():
    m, dim = 1401, 61  # 85,461 keys: more than two pieces of raw words at either width
    assert m * dim // 4 > 2 * stats.RAW_PIECE_WORDS
    for bits, signed in ((16, np.int16), (32, np.int32)):
        words = _stream_words(3, m * dim, bits)
        a = stats._draw_rows(np.random.default_rng(3), "A", dim - 1, m, bits=bits)
        b = stats._draw_rows(np.random.default_rng(3), "B", dim, m, bits=bits)
        assert (a.T.reshape(-1) == (words if bits == 16 else (words >> 1).view(np.int32))).all()
        assert (b.T.reshape(-1) == (words | 1).view(signed)).all()


def test_mc_run_workspace_matches_throwaway_buffers(systems):
    # one workspace serves components of different dimensions and key widths
    # in turn; the values equal those of the helpers run with fresh buffers
    # every call, flagged rows recounted once per chunk and component
    rs = systems("B200xA3xD5")
    psi = rs.roots_up_to_height(3)
    parts = []
    for ci, comp in enumerate(rs.spec.components):
        runs = stats._diagonal_runs([r for r in psi if r.component == ci])
        parts.append((comp, runs, stats._key_bits(comp.family, comp.dimension, runs)))
    assert {bits for _, _, bits in parts} == {16, 32}
    block = stats._block_samples(max(comp.dimension for comp, _, _ in parts))
    assert stats.CHUNK_SAMPLES % block == 0 and block < stats.CHUNK_SAMPLES
    n = stats.CHUNK_SAMPLES + 700
    values, refined = [], 0
    for c in range(2):
        rng = np.random.default_rng(weyl.derived_seed(29, c))
        m = min(stats.CHUNK_SAMPLES, n - c * stats.CHUNK_SAMPLES)
        chunk = np.zeros(m, dtype=np.int64)
        flagged = [[] for _ in parts]
        for lo in range(0, m, block):
            for (comp, runs, bits), found in zip(parts, flagged):
                rows = stats._draw_rows(rng, comp.family, comp.rank, min(block, m - lo), bits=bits)
                tied = np.zeros(len(rows), dtype=bool)
                chunk[lo : lo + len(rows)] += stats._count_rows(rows, runs, tied=tied)
                found += [(lo + i, rows[i].copy()) for i in np.flatnonzero(tied)]
        for (_, runs, _), found in zip(parts, flagged):
            if found:
                idx = np.array([i for i, _ in found])
                rows = np.array([row for _, row in found])
                chunk[idx] += stats._count_rows(stats._refined_keys(rng, rows), runs) - stats._count_rows(rows, runs)
                refined += len(found)
        values += chunk.tolist()
    assert refined > 0
    assert stats.mc_run(rs, psi, n, seed=29).values == values


def test_random_keys_are_31_bit_and_nonnegative():
    keys = stats._draw_rows(np.random.default_rng(5), "A", 6, 64, bits=32)
    assert keys.shape == (64, 7) and keys.dtype == np.int32
    assert keys.min() >= 0 and keys.max() < 2**31


@pytest.mark.parametrize("fam, rank", [("B", 5), ("C", 3), ("D", 4)])
def test_signed_keys_are_odd(fam, rank):
    # odd keys are never zero, and their top bit is a fair sign
    rows = stats._draw_rows(np.random.default_rng(2), fam, rank, 4000)
    assert (rows % 2 == 1).all()
    assert 0.45 < (rows < 0).mean() < 0.55


def test_type_d_rows_change_an_even_number_of_signs():
    # the words of a type B draw, with the last entry negated where the
    # number of negative entries is odd
    rows = stats._draw_rows(np.random.default_rng(9), "D", 5, 2000)
    assert ((rows < 0).sum(axis=1) % 2 == 0).all()
    b = stats._draw_rows(np.random.default_rng(9), "B", 5, 2000)
    odd = (b < 0).sum(axis=1) % 2 == 1
    assert odd.any() and (rows[:, :-1] == b[:, :-1]).all()
    assert (rows[:, -1] == np.where(odd, -b[:, -1], b[:, -1])).all()


@pytest.mark.parametrize("fam, rank", [("B", 5), ("C", 3), ("D", 4), ("D", 2)])
def test_signed_blocks_are_coordinate_major(fam, rank):
    # entry (r, i) is word i * m + r of the stream, read as int32 after | 1
    m = 700
    rows = stats._draw_rows(np.random.default_rng(12), fam, rank, m)
    assert rows.shape == (m, rank) and rows.T.flags.c_contiguous
    keys = (_stream_words(12, m * rank) | 1).view(np.int32).reshape(rank, m)
    assert (np.abs(rows.T) == np.abs(keys)).all()
    assert (rows.T[:-1] == keys[:-1]).all()


def test_type_a_blocks_are_the_coordinate_major_keys():
    # 16-bit keys are whole uint16 words, 32-bit keys are 31-bit int32 words
    for bits, dtype in ((16, np.uint16), (32, np.int32)):
        rows = stats._draw_rows(np.random.default_rng(12), "A", 6, 700, bits=bits)
        assert rows.T.flags.c_contiguous and rows.dtype == dtype
        words = _stream_words(12, 7 * 700, bits)
        keys = words if bits == 16 else (words >> 1).view(np.int32)
        assert (rows.T == keys.reshape(7, 700)).all()


@pytest.mark.parametrize("fam, rank, dim", [
    ("A", 1, 2), ("A", 40, 41), ("B", 3, 3), ("C", 6, 6), ("D", 5, 5), ("G2", 2, 3),
])
def test_every_sampled_block_is_coordinate_major(fam, rank, dim):
    ws = stats._Workspace()
    for m in (stats.BLOCK_SAMPLES, 3):  # a smaller block reuses the larger one's buffer
        rows = stats._draw_rows(np.random.default_rng(m), fam, rank, m, ws)
        assert rows.shape == (m, dim) and rows.T.flags.c_contiguous


def _coarse_words(monkeypatch, bits=32):
    """Make every component draw ``bits``-wide keys of four magnitudes, so most rows hold ties.

    Each ``bits``-wide word of the raw stream is read as the signed key
    ``word | 1`` gives; its magnitude becomes 1, 3, 5 or 7 from its top two
    bits, and its sign is kept.  The magnitudes keep one law on either sign,
    so an exact sampler still draws uniform elements.  Clearing low bits of
    the word before ``| 1`` would not: the two signs would get different
    magnitude grids.  The key width is pinned, because the words are coarse
    only when read at that width.
    """
    raw_words = stats._raw_words
    signed, unsigned = f"<i{bits // 8}", f"<u{bits // 8}"

    def coarse(rng, n):
        keys = (raw_words(rng, n).view(unsigned) | 1).view(signed)
        magnitude = (np.abs(keys.astype(np.int64)) >> (bits - 3)) * 2 + 1
        return np.where(keys < 0, -magnitude, magnitude).astype(signed).view("<u8")

    monkeypatch.setattr(stats, "_raw_words", coarse)
    monkeypatch.setattr(stats, "_key_bits", lambda fam, dim, runs: bits)


FORCED_TIE_SAMPLES = 32768
FORCED_TIE_SPECS = ["A4", "B3", "C4", "D4", "D5", "B2xG2", "A3xB3"]


def _check_law_under_forced_ties(rs, refine):
    n = FORCED_TIE_SAMPLES
    for statistic, d in (("descents", 1), ("inversions", 2)):
        psi = stats.statistic_roots(rs, statistic, d)
        run = stats.mc_run(rs, psi, n, seed=1013)
        observed: dict[int, int] = {}
        for v in run.values:
            observed[v] = observed.get(v, 0) + 1
        p = _chi2_pvalue(observed, stats.exact_distribution(rs, psi), n)
        assert (p > 1e-6) == refine, (statistic, p)


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("spec", FORCED_TIE_SPECS)
def test_mc_law_is_exact_under_forced_ties(systems, monkeypatch, spec, refine):
    # with the ties left as drawn, the chi-square test must reject: it has power
    _coarse_words(monkeypatch)
    if not refine:
        monkeypatch.setattr(stats, "_refined_keys", lambda rng, rows: rows)
    _check_law_under_forced_ties(systems(spec), refine)


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("spec", FORCED_TIE_SPECS)
def test_mc_law_is_exact_under_forced_ties_at_16_bits(systems, monkeypatch, spec, refine):
    # every component draws 16-bit keys (type A unsigned, B/C/D signed) of
    # four magnitudes; refined, the law is exact, and unrefined it is not
    _coarse_words(monkeypatch, 16)
    if not refine:
        monkeypatch.setattr(stats, "_refined_keys", lambda rng, rows: rows)
    _check_law_under_forced_ties(systems(spec), refine)


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


def test_blocks_above_512_rows_are_thread_invariant(systems, monkeypatch):
    # a narrow product: blocks of 3584 rows, so every chunk ends in a partial
    # block, and the last chunk is partial too
    rs = systems("B70xG2")
    psi = rs.roots_up_to_height(4)
    assert stats._block_samples(70) == 3584
    calls = []
    for name in ("_block_samples", "_key_bits"):
        fn = getattr(stats, name)
        monkeypatch.setattr(stats, name, lambda *a, fn=fn, name=name: calls.append((name, a, fn(*a))) or fn(*a))
    n = 3 * stats.CHUNK_SAMPLES + 700
    runs = [stats.mc_run(rs, psi, n, seed=17, threads=t).values for t in (1, 2, 3)]
    assert len(runs[0]) == n and runs[0] == runs[1] == runs[2]
    # the block size and the key widths read only the spec and Psi: other
    # sample counts, seeds and thread counts get the same calls and results
    stats.mc_run(rs, psi, 5, seed=3, threads=2)
    per_run = [calls[k : k + 3] for k in range(0, len(calls), 3)]
    assert len(per_run) == 4 and all(c == per_run[0] for c in per_run)
    assert [name for name, _, _ in per_run[0]] == ["_key_bits", "_key_bits", "_block_samples"]
    assert per_run[0][-1] == ("_block_samples", (70,), 3584)


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
    assert clt._ks_over_atoms(run.samples, mean, var) == per_point
    report = clt.clt_report(rs, d, stat, 9_000, seed=seed)
    assert report.ks == per_point
