"""G2 as rows of the counting kernel, checked against weyl's G2 table and
against brute force over the object model."""

import contextlib
import hashlib
import io
import itertools

import numpy as np
import pytest

import weylstat as ws
from weylstat import cli, clt, stats, weyl
from weylstat.rootsys import Root

G2_ROOTS = [Root(0, "G", k) for k in range(1, 7)]


def _root_runs(root):
    """The kernel's runs of one root of the G2 catalog: the catalog's run view."""
    rs = ws.build("G2")
    return rs.diagonal_runs((rs.index(root),))[0]


def _g2_masks(rows):
    """Bit k - 1 of each row's mask: the kernel's test of root r_k on that row."""
    return sum(
        stats._count_rows(rows, _root_runs(r)) << (r.i - 1) for r in G2_ROOTS
    )


def test_g2_rows_invert_the_roots_of_their_table_elements():
    blocks = list(stats._row_blocks("G2", 2))
    assert len(blocks) == 1
    rows = blocks[0]
    assert rows.shape == (weyl._G2_ORDER, 3) and rows.T.flags.c_contiguous
    assert not rows.sum(axis=1).any()  # every row lies on the sum-zero plane
    for t, mask in enumerate(weyl._G2_INV_MASKS):
        assert _g2_masks(rows[t : t + 1]).tolist() == [mask], t


def _brute_force(rs):
    """The set of inverted root ids of every element, in enumeration order."""
    return [{rs.index(r) for r in weyl.inversion_set(w)} for w in weyl.enumerate_elements(rs)]


def _g2_subsets(rs):
    """All 64 subsets of the G2 roots."""
    g2 = [r for r in rs.roots if r.form == "G"]
    return [list(s) for n in range(7) for s in itertools.combinations(g2, n)]


# a fixed classical Psi on each product: some roots of every form it has
CLASSICAL_PSI = {
    "G2": [],
    "A2xG2": ["A2:N[1,2]", "A2:N[1,3]"],
    "G2xB3": ["B3:O[2]", "B3:N[1,3]", "B3:P[1,2]"],
}


@pytest.mark.parametrize("spec", sorted(CLASSICAL_PSI))
def test_g2_exact_paths_match_brute_force(systems, spec):
    rs = systems(spec)
    inverted = _brute_force(rs)
    classical = [rs.parse_root(t) for t in CLASSICAL_PSI[spec]]
    for subset in _g2_subsets(rs):
        psi = subset + classical
        ids = {rs.index(r) for r in psi}
        expected: dict[int, int] = {}
        for inv in inverted:
            v = len(inv & ids)
            expected[v] = expected.get(v, 0) + 1
        assert stats.exact_distribution(rs, psi) == dict(sorted(expected.items()))

        # the rest of the G2 roots, with the classical roots in reverse order
        psi2 = [r for r in rs.roots if r.form == "G" and r not in subset] + classical[::-1]
        ids1, ids2 = sorted(ids), sorted(rs.index(r) for r in psi2)
        joint: dict[tuple[int, int], int] = {}
        for inv in inverted:
            key = tuple(sum(1 << k for k, rid in enumerate(i) if rid in inv) for i in (ids1, ids2))
            joint[key] = joint.get(key, 0) + 1
        assert stats.exact_joint_distribution(rs, psi, psi2) == dict(sorted(joint.items()))


@pytest.mark.parametrize("spec", sorted(CLASSICAL_PSI))
def test_g2_wpartition_matches_brute_force(systems, spec):
    rs = systems(spec)
    inverted = _brute_force(rs)
    g2 = [r for r in rs.roots if r.form == "G"]
    others = [rs.parse_root(t) for t in CLASSICAL_PSI[spec]]
    for beta, gamma in itertools.product(g2, g2 + others):
        b, g = rs.index(beta), rs.index(gamma)
        counts = {key: 0 for key in ("pp", "pm", "mp", "mm")}
        for inv in inverted:
            counts["pm"[b in inv] + "pm"[g in inv]] += 1
        assert stats.wpartition_counts(rs, beta, gamma) == stats.WPartitionCounts(**counts)


@pytest.mark.parametrize("seed, m", [(5, 512), (11, 4097)])
def test_g2_draw_is_one_table_index_per_row(seed, m):
    rows = stats._draw_rows(np.random.default_rng(seed), "G2", 2, m)
    index = np.random.default_rng(seed).integers(0, 12, size=m)
    assert np.array_equal(rows, stats._G2_ROWS[index])
    assert np.array_equal(_g2_masks(rows), np.array(weyl._G2_INV_MASKS)[index])


def test_g2_rows_leave_every_compared_pair_untied():
    # why a sampled G2 block never flags a row for the tie refinement: the
    # entries of each row have the distinct magnitudes 1, 2 and 3, so no N
    # test (w_j == w_i) or P test (w_i == -w_j) of _G2_TESTS can tie
    rows = stats._G2_ROWS
    assert all(sorted(map(abs, row)) == [1, 2, 3] for row in rows.tolist())
    runs = [_root_runs(r)[0] for r in G2_ROOTS]
    assert sorted(form for form, *_ in runs) == ["N", "N", "N", "O", "O", "P"]
    tied = np.zeros(len(rows), dtype=bool)
    stats._count_rows(rows, runs, tied=tied)
    assert not tied.any()
    for form, i, j in stats._G2_TESTS.values():
        for x in rows.tolist():
            if form == "N":
                assert x[j - 1] != x[i - 1]
            elif form == "P":
                assert x[i - 1] != -x[j - 1]


def _cli_sha256(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(list(argv)) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, sha256", [
    (["sample", "A3xG2", "-d", "2", "--samples", "9001", "--seed", "5", "--format", "json"],
     "40d2227d2a5ecdfd23e2c98e8aa17c537d721a2b8009cdb64fe6f076ab2fd48a"),
    (["clt", "G2xA40", "-d", "2", "--stat", "descents", "--samples", "20000", "--seed", "3",
      "--format", "json"],
     "61bd9fd8647b933163b5068bc41b029816e88eda289a354b8b8ba40ab334ddbb"),
])
def test_g2_sample_stream_is_pinned(argv, sha256, threads):
    # one table index per sample from each chunk's stream: fixed byte for byte
    assert _cli_sha256(*argv, "--threads", threads) == sha256


def test_statistic_roots_selects_psi(systems):
    rs = systems("B3xG2")
    for d in range(1, 7):
        assert stats.statistic_roots(rs, "descents", d) == rs.roots_of_height(d)
        assert stats.statistic_roots(rs, "inversions", d) == rs.roots_up_to_height(d)
    with pytest.raises(ws.WeylstatError, match="unknown statistic 'length'"):
        stats.statistic_roots(rs, "length", 2)
    with pytest.raises(ws.WeylstatError, match="unknown statistic 'length'"):
        clt.clt_report(rs, 2, "length", 10, seed=1)


def test_g2_tests_derive_from_the_root_vectors():
    # The table as it was written out by hand, before it was read off
    # rootsys._G2_VECTORS: r1 = e3 - e2, r2 = 2e2 - e1 - e3, r3 = e2 - e1,
    # r4 = e3 - e1, r5 = 2e3 - e1 - e2, r6 = e2 + e3 - 2e1.
    assert stats._G2_TESTS == {
        1: ("N", 2, 3), 2: ("O", 2, 0), 3: ("N", 1, 2),
        4: ("N", 1, 3), 5: ("O", 3, 0), 6: ("P", 2, 3),
    }


def test_g2_tests_read_the_sign_of_each_root_vector():
    # Each coordinate test of _G2_TESTS, read on a row x, is <r_k, x> < 0 for
    # the root's vector in the sum-zero plane of Z^3.
    reads = {
        "N": lambda x, i, j: x[j - 1] < x[i - 1],
        "O": lambda x, i, j: x[i - 1] < 0,
        "P": lambda x, i, j: x[i - 1] + x[j - 1] < 0,
    }
    rs = ws.build("G2")
    rows = stats._G2_ROWS
    assert rows.shape == (12, 3)
    for root in G2_ROOTS:
        form, i, j = stats._G2_TESTS[root.i]
        vector = rs._vector(root)
        kernel = stats._count_rows(rows, _root_runs(root)).tolist()
        for x, counted in zip(rows.tolist(), kernel):
            below = sum(c * x[k - 1] for k, c in vector) < 0
            assert reads[form](x, i, j) == below == bool(counted), (root, x)
