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


def _g2_masks(rows):
    """Bit k - 1 of each row's mask: the kernel's test of root r_k on that row."""
    return sum(
        stats._count_rows(rows, stats._diagonal_runs([r])) << (r.i - 1) for r in G2_ROOTS
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


def _cli_sha256(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(list(argv)) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, sha256", [
    (["sample", "A3xG2", "-d", "2", "--samples", "9001", "--seed", "5", "--format", "json"],
     "435b4b88120b2465675508574bf78cd95a6c5d42f7a4b85857b5fb9199813fc8"),
    (["clt", "G2xA40", "-d", "2", "--stat", "descents", "--samples", "20000", "--seed", "3",
      "--format", "json"],
     "95b28557a291ec32a7be1f226ead78733b6e85eb1e794db278512e2ec3ef327c"),
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
        kernel = stats._count_rows(rows, stats._diagonal_runs([root])).tolist()
        for x, counted in zip(rows.tolist(), kernel):
            below = sum(c * x[k - 1] for k, c in vector) < 0
            assert reads[form](x, i, j) == below == bool(counted), (root, x)
