import csv
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylstat import cli


def run_cli(*argv, expect=0):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    assert code == expect, buf.getvalue()
    return buf.getvalue()


def test_var_examples_from_the_interface_contract():
    out = run_cli("var", "A5", "--stat", "descents", "-d", "2")
    assert out.startswith("7/12 = 0.58333333333333333333")
    assert "2d<=n" in out
    out = run_cli("var", "B4", "--stat", "inversions", "-d", "3", "--method", "enumerate")
    assert out.startswith("9/4")


def test_cov_both_methods_agree():
    closed = run_cli("cov", "G2", "r2", "r3")
    enum = run_cli("cov", "G2", "r2", "r3", "--method", "enumerate")
    angle = run_cli("cov", "G2", "r2", "r3", "--method", "angle")
    assert closed.startswith("1/6") and enum.startswith("1/6") and angle.startswith("1/6")


def test_roots_csv_format():
    out = run_cli("roots", "B4", "-d", "3", "--format", "csv")
    assert out.endswith("\n") and "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "root", "height"]
    level3 = [r[1] for r in rows[1:] if r[2] == "3"]
    assert sorted(level3) == ["N[1,4]", "O[3]", "P[1,2]"]
    assert len(rows) - 1 == 10  # heights 1..3 of B4


def test_roots_exact_height():
    out = run_cli("roots", "B4", "-d", "3", "--exact-height", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) - 1 == 3


def test_roots_exact_height_needs_d(capsys):
    assert run_cli("roots", "A2", "--exact-height", expect=1) == ""
    assert capsys.readouterr().err == "error: --exact-height needs -d\n"


def test_poset_and_depgraph_formats():
    out = run_cli("poset", "G2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lower", "upper"] and len(rows) - 1 == 5
    out = run_cli("depgraph", "D4", "-d", "1", "--format", "dot")
    assert out.count("--") == 3
    out = run_cli("depgraph", "B4", "-d", "2", "--format", "json")
    data = json.loads(out)
    assert data["max_degree"] >= 1 and data["spec"] == "B4"


def test_dist_json_schema():
    out = run_cli("dist", "A3", "-d", "1", "--format", "json")
    data = json.loads(out)
    assert list(data) == ["spec", "psi", "n", "counts", "moments"]
    assert data["n"] == 24
    assert data["counts"] == [[0, 1], [1, 11], [2, 11], [3, 1]]


def test_dist_explicit_psi():
    out = run_cli("dist", "B4", "--psi", "N[1,2]", "P[3,4]", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["value", "count"]
    assert [int(r[1]) for r in rows[1:]] == [96, 192, 96]


def test_sample_reproducible_json():
    a = run_cli("sample", "B3", "-d", "2", "--samples", "64", "--seed", "5", "--format", "json")
    b = run_cli("sample", "B3", "-d", "2", "--samples", "64", "--seed", "5", "--format", "json")
    assert a == b
    data = json.loads(a)
    assert data["seed"] == 5 and len(data["values"]) == 64


def test_wpartition_output():
    out = run_cli("wpartition", "G2", "r2", "r3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["5", "1", "1", "5"]


def test_clt_csv_header():
    out = run_cli("clt", "A9", "-d", "1", "--stat", "descents",
                  "--samples", "2000", "--seed", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "d", "k", "delta", "variance", "ks", "bound"]
    assert rows[1][0] == "9" and rows[1][2] == "9"


def test_domain_error_exit_code_1(capsys):
    code = cli.run(["var", "A5", "--stat", "descents", "-d", "9"])
    assert code == 1
    assert "out of range" in capsys.readouterr().err


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as err:
        cli.run(["var", "A5", "--stat", "nonsense", "-d", "1"])
    assert err.value.code == 2


def test_out_writes_file(tmp_path):
    target = tmp_path / "roots.csv"
    run_cli("roots", "A3", "--format", "csv", "--out", str(target))
    assert target.read_text().startswith("id,root,height\n")


def test_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("WEYLSTAT_CAP", "10")
    code = cli.run(["dist", "A3", "-d", "1"])
    assert code == 1
    assert "exceeds enumeration cap 10" in capsys.readouterr().err
    monkeypatch.setenv("WEYLSTAT_CAP", "1000")
    assert cli.run(["dist", "A3", "-d", "1"]) == 0


@pytest.mark.parametrize("value", ["abc", "1e6", "10.5"])
def test_cap_env_must_be_an_integer(monkeypatch, capsys, value):
    monkeypatch.setenv("WEYLSTAT_CAP", value)
    assert cli.run(["dist", "A3", "-d", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: WEYLSTAT_CAP must be an integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_a_cap_below_1_is_refused(monkeypatch, capsys, value):
    with pytest.raises(SystemExit) as err:
        cli.run(["dist", "A3", "--psi", "N[1,2]", "--cap", value])
    assert err.value.code == 2
    assert f"must be at least 1, got {value}" in capsys.readouterr().err
    monkeypatch.setenv("WEYLSTAT_CAP", value)
    assert cli.run(["dist", "A3", "--psi", "N[1,2]"]) == 1
    assert capsys.readouterr().err.startswith("error: WEYLSTAT_CAP must be an integer")


@pytest.mark.parametrize("family, stat, d", [
    ("A24", "inversions", 2), ("A24", "descents", 2), ("A14", "inversions", 3), ("A61", "descents", 1),
])
def test_var_checks_type_a_tables_beyond_rank_9(family, stat, d):
    # the command raises if the table and the exact law disagree
    run_cli("var", family, "--stat", stat, "-d", str(d), "--method", "enumerate")


def test_dist_reaches_a12_at_height_2():
    doc = json.loads(run_cli("dist", "A12", "-d", "2", "--format", "json"))
    assert sum(c for _, c in doc["counts"]) == math.factorial(13)
    assert Fraction(sum(v * c for v, c in doc["counts"]), math.factorial(13)) == Fraction(23, 2)


def test_the_refusal_names_the_price(capsys):
    assert cli.run(["var", "A25", "--stat", "inversions", "-d", "2", "--method", "enumerate"]) == 1
    err = capsys.readouterr().err
    assert "exact-law cost (elements enumerated, 128 per recursion transition) 11481984" in err
    assert "exceeds enumeration cap 10000000" in err


def test_thread_flag_does_not_change_output():
    argvs = [
        ["dist", "B4", "-d", "5", "--format", "csv"],
        ["sample", "A9", "-d", "2", "--samples", "5000", "--seed", "7", "--format", "json"],
        ["clt", "B5", "-d", "3", "--samples", "4000", "--seed", "11", "--format", "json"],
        ["var", "B4", "--stat", "inversions", "-d", "4", "--method", "enumerate", "--format", "json"],
    ]
    for argv in argvs:
        one = run_cli(*argv, "--threads", "1")
        eight = run_cli(*argv, "--threads", "8")
        assert one == eight, argv


def test_golden_roots_output_locked():
    # byte-for-byte lock of the deterministic catalog order
    out = run_cli("roots", "G2", "--format", "csv")
    assert out == (
        "id,root,height\n"
        "0,r1,1\n"
        "1,r2,1\n"
        "2,r3,2\n"
        "3,r4,3\n"
        "4,r5,4\n"
        "5,r6,5\n"
    )


@pytest.mark.parametrize("value", ["0", "-3", str(cli.MAX_THREADS + 1)])
def test_threads_out_of_range_is_a_usage_error(monkeypatch, capsys, value):
    def no_thread(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("weylstat.stats.ThreadPoolExecutor", no_thread)
    with pytest.raises(SystemExit) as err:
        cli.run(["sample", "B3", "-d", "2", "--samples", "10", "--seed", "1", "--threads", value])
    assert err.value.code == 2
    assert f"between 1 and {cli.MAX_THREADS}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, pools", [
    (("dist", "B7", "-d", "3"), []),
    (("var", "B6", "--stat", "inversions", "-d", "3", "--method", "enumerate"), []),
    (("wpartition", "B7", "N[1,2]", "P[2,3]", "--format", "json"), []),
    (("cov", "B7", "N[1,2]", "P[2,3]", "--method", "enumerate"), []),
    (("sample", "B7", "-d", "3", "--samples", "10000", "--seed", "3"), [2]),
    # one chunk has one worker, which runs on the calling thread
    (("sample", "B7", "-d", "3", "--samples", "4096", "--seed", "3"), []),
], ids=["dist", "var", "wpartition", "cov", "sample", "sample-one-chunk"])
def test_only_sampling_starts_a_thread_pool(monkeypatch, argv, pools):
    from concurrent.futures import ThreadPoolExecutor

    started = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    one = run_cli(*argv, "--threads", "1")
    monkeypatch.setattr("weylstat.stats.ThreadPoolExecutor", Recording)
    assert run_cli(*argv, "--threads", "2") == one
    assert started == pools


def test_cap_counts_enumerated_components_not_the_product():
    # |B6| = 46080: the product order 46080^2 exceeds the default cap, but the
    # exact path enumerates each factor once and convolves
    single = json.loads(run_cli("dist", "B6", "-d", "2", "--format", "json"))
    product = json.loads(run_cli("dist", "B6xB6", "-d", "2", "--format", "json"))
    hist = dict(single["counts"])
    square: dict[int, int] = {}
    for v1, c1 in hist.items():
        for v2, c2 in hist.items():
            square[v1 + v2] = square.get(v1 + v2, 0) + c1 * c2
    assert product["counts"] == [[v, c] for v, c in sorted(square.items())]
    assert run_cli("dist", "B6xB6", "-d", "2", "--cap", str(2 * 46080))
    run_cli("dist", "B6xB6", "-d", "2", "--cap", str(2 * 46080 - 1), expect=1)


def test_wpartition_caps_the_component_it_enumerates():
    # both roots lie in one B6 factor: 46,080 elements are enumerated, not 46080^2
    single = run_cli("wpartition", "B6", "N[1,2]", "N[2,3]", "--format", "csv")
    product = run_cli("wpartition", "B6xB6", "B6.1:N[1,2]", "B6.1:N[2,3]", "--format", "csv")
    counts = list(csv.reader(io.StringIO(single)))[1]
    assert list(csv.reader(io.StringIO(product)))[1] == [str(int(c) * 46080) for c in counts]
    args = ("wpartition", "B6xB6", "B6.1:N[1,2]", "B6.1:N[2,3]", "--cap")
    run_cli(*args, "46080")
    run_cli(*args, "46079", expect=1)


@pytest.mark.parametrize("command", ["sample", "clt"])
@pytest.mark.parametrize("value", ["0", "-1", str(cli.MAX_SAMPLES + 1)])
def test_samples_out_of_range_is_a_usage_error(monkeypatch, capsys, command, value):
    def no_build(*args, **kwargs):
        raise AssertionError("a catalog was built")

    monkeypatch.setattr(cli, "build", no_build)
    with pytest.raises(SystemExit) as err:
        cli.run([command, "B3", "-d", "2", "--samples", value, "--seed", "1"])
    assert err.value.code == 2
    assert f"between 1 and {cli.MAX_SAMPLES}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "-2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "A3"],
        ["dist", "A3"],
        ["sample", "A3", "--samples", "10", "--seed", "1"],
        ["depgraph", "A3"],
        ["clt", "A3", "--samples", "10", "--seed", "1"],
    ],
)
def test_height_below_one_is_a_usage_error(monkeypatch, capsys, argv, value):
    def no_build(*args, **kwargs):
        raise AssertionError("a catalog was built")

    monkeypatch.setattr(cli, "build", no_build)
    with pytest.raises(SystemExit) as err:
        cli.run([*argv, "-d", value])
    assert err.value.code == 2
    assert f"must be at least 1, got {value}" in capsys.readouterr().err


def test_var_keeps_its_own_height_check(capsys):
    assert cli.run(["var", "A5", "--stat", "descents", "-d", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, option", [
    (["dist", "A3", "-d", "x"], "-d"),
    (["dist", "A3", "-d", "1", "--cap", "1e3"], "--cap"),
    (["sample", "A3", "-d", "1", "--samples", "x", "--seed", "1"], "--samples"),
    (["clt", "A3", "-d", "1", "--samples", "10", "--seed", "1", "--threads", "2.0"], "--threads"),
    (["var", "A5", "--stat", "descents", "-d", "x"], "-d"),
    (["sample", "A3", "-d", "1", "--samples", "10", "--seed", "x"], "--seed"),
    (["clt", "A3", "-d", "1", "--samples", "10", "--seed", "1.5"], "--seed"),
])
def test_a_non_integer_is_a_readable_usage_error(monkeypatch, capsys, argv, option):
    def no_build(*args, **kwargs):
        raise AssertionError("a catalog was built")

    monkeypatch.setattr(cli, "build", no_build)
    with pytest.raises(SystemExit) as err:
        cli.run(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.endswith(f"argument {option}: must be an integer, got {argv[argv.index(option) + 1]!r}")
    assert "invalid" not in message and "_" not in message  # no parser function named


_TOO_LONG = "9" * 5000  # int() refuses a number of more than 4300 digits


@pytest.mark.parametrize("argv, env, code", [
    (["sample", "A3", "-d", "1", "--samples", "10", "--seed", _TOO_LONG], None, 2),
    (["dist", "A3", "-d", _TOO_LONG], None, 2),
    (["dist", "A3", "-d", "1", "--cap", _TOO_LONG], None, 2),
    (["dist", "A3", "-d", "1"], _TOO_LONG, 1),
], ids=["seed", "d", "cap", "env"])
def test_a_too_long_integer_is_named_by_its_digit_count(monkeypatch, capsys, argv, env, code):
    if env is not None:
        monkeypatch.setenv("WEYLSTAT_CAP", env)
    try:
        result = cli.run(argv)
    except SystemExit as err:
        result = err.code
    assert result == code
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.endswith("a number of 5000 digits is too long")
    assert len(message) < 200


def test_samples_bound_is_inclusive():
    args = cli.build_parser().parse_args(
        ["sample", "B3", "-d", "2", "--samples", str(cli.MAX_SAMPLES), "--seed", "1"]
    )
    assert args.samples == cli.MAX_SAMPLES


@pytest.mark.parametrize("spec, count", [("A100000", 5000050000), ("B100000", 10**10)])
def test_catalog_size_guard_exits_1(capsys, spec, count):
    run_cli("roots", spec, expect=1)
    assert f"catalog size {count} exceeds catalog limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["roots", "A" + "9" * 5000],
    ["dist", "A3", "--psi", f"N[{'9' * 5000},1]"],
    ["clt", "A3", "-d", "1" + "0" * 250, "--samples", "10", "--seed", "1"],
    ["clt", "A3", "-d", "1" + "0" * 400, "--samples", "10", "--seed", "1"],
    ["depgraph", "A499", "-d", "499"],
    ["sample", "A499", "-d", "499", "--samples", "10000000", "--seed", "1"],
    ["sample", "A999", "-d", "999", "--samples", "10000000", "--seed", "1"],
    ["clt", "A499", "-d", "499", "--samples", "10000000", "--seed", "1"],
])
def test_oversized_requests_exit_1_with_one_error_line(capsys, argv):
    # integers past Python's digit limit, float rates that overflow, a graph of
    # 62,125,500 candidate pairs, 10^7 samples of 124,750 or 499,500 roots (a
    # `clt` run priced before its degrees are read): each refused with one
    # line, not a traceback
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, sha256", [
    (["sample", "A9", "-d", "2", "--samples", "2000", "--seed", "7", "--format", "json"],
     "07e0aed2ea41a5df789e5b9c30821fb665270ac23a86a3287337fcd50e599ad7"),
    (["sample", "A3xA40", "-d", "1", "--samples", "5000", "--seed", "3", "--format", "json"],
     "9de09c81344ce5ae0219b122af3539e0a45140503eebbe8cb0f12dcd72b38ee9"),
])
def test_type_a_sample_stream_is_pinned(argv, sha256):
    # type A draws no sign bits: its seeded output is fixed byte for byte
    out = run_cli(*argv)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("threads", ["1", "2", "8"])
@pytest.mark.parametrize("argv, sha256", [
    (["sample", "B100xG2", "-d", "5", "--samples", "5000", "--seed", "7", "--format", "json"],
     "5880889b011c995d2e6a0549ab00ee9500580d3d607914dfd3bc62b2f41867b8"),
    (["sample", "D6", "-d", "3", "--samples", "4097", "--seed", "3", "--format", "json"],
     "9a2f268e1cbe571332efc5d691f679302c8f0d1f1f290cb2341b5a2416ebb3e1"),
    (["clt", "C8", "-d", "2", "--samples", "4000", "--seed", "11", "--format", "json"],
     "f92bcdec757df871844e9553469542beb2b0313a2a7dab34a103f1f8084dc26d"),
])
def test_signed_type_sample_stream_is_pinned(argv, sha256, threads):
    # signed keys read off each chunk's raw words: fixed byte for byte
    out = run_cli(*argv, "--threads", threads)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("fmt, no_values, kept", [
    ("human", False, False), ("json", True, False), ("json", False, True), ("csv", False, True),
])
def test_sample_keeps_values_only_where_it_writes_them(monkeypatch, fmt, no_values, kept):
    # human and json --no-values read the histogram alone; their stdout is
    # the bytes of a run that keeps every value
    from weylstat import stats

    argv = ["sample", "B4xG2", "-d", "3", "--samples", "5000", "--seed", "9", "--format", fmt]
    argv += ["--no-values"] if no_values else []
    mc_run = stats.mc_run
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs["keep_values"])
        return mc_run(*args, **kwargs)

    monkeypatch.setattr(stats, "mc_run", recording)
    out = run_cli(*argv)
    assert calls == [kept]
    monkeypatch.setattr(stats, "mc_run", lambda *args, **kwargs: mc_run(*args, **{**kwargs, "keep_values": True}))
    assert run_cli(*argv) == out


def test_cli_import_leaves_out_the_thread_pool():
    # the pool is imported only by a run with more than one thread
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, weylstat.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == "False\n"


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
    | st.text()
    | st.sampled_from(["\u00e9\u4e2d", "tab\tnew\nline\x00\x1f", "\"quoted\\"])
)
_json_keys = st.text(max_size=4) | st.sampled_from([True, 1, 2.5, None])
_json_trees = st.recursive(
    _json_leaves,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(st.integers(), max_size=5)
        | st.tuples(inner, inner)
        | st.builds(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | st.dictionaries(_json_keys, inner, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(obj=_json_trees)
def test_json_text_matches_json_dumps(obj):
    assert "".join(cli._json_text(obj)) == json.dumps(obj, indent=1) + "\n"


@st.composite
def _int_arrays(draw, size=st.integers(0, 30)):
    """1-D integer arrays whose values span 0, a few, a few hundred or all of the dtype's range,
    from anywhere in it, its ends included."""
    dtype = np.dtype(draw(st.sampled_from(["int8", "int16", "int32", "int64", "uint8", "uint16", "uint64"])))
    info = np.iinfo(dtype)
    edges = st.sampled_from([int(info.min), int(info.max) - 3])
    lo = draw(st.integers(info.min, info.max) | st.integers(max(info.min, -3), 3) | edges)
    span = draw(st.sampled_from([0, 3, 300, int(info.max) - int(info.min)]))
    hi = min(int(info.max), lo + span)
    n = draw(size)
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), dtype=dtype)


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


_array_trees = st.recursive(
    _int_arrays() | st.integers(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(tree=_array_trees, length_one=_int_arrays(size=st.just(1)))
def test_json_text_of_integer_arrays_matches_json_dumps_of_their_lists(tree, length_one):
    # at depth 2 or more, and beside a one-value array
    obj = {"spec": "A1", "runs": [tree, {"values": length_one}]}
    assert "".join(cli._json_text(obj)) == json.dumps(_plain(obj), indent=1) + "\n"


@pytest.mark.parametrize("piece", [1, 2, 5])
@settings(max_examples=50, deadline=None)
@given(tree=_array_trees)
def test_json_text_of_arrays_written_in_small_pieces_matches_json_dumps(tree, piece):
    obj = {"runs": [tree]}
    with mock.patch.object(cli, "PIECE_VALUES", piece):
        assert "".join(cli._json_text(obj)) == json.dumps(_plain(obj), indent=1) + "\n"


@pytest.mark.parametrize("listed", [False, True], ids=["top-level", "only-item"])
@pytest.mark.parametrize("a", [
    np.array([7], np.int64),
    np.arange(-5, 3 * cli.PIECE_VALUES, dtype=np.int32),
    np.array([], np.uint8),
], ids=["one", "many", "empty"])
def test_json_text_of_a_lone_array_matches_json_dumps(a, listed):
    obj = [a] if listed else a
    assert "".join(cli._json_text(obj)) == json.dumps(_plain(obj), indent=1) + "\n"


@pytest.mark.parametrize("obj", [
    Fraction(1, 3), np.array([0.5, 1.0]), np.zeros((2, 3), np.int64),
], ids=["fraction", "float-array", "2d-array"])
def test_json_text_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=1)
    with pytest.raises(TypeError):
        "".join(cli._json_text({"runs": [obj]}))


@pytest.mark.parametrize("argv, sha256", [
    pytest.param(["roots", "A199"], "ee8298fdc160231ca220c621c33d0f4cea7060e6aa1de100a0c06c94a632f357",
                 id="roots-A199"),
    pytest.param(["poset", "B20"], "71586f7e156c978f91df59c6a377399192933355084e3af69f296dc7a5a364e6",
                 id="poset-B20"),
    pytest.param(["depgraph", "A99", "-d", "3"],
                 "895f338f037c7763252335dc552cfc7130edc32a94dab48446aac17722cd3c09", id="depgraph-A99"),
])
def test_large_documents_without_arrays_are_pinned(argv, sha256):
    out = run_cli(*argv, "--format", "json")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("fmt, sha256", [
    ("csv", "3cb38b8f2f94e4afe21cd05d75ee750c9ca9c80cc85a789a8afaf0a1df7faee2"),
    ("dot", "76d11d2828563f8dc95013f921aedbe33682df4bdf706b8f137f45600acf25fa"),
    ("json", "08759ff6bd429e8bd2ead02682f5601fc7c47711b43f3119045f58991390be28"),
])
def test_the_dependency_graph_of_a_product_is_pinned(fmt, sha256):
    # 149 vertices and 685 edges over three prefixed components
    out = run_cli("depgraph", "B30xG2xA20", "-d", "3", "--format", fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_a_large_document_is_written_in_bounded_pieces():
    args = cli.build_parser().parse_args(["roots", "A199", "--format", "json"])
    pieces = list(args.fn(args))
    assert len(pieces) > 1
    assert max(map(len, pieces)) <= len("".join(pieces)) / 4


@pytest.mark.parametrize("piece", [1, 3, 1000])
@settings(max_examples=50, deadline=None)
@given(a=st.sampled_from(["uint8", "uint16", "int64"]).flatmap(
    lambda dtype: st.lists(st.integers(0, int(np.iinfo(dtype).max)), min_size=1, max_size=40).map(
        lambda values: np.array(values, dtype=dtype))))
def test_indexed_csv_pieces_match_csv_writer(a, piece):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(enumerate(a.tolist()))
    with mock.patch.object(cli, "PIECE_VALUES", piece):
        pieces = list(cli._indexed_csv_pieces(a))
    assert "".join(pieces) == buf.getvalue()
    assert len(pieces) == math.ceil(len(a) / piece)


@functools.lru_cache(maxsize=None)
def _sample_text(n: int, fmt: str) -> str:
    """``sample B6 -d 3 --seed 3`` written by json.dumps or csv.writer from the run's values."""
    from weylstat import stats
    from weylstat.rootsys import build

    rs = build("B6")
    run = stats.mc_run(rs, stats.statistic_roots(rs, "inversions", 3), n, 3,
                       descriptor={"stat": "inversions", "d": 3})
    if fmt == "json":
        return json.dumps(run.to_json_dict(), indent=1) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("index", "value"), *enumerate(run.values)])
    return buf.getvalue()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [
    1, cli.PIECE_VALUES - 1, cli.PIECE_VALUES, cli.PIECE_VALUES + 1, 3 * cli.PIECE_VALUES + 5,
])
def test_sample_values_across_piece_boundaries_match_json_dumps_and_csv_writer(tmp_path, n, fmt, threads):
    argv = ["sample", "B6", "-d", "3", "--samples", str(n), "--seed", "3", "--format", fmt,
            "--threads", threads]
    out = run_cli(*argv)
    assert out == _sample_text(n, fmt)
    target = tmp_path / f"values.{fmt}"
    run_cli(*argv, "--out", str(target))
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sample_values_are_written_in_bounded_pieces(tmp_path, fmt):
    # 10**6 values take 5 MB of JSON or 8.9 MB of CSV text, and 1 MB as the
    # run's array, which the human run does not keep: writing them in pieces
    # adds a fraction of the text to the human run's peak and that array
    target = tmp_path / f"values.{fmt}"
    argv = ["sample", "A4", "-d", "1", "--samples", str(10**6), "--seed", "3", "--out", str(target)]
    peaks = []
    for extra in ([], ["--format", fmt]):
        tracemalloc.start()
        try:
            assert cli.run([*argv, *extra]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    run_peak, peak = peaks
    assert peak - (run_peak + 10**6) < target.stat().st_size / 3


@pytest.mark.parametrize("argv", [
    ["roots", "B4", "-d", "3"],
    ["poset", "G2"],
    ["cov", "G2", "r2", "r3"],
    ["wpartition", "G2", "r2", "r3"],
    ["var", "B4", "--stat", "inversions", "-d", "3"],
    ["dist", "B3", "-d", "2"],
    ["sample", "B3xG2", "-d", "2", "--samples", "50", "--seed", "5"],
    ["sample", "B3", "-d", "2", "--samples", "50", "--seed", "5", "--no-values"],
    ["clt", "B4", "-d", "2", "--samples", "500", "--seed", "5"],
    ["depgraph", "B4", "-d", "2"],
])
def test_json_output_ends_in_one_newline(argv):
    out = run_cli(*argv, "--format", "json")
    assert out.endswith("}\n")
    assert json.loads(out)


@pytest.mark.parametrize("where", ["missing/roots.csv", "."])
def test_out_to_an_unwritable_path_is_an_error(tmp_path, capsys, where):
    target = tmp_path / where
    assert cli.run(["roots", "A3", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_a_root_outside_the_catalog_is_named_as_typed(capsys):
    assert cli.run(["dist", "A3", "--psi", "N[2,1]"]) == 1
    assert capsys.readouterr().err == "error: root 'N[2,1]' is not in the catalog of A3\n"


def test_repeated_components_need_the_ordinal_prefix_on_the_command_line(capsys):
    assert cli.run(["wpartition", "B3xB3", "B3:N[1,2]", "B3.2:N[1,2]"]) == 1
    assert capsys.readouterr().err == "error: unknown component prefix 'B3' in 'B3:N[1,2]'\n"
    assert run_cli("wpartition", "B3xB3", "B3.1:N[1,2]", "B3.2:N[1,2]").startswith("pp=576 ")


@pytest.mark.parametrize("argv", [
    ["roots", "A3"],
    ["poset", "A3"],
    ["depgraph", "A3", "-d", "1"],
    ["sample", "A3", "-d", "1", "--samples", "10", "--seed", "1"],
    ["clt", "A3", "-d", "1", "--samples", "10", "--seed", "1"],
])
def test_cap_is_a_usage_error_where_nothing_is_enumerated(monkeypatch, capsys, argv):
    def no_build(*args, **kwargs):
        raise AssertionError("a catalog was built")

    monkeypatch.setattr(cli, "build", no_build)
    with pytest.raises(SystemExit) as err:
        cli.run([*argv, "--cap", "1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --cap 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dist", "A3", "-d", "1"],
    ["cov", "A3", "N[1,2]", "N[2,3]"],
    ["wpartition", "A3", "N[1,2]", "N[2,3]"],
    ["var", "A4", "--stat", "descents", "-d", "1"],
])
def test_enumerating_commands_take_a_cap(argv):
    assert cli.build_parser().parse_args([*argv, "--cap", "7"]).cap == 7


def test_cov_angle_on_equal_roots_is_one_quarter():
    for method in ("closed", "angle", "enumerate"):
        assert run_cli("cov", "G2", "r5", "r5", "--method", method) == f"1/4 = 0.25 [method {method}]\n"


# One small case per command, in every format; the bytes are pinned by sha256.
_GOLDEN = [
    (["roots", "A2xG2", "-d", "3"], {
        "human": "673bbafb3c46103ef338a2f6d7d08d9ef6a6b466f0142fa65a7ef1939e0691b6",
        "json": "31c7e05d6e15fbb0c24801e7ffeb45695fc7d76b4b66171bcb7f21840b57411c",
        "csv": "0e26652bb5e3a61b64ae7423e9bf8efeb58a07355b0fe94ad16e31ac686a6acb",
    }),
    (["poset", "A2xG2"], {
        "human": "f891d2bbf9137af7ac7f5eff6cabc87a28c0544e1b363809761f5eeb868bb303",
        "json": "3aa177d85721da2d70d633e8a9d564dc422d4e37a384387c6f7c2f6eb27268c3",
        "csv": "1dfbe3f7fa8b21737d3eab2a6e0aa00ecf53544a271f147ccbc186ce277a0b6f",
    }),
    (["cov", "G2xB3", "G2:r2", "G2:r6"], {
        "human": "436b87791b668ec037843b5780d47abfc30d8252be106fff890b061e5274f658",
        "json": "6bd31707da15d0ba28474cda73027b9f633f65c434dc7b114e78ea79de9e1ea1",
        "csv": "bce47b870dcaae6038f6561dc7c7f13dfb62e4f63a5e16433b0a2975f32d7c9b",
    }),
    (["wpartition", "G2xB3", "B3:N[1,2]", "B3:O[2]"], {
        "human": "453edbf98933c23d32cf3e06b7237190c1a5543d1d9c2d7e8d772786549d13f9",
        "json": "fb761a8a765f7ad8f5e7edc0668a3e3bf650470ff50b1b903b469f9ab8cd22be",
        "csv": "5fdeb0cb80677d4bf2e44e7e3f80e89d8ce8851595c467281725156d26e179b5",
    }),
    (["var", "B4", "--stat", "inversions", "-d", "3"], {
        "human": "405b95ffbd13d8af453e9e35699ad022ee7b72312a8f3fdfec29bcf54a519adc",
        "json": "7d0a7bd487678810e73a4cb0559483e60c766db1161b47ab7cde398ccc593fe0",
        "csv": "9fe891b51fe7bcaa93ab04ba5b72d62ae8f7a1e5f6fd9eca9de191de35a26057",
    }),
    (["dist", "A2xG2", "-d", "2"], {
        "human": "b471f7f3fc905f55e3818305e1f45b78bbfbc783d7240203501021fe8479fec7",
        "json": "259da524290e295ee9f38d82a17993a509929dbdf9856a259ede932b2ce395fd",
        "csv": "84e5591ed8d8ab8f79fb8a40b7a77cc54f1ce42247a5e680cc6855ec71ee8043",
    }),
    (["sample", "B3", "-d", "2", "--samples", "500", "--seed", "3"], {
        "human": "5a5f0a55ea8117d27c0d810b9d7cfc2810b43f40fa253a26fb615cd1b8603758",
        "json": "0cd1eb3146ab695bbc7de1b1910f2fb3f0a1f20f060cca40639b97d6490919be",
        "csv": "c06fcf9c193c7127af04c34a0e0c9a5364c69067f9ef182c6c8f10e9493fb0fb",
    }),
    (["clt", "A2xG2", "-d", "2", "--stat", "descents", "--samples", "500", "--seed", "3"], {
        "human": "55c451c3f244aeb7388cbaf8ce804c79653424c952118118774db8458fd1325d",
        "json": "5986adf297dd629d1222af9dc27d3b76810679587f7f6fe1acff81ae4d8679c4",
        "csv": "42238f14794c445b8e58cb6da8ab6c3c2c249557f0f956d0f3c412056723cc91",
    }),
    (["depgraph", "G2xB3", "-d", "2"], {
        "human": "a7efccd6417c9fd17080d0129d7b182889427266d818e58ccdcc77b9e55a3cd5",
        "json": "8c573d3242dbde07355f47caf43152568f8eb728e3c021b6bb3730fc96e52ecc",
        "csv": "ac63dfb3e4681e8eb8a60eb1fd93a156a1efffe841caeff5ffcfec47637a88bf",
        "dot": "900e832a1d64a34f482dd1c320975f8962f35e91912d00c8f9402d27cf61a266",
    }),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, fmt, sha256", [
    pytest.param(argv, fmt, sha256, id=f"{argv[0]}-{fmt}")
    for argv, hashes in _GOLDEN for fmt, sha256 in hashes.items()
])
def test_every_command_and_format_is_pinned(argv, fmt, sha256, threads):
    out = run_cli(*argv, "--format", fmt, "--threads", threads)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256

