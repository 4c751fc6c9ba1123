"""Command-line surface: reproducible experiment driver and file emitter.

Output contract: identical argv (and seed) produce byte-identical output for
any ``--threads`` value.  CSV is RFC-4180 style with a header row and LF line
endings; JSON is UTF-8 with a stable key order.  The commands that enumerate
group elements (``dist``, ``cov``, ``wpartition``, ``var``) take a cap of at
least 1 on an exact law's cost (elements enumerated, 128 per recursion
transition) from ``--cap`` or ``WEYLSTAT_CAP``; others refuse ``--cap`` (exit 2).

System arguments use the rank grammar (``A4``, ``B10``, ``G2``, ``A3xB4``)
except for ``var``, whose family parameter follows the formula convention:
``var A5`` refers to the degree-5 symmetric group (rank 4).  For the other
families rank and formula parameter coincide.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

# clt, depgraph and formulas are imported by the handlers that use them, so a
# command compiles and runs only the modules it needs.
from . import stats
from .errors import WeylstatError
from .rootsys import DEFAULT_CAP, _dimension, build, parse_spec

MAX_THREADS = 64
# A sample run holds its values in one array of 1, 2 or 8 bytes per sample,
# and writes them in pieces of PIECE_VALUES values, a few hundred kB of text
# each.  `sample B100xG2 -d 5` peaks at 39.2 MB (human), 39.2 MB (json) and
# 41.0 MB (csv) of RSS at 10**6 samples, and at 56.6, 56.7 and 58.8 MB at
# 10**7, one run each (os.wait4).
MAX_SAMPLES = 10**7
PIECE_VALUES = 2**16


def decimal_str(x: Fraction, digits: int = 20) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _csv_text(rows) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _record_text(record: dict, fmt: str):
    """One record as a json object, or as a csv header of its keys over one row."""
    if fmt == "json":
        return _json_text(record)
    return _csv_text([tuple(record), tuple(record.values())])


def _indexed_csv_pieces(a):
    """The ``index,value`` CSV rows of a 1-D array of non-negative integers.

    Each piece of ``PIECE_VALUES`` rows is one matrix of ASCII bytes, a row
    per CSV row, whose NUL padding is then dropped.
    """
    import numpy as np  # loaded by the run that filled ``a``

    value_width = len(str(int(a.max())))
    for start in range(0, len(a), PIECE_VALUES):
        piece = a[start : start + PIECE_VALUES]
        index_width = len(str(start + len(piece) - 1))
        rows = np.zeros((len(piece), index_width + value_width + 2), np.uint8)
        _put_decimal(np, np.arange(start, start + len(piece)), rows[:, :index_width])
        rows[:, index_width] = ord(",")
        _put_decimal(np, piece, rows[:, index_width + 1 : -1])
        rows[:, -1] = ord("\n")
        yield rows.tobytes().replace(b"\0", b"").decode()


def _put_decimal(np, x, out):
    """Write non-negative integers ``x`` in ASCII decimal into the rows of the
    zeroed uint8 matrix ``out``, right-aligned, leaving NULs before the first digit."""
    x = x.astype(np.int64)
    digit = np.empty_like(x)
    for col in range(out.shape[1] - 1, -1, -1):
        shown = (x > 0) | (col == out.shape[1] - 1)  # 0 shows its units digit
        np.divmod(x, 10, out=(x, digit))
        np.add(digit, ord("0"), out=out[:, col], where=shown, casting="unsafe")


def _json_text(obj):
    """The pieces of ``json.dumps(obj, indent=1)`` and a newline, formatted as they are read.

    The standard library's encoder writes the text, in pieces of ``PIECE_VALUES``
    of its chunks; a 1-D integer array is written as its ``tolist()``, its values
    gathered by ``_int_array_pieces``.  Join the pieces for one ``str``.
    """
    # An array exists only once numpy is loaded, so a run that never loaded it has none.
    np = sys.modules.get("numpy")
    arrays = []

    def default(o):
        if np is not None and isinstance(o, np.ndarray) and o.ndim == 1 and o.dtype.kind in "iu":
            arrays.append(o)
            return []
        return json.JSONEncoder.default(encoder, o)  # raises TypeError, as json.dumps does

    encoder = json.JSONEncoder(indent=1, default=default)
    piece = []
    # With an indent, iterencode runs json.encoder._make_iterencode, which yields
    # what ``default`` returns as its very next chunk, so no document text is taken
    # for an array: the "[]" read just after one is recorded is its place (or text).
    for chunk in encoder.iterencode(obj):
        if arrays and len(a := arrays.pop()):
            text = "".join(piece)
            line = text[text.rfind("\n") + 1 :]
            pad = " " * (len(line) - len(line.lstrip(" ")))
            yield text + "[\n" + pad + " "
            # every value but the last is followed by a separator
            yield from _int_array_pieces(np, a[:-1], ",\n" + pad + " ")
            piece = [f"{a[-1]}\n{pad}]"]
            continue
        piece.append(chunk)
        if len(piece) >= PIECE_VALUES:  # keep the open line, for an array's indent
            head, newline, line = "".join(piece).rpartition("\n")
            yield head + newline
            piece = [line]
    yield "".join(piece) + "\n"


def _int_array_pieces(np, a, sep: str):
    """The text "<value><sep>" of each value of a 1-D integer array, ``PIECE_VALUES`` values a piece.

    The table of each value's text is built here, and each piece as it is read.
    """
    lo, hi = (int(a.min()), int(a.max())) if len(a) else (0, 0)
    if hi - lo < len(a) and np.can_cast(a.dtype, np.intp):
        # One NUL-padded record "<value><sep>" per value in lo..hi, gathered in
        # array order; the padding is then dropped.
        table = np.array([f"{v}{sep}".encode() for v in range(lo, hi + 1)])

        def text(piece):
            return table[np.subtract(piece, lo, dtype=np.intp)].tobytes().replace(b"\0", b"").decode()
    else:
        def text(piece):
            return repr(piece.tolist())[1:-1].replace(", ", sep) + sep
    return (text(a[start : start + PIECE_VALUES]) for start in range(0, len(a), PIECE_VALUES))


def _emit(text, out: str | None):
    """Write a handler's output: one ``str`` or an iterable of ``str`` pieces."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _psi_from_args(rs, args):
    if args.psi:
        return [rs.parse_root(t) for t in args.psi]
    if args.d is None:
        raise WeylstatError("need either -d or --psi")
    return list(stats.statistic_roots(rs, args.stat, args.d))


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isdecimal():  # a number that int() refuses for its length: not echoed
            raise argparse.ArgumentTypeError(f"a number of {len(digits)} digits is too long") from None
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _count_up_to(text: str, limit: int) -> int:
    value = _integer(text)
    if not 1 <= value <= limit:
        raise argparse.ArgumentTypeError(f"must be between 1 and {limit}, got {value}")
    return value


def _thread_count(text: str) -> int:
    return _count_up_to(text, MAX_THREADS)


def _sample_count(text: str) -> int:
    return _count_up_to(text, MAX_SAMPLES)


def _height(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p, formats=("human", "json", "csv"), cap=False):
    p.add_argument("--format", choices=formats, default="human")
    p.add_argument("--out", help="write output to this file instead of stdout")
    if cap:
        p.add_argument("--cap", type=_height,
                       help="cost cap: elements enumerated, plus 128 per recursion transition")
    p.add_argument("--threads", type=_thread_count, default=1, help="worker threads (sample, clt)")


def _cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("WEYLSTAT_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        return _height(env)
    except argparse.ArgumentTypeError as e:
        got = e if "too long" in str(e) else f"got {env!r}"  # a digit count, not the number
        raise WeylstatError(f"WEYLSTAT_CAP must be an integer of at least 1, {got}") from None


# -- subcommand handlers ---------------------------------------------------------

def _cmd_roots(args):
    if args.exact_height and args.d is None:
        raise WeylstatError("--exact-height needs -d")
    rs = build(args.system)
    heights = rs.heights  # the roots come in catalog order: read ids and heights off it
    if args.d is None:
        roots, ids = rs.roots, range(len(rs))
    elif args.exact_height:
        roots, ids = rs.roots_of_height(args.d), [k for k, h in enumerate(heights) if h == args.d]
    else:
        roots, ids = rs.roots_up_to_height(args.d), [k for k, h in enumerate(heights) if h <= args.d]
    rows = [("id", "root", "height")]
    rows += [(k, rs.render_root(r), heights[k]) for k, r in zip(ids, roots, strict=True)]
    if args.format == "csv":
        return _csv_text(rows)
    if args.format == "json":
        return _json_text({
            "spec": str(rs.spec),
            "roots": [
                {"id": rid, "root": name, "height": h} for rid, name, h in rows[1:]
            ],
        })
    lines = [f"{str(rs.spec)}: {len(roots)} roots"]
    lines += [f"  {name}  (id {rid}, height {h})" for rid, name, h in rows[1:]]
    return "\n".join(lines) + "\n"


def _cmd_poset(args):
    rs = build(args.system)
    names = list(map(rs.render_root, rs.roots))  # each root once, indexed by id
    rows = [("lower", "upper")]
    rows += [(names[a], names[b]) for a, b in rs.covers]
    if args.format == "csv":
        return _csv_text(rows)
    if args.format == "json":
        return _json_text({
            "spec": str(rs.spec),
            "covers": [{"lower": a, "upper": b} for a, b in rows[1:]],
        })
    lines = [f"{str(rs.spec)}: {len(rows) - 1} cover relations"]
    lines += [f"  {a} < {b}" for a, b in rows[1:]]
    return "\n".join(lines) + "\n"


def _cmd_cov(args):
    from . import formulas

    rs = build(args.system)
    beta = rs.parse_root(args.beta)
    gamma = rs.parse_root(args.gamma)
    if args.method == "closed":
        value = formulas.cov_closed(rs, beta, gamma)
    elif args.method == "angle":
        value = formulas.cov_closed_angle(rs, beta, gamma)
    else:
        value = stats.exact_cov(rs, beta, gamma, cap=_cap(args))
    if args.format != "human":
        return _record_text({
            "spec": str(rs.spec), "beta": args.beta, "gamma": args.gamma,
            "method": args.method, "cov": str(value),
            "decimal": decimal_str(value),
        }, args.format)
    return f"{value} = {decimal_str(value)} [method {args.method}]\n"


def _cmd_wpartition(args):
    rs = build(args.system)
    c = stats.wpartition_counts(
        rs, rs.parse_root(args.beta), rs.parse_root(args.gamma), cap=_cap(args)
    )
    if args.format == "json":
        return _json_text({
            "spec": str(rs.spec), "beta": args.beta, "gamma": args.gamma,
            "pp": c.pp, "pm": c.pm, "mp": c.mp, "mm": c.mm, "total": c.total,
        })
    if args.format == "csv":
        return _csv_text([
            ("pp", "pm", "mp", "mm"), (c.pp, c.pm, c.mp, c.mm),
        ])
    return f"pp={c.pp} pm={c.pm} mp={c.mp} mm={c.mm} (|W| = {c.total})\n"


def _cmd_var(args):
    from . import formulas

    spec = parse_spec(args.family)
    if len(spec.components) != 1 or spec.components[0].family == "G2":
        raise WeylstatError("var takes a single classical family, e.g. A5 or B4")
    family = spec.components[0].family
    # formula convention: the number is the formula parameter n directly,
    # so A5 here means the degree-5 symmetric group (rank 4)
    n = spec.components[0].rank
    q = formulas.VarianceQuery(family, n, args.d, args.stat)
    value, branch = formulas.variance_with_branch(q)
    if args.method == "enumerate":
        # the catalog rank whose dimension is n; _dimension(family, r) - r is fixed per family
        rank = 2 * n - _dimension(family, n)
        rs = build(f"{family}{rank}")
        psi = stats.statistic_roots(rs, args.stat, args.d)
        enum_value = stats.exact_variance(rs, psi, cap=_cap(args))
        if enum_value != value:
            raise WeylstatError(
                f"formula {value} disagrees with enumeration {enum_value}"
            )
    if args.format != "human":
        return _record_text({
            "family": family, "n": n, "d": args.d, "statistic": args.stat,
            "variance": str(value), "decimal": decimal_str(value),
            "branch": branch,
        }, args.format)
    return f"{value} = {decimal_str(value)} [branch {branch}]\n"


def _cmd_dist(args):
    rs = build(args.system)
    psi = _psi_from_args(rs, args)
    hist = stats.exact_distribution(rs, psi, cap=_cap(args))
    if args.format == "csv":
        return _csv_text(stats.histogram_csv_rows(hist))
    if args.format == "json":
        return _json_text(stats.histogram_json(rs, psi, hist))
    lines = [f"value distribution over |W| = {sum(hist.values())} elements"]
    lines += [f"  {v}: {c}" for v, c in sorted(hist.items())]
    return "\n".join(lines) + "\n"


def _cmd_sample(args):
    rs = build(args.system)
    psi = _psi_from_args(rs, args)
    descriptor = None
    if args.psi is None:
        descriptor = {"stat": args.stat, "d": args.d}
    # only csv and json with values write them; the rest read the histogram
    keep_values = args.format == "csv" or (args.format == "json" and not args.no_values)
    run = stats.mc_run(
        rs, psi, args.samples, args.seed, threads=args.threads, descriptor=descriptor,
        keep_values=keep_values,
    )
    if args.format == "csv":
        return itertools.chain(["index,value\n"], _indexed_csv_pieces(run.samples))
    if args.format == "json":
        doc = run.to_json_dict(include_values=False)
        if not args.no_values:  # the array, in the key order of to_json_dict
            moments = doc.pop("moments")
            doc.update(values=run.samples, moments=moments)
        return _json_text(doc)
    return (
        f"{run.n_samples} samples, seed {run.seed}: mean {run.sample_mean}"
        f" (= {float(run.sample_mean):.6f}),"
        f" variance {run.sample_variance} (= {float(run.sample_variance):.6f})\n"
    )


def _cmd_clt(args):
    from . import clt as clt_mod

    rs = build(args.system)
    report = clt_mod.clt_report(rs, args.d, args.stat, args.samples, args.seed, threads=args.threads)
    if args.format == "csv":
        header = ("n", "d", "k", "delta", "variance", "ks", "bound")
        return _csv_text([header, report.csv_row(rs.spec.rank)])
    if args.format == "json":
        return _json_text(report.to_json_dict())
    lines = [
        f"system {report.spec}, {report.statistic}, d = {report.d}",
        f"  k = {report.k}, dependency degree = {report.delta}",
        f"  mean = {report.mean}, variance = {report.variance}"
        f" (= {float(report.variance):.6f})",
        f"  ks distance = {report.ks:.6f} ({report.n_samples} samples, seed {report.seed})",
        f"  rate bound k*delta^2/Var^(3/2) = {report.janson_m3:.6f}",
    ]
    if report.regime is not None:
        r = report.regime
        lines.append(f"  regime {r.regime} (r_A={r.r_a}, r_B={r.r_b}, r_C={r.r_c})")
        for bucket, rate, cond in r.rates:
            lines.append(f"    {bucket}-rate {rate:.6f} side condition {'holds' if cond else 'fails'}")
    return "\n".join(lines) + "\n"


def _cmd_depgraph(args):
    from . import depgraph as depgraph_mod

    rs = build(args.system)
    psi = _psi_from_args(rs, args)
    graph = depgraph_mod.build_graph(rs, psi)
    if args.format == "dot":
        return depgraph_mod.to_dot(rs, graph)
    if args.format == "json":
        names = depgraph_mod.vertex_names(rs, graph)
        return _json_text({
            "spec": str(rs.spec),
            "vertices": list(names.values()),
            "edges": [[names[a], names[b]] for a, b in graph.edges()],
            "max_degree": graph.max_degree,
            "component_sizes": list(graph.component_sizes),
        })
    if args.format == "csv":
        return _csv_text(depgraph_mod.edge_csv_rows(rs, graph))
    return (
        f"{len(graph.vertices)} vertices, {graph.edge_count} edges, "
        f"max degree {graph.max_degree}, components {list(graph.component_sizes)}\n"
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weylstat",
        description="Exact and sampled statistics of inversions and descents in finite Weyl groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="list the positive-root catalog")
    p.add_argument("system")
    p.add_argument("-d", type=_height, default=None, help="restrict to height <= d")
    p.add_argument("--exact-height", action="store_true", help="restrict to height == d")
    _add_common(p)
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("poset", help="emit the cover relations of the root poset")
    p.add_argument("system")
    _add_common(p)
    p.set_defaults(fn=_cmd_poset)

    p = sub.add_parser("cov", help="covariance of two root indicators")
    p.add_argument("system")
    p.add_argument("beta")
    p.add_argument("gamma")
    p.add_argument("--method", choices=("closed", "angle", "enumerate"), default="closed")
    _add_common(p, cap=True)
    p.set_defaults(fn=_cmd_cov)

    p = sub.add_parser("wpartition", help="sign-class sizes of the group for a root pair")
    p.add_argument("system")
    p.add_argument("beta")
    p.add_argument("gamma")
    _add_common(p, cap=True)
    p.set_defaults(fn=_cmd_wpartition)

    p = sub.add_parser("var", help="closed-form variance (formula convention: A is keyed by degree)")
    p.add_argument("family", help="e.g. A5 (degree-5 symmetric group) or B4")
    p.add_argument("--stat", choices=("descents", "inversions"), required=True)
    p.add_argument("-d", type=_integer, required=True)
    p.add_argument("--method", choices=("formula", "enumerate"), default="formula")
    _add_common(p, cap=True)
    p.set_defaults(fn=_cmd_var)

    for name, handler, needs_seed in (
        ("dist", _cmd_dist, False),
        ("sample", _cmd_sample, True),
        ("depgraph", _cmd_depgraph, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("system")
        p.add_argument("-d", type=_height, default=None)
        p.add_argument("--stat", choices=("descents", "inversions"), default="inversions")
        p.add_argument("--psi", nargs="+", default=None, help="explicit root list")
        if needs_seed:
            p.add_argument("--samples", type=_sample_count, required=True)
            p.add_argument("--seed", type=_integer, required=True)
            p.add_argument("--no-values", action="store_true",
                           help="json: leave out the values (csv and human ignore it)")
        # dot is depgraph's own format; of these three commands only dist enumerates
        dot = ("dot",) if name == "depgraph" else ()
        _add_common(p, formats=("human", "json", "csv", *dot), cap=name == "dist")
        p.set_defaults(fn=handler)

    p = sub.add_parser("clt", help="sample, standardize, KS distance and rate bound")
    p.add_argument("system")
    p.add_argument("-d", type=_height, required=True)
    p.add_argument("--stat", choices=("descents", "inversions"), default="inversions")
    p.add_argument("--samples", type=_sample_count, required=True)
    p.add_argument("--seed", type=_integer, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_clt)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _emit(args.fn(args), args.out)
    except (WeylstatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
