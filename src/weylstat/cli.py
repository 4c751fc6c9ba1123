"""Command-line surface: reproducible experiment driver and file emitter.

Output contract: identical argv (and seed) produce byte-identical output for
any ``--threads`` value.  CSV is RFC-4180 style with a header row and LF line
endings; JSON is UTF-8 with a stable key order.  The commands that enumerate
group elements (``dist``, ``cov``, ``wpartition``, ``var``) take the
enumeration cap from ``--cap`` or the ``WEYLSTAT_CAP`` environment variable;
the others have no ``--cap`` option and refuse it as a usage error.

System arguments use the rank grammar (``A4``, ``B10``, ``G2``, ``A3xB4``)
except for ``var``, whose family parameter follows the formula convention:
``var A5`` refers to the degree-5 symmetric group (rank 4).  For the other
families rank and formula parameter coincide.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

# clt, depgraph and formulas are imported by the handlers that use them, so a
# command compiles and runs only the modules it needs.
from . import stats
from .errors import WeylstatError
from .rootsys import DEFAULT_CAP, build, parse_spec

MAX_THREADS = 64
# A sample run holds its values in one array of 1, 2 or 8 bytes per sample,
# and counting them casts it to 8-byte ints for a moment.  At 10**7 samples
# `sample B100xG2 -d 5` peaks at about 130 MB (human) and 260 MB (json); csv
# also builds a row of Python ints per sample, about 120 MB per 10**6 samples.
MAX_SAMPLES = 10**7


def decimal_str(x: Fraction, digits: int = 20) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=1)`` and a newline, written at C speed.

    With an indent, ``json.dumps`` runs the pure-Python encoder.  This writes
    the same text: a non-empty list of plain ints is re-indented from its
    ``repr``, dicts with ``str`` keys and other non-empty lists and tuples
    recurse, and every other value goes through ``json.dumps`` and is
    re-indented.  A 1-D integer array is written as ``json.dumps`` writes
    its ``tolist()``, from a table of each distinct value's text.
    """
    return _json_value(obj, "") + "\n"


def _json_value(obj, pad: str) -> str:
    inner = pad + " "
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iu":
        lo, hi = (int(obj.min()), int(obj.max())) if len(obj) else (0, 0)
        if hi - lo < len(obj) and np.can_cast(obj.dtype, np.intp):
            # One NUL-padded record "<value>,<newline><indent>" per value in
            # lo..hi, gathered in sample order; the padding is then dropped.
            sep = ",\n" + inner
            table = np.array([f"{v}{sep}".encode() for v in range(lo, hi + 1)])
            body = table[np.subtract(obj, lo, dtype=np.intp)].tobytes().replace(b"\0", b"")
            return "[\n" + inner + body[: -len(sep)].decode() + "\n" + pad + "]"
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {int}:
            # The repr of a list of ints, "[1, 2]", is written in C; only the
            # separators need re-indenting.  A 1-tuple's repr has a trailing comma.
            body = repr(list(obj))[1:-1].replace(", ", ",\n" + inner)
            return "[\n" + inner + body + "\n" + pad + "]"
        items = (_json_value(v, inner) for v in obj)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict) and obj and set(map(type, obj)) == {str}:
        items = (json.dumps(k) + ": " + _json_value(v, inner) for k, v in obj.items())
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    # JSON strings escape newlines, so every newline here is between lines.
    return json.dumps(obj, indent=1).replace("\n", "\n" + pad)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _psi_from_args(rs, args):
    if args.psi:
        return [rs.parse_root(t) for t in args.psi]
    if args.d is None:
        raise WeylstatError("need either -d or --psi")
    return list(stats.statistic_roots(rs, args.stat, args.d))


def _count_up_to(text: str, limit: int) -> int:
    value = int(text)
    if not 1 <= value <= limit:
        raise argparse.ArgumentTypeError(f"must be between 1 and {limit}, got {value}")
    return value


def _thread_count(text: str) -> int:
    return _count_up_to(text, MAX_THREADS)


def _sample_count(text: str) -> int:
    return _count_up_to(text, MAX_SAMPLES)


def _height(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p, formats=("human", "json", "csv"), cap=False):
    p.add_argument("--format", choices=formats, default="human")
    p.add_argument("--out", help="write output to this file instead of stdout")
    if cap:
        p.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    p.add_argument("--threads", type=_thread_count, default=1, help="worker threads (sample, clt)")


def _cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("WEYLSTAT_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        return int(env)
    except ValueError:
        raise WeylstatError(f"WEYLSTAT_CAP must be an integer, got {env!r}") from None


# -- subcommand handlers ---------------------------------------------------------

def _cmd_roots(args):
    if args.exact_height and args.d is None:
        raise WeylstatError("--exact-height needs -d")
    rs = build(args.system)
    if args.d is None:
        roots = rs.roots
    elif args.exact_height:
        roots = rs.roots_of_height(args.d)
    else:
        roots = rs.roots_up_to_height(args.d)
    rows = [("id", "root", "height")]
    rows += [(rs.index(r), rs.render_root(r), rs.height(r)) for r in roots]
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
    rows = [("lower", "upper")]
    rows += [
        (rs.render_root(rs.roots[a]), rs.render_root(rs.roots[b]))
        for a, b in rs.covers
    ]
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
    if args.format == "json":
        return _json_text({
            "spec": str(rs.spec), "beta": args.beta, "gamma": args.gamma,
            "method": args.method, "cov": str(value),
            "decimal": decimal_str(value),
        })
    if args.format == "csv":
        return _csv_text([
            ("spec", "beta", "gamma", "method", "cov", "decimal"),
            (str(rs.spec), args.beta, args.gamma, args.method,
             str(value), decimal_str(value)),
        ])
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
        rank = n - 1 if family == "A" else n
        rs = build(f"{family}{rank}")
        psi = stats.statistic_roots(rs, args.stat, args.d)
        enum_value = stats.exact_variance(rs, psi, cap=_cap(args))
        if enum_value != value:
            raise WeylstatError(
                f"formula {value} disagrees with enumeration {enum_value}"
            )
    if args.format == "json":
        return _json_text({
            "family": family, "n": n, "d": args.d, "statistic": args.stat,
            "variance": str(value), "decimal": decimal_str(value),
            "branch": branch,
        })
    if args.format == "csv":
        return _csv_text([
            ("family", "n", "d", "statistic", "variance", "decimal", "branch"),
            (family, n, args.d, args.stat, str(value), decimal_str(value), branch),
        ])
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
    run = stats.mc_run(
        rs, psi, args.samples, args.seed, threads=args.threads, descriptor=descriptor
    )
    if args.format == "csv":
        rows = [("index", "value")] + [(i, v) for i, v in enumerate(run.values)]
        return _csv_text(rows)
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
        return _json_text({
            "spec": str(rs.spec),
            "vertices": [rs.render_root(rs.root(v)) for v in graph.vertices],
            "edges": [
                [rs.render_root(rs.root(a)), rs.render_root(rs.root(b))]
                for a, b in graph.edges()
            ],
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
    p.add_argument("-d", type=int, required=True)
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
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--no-values", action="store_true")
        # dot is depgraph's own format; of these three commands only dist enumerates
        dot = ("dot",) if name == "depgraph" else ()
        _add_common(p, formats=("human", "json", "csv", *dot), cap=name == "dist")
        p.set_defaults(fn=handler)

    p = sub.add_parser("clt", help="sample, standardize, KS distance and rate bound")
    p.add_argument("system")
    p.add_argument("-d", type=_height, required=True)
    p.add_argument("--stat", choices=("descents", "inversions"), default="inversions")
    p.add_argument("--samples", type=_sample_count, required=True)
    p.add_argument("--seed", type=int, required=True)
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
