"""Traced in-process run of one workload, for the per-layer split.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/traced.py WORKLOAD SEED TRACE_JSON

Imports weylstat, then installs timing wrappers on the public entry points of
each module from outside: every module-level alias of a wrapped function in
the loaded ``weylstat`` modules is rebound (``cli`` holds its own ``build``,
``clt`` calls ``standardize`` by its global name), and catalog methods are
wrapped on the class.  ``src/`` is not modified.  Per-root helpers such as
``apply`` and ``index`` are not wrapped: their call counts run into the
millions and would swamp the trace.

Spans (name, start, end, parent) are kept in memory; self time is a span's
duration minus the time its child spans cover.  It includes freeing what
the call's locals held: ``cli.run`` frees the catalog, as it does untraced.
The single-threaded workload calls every wrapped function from the main
thread, so one stack suffices.

After the workload, each ``mc_run`` call is repeated unwrapped with
``threads=2`` on a freshly built catalog, and its result compared with the
traced ``threads=1`` one: the CLI promises identical output for any thread
count.  That repeat is excluded from the traced wall time.

Everything is written to TRACE_JSON; stdout carries the workload's own
output, exactly as an untraced run prints it.  Timestamps use
``time.monotonic`` (CLOCK_MONOTONIC, shared with the parent process).
"""

import functools
import inspect
import sys
import time

clock = time.monotonic


class Tracer:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.originals = {}
        self.mc_calls = []  # (system, arguments other than rs, result, span)

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = clock()
        return span

    def _close(self, span):
        span[2] = clock()
        self.stack.pop()

    def wrap(self, name, fn, on_return=None):
        """Time ``fn``; ``on_return(arguments, result, span)`` sees each call."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_return is not None:
                on_return(signature.bind(*args, **kwargs).arguments, result, span)
            return result

        return wrapper

    def wrap_iterator(self, name, fn, per_item):
        """Time each resumption of the iterator ``fn`` returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._iterate(name, iter(fn(*args, **kwargs)), per_item)

        return wrapper

    def _iterate(self, name, iterator, per_item):
        while True:
            span = self._open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(span)
            self.count(per_item, 1)
            yield item

    def self_times(self):
        """Self seconds per span name, and the total of the top-level spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out, top = {}, 0.0
        for (name, start, end, parent), cov in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + end - start - cov
            if parent < 0:
                top += end - start
        return out, top


def _install(tracer, targets):
    """Wrap each target and rebind every alias of it in the weylstat modules."""
    modules = [m for k, m in sys.modules.items() if k == "weylstat" or k.startswith("weylstat.")]
    for owner, attr, name, hook in targets:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(hook, str):
            wrapper = tracer.wrap_iterator(name, original, hook)
        else:
            wrapper = tracer.wrap(name, original, hook)
        tracer.originals[attr] = original
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        rebound = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    rebound += 1
        if not rebound:
            raise RuntimeError(f"no alias of {name} found to wrap")


def _targets(tracer):
    """(owner, attribute, span name, hook).

    A hook is called with each call's arguments, result and span.  A string
    in its place names the item counter of a function that returns an
    iterator; every resumption of that iterator is then timed as a span.
    """
    import math

    import checks
    from weylstat import cli, clt, depgraph, rootsys, stats, weyl

    def psi_size(psi):
        return len(set(psi))

    def on_build(arguments, rs, span):
        tracer.count("rootsys.build.roots", len(rs.roots))

    def on_exact(arguments, hist, span):
        # Work the exact path does: each component holding a root of psi is
        # enumerated once, as rows of `dimension` int64 values (G2 by table).
        rs, psi = arguments["rs"], arguments["psi"]
        for ci in {r.component for r in psi}:
            comp = rs.spec.components[ci]
            order = checks.group_order(str(comp))
            tracer.count("stats.exact_distribution.elements", order)
            if comp.family != "G2":
                tracer.count("stats.exact_distribution.row_bytes", order * comp.dimension * 8)

    def on_mc(arguments, run, span):
        rs, psi, n = arguments["rs"], arguments["psi"], arguments["n_samples"]
        width = sum(1 if c.family == "G2" else c.dimension for c in rs.spec.components)
        tracer.count("stats.mc_run.samples", n)
        tracer.count("stats.mc_run.chunks", math.ceil(n / stats.CHUNK_SAMPLES))
        tracer.count("stats.mc_run.indicator_evals", n * psi_size(psi))
        tracer.count("stats.mc_run.row_bytes", n * width * 8)
        # Keep the catalog out of the capture: holding it would move its
        # deallocation from cli.run into interpreter exit.
        others = {k: v for k, v in arguments.items() if k != "rs"}
        tracer.mc_calls.append((str(rs.spec), others, run, span))

    def on_graph(arguments, graph, span):
        k = psi_size(arguments["psi"])
        tracer.count("depgraph.pairs", k * (k - 1) // 2)

    def on_ks(arguments, result, span):
        tracer.count("clt.ks_points", len(arguments["standardized"]))

    return [
        (rootsys, "build", "rootsys.build", on_build),
        (rootsys.RootSystem, "roots_of_height", "rootsys.select", None),
        (rootsys.RootSystem, "roots_up_to_height", "rootsys.select", None),
        (weyl, "enumerate_elements", "weyl.enumerate_elements", "weyl.elements"),
        (weyl, "inversion_set", "weyl.inversion_set", None),
        (weyl, "compose", "weyl.compose", None),
        (stats, "exact_distribution", "stats.exact_distribution", on_exact),
        (stats, "mc_run", "stats.mc_run", on_mc),
        (depgraph, "build_graph", "depgraph.build_graph", on_graph),
        (clt, "theoretical_variance", "clt.theoretical_variance", None),
        (clt, "standardize", "clt.standardize", None),
        (clt, "ks_distance", "clt.ks_distance", on_ks),
        (clt, "clt_report", "clt.clt_report", None),
        (cli, "run", "cli.run", None),
    ]


def _thread_invariance(tracer):
    """Repeat each traced mc_run with threads=2; compare with threads=1."""
    build, mc_run = tracer.originals["build"], tracer.originals["mc_run"]
    out = []
    for system, arguments, run, (_, start, end, _) in tracer.mc_calls:
        rs = build(system)
        t0 = clock()
        run2 = mc_run(rs, **dict(arguments, threads=2))
        t2 = clock() - t0
        out.append({
            "t1_s": end - start,
            "t2_s": t2,
            "identical": run2.to_json_dict() == run.to_json_dict(),
        })
    return out


def main(argv):
    import workloads

    workload, seed, trace_path = argv[0], int(argv[1]), argv[2]
    args = workloads.cli_args(workload, seed)
    t0 = clock()
    # What the untraced run imports: the CLI module, or the package for the script.
    __import__("weylstat" if args is None else "weylstat.cli")
    t1 = clock()

    import json

    import object_workload
    import weylstat

    tracer = Tracer()
    tracer.spans.append(["import", t0, t1, -1])
    _install(tracer, _targets(tracer))

    if args is None:
        sys.stdout.write(json.dumps(object_workload.run(weylstat)) + "\n")
        status = 0
    else:
        status = weylstat.cli.run(args)
    sys.stdout.flush()
    t_done = clock()

    invariance = _thread_invariance(tracer)
    self_s, top = tracer.self_times()
    t_extra_end = clock()
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump({
            "t_done": t_done,
            "t_extra_end": t_extra_end,
            "self_s": self_s,
            "top_s": top,
            "counts": tracer.counts,
            "invariance": invariance,
        }, f)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
