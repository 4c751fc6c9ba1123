"""weylstat benchmark: end-to-end CLI and library costs, and a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload clt_A499 --seed 7 --seconds 20 --trace 0

The workloads, and why each was chosen, are listed in BENCHMARK.json; the
commands they run are in ``workloads.py``.

``--trace 0`` (end to end, tracing off).  Every child is a fresh interpreter
started from this script, one at a time, with ``PYTHONPATH=src``:

* ``wall_s``, ``cpu_s``, ``peak_rss_mb``: medians over at least 3 invocations
  of the workload, continued while the next round is expected to end within
  ``--seconds``.  CPU time (user + sys) and peak RSS come from ``os.wait4``
  for that one child; ``RUSAGE_CHILDREN`` would be a running maximum over
  all children and hide a memory win.
* ``setup_s``: median wall time of a child that imports ``weylstat.cli`` and
  builds the workload's system.  Every invocation pays this before any
  statistic is computed.  Set-ups are interleaved with the invocations, at
  least 1 after each and together about a quarter of the invocations' time, so
  a drift in the host's speed affects both alike.

Times are calibrated for the host's speed.  On a shared host a core's speed
for the same code drifts by up to a factor of 2 over seconds to minutes, as
other tenants come and go, so raw times of identical code spread too far to
resolve a change.  The invocations and set-ups are therefore pinned to one
core, with this process, and while each child runs this process wakes every
``PROBE_INTERVAL_S`` to time a fixed piece of pure-Python work on that core
(``probe_s``, about 1 % of the core).  Each child's wall and CPU time is
multiplied by ``PROBE_NOMINAL_S`` over the mean probe time during it: the
time the child would take on a core that runs the probe in
``PROBE_NOMINAL_S``.  The probe never touches weylstat, so a change to the
program moves the calibrated times as it moves the raw ones.  The raw
medians and the median probe time are printed beside the result.

``--trace 1`` (per layer).  The same untraced invocations, then one traced
child (``traced.py``) that runs the workload in process with timing wrappers
installed from outside ``src/``.  Reports each layer's self time and counts,
``untraced_s`` (traced wall time not covered by any span) and
``trace.overhead_s`` (traced minus untraced wall time).  Counts are computed
from the arguments at each layer boundary, so they repeat exactly;
``*.row_bytes`` are computed bytes of int64 element rows, not measured
traffic.

Every child's output is checked against independent oracles
(``checks.py``).  A child that exits non-zero, times out or fails its check
counts as failed; ``failed_frac`` = failed / attempted over all children.

The last line of stdout is the JSON result; the lines before it print each
metric with its unit, and an environment stamp (git sha when the checkout is
a repository, a digest of ``src/``, nproc, Python and numpy versions, and
the 1-minute load average before and after the run).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

clock = time.monotonic

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CLI_SHIM = "import sys; from weylstat.cli import main; sys.argv[0] = 'weylstat'; main()"

MIN_INVOCATIONS = 3
MIN_SETUPS_PER_INVOCATION = 1
SETUP_SHARE = 0.25
CHILD_TIMEOUT_S = 60.0
PROBE_PERMS = list(itertools.permutations(range(7)))[:100]
PROBE_REVERSE = tuple(range(6, -1, -1))
PROBE_INTERVAL_S = 0.05
# A fixed scale, not a measurement: about the probe time on a quiet core of
# the 2-vCPU x86-64 VM (Xeon, 2.0 GHz) the benchmark was tuned on, where it
# read 0.35 to 0.9 ms as the host's load changed.
PROBE_NOMINAL_S = 0.0005
RUN_BUDGET_S = 170.0  # the whole run must end well inside 180 s

# Per-layer self times: metric -> span name.
LAYER_TIMES = {
    "import.s": "import",
    "rootsys.build.s": "rootsys.build",
    "rootsys.select.s": "rootsys.select",
    "weyl.enumerate_elements.s": "weyl.enumerate_elements",
    "weyl.inversion_set.s": "weyl.inversion_set",
    "weyl.compose.s": "weyl.compose",
    "stats.exact_distribution.s": "stats.exact_distribution",
    "stats.mc_run.s": "stats.mc_run",
    "depgraph.build_graph.s": "depgraph.build_graph",
    "clt.theoretical_variance.s": "clt.theoretical_variance",
    "clt.standardize.s": "clt.standardize",
    "clt.ks_distance.s": "clt.ks_distance",
    "clt.clt_report.self_s": "clt.clt_report",
    "cli.run.self_s": "cli.run",
}
LAYER_COUNTS = (
    "rootsys.build.roots",
    "weyl.elements",
    "stats.exact_distribution.elements",
    "stats.exact_distribution.row_bytes",
    "stats.mc_run.samples",
    "stats.mc_run.chunks",
    "stats.mc_run.indicator_evals",
    "stats.mc_run.row_bytes",
    "depgraph.pairs",
    "clt.ks_points",
)


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    scale: float  # host-speed calibration, PROBE_NOMINAL_S / mean probe time

    @property
    def wall_cal(self) -> float:
        return self.wall * self.scale

    @property
    def cpu_cal(self) -> float:
        return self.cpu * self.scale


def probe_s() -> float:
    """CPU time of a fixed piece of pure-Python work on this core: the host's current speed.

    The work resembles the workloads' own: it composes permutations, held
    as tuples, with the longest one and collects their inversion sets, in
    plain Python without weylstat.  Contention from the host's other
    tenants slows such tuple and set work more than a bare arithmetic loop,
    so the resemblance keeps the calibration close.  CPU time, not wall
    time, so that a probe preempted by the child it watches still reads the
    core's speed.
    """
    start, products, inversions = time.thread_time(), set(), 0
    for p in PROBE_PERMS:
        products.add(tuple(p[i] for i in PROBE_REVERSE))
        inversions += len({(a, b) for a in range(7) for b in range(a + 1, 7) if p[a] > p[b]})
    return time.thread_time() - start


class Run:
    """One benchmark run: its deadline, child environment and failure tally."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = clock() + RUN_BUDGET_S
        self.attempted = self.failed = 0
        self.probes: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        WORK.mkdir(exist_ok=True)

    def child(self, argv: list[str], check=None) -> Child:
        """Run one child to completion; ``check(out)`` returns a failure reason or None.

        While it runs, this process wakes every PROBE_INTERVAL_S to time
        ``probe_s``, and once before and once after it; their mean sets
        the child's calibration scale.
        """
        out_path = WORK / f"out-{os.getpid()}.txt"
        err_path = WORK / f"err-{os.getpid()}.txt"
        timeout = max(0.0, min(CHILD_TIMEOUT_S, self.deadline - clock()))
        timed_out = False
        probes = [probe_s()]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = clock()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                exited = os.pidfd_open(proc.pid)
                try:
                    while not select.select([exited], [], [], PROBE_INTERVAL_S)[0]:
                        if clock() - spawned >= timeout:
                            timed_out = True
                            proc.kill()
                            break
                        probes.append(probe_s())
                    wall = clock() - spawned
                finally:
                    os.close(exited)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        probes.append(probe_s())
        self.probes.extend(probes)
        output = out_path.read_bytes()
        reason = None
        if timed_out:
            reason = f"timed out after {timeout:.0f} s"
        elif proc.returncode != 0:
            reason = f"exit status {proc.returncode}: {err_path.read_text(errors='replace')[-500:]}"
        elif check is not None:
            reason = check(output)
        out_path.unlink()
        err_path.unlink()
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"FAILED {self.workload}, child {self.attempted}: {reason}", file=sys.stderr)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
                     PROBE_NOMINAL_S / statistics.fmean(probes))

    def out_of_time(self) -> bool:
        return clock() >= self.deadline - 1.0

    def workload_argv(self) -> list[str]:
        args = workloads.cli_args(self.workload, self.seed)
        if args is None:
            return [sys.executable, workloads.OBJECT_SCRIPT]
        return [sys.executable, "-c", CLI_SHIM, *args]

    def check_output(self, out: bytes) -> str | None:
        return checks.check(self.workload, out, self.seed)

    def setup_argv(self) -> list[str]:
        code = (f"import weylstat.cli; from weylstat.rootsys import build; "
                f"build({workloads.system(self.workload)!r})")
        return [sys.executable, "-c", code]

    def measure(self, seconds: float, with_setups: bool) -> tuple[list[Child], list[Child]]:
        """Invocations for about ``seconds``, and the set-ups taken between them.

        After each invocation, at least MIN_SETUPS_PER_INVOCATION set-ups
        run, and more until their total time reaches SETUP_SHARE of the
        invocations' total, so both sample the same stretch of the host's
        speed.  A further round starts while it is expected to end within
        ``seconds``.  This process and its children stay on one core
        meanwhile, the one ``probe_s`` times.  Returns (set-ups,
        invocations).
        """
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(allowed)})
        try:
            argv, setup_argv, start = self.workload_argv(), self.setup_argv(), clock()
            setups, done = [], []
            while not self.out_of_time() and (
                len(done) < MIN_INVOCATIONS
                or (clock() - start) * (len(done) + 1) / len(done) <= seconds
            ):
                done.append(self.child(argv, self.check_output))
                target = SETUP_SHARE * sum(c.wall for c in done)
                while with_setups and not self.out_of_time() and (
                    len(setups) < MIN_SETUPS_PER_INVOCATION * len(done)
                    or sum(c.wall for c in setups) < target
                ):
                    setups.append(self.child(setup_argv))
        finally:
            os.sched_setaffinity(0, allowed)
        return setups, done

    def traced(self, untraced_wall: float) -> dict[str, float]:
        trace_path = WORK / f"trace-{os.getpid()}.json"
        argv = [sys.executable, "perfbench/traced.py", self.workload, str(self.seed), str(trace_path)]
        trace = {}

        def check(out: bytes) -> str | None:
            if not trace_path.is_file():
                return "traced run wrote no trace"
            trace.update(json.loads(trace_path.read_text()))
            if not all(inv["identical"] for inv in trace["invariance"]):
                return "mc_run output differs between threads=1 and threads=2"
            return self.check_output(out)

        child = self.child(argv, check)
        trace_path.unlink(missing_ok=True)
        if not trace:
            return {}
        return layer_metrics(trace, child, untraced_wall)


def layer_metrics(trace: dict, child: Child, untraced_wall: float) -> dict[str, float]:
    self_s, counts = trace["self_s"], trace["counts"]
    m = {k: self_s.get(span, 0.0) for k, span in LAYER_TIMES.items()}
    m.update({k: counts.get(k, 0) for k in LAYER_COUNTS})

    def rate(count: str, seconds: str) -> float:
        return m[count] / m[seconds] if m[seconds] > 0 else 0.0

    m["stats.exact_distribution.elements_per_s"] = rate("stats.exact_distribution.elements",
                                                        "stats.exact_distribution.s")
    m["stats.mc_run.evals_per_s"] = rate("stats.mc_run.indicator_evals", "stats.mc_run.s")
    inv = trace["invariance"]
    m["stats.mc_run.t2_speedup"] = (
        sum(i["t1_s"] for i in inv) / sum(i["t2_s"] for i in inv) if inv else 0.0
    )
    # Traced wall time up to interpreter exit, minus the thread-invariance
    # repeat that follows the workload in the same child.
    wall = child.wall - (trace["t_extra_end"] - trace["t_done"])
    m["trace.overhead_s"] = wall - untraced_wall
    m["untraced_s"] = wall - trace["top_s"]
    return m


def env_stamp() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    workload_names = list(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workload_names, required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "weylstat" / "cli.py").is_file():
        print(f"error: no weylstat sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    env = env_stamp()
    env["loadavg_1m_before"] = os.getloadavg()[0]

    run = Run(args.workload, args.seed)
    # Warm the file cache and compile bytecode once, untimed: users do not
    # pay these on every run.
    subprocess.run([sys.executable, "-c", "import weylstat.cli"], env=run.env, cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S)
    setups, done = run.measure(args.seconds, with_setups=not args.trace)
    metrics, notes = {}, {}
    if not done or not (args.trace or setups):
        print(f"FAILED {args.workload}: out of time before a measurement ended", file=sys.stderr)
    elif args.trace:
        metrics = run.traced(statistics.median(c.wall for c in done))
        notes = {k: "traced run, 1 invocation" for k in metrics}
    else:
        n = f"median of {len(done)} invocations"

        def raw(children, attr):
            return f"calibrated; raw median {statistics.median(getattr(c, attr) for c in children):.3f} s"

        metrics = {
            "wall_s": statistics.median(c.wall_cal for c in done),
            "cpu_s": statistics.median(c.cpu_cal for c in done),
            "peak_rss_mb": statistics.median(c.rss_mb for c in done),
            "setup_s": statistics.median(c.wall_cal for c in setups),
        }
        notes = {"wall_s": f"{n}, {raw(done, 'wall')}", "cpu_s": f"{n}, {raw(done, 'cpu')}",
                 "peak_rss_mb": n, "setup_s": f"median of {len(setups)} set-ups, {raw(setups, 'wall')}"}
    env["loadavg_1m_after"] = os.getloadavg()[0]
    if run.probes:
        env["probe_s_median"] = statistics.median(run.probes)
        env["probe_count"] = len(run.probes)

    correct = run.failed == 0 and set(metrics) == set(units)
    for name in units:
        if name in metrics:
            print(f"{name:<40} {metrics[name]:>16.6f} {units[name]:<15} {notes[name]}")
    print(f"{'failed_frac':<40} {run.failed / max(run.attempted, 1):>16.6f} {'1':<15} "
          f"{run.failed} of {run.attempted} child processes")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
