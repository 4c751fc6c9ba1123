"""The benchmark's workloads: the system each one builds and how it is invoked.

Why each workload was chosen is recorded in BENCHMARK.json at the
repository root.  CLI workloads run exactly as a user types them, always
with ``--threads 1``; ``{seed}`` is replaced by the benchmark's seed.
"""

# name -> (system built at set-up, CLI arguments or None for the library script)
WORKLOADS = {
    "clt_A499": ("A499", "clt A499 -d 1 --stat descents --samples 200000 --seed {seed} --format json --threads 1"),
    "exact_A9": ("A9", "dist A9 -d 3 --format json --threads 1"),
    "sample_B100xG2": ("B100xG2", "sample B100xG2 -d 5 --samples 400000 --seed {seed} --format json --threads 1"),
    "object_B5xG2": ("B5xG2", None),
}

OBJECT_SCRIPT = "perfbench/object_workload.py"


def system(name: str) -> str:
    return WORKLOADS[name][0]


def cli_args(name: str, seed: int) -> list[str] | None:
    """Arguments after ``weylstat``, or None for the library-script workload."""
    template = WORKLOADS[name][1]
    return None if template is None else template.format(seed=seed).split()
