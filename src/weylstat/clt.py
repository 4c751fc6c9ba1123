"""Empirical verification of asymptotic normality.

Provides standardization of sampled statistics, the Kolmogorov distance of a
standardized sample against the standard normal, the normal-approximation
criterion ``k * delta^(m-1) / Var^(m/2)`` with its m = 3 rate bound, and the
rank-regime classification that decides which convergence-rate bound applies
to a bounded-height inversion statistic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import depgraph, formulas, stats
from .errors import WeylstatError
from .rootsys import RootSystem
from .stats import SampleRun


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    ``math.erfc`` is evaluated by the platform libm to within a few ulp,
    far inside the 1e-10 absolute target; accuracy is pinned by a committed
    table of high-precision reference values.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def standardize(run: SampleRun | list, mean: Fraction, variance: Fraction) -> list[float]:
    """Center and scale sample values to unit variance, in double precision."""
    if variance <= 0:
        raise WeylstatError(f"variance must be positive, got {variance}")
    values = run.values if isinstance(run, SampleRun) else run
    mu = float(mean)
    sigma = math.sqrt(float(variance))
    return [(v - mu) / sigma for v in values]


def ks_distance(standardized: list[float]) -> float:
    """Sup distance between the empirical CDF and the standard normal.

    Evaluated at both one-sided limits of every sample point.
    """
    if not standardized:
        raise WeylstatError("cannot compute a KS distance of an empty sample")
    xs = sorted(standardized)
    m = len(xs)
    best = 0.0
    for i, x in enumerate(xs):
        phi = normal_cdf(x)
        best = max(best, abs((i + 1) / m - phi), abs(phi - i / m))
    return best


def _ks_over_atoms(counts, mean: Fraction, variance: Fraction) -> float:
    """``ks_distance(standardize(values, mean, variance))``, one step per distinct value.

    Sorted, the sample holds a value in one index range ``a..b-1``, where all
    points share one normal CDF value ``phi``.  The gaps ``|t/m - phi|`` for
    ``t`` in ``a..b`` are largest at ``t = a`` or ``t = b``, also after
    rounding, since rounded division and subtraction are monotone.  So the
    result is bit-identical to the per-point evaluation.  ``counts`` is the
    sample's histogram, ``counts[v]`` the number of values ``v`` (as
    ``np.bincount(values)`` or :attr:`stats.SampleRun.counts`).
    """
    if variance <= 0:
        raise WeylstatError(f"variance must be positive, got {variance}")
    counts = [int(c) for c in counts]
    m = sum(counts)
    if m == 0:
        raise WeylstatError("cannot compute a KS distance of an empty sample")
    mu = float(mean)
    sigma = math.sqrt(float(variance))
    best = 0.0
    a = 0
    for v, count in enumerate(counts):
        if not count:
            continue
        b = a + count
        phi = normal_cdf((v - mu) / sigma)
        best = max(best, abs(b / m - phi), abs(phi - a / m))
        a = b
    return best


def janson_criterion(k: int, delta: int, variance, m: int = 3) -> float:
    """The normal-approximation quantity ``k * delta^(m-1) / Var^(m/2)``.

    An edgeless family has delta = 0; it is replaced by 1 so the criterion
    stays a usable (non-vacuous) bound.  For m = 3 this is the convergence
    rate bound ``k * delta^2 * Var^(-3/2)``.
    """
    if m < 2:
        raise WeylstatError("criterion needs m >= 2")
    if variance <= 0:
        raise WeylstatError("criterion needs positive variance")
    return k * max(delta, 1) ** (m - 1) / float(variance) ** (m / 2)


class RegimeClassification(NamedTuple):
    """Rank mass per regime bucket and the three candidate rate bounds."""

    r_a: int
    r_b: int
    r_c: int
    regime: str  # bucket holding the largest rank mass: "A", "B" or "C"
    rates: tuple[tuple[str, float, bool], ...]  # (bucket, rate, side condition holds)


def classify_regime(component_ranks, d: int) -> RegimeClassification:
    """Partition components by rank versus d and report candidate rates.

    Buckets: rank < d (A), d <= rank <= d^2 (B), d^2 < rank (C).  The B rate
    ``r * d^(-3/2)`` carries the side condition ``d >= r^(2/3)`` and the C
    rate ``r^(-1/2) * d^(3/2)`` the condition ``d <= r^(1/3)``, both
    evaluated exactly in integers.
    """
    ranks = list(component_ranks)
    if d < 1 or any(r < 1 for r in ranks) or not ranks:
        raise WeylstatError("need positive d and at least one positive rank")
    r_a = sum(r for r in ranks if r < d)
    r_b = sum(r for r in ranks if d <= r <= d * d)
    r_c = sum(r for r in ranks if d * d < r)
    r = r_a + r_b + r_c
    buckets = {"A": r_a, "B": r_b, "C": r_c}
    regime = max("ABC", key=lambda key: (buckets[key], -ord(key)))
    try:
        rates = (
            ("A", r**-0.5, True),
            ("B", r * d**-1.5, d**3 >= r * r),
            ("C", r**-0.5 * d**1.5, d**3 <= r),
        )
    except OverflowError:
        raise WeylstatError(f"d of {d.bit_length()} bits overflows the floating-point rates") from None
    return RegimeClassification(r_a, r_b, r_c, regime, rates)


class CLTReport(NamedTuple):
    """One normality experiment: moments, sampled KS distance, rate bound."""

    spec: str
    statistic: str  # "descents" or "inversions"
    d: int
    k: int
    delta: int
    mean: Fraction
    variance: Fraction
    seed: int
    n_samples: int
    ks: float
    janson_m3: float
    regime: RegimeClassification | None

    def to_json_dict(self) -> dict:
        out = {
            "spec": self.spec,
            "statistic": self.statistic,
            "d": self.d,
            "k": self.k,
            "delta": self.delta,
            "mean": str(self.mean),
            "variance": str(self.variance),
            "seed": self.seed,
            "n": self.n_samples,
            "ks_distance": self.ks,
            "janson_m3": self.janson_m3,
        }
        if self.regime is not None:
            out["regime"] = {
                "r_a": self.regime.r_a,
                "r_b": self.regime.r_b,
                "r_c": self.regime.r_c,
                "regime": self.regime.regime,
                "rates": [
                    {"bucket": b, "rate": rate, "condition_holds": cond}
                    for b, rate, cond in self.regime.rates
                ],
            }
        return out

    def csv_row(self, rank: int):
        return (rank, self.d, self.k, self.delta, str(self.variance),
                repr(self.ks), repr(self.janson_m3))


def theoretical_variance(rs: RootSystem, d: int, statistic: str) -> Fraction:
    """Exact variance of the height-d statistic, one component at a time.

    A classical component takes the closed formula at the largest height
    among its roots of Psi (``d`` for descents, ``d`` clamped at its maximal
    height for inversions) and adds nothing without one.  A G2 component
    sums :func:`formulas.cov_closed` over the ordered pairs of its roots of
    Psi (``Var = sum Cov``, with ``Cov(beta, beta) = 1/4``), so nothing is
    enumerated.  Components act independently, so variances add.
    """
    psi = stats.statistic_roots(rs, statistic, d)  # also rejects an unknown statistic
    # Psi is in catalog order, by height within a component: the last root
    # of each component has the largest height.
    last = {r.component: r for r in psi}
    total = Fraction(0)
    for ci, top in last.items():
        comp = rs.spec.components[ci]
        if comp.family == "G2":
            own = [r for r in psi if r.component == ci]
            total += sum(formulas.cov_closed(rs, b, g) for b in own for g in own)
        else:
            q = formulas.VarianceQuery(comp.family, comp.dimension, rs.height(top), statistic)
            total += formulas.variance_with_branch(q)[0]
    return total


def clt_report(
    rs: RootSystem,
    d: int,
    statistic: str,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> CLTReport:
    """Run the sample-standardize-KS-criterion pipeline for one experiment."""
    psi = stats.statistic_roots(rs, statistic, d)
    if not psi:
        raise WeylstatError(f"no roots of height {'=' if statistic == 'descents' else '<='} {d}")
    # first, so that a run the sampling price refuses costs nothing else; the
    # KS distance reads the histogram alone, so no values are kept, and the
    # descriptor spares rendering every root of Psi
    counts = stats.mc_run(rs, psi, n_samples, seed, threads, descriptor={"stat": statistic, "d": d},
                          keep_values=False).counts
    mean = stats.exact_mean(rs, psi)
    variance = theoretical_variance(rs, d, statistic)
    delta = max(depgraph.degrees(rs, psi).values())
    ks = _ks_over_atoms(counts, mean, variance)
    crit = janson_criterion(len(psi), delta, variance, m=3)
    regime = None
    if statistic == "inversions":
        regime = classify_regime([c.rank for c in rs.spec.components], d)
    return CLTReport(
        spec=str(rs.spec),
        statistic=statistic,
        d=d,
        k=len(psi),
        delta=delta,
        mean=mean,
        variance=variance,
        seed=seed,
        n_samples=n_samples,
        ks=ks,
        janson_m3=crit,
        regime=regime,
    )
