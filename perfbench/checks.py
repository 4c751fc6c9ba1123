"""Output checks for the benchmark workloads, against independent oracles.

Nothing here imports weylstat: every expected value is either pinned from a
known-good commit or derived from classical results (Eulerian numbers,
Kostant's height/exponent duality, Poincare polynomials from the degrees of
the basic invariants).  Checks on seeded workloads hold for any seed, so a
change that alters the sample stream on purpose still passes them.

Each check takes the child's stdout bytes and the workload seed and returns
``None`` when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache

# Probability that a correct sampler fails a KS check, by the DKW-Massart
# inequality; the resulting band is still far below the 0.0308 floor.
DKW_ALPHA = 1e-6
# Standard errors allowed between a sample moment and its exact value.
MOMENT_Z = 6.0

# sha256 of `weylstat dist A9 -d 3 --format json`: the exact path is
# integer and its output byte-identical across changes.
EXACT_A9_SHA256 = "c8ed38bec56fce0eae59657b7a9210ac7acaf1b292977f45fa84d7cbcd90aa45"

# Degrees of the basic invariants (Humphreys, Reflection Groups and Coxeter
# Groups, 3.7); the exponents are the degrees minus one.
_DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: list(range(2, 2 * n + 1, 2)),
    "C": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: list(range(2, 2 * n - 1, 2)) + [n],
    "G2": lambda n: [2, 6],
}


def parse_system(text: str) -> list[tuple[str, int]]:
    """``"B100xG2"`` -> ``[("B", 100), ("G2", 2)]``."""
    out = []
    for token in text.split("x"):
        if token == "G2":
            out.append(("G2", 2))
        else:
            out.append((token[0], int(token[1:])))
    return out


def degrees(system: str) -> list[int]:
    return [d for fam, n in parse_system(system) for d in _DEGREES[fam](n)]


def group_order(system: str) -> int:
    return math.prod(degrees(system))


def positive_roots(system: str) -> int:
    return sum(d - 1 for d in degrees(system))


def roots_up_to_height(system: str, d: int) -> int:
    """|{roots of height <= d}|: height h has as many roots as exponents >= h."""
    exps = [deg - 1 for deg in degrees(system)]
    return sum(sum(1 for m in exps if m >= h) for h in range(1, d + 1))


def poincare_coefficients(system: str) -> list[int]:
    """Coefficients of prod_i [d_i]_q, the generating function of length."""
    poly = [1]
    for deg in degrees(system):
        out = [0] * (len(poly) + deg - 1)
        for k, c in enumerate(poly):
            for j in range(deg):
                out[k + j] += c
        poly = out
    return poly


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_of_law(hist: dict[int, int], mean: Fraction, variance: Fraction) -> float:
    """Kolmogorov distance of an exact integer law from the fitted normal.

    Evaluated at both one-sided limits of every atom, as a sampled KS is.
    """
    total = sum(hist.values())
    mu, sigma = float(mean), math.sqrt(float(variance))
    best, below = 0.0, 0
    for v in sorted(hist):
        phi = normal_cdf((v - mu) / sigma)
        at = below + hist[v]
        best = max(best, abs(below / total - phi), abs(at / total - phi))
        below = at
    return best


@lru_cache(maxsize=None)
def eulerian_ks_floor(n: int) -> float:
    """KS distance of the exact descent law of S_n from its normal fit.

    Eulerian recurrence A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1);
    mean (n-1)/2, variance (n+1)/12.
    """
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < m - 1 else 0) + (m - k) * (row[k - 1] if k else 0)
            for k in range(m)
        ]
    return ks_of_law(dict(enumerate(row)), Fraction(n - 1, 2), Fraction(n + 1, 12))


def dkw_band(n: int, alpha: float = DKW_ALPHA) -> float:
    return math.sqrt(math.log(2 / alpha) / (2 * n))


class CheckError(Exception):
    pass


def _json(out: bytes):
    try:
        return json.loads(out)
    except ValueError as e:
        raise CheckError(f"output is not JSON: {e}") from None


def _expect(doc: dict, key: str, want):
    if doc.get(key) != want:
        raise CheckError(f"{key} = {doc.get(key)!r}, want {want!r}")


def check_clt_a499(out: bytes, seed: int) -> None:
    doc = _json(out)
    for key, want in (("spec", "A499"), ("statistic", "descents"), ("d", 1),
                      ("k", 499), ("delta", 2), ("mean", "499/2"),
                      ("variance", "167/4"), ("seed", seed), ("n", 200_000)):
        _expect(doc, key, want)
    floor, band = eulerian_ks_floor(500), dkw_band(doc["n"])
    ks = doc.get("ks_distance")
    if not isinstance(ks, float) or abs(ks - floor) > band:
        raise CheckError(f"ks_distance {ks!r} is not within {band:.5f} of the exact floor {floor:.6f}")


def check_exact_a9(out: bytes, seed: int) -> None:
    doc = _json(out)
    counts = {v: c for v, c in doc["counts"]}
    if sum(counts.values()) != math.factorial(10) or doc["n"] != math.factorial(10):
        raise CheckError(f"counts sum to {sum(counts.values())}, want 10!")
    mean = Fraction(sum(v * c for v, c in counts.items()), math.factorial(10))
    if mean != 12 or doc["moments"]["mean"] != "12":
        raise CheckError(f"mean {mean} / {doc['moments']['mean']!r}, want 12")
    digest = hashlib.sha256(out).hexdigest()
    if digest != EXACT_A9_SHA256:
        raise CheckError(f"stdout sha256 {digest} differs from the pinned output")


def check_sample_b100xg2(out: bytes, seed: int) -> None:
    doc = _json(out)
    n, k = 400_000, roots_up_to_height("B100xG2", 5)
    for key, want in (("spec", "B100xG2"), ("psi", {"stat": "inversions", "d": 5}),
                      ("seed", seed), ("n", n)):
        _expect(doc, key, want)
    values = doc["values"]
    if len(values) != n:
        raise CheckError(f"{len(values)} values, want {n}")
    hist: dict[int, int] = {}
    for v in values:
        hist[v] = hist.get(v, 0) + 1
    if not all(isinstance(v, int) and 0 <= v <= k for v in hist):
        raise CheckError(f"a value lies outside [0, {k}]")
    s1 = sum(v * c for v, c in hist.items())
    s2 = sum(v * v * c for v, c in hist.items())
    mean = Fraction(s1, n)
    variance = Fraction(n * s2 - s1 * s1, n * (n - 1))
    if doc["moments"] != {"mean": str(mean), "variance": str(variance)}:
        raise CheckError(f"emitted moments {doc['moments']} differ from the values' {mean}, {variance}")
    # var_inversions(B, 100, 5) = 183/4, plus the G2 length variance
    # (3 + 35)/12 = 19/6 from [2]_q [6]_q.
    want_var = Fraction(183, 4) + Fraction(19, 6)
    m, var = float(mean), float(variance)
    m4 = sum((v - m) ** 4 * c for v, c in hist.items()) / n
    se_mean = math.sqrt(float(want_var) / n)
    se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
    if abs(m - k / 2) > MOMENT_Z * se_mean:
        raise CheckError(f"sample mean {m:.4f} is more than {MOMENT_Z} SE from {k / 2}")
    if abs(var - float(want_var)) > MOMENT_Z * se_var:
        raise CheckError(f"sample variance {var:.4f} is more than {MOMENT_Z} SE from {float(want_var):.4f}")


def check_object_b5xg2(out: bytes, seed: int) -> None:
    doc = _json(out)
    system = "B5xG2"
    order, big_n = group_order(system), positive_roots(system)
    hist = dict(doc["length_hist"])
    poincare = dict(enumerate(poincare_coefficients(system)))
    if hist != poincare:
        raise CheckError("length histogram differs from the Poincare polynomial")
    total = sum(length * c for length, c in hist.items())
    if doc["total_inversions"] != total or total != order * big_n // 2:
        raise CheckError(f"total inversions {doc['total_inversions']}, want {order * big_n // 2}")
    if doc["distinct_products"] != order:
        raise CheckError(f"w -> w*w0 hit {doc['distinct_products']} elements, want {order}")


CHECKS = {
    "clt_A499": check_clt_a499,
    "exact_A9": check_exact_a9,
    "sample_B100xG2": check_sample_b100xg2,
    "object_B5xG2": check_object_b5xg2,
}


def check(workload: str, out: bytes, seed: int) -> str | None:
    """Reason the output is wrong, or ``None`` when it passes."""
    try:
        CHECKS[workload](out, seed)
    except CheckError as e:
        return str(e)
    except (KeyError, TypeError, ValueError) as e:
        return f"malformed output: {e!r}"
    return None
