import json
import math
import pathlib
from fractions import Fraction as F

import pytest

import weylstat as ws
from weylstat import clt, depgraph, stats

DATA = pathlib.Path(__file__).parent / "data"


def test_normal_cdf_against_reference_table():
    rows = json.loads((DATA / "normal_cdf_reference.json").read_text())
    assert len(rows) == 20
    for row in rows:
        assert abs(clt.normal_cdf(float(row["x"])) - float(row["phi"])) < 1e-10


def test_normal_cdf_symmetry():
    for x in (0.0, 0.31, 1.7, 2.9, 4.4):
        assert abs(clt.normal_cdf(x) + clt.normal_cdf(-x) - 1.0) < 1e-14
    assert clt.normal_cdf(0.0) == 0.5


def test_standardize_basics(systems):
    rs = systems("B3")
    run = stats.mc_run(rs, rs.roots_up_to_height(2), 500, seed=8)
    z = clt.standardize(run, run.sample_mean, F(1))
    assert len(z) == 500
    assert clt.standardize([3, 3, 3], F(3), F(4)) == [0.0, 0.0, 0.0]
    assert clt.standardize([1.0, -2.0], F(0), F(1)) == [1.0, -2.0]
    with pytest.raises(ws.WeylstatError):
        clt.standardize([1.0], F(0), F(0))


def test_standardized_sample_mean_near_zero(systems):
    rs = systems("A49")
    psi = rs.roots_of_height(1)
    run = stats.mc_run(rs, psi, 40_000, seed=421)
    mean = stats.exact_mean(rs, psi)
    var = clt.theoretical_variance(rs, 1, "descents")
    z = clt.standardize(run, mean, var)
    assert abs(sum(z) / len(z)) < 4 / math.sqrt(len(z))


def test_ks_distance_degenerate_sample():
    assert clt.ks_distance([0.0] * 1000) == 0.5


def test_ks_distance_on_exact_quantiles():
    m = 10**4
    # invert the normal cdf by bisection at the midpoint grid
    def quantile(p):
        lo, hi = -10.0, 10.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if clt.normal_cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    xs = [quantile((i - 0.5) / m) for i in range(1, m + 1)]
    assert clt.ks_distance(xs) <= 1e-4 + 1e-8


def test_ks_distance_sorting_invariant_and_positive(systems):
    rs = systems("B4")
    run = stats.mc_run(rs, rs.roots_up_to_height(3), 2000, seed=77)
    z = clt.standardize(run, stats.exact_mean(rs, run.values and rs.roots_up_to_height(3)),
                        stats.exact_variance(rs, rs.roots_up_to_height(3)))
    assert clt.ks_distance(z) == clt.ks_distance(list(reversed(z))) > 0
    with pytest.raises(ws.WeylstatError):
        clt.ks_distance([])


def test_ks_reported_value_stable_across_reruns(systems):
    rs = systems("B100")
    psi = rs.roots_up_to_height(5)
    mean = stats.exact_mean(rs, psi)
    var = clt.theoretical_variance(rs, 5, "inversions")
    values = []
    for _ in range(2):
        run = stats.mc_run(rs, psi, 10**5, seed=314159)
        values.append(clt.ks_distance(clt.standardize(run, mean, var)))
    assert values[0] == values[1]


def test_janson_criterion_examples():
    assert clt.janson_criterion(100, 3, 25, m=3) == pytest.approx(7.2)
    assert clt.janson_criterion(8, 0, 2, m=3) == pytest.approx(8 / 2**1.5)
    with pytest.raises(ws.WeylstatError):
        clt.janson_criterion(10, 2, 0, m=3)
    with pytest.raises(ws.WeylstatError):
        clt.janson_criterion(10, 2, 1, m=1)


@pytest.mark.parametrize("spec", ["A5", "B5", "C5", "D5", "G2"])
def test_antichain_rate_bound_algebraic(systems, spec):
    # for antichains: k * delta^2 / Var^(3/2) <= 9 * 12^1.5 * k^(-1/2)
    rs = systems(spec)
    limit_const = 9 * 12**1.5
    for ids in depgraph.antichains(rs):
        psi = [rs.roots[k] for k in ids]
        g = depgraph.build_graph(rs, psi)
        var = stats.exact_variance(rs, psi)
        crit = clt.janson_criterion(len(psi), g.max_degree, var, m=3)
        assert crit <= limit_const / math.sqrt(len(psi)) + 1e-12


def test_classify_regime_examples():
    rc = clt.classify_regime([100], 5)
    assert (rc.r_a, rc.r_b, rc.r_c, rc.regime) == (0, 0, 100, "C")
    c_rate = dict((b, (rate, cond)) for b, rate, cond in rc.rates)["C"]
    assert not c_rate[1]  # 5 > 100^(1/3): side condition fails
    rc = clt.classify_regime([100], 50)
    assert rc.regime == "B" and rc.r_b == 100
    assert dict((b, cond) for b, _, cond in rc.rates)["B"]  # 50 >= 100^(2/3)
    rc = clt.classify_regime([3, 3, 3], 5)
    assert rc.r_a == 9 and rc.regime == "A"


def test_classify_regime_refuses_rates_that_overflow_a_float():
    assert clt.classify_regime([3], 10**100).regime == "A"
    for d in (10**250, 10**400):
        with pytest.raises(ws.WeylstatError):
            clt.classify_regime([3], d)


def test_classify_regime_exact_boundaries():
    # bucket edges are inclusive on the B side: d <= rank <= d^2
    assert clt.classify_regime([9], 3).r_b == 9
    assert clt.classify_regime([3], 3).r_b == 3
    assert clt.classify_regime([10], 3).r_c == 10
    assert clt.classify_regime([2], 3).r_a == 2
    # the C side condition d^3 <= r is exact in integers
    assert dict((b, c) for b, _, c in clt.classify_regime([27], 3).rates)["C"]
    assert not dict((b, c) for b, _, c in clt.classify_regime([26], 3).rates)["C"]


def test_theoretical_variance_matches_enumeration(systems):
    for spec in ("A4", "B3", "C3", "D4", "G2", "A2xG2", "B2xD3"):
        rs = systems(spec)
        for d in (1, 2, 3):
            for stat in ("descents", "inversions"):
                psi = rs.roots_of_height(d) if stat == "descents" else rs.roots_up_to_height(d)
                if not psi:
                    continue
                assert clt.theoretical_variance(rs, d, stat) == stats.exact_variance(rs, psi), (spec, d, stat)


@pytest.mark.parametrize("spec", ["A5", "B3", "A5xG2"])
def test_theoretical_variance_rejects_an_unknown_statistic(systems, spec):
    with pytest.raises(ws.WeylstatError, match="unknown statistic 'bogus'"):
        clt.theoretical_variance(systems(spec), 2, "bogus")


def test_clt_report_fields_and_json(systems):
    rs = systems("B10")
    rep = clt.clt_report(rs, 3, "inversions", 5000, seed=62)
    assert rep.k == len(rs.roots_up_to_height(3))
    assert 0 <= rep.ks <= 1
    assert rep.janson_m3 > 0
    assert rep.regime is not None and rep.regime.regime in "ABC"
    blob = rep.to_json_dict()
    assert blob["spec"] == "B10" and blob["regime"]["rates"][0]["bucket"] == "A"
    des = clt.clt_report(rs, 1, "descents", 2000, seed=62)
    assert des.regime is None and des.delta <= 3
    row = rep.csv_row(rs.spec.rank)
    assert row[0] == 10 and row[1] == 3


def test_ks_regression_descents_decreasing(systems):
    # seeded regression at modest sample counts; the acceptance suite runs
    # the full-size version
    ks = []
    for rank in (9, 99):
        rs = systems(f"A{rank}")
        rep = clt.clt_report(rs, 1, "descents", 50_000, seed=1618)
        ks.append(rep.ks)
    assert ks[1] < ks[0]


@pytest.mark.parametrize("spec", ["G2", "A2xG2", "G2xB3", "G2xG2"])
def test_g2_variance_is_the_sum_of_pair_covariances(monkeypatch, systems, spec):
    rs = systems(spec)
    expected = {}
    for d in range(1, rs.max_height + 1):
        for stat in ("descents", "inversions"):
            psi = stats.statistic_roots(rs, stat, d)
            if psi:
                expected[d, stat] = stats.exact_variance(rs, psi)

    def refuse(*args, **kwargs):
        raise AssertionError("theoretical_variance enumerated the group")

    monkeypatch.setattr(stats, "exact_variance", refuse)
    monkeypatch.setattr(stats, "exact_distribution", refuse)
    for (d, stat), variance in expected.items():
        assert clt.theoretical_variance(rs, d, stat) == variance, (d, stat)


def test_clt_prices_the_run_before_any_other_work(monkeypatch):
    # 10^7 samples of A499's 9,790 roots of height <= 20 cost past the sampling
    # limit: the refusal comes before the variance and the degrees are read
    def refuse(*args, **kwargs):
        raise AssertionError("clt_report worked before pricing the run")

    monkeypatch.setattr(clt, "theoretical_variance", refuse)
    monkeypatch.setattr(depgraph, "degrees", refuse)
    with pytest.raises(ws.TooLargeError):
        clt.clt_report(ws.build("A499"), 20, "inversions", 10_000_000, seed=1)
