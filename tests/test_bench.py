import pytest

from cyclemod import bench
from cyclemod.bench import (
    MIN_REPS,
    WARMUP_PASSES,
    TimingStats,
    compare_report,
    count_iterations,
    time_inversion,
)
from cyclemod.errors import OutOfRange
from cyclemod.modring import Residue, make_modulus
from cyclemod.seedgen import SeedSequence

ROW_KEYS = [
    "variant", "p", "k_start", "k_end", "reps",
    "mean_ns", "median_ns", "max_jitter_ns", "cv", "iter_min", "iter_max",
]


def test_ct_counts_constant_over_full_period_p5():
    lo, hi = count_iterations("ct", 5, (1, 162))
    assert lo == hi == make_modulus(5).bit_width


@pytest.mark.parametrize("p,k_range", [(1, (1, 5)), (5, (160, 170)), (80, (10**12, 10**12 + 300))])
def test_operands_are_the_powers_of_two_with_no_d_walked(p, k_range, monkeypatch):
    def walk(self):
        raise AssertionError("the operands need no d_k")

    monkeypatch.setattr(SeedSequence, "walk", walk)
    counted, m, operands, counts = bench._counted_pass("ct", p, k_range)
    assert counted is bench._INVERTERS["ct"]
    assert m == make_modulus(p)
    assert operands == [pow(2, k - 1, m.M) for k in range(k_range[0], k_range[1] + 1)]
    assert counts == [m.bit_width] * len(operands)


def test_euclid_counts_spread_over_full_period_p5():
    lo, hi = count_iterations("euclid", 5, (1, 162))
    assert lo < hi


def test_euclid_counts_positive_for_tiny_ring():
    lo, hi = count_iterations("euclid", 1, (1, 2))
    assert lo >= 1 and hi >= 1


@pytest.mark.parametrize("p", range(1, 7))
def test_ct_counts_constant_each_p(p):
    m = make_modulus(p)
    lo, hi = count_iterations("ct", p, (1, m.phi))
    assert lo == hi


@pytest.mark.parametrize("p", range(3, 7))
def test_euclid_counts_vary_for_p_at_least_three(p):
    m = make_modulus(p)
    lo, hi = count_iterations("euclid", p, (1, m.phi))
    assert lo < hi


def test_count_iterations_rejects_bad_range():
    with pytest.raises(OutOfRange):
        count_iterations("ct", 3, (5, 4))


def test_time_inversion_bookkeeping():
    stats = time_inversion("ct", 3, (1, 4), reps=30)
    assert stats.samples == 4 * 30
    assert stats.mean_ns > 0
    assert stats.median_ns > 0
    assert stats.max_jitter_ns >= 0
    assert stats.cv >= 0
    assert stats.iter_min == stats.iter_max


@pytest.mark.parametrize("variant", ["euclid", "ct"])
def test_time_inversion_counts_steps_in_its_first_warmup_pass(variant, monkeypatch):
    calls = []
    inverter = bench._INVERTERS[variant]

    def counting(a, m):
        calls.append(a)
        return inverter(a, m)

    monkeypatch.setitem(bench._INVERTERS, variant, counting)
    stats = time_inversion(variant, 4, (1, 20), reps=MIN_REPS)
    assert len(calls) == (WARMUP_PASSES + MIN_REPS) * 20
    assert (stats.iter_min, stats.iter_max) == count_iterations(variant, 4, (1, 20))


@pytest.mark.parametrize("variant", ["euclid", "ct"])
def test_time_inversion_builds_the_same_few_residues_whatever_reps(variant, monkeypatch):
    # The timed calls run the int kernels: records are built only while
    # walking the operands, never per call.
    built = []
    init = Residue.__init__
    monkeypatch.setattr(
        Residue, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    counts = []
    for reps in (MIN_REPS, 2 * MIN_REPS):
        built.clear()
        time_inversion(variant, 7, (1, 50), reps)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 3


def test_time_inversion_rejects_low_reps():
    with pytest.raises(OutOfRange):
        time_inversion("ct", 3, (1, 4), reps=10)


def test_time_inversion_rejects_a_non_integer_reps():
    with pytest.raises(OutOfRange, match="reps must be an integer >= 30, got 30.5"):
        time_inversion("ct", 3, (1, 4), reps=30.5)


@pytest.mark.parametrize("k_range", [("a", 2), (1, "b"), (None, 2), (5, 3), (1.5, 3)])
def test_time_inversion_refuses_bad_bounds_before_its_sample_cap(k_range):
    # The range check of SeedSequence, not arithmetic on the bounds, refuses them.
    with pytest.raises(OutOfRange, match="k_start|k bounds"):
        time_inversion("ct", 3, k_range, reps=30)


def test_timing_stats_invariants_enforced():
    with pytest.raises(OutOfRange):
        TimingStats(
            variant="ct", p=3, k_start=1, k_end=1, reps=10, mean_ns=1.0,
            median_ns=1.0, max_jitter_ns=0.0, cv=0.0, iter_min=3, iter_max=5,
        )
    with pytest.raises(OutOfRange):
        TimingStats(
            variant="euclid", p=3, k_start=1, k_end=1, reps=0, mean_ns=1.0,
            median_ns=1.0, max_jitter_ns=0.0, cv=0.0, iter_min=3, iter_max=5,
        )
    with pytest.raises(OutOfRange, match="iter_min"):
        TimingStats(
            variant="euclid", p=3, k_start=1, k_end=1, reps=10, mean_ns=1.0,
            median_ns=1.0, max_jitter_ns=0.0, cv=0.0, iter_min=5, iter_max=3,
        )


def test_stats_row_shape():
    stats = time_inversion("euclid", 3, (1, 5), reps=30)
    row = stats._asdict()
    assert list(row) == ROW_KEYS
    assert row["variant"] == "euclid"
    assert (row["k_start"], row["k_end"], row["reps"]) == (1, 5, 30)


def test_compare_report_structure():
    report = compare_report(3, (1, 18), reps=30)
    assert [row["variant"] for row in report["rows"]] == ["euclid", "ct"]
    for row in report["rows"]:
        assert list(row) == ROW_KEYS
    ct_row = report["rows"][1]
    assert ct_row["iter_min"] == ct_row["iter_max"]
    assert report["ct_iterations_constant"] is True
    euclid_row = report["rows"][0]
    assert euclid_row["iter_max"] - euclid_row["iter_min"] == report[
        "euclid_iteration_spread"
    ]
    assert report["euclid_iteration_spread"] > 0
    assert isinstance(report["advisory_cv_ct_not_above_euclid"], bool)


def test_count_iterations_rejects_unknown_variant():
    with pytest.raises(OutOfRange):
        count_iterations("fast", 3, (1, 4))  # type: ignore[arg-type]
