import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclemod.cli import THRESHOLD_ENV_VAR, main
from cyclemod.ecs import admit, modular_bias_index, score, weighted_score
from cyclemod.errors import OutOfRange
from cyclemod.modring import make_modulus
from cyclemod.seedgen import generate_sequence
from oracles import ecs_reference

unit_fraction = st.floats(0.0, 1.0, allow_nan=False)


def test_cycle_density_examples():
    assert score(generate_sequence(2, 1, 6)).cd == 1.0
    assert score(generate_sequence(2, 1, 3)).cd == 0.5
    assert score(generate_sequence(1, 1, 1)).cd == 0.5


def test_cycle_density_counts_distinct_values_only():
    # two full periods still cover exactly phi distinct units
    assert score(generate_sequence(2, 1, 12)).cd == 1.0


def test_rud_zero_over_exactly_one_period():
    assert score(generate_sequence(2, 1, 6)).rud == 0.0


def test_rud_hand_counted_distribution():
    # p=1, k=1..3 gives d = 2,1,2: TV = (|2/3-1/2| + |1/3-1/2|) / 2
    seq = generate_sequence(1, 1, 3)
    assert seq.d_values() == [2, 1, 2]
    assert score(seq).rud == pytest.approx(1 / 6, abs=1e-15)


def test_rud_point_mass():
    seq = generate_sequence(2, 1, 1)
    assert score(seq).rud == pytest.approx(5 / 6, abs=1e-15)


def test_mbi_zero_on_full_period_with_three_buckets():
    assert modular_bias_index(generate_sequence(2, 1, 6), buckets=3) == 0.0


def test_mbi_one_when_everything_lands_in_one_bucket():
    assert modular_bias_index(generate_sequence(2, 1, 1), buckets=3) == 1.0


def test_mbi_hand_counted_skew():
    # p=1, d = 2,1,2 over unit-width buckets: max bucket holds 2 of 3
    seq = generate_sequence(1, 1, 3)
    assert modular_bias_index(seq, buckets=3) == pytest.approx(0.5, abs=1e-15)


def test_mbi_rejects_too_few_buckets():
    with pytest.raises(OutOfRange):
        modular_bias_index(generate_sequence(2, 1, 6), buckets=1)


@pytest.mark.parametrize("metric", [score, modular_bias_index])
def test_metrics_reject_a_non_integer_bucket_count(metric):
    with pytest.raises(OutOfRange):
        metric(generate_sequence(5, 1, 20), buckets=2.5)


def test_mbi_takes_bucket_counts_past_the_float_range(capsys, monkeypatch):
    # 10^400 buckets overflow a float; mbi is one int true division.
    monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)
    seq = generate_sequence(2, 1, 6)
    assert score(seq, buckets=10**400).mbi == score(seq, buckets=10**19).mbi
    assert main(["ecs", "--p", "2", "--k-end", "6", "--buckets", str(10**400)]) == 0
    assert '"mbi": 0.166667' in capsys.readouterr().out


def test_score_perfect_and_worst_components():
    assert weighted_score(1.0, 0.0, 0.0) == 1.0
    assert weighted_score(0.0, 1.0, 1.0) == 0.0


def test_score_reference_component_triple():
    # components (CD, 1-RUD, 1-MBI) = (0.89, 0.82, 0.71)
    assert weighted_score(0.89, 1 - 0.82, 1 - 0.71) == pytest.approx(0.826, abs=1e-12)


@settings(max_examples=300)
@given(cd=unit_fraction, rud=unit_fraction, mbi=unit_fraction)
def test_weighted_sum_identity(cd, rud, mbi):
    got = weighted_score(cd, rud, mbi)
    assert abs(got - (0.4 * cd + 0.4 * (1 - rud) + 0.2 * (1 - mbi))) < 1e-12
    assert -1e-12 <= got <= 1 + 1e-12


def test_score_assembles_report():
    seq = generate_sequence(2, 1, 6)
    report = score(seq, buckets=3)
    assert report.p == 2
    assert report.k_range == (1, 6)
    assert report.buckets == 3
    assert (report.cd, report.rud, report.mbi) == (1.0, 0.0, 0.0)
    assert report.ecs == 1.0
    assert abs(report.ecs - weighted_score(report.cd, report.rud, report.mbi)) < 1e-12


BUCKET_CHOICES = (2, 3, 9, 10**6)


def assert_scores_match_reference(p, k_start, k_end):
    seq = generate_sequence(p, k_start, k_end)
    for buckets in BUCKET_CHOICES:
        cd, rud, mbi, ecs = ecs_reference(p, k_start, k_end, buckets)
        report = score(seq, buckets)
        assert (report.cd, report.rud, report.mbi) == (float(cd), float(rud), float(mbi))
        assert abs(report.ecs - ecs) <= 1e-15
        assert modular_bias_index(seq, buckets) == float(mbi)


@pytest.mark.parametrize("p", range(1, 6))
def test_scores_match_record_count_within_and_across_periods(p):
    # Every start within one period, and lengths on both sides of the
    # period and its multiples, so that q and r = L mod phi take every role.
    phi = make_modulus(p).phi
    lengths = {1, phi - 1, phi, phi + 1, 2 * phi + 1, 3 * phi + 1}
    for k_start in range(1, phi + 1):
        for length in lengths:
            assert_scores_match_reference(p, k_start, k_start + length - 1)


@pytest.mark.parametrize("p", [41, 80])
@pytest.mark.parametrize("k_start", [1, 2, 3**5, 10**6 + 1, 10**12 - 63, 10**12])
def test_scores_match_record_count_at_large_p_and_k(p, k_start):
    # phi exceeds sys.maxsize from p = 41 on, so the walk's bound must come
    # from the range length.
    for length in (1, 2, 17, 64):
        assert_scores_match_reference(p, k_start, k_start + length - 1)


@pytest.mark.parametrize("p", range(2, 8))
def test_full_period_maximality(p):
    phi = make_modulus(p).phi
    report = score(generate_sequence(p, 1, phi), buckets=3)
    assert report.cd == pytest.approx(1.0, abs=1e-9)
    assert report.rud == pytest.approx(0.0, abs=1e-9)
    assert report.mbi == pytest.approx(0.0, abs=1e-9)
    assert report.ecs == pytest.approx(1.0, abs=1e-9)


def test_full_period_p1_bucket_boundary():
    # p=1 is the one ring where thirds of [0, M) cannot hold units
    # evenly: the first third is {0} alone. Two units over the other two
    # buckets put 1/2 in the fullest, so MBI = (1/2 - 1/3)/(2/3) = 1/4.
    report = score(generate_sequence(1, 1, 2), buckets=3)
    assert (report.cd, report.rud) == (1.0, 0.0)
    assert report.mbi == pytest.approx(0.25, abs=1e-15)
    assert report.ecs == pytest.approx(0.95, abs=1e-15)


@pytest.mark.parametrize("p", range(1, 7))
def test_point_mass_scores(p):
    phi = make_modulus(p).phi
    report = score(generate_sequence(p, 1, 1), buckets=3)
    assert report.rud == 1.0 - 1.0 / phi
    assert report.mbi == 1.0


@settings(max_examples=60)
@given(p=st.integers(1, 5), start=st.integers(1, 50), extra=st.integers(0, 30))
def test_cycle_density_monotone_in_range_extension(p, start, extra):
    base = score(generate_sequence(p, start, start + 5)).cd
    extended = score(generate_sequence(p, start, start + 5 + extra)).cd
    assert extended >= base


@settings(max_examples=60)
@given(p=st.integers(1, 5), start=st.integers(1, 40), length=st.integers(1, 60))
def test_components_invariant_under_period_shift(p, length, start):
    phi = make_modulus(p).phi
    a = score(generate_sequence(p, start, start + length - 1))
    b = score(generate_sequence(p, start + phi, start + phi + length - 1))
    assert (a.cd, a.rud, a.mbi, a.ecs) == (b.cd, b.rud, b.mbi, b.ecs)


def test_admit_thresholds():
    report = score(generate_sequence(5, 1, 162))
    assert report.ecs == 1.0
    assert admit(report)
    low = score(generate_sequence(1, 1, 1))
    assert not admit(low)


def test_admit_boundary_is_inclusive():
    report = score(generate_sequence(2, 1, 6), buckets=3)
    assert admit(report, threshold=1.0)


def test_admit_rejects_bad_threshold():
    report = score(generate_sequence(2, 1, 6))
    with pytest.raises(OutOfRange):
        admit(report, threshold=1.5)


# No component is clamped: each is the correctly rounded exact value, also
# for a bucket count past the float range and a few records of a large ring.
@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(1, 80),
    k_start=st.integers(1, 10**12),
    length=st.integers(1, 400),
    buckets=st.integers(2, 64) | st.integers(2, 10**400),
)
@example(p=1, k_start=1, length=1, buckets=9)
@example(p=2, k_start=3, length=18, buckets=9)
@example(p=3, k_start=5, length=5, buckets=9)
@example(p=4, k_start=1, length=54, buckets=9)
@example(p=2, k_start=1, length=6, buckets=10**400)
@example(p=37, k_start=1, length=21, buckets=2)
def test_components_always_in_unit_interval(p, k_start, length, buckets):
    k_end = k_start + length - 1
    report = score(generate_sequence(p, k_start, k_end), buckets)
    for value in (report.cd, report.rud, report.mbi, report.ecs):
        assert 0.0 <= value <= 1.0
        assert math.isfinite(value)
    exact = ecs_reference(p, k_start, k_end, buckets)
    assert (report.cd, report.rud, report.mbi) == tuple(map(float, exact[:3]))


# A component whose exact value is a six-decimal half prints as its correctly
# rounded double does: 49/400000 = 0.0001225 is stored just below the half.
HALF_CASES = [
    (["--k-start", "601713882579", "--k-end", "601713982578"], '"mbi": 0.000122'),
    (["--k-start", "5", "--k-end", "804"], '"mbi": 0.012812'),
]


def test_mbi_is_the_correctly_rounded_exact_ratio():
    report = score(generate_sequence(7, 601713882579, 601713982578))
    assert report.mbi == 49 / 400000
    assert report.mbi == float(ecs_reference(7, 601713882579, 601713982578, 9)[2])


@pytest.mark.parametrize("flags,expected", HALF_CASES)
def test_ecs_prints_a_six_decimal_half_by_its_double(flags, expected, capsys, monkeypatch):
    monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)
    main(["ecs", "--p", "7", *flags])
    assert expected in capsys.readouterr().out
