import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemod.ecs import (
    admit,
    cycle_density,
    modular_bias_index,
    residue_uniformity_deviation,
    score,
    weighted_score,
)
from cyclemod.errors import EmptySequence, OutOfRange
from cyclemod.modring import make_modulus
from cyclemod.seedgen import SeedSequence, generate_sequence

unit_fraction = st.floats(0.0, 1.0, allow_nan=False)


def empty_sequence(p: int) -> SeedSequence:
    return SeedSequence(modulus=make_modulus(p), k_start=1, d=())


def test_cycle_density_examples():
    assert cycle_density(generate_sequence(2, 1, 6)) == 1.0
    assert cycle_density(generate_sequence(2, 1, 3)) == 0.5
    assert cycle_density(generate_sequence(1, 1, 1)) == 0.5


def test_cycle_density_counts_distinct_values_only():
    # two full periods still cover exactly phi distinct units
    assert cycle_density(generate_sequence(2, 1, 12)) == 1.0


def test_rud_zero_over_exactly_one_period():
    assert residue_uniformity_deviation(generate_sequence(2, 1, 6)) == 0.0


def test_rud_hand_counted_distribution():
    # p=1, k=1..3 gives d = 2,1,2: TV = (|2/3-1/2| + |1/3-1/2|) / 2
    seq = generate_sequence(1, 1, 3)
    assert seq.d_values() == [2, 1, 2]
    assert residue_uniformity_deviation(seq) == pytest.approx(1 / 6, abs=1e-15)


def test_rud_point_mass():
    seq = generate_sequence(2, 1, 1)
    assert residue_uniformity_deviation(seq) == pytest.approx(5 / 6, abs=1e-15)


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


@pytest.mark.parametrize(
    "metric",
    [cycle_density, residue_uniformity_deviation, modular_bias_index],
)
def test_metrics_reject_empty_sequences(metric):
    with pytest.raises(EmptySequence):
        metric(empty_sequence(2))


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
    base = cycle_density(generate_sequence(p, start, start + 5))
    extended = cycle_density(generate_sequence(p, start, start + 5 + extra))
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


def test_components_always_in_unit_interval():
    for p, k_start, k_end in [(1, 1, 1), (2, 3, 20), (3, 5, 9), (4, 1, 54)]:
        report = score(generate_sequence(p, k_start, k_end))
        for value in (report.cd, report.rud, report.mbi, report.ecs):
            assert 0.0 <= value <= 1.0
            assert math.isfinite(value)
