import gc
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclemod import seedgen
from cyclemod.errors import OutOfRange
from cyclemod.hybrid import entropy_source, mask_xor, unmask
from cyclemod.modring import Residue, inverse_ct, inverse_euclid, make_modulus
from cyclemod.seedgen import (
    IdentityWitness,
    SeedSequence,
    compute_a,
    compute_d,
    decompose_identity,
    generate_sequence,
    orbit,
    verify_identity,
)
from oracles import brute_d, pow_d, slow_pow, units_of

# The four worked (p, s) -> (A, k, n, d) decomposition rows.
WITNESS_ROWS = [
    (2, 0, 8, 4, 0, 1),
    (3, 1, 53, 1, 0, 53),
    (3, 2, 80, 5, 0, 5),
    (5, 0, 242, 2, 0, 121),
]


def test_compute_a_examples():
    assert compute_a(4, make_modulus(2)).value == slow_pow(2, 3, 9) == 8
    for p in (1, 2, 5):
        assert compute_a(1, make_modulus(p)).value == 1
    # period phi(9) = 6 wraps k=7 back to 1
    assert compute_a(7, make_modulus(2)).value == 1


def test_compute_a_rejects_k_zero():
    with pytest.raises(OutOfRange):
        compute_a(0, make_modulus(2))


@pytest.mark.parametrize("build", [compute_a, compute_d])
def test_k_must_be_an_integer(build):
    with pytest.raises(OutOfRange):
        build(2.5, make_modulus(5))


@pytest.mark.parametrize("p", range(1, 8))
def test_compute_a_is_the_power_of_two_at_every_k_of_a_period(p):
    # k = phi + 1 wraps (k - 1) mod phi back to 0.
    m = make_modulus(p)
    ks = range(1, m.phi + 2)
    assert [compute_a(k, m).value for k in ks] == [pow(2, k - 1, m.M) for k in ks]


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 80), k=st.integers(1, 10**400))
@example(p=80, k=2 * 3**79)  # (k - 1) mod phi = phi - 1: every one of the 32 rows
@example(p=80, k=2 * 3**79 + 1)  # (k - 1) mod phi = 0: no row
def test_a_k_and_d_k_satisfy_the_identity_at_any_k(p, k):
    m = make_modulus(p)
    a, d = compute_a(k, m).value, compute_d(k, m).value
    assert a * d % m.M == m.M - 1
    assert d == pow_d(k, p)
    assert len(seedgen._POW2.get(p, ())) <= -(-m.phi.bit_length() // 4)


def test_power_table_grows_a_row_per_hex_digit_of_k_minus_1_as_far_as_k_needs(monkeypatch):
    # Every k <= 10^12 (all the benchmark draws) reads 10 rows; a row more
    # than n's top digit would only raise the gen child's peak RSS.
    monkeypatch.setattr(seedgen, "_POW2", {})
    m = make_modulus(80)
    height = -(-m.phi.bit_length() // 4)
    compute_a(1, m)
    assert seedgen._POW2.get(80, ()) == ()
    for k, rows in ((3, 1), (10**12, 10), (2 * 3**79, height), (10**400, height)):
        compute_d(k, m)
        compute_a(k, m)
        assert len(seedgen._POW2[80]) == rows
    assert height == 32
    table = seedgen._POW2[80]
    for k in (1, 3, 10**12, 2 * 3**79 + 1):
        compute_a(k, m)
        assert seedgen._POW2[80] is table
    assert table == tuple(
        tuple(pow(2, j * 16**i, m.M) for j in range(16)) for i in range(height))
    assert list(seedgen._POW2) == [80]


@pytest.mark.parametrize("ks", [
    (1, 10**12, 3, 2 * 3**79, 17, 10**400, 2),
    (2 * 3**79, 1, 3, 10**12 + 1, 16),
    (17, 16, 2**40, 2**40 + 1, 3**80 + 5, 2),
    (10**400, 2 * 3**79 + 1, 10**6),
])
def test_a_k_is_the_power_of_two_in_any_order_of_small_and_large_k(ks, monkeypatch):
    monkeypatch.setattr(seedgen, "_POW2", {})
    m = make_modulus(80)
    for k in ks:
        assert compute_a(k, m).value == pow(2, k - 1, m.M)


_PACKAGE = str(Path(seedgen.__file__).parent)


def keyed_trace(k, m, token):
    """The program-counter trace of one keyed request, whose outputs it checks.

    The request is compute_d, mask_xor, unmask and hex. The trace holds the
    (function, line) of every Python line run in a file of the package and
    the qualified name of every C function called, in order.
    """
    events = []

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(_PACKAGE):
            return None
        if event == "line":
            events.append((frame.f_code.co_name, frame.f_lineno))
        return trace

    def profile(frame, event, arg):
        if event == "c_call":
            events.append(arg.__qualname__)

    # No collection mid-request: a finalizer it ran would add its own calls.
    old_trace, old_profile, collecting = sys.gettrace(), sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        d = compute_d(k, m)
        seed = mask_xor(d, token, k)
        recovered = unmask(seed, token)
        text = seed.hex()
    finally:
        sys.setprofile(old_profile)
        sys.settrace(old_trace)
        if collecting:
            gc.enable()
    assert recovered == d
    assert int(text, 16) == d.value ^ token.bits
    return tuple(events)


@pytest.mark.parametrize("p", [1, 7, 80])
def test_keyed_request_runs_one_trace_for_every_k_once_the_table_is_full(p, monkeypatch):
    # The program counter security model: with p's table at full height, no
    # Python line or C call of the keyed path depends on k or on the token.
    monkeypatch.setattr(seedgen, "_POW2", {})
    m = make_modulus(p)
    compute_a(2 * 3 ** (p - 1), m)  # (k - 1) mod phi = phi - 1 grows every row
    assert len(seedgen._POW2[p]) == -(-m.phi.bit_length() // 4)
    rng = random.Random(p)
    ks = [1, 2, 10**12, 2 * 3 ** (p - 1)] + [rng.randint(1, 10**12) for _ in range(20)]
    tokens = entropy_source("deterministic_test", m.bit_width, seed=p)
    traces = {keyed_trace(k, m, next(tokens)) for k in ks}
    assert len(traces) == 1
    events = traces.pop()
    assert {"pow", "format"} <= set(events)
    assert {"_a_k", "unmask", "hex"} <= {event[0] for event in events if type(event) is tuple}


def test_compute_d_builds_at_most_two_residues(monkeypatch):
    # a_k and the d_k returned; the inversion between them runs on ints.
    built = []
    init = Residue.__init__
    monkeypatch.setattr(
        Residue, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    d = compute_d(10**12, make_modulus(80))
    assert len(built) <= 2
    assert d.value == pow_d(10**12, 80)


def test_compute_d_builds_one_residue_and_checks_k_as_compute_a_does(monkeypatch):
    m = make_modulus(80)
    for k in (0, -1, 2.5, "3"):
        with pytest.raises(OutOfRange) as from_d:
            compute_d(k, m)
        with pytest.raises(OutOfRange) as from_a:
            compute_a(k, m)
        assert str(from_d.value) == str(from_a.value)
    built = []
    init = Residue.__init__
    monkeypatch.setattr(
        Residue, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    assert compute_d(10**12, m).value == pow_d(10**12, 80)
    assert len(built) == 1


@pytest.mark.parametrize(
    "k,p,expected",
    [(4, 2, 1), (5, 3, 5), (2, 5, 121), (1, 1, 2)],
)
@pytest.mark.parametrize("inverse", [inverse_euclid, inverse_ct], ids=["euclid", "ct"])
def test_compute_d_known_values(k, p, expected, inverse):
    m = make_modulus(p)
    assert compute_d(k, m).value == expected
    assert -inverse(compute_a(k, m)).value % m.M == expected
    assert brute_d(k, p) == expected


def test_generate_sequence_p2_first_period():
    seq = generate_sequence(2, 1, 6)
    assert seq.d_values() == [brute_d(k, 2) for k in range(1, 7)]
    assert seq.d_values() == [8, 4, 2, 1, 5, 7]


def test_generate_sequence_p1_two_element_cycle():
    assert generate_sequence(1, 1, 2).d_values() == [2, 1]


def test_generate_sequence_periodicity_p2():
    d = generate_sequence(2, 1, 12).d_values()
    assert d[6:] == d[:6]


def test_generate_sequence_records_are_consistent():
    seq = generate_sequence(3, 1, 40)
    m = seq.modulus
    rows = list(seq)
    assert [k for k, _, _ in rows] == list(range(1, 41))
    for k, a, d in rows:
        assert type(k) is type(a) is type(d) is int
        assert a == compute_a(k, m).value
        assert a * d % m.M == m.M - 1
        assert d % 3 != 0


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(1, 80),
    k_start=st.integers(1, 10**12),
    length=st.integers(1, 64),
)
def test_generate_sequence_matches_pow_at_large_p_and_k(p, k_start, length):
    ks = range(k_start, k_start + length)
    seq = generate_sequence(p, ks[0], ks[-1])
    assert seq.d_values() == [pow_d(k, p) for k in ks]
    assert list(seq) == [(k, pow(2, k - 1, 3**p), pow_d(k, p)) for k in ks]
    m = seq.modulus
    for k in ks:
        a, d = compute_a(k, m), compute_d(k, m)
        assert (a.value, d.value) == (pow(2, k - 1, 3**p), pow_d(k, p))
        assert a.modulus is d.modulus is m


@pytest.mark.parametrize(
    "k_start,k_end", [(0, 5), (5, 4), (-2, -1)]
)
def test_generate_sequence_rejects_bad_bounds(k_start, k_end):
    with pytest.raises(OutOfRange):
        generate_sequence(2, k_start, k_end)


@pytest.mark.parametrize("k_start,k_end", [(0, 5), (-2, -1)])
def test_directly_built_range_refuses_k_below_one(k_start, k_end):
    # d_k exists for k >= 1 only: refused at construction, so len(), iteration
    # and score never disagree about such a range.
    with pytest.raises(OutOfRange):
        SeedSequence(make_modulus(2), k_start, k_end)


@pytest.mark.parametrize("k_start,k_end", [(5, 4), (5, 3), (9, 1)])
def test_directly_built_inverted_range_is_refused(k_start, k_end):
    # Refused at construction, as by generate_sequence: no sequence is empty.
    with pytest.raises(OutOfRange, match="need k_start <= k_end"):
        SeedSequence(modulus=make_modulus(5), k_start=k_start, k_end=k_end)


def test_generate_sequence_caps_length_at_maxsize():
    # len() of a longer range would not fit in an index, so score and
    # render_residue_svg would raise OverflowError on it.
    with pytest.raises(OutOfRange):
        generate_sequence(41, 1, 2 * 3**40)
    with pytest.raises(OutOfRange):
        generate_sequence(41, 1, sys.maxsize + 1)
    assert len(generate_sequence(41, 1, sys.maxsize)) == sys.maxsize


_K = st.integers(-(10**20), 10**20)
_K_BOUNDS = st.one_of(
    st.tuples(_K | st.floats(), _K | st.floats()),
    # short spans, inverted ones included
    _K.flatmap(lambda k: st.tuples(st.just(k), st.integers(k - 64, k + 64))),
    # spans at and past the sys.maxsize cap
    _K.flatmap(lambda k: st.tuples(st.just(k), st.integers(k + sys.maxsize - 2, k + 2**65))),
)


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 80), bounds=_K_BOUNDS)
@example(p=2, bounds=(1, 2**64))
@example(p=5, bounds=(5, 3))
@example(p=2, bounds=(1.5, 3))
@example(p=5, bounds=(True, 3))
def test_every_k_range_is_refused_or_walkable(p, bounds):
    k_start, k_end = bounds
    try:
        seq = SeedSequence(make_modulus(p), k_start, k_end)
    except OutOfRange as exc:
        with pytest.raises(OutOfRange) as again:
            generate_sequence(p, k_start, k_end)
        assert str(again.value) == str(exc)
        return
    assert len(seq) == k_end - k_start + 1 >= 1
    assert type(seq.k_start) is type(seq.k_end) is int
    assert generate_sequence(p, k_start, k_end) == seq
    if len(seq) <= 200:
        assert len(list(seq)) == len(list(seq.walk())) == len(seq)


def test_generate_sequence_deterministic_across_runs():
    a = generate_sequence(5, 7, 300)
    b = generate_sequence(5, 7, 300)
    assert a == b


@pytest.mark.parametrize("p", range(1, 8))
def test_variants_agree_over_a_full_period(p):
    # The walk (one ct inversion, then 2^-1 steps) against a Euclid
    # inversion of every a_k.
    m = make_modulus(p)
    expected = [-inverse_euclid(compute_a(k, m)).value % m.M for k in range(1, m.phi + 1)]
    assert generate_sequence(p, 1, m.phi).d_values() == expected


@pytest.mark.parametrize("p", range(1, 8))
def test_defining_congruence_over_two_periods(p):
    m = make_modulus(p)
    for _, a, d in generate_sequence(p, 1, min(2 * m.phi, 200)):
        assert a * d % m.M == m.M - 1


@pytest.mark.parametrize("p", range(1, 8))
def test_one_period_visits_every_unit_exactly_once(p):
    m = make_modulus(p)
    d = generate_sequence(p, 1, m.phi).d_values()
    assert len(set(d)) == m.phi
    assert set(d) == units_of(p)


@pytest.mark.parametrize("p", range(1, 8))
def test_minimal_period_is_phi(p):
    # d over one period is injective, so no shift t < phi can map the
    # walk onto itself; equality at shift phi closes the argument.
    m = make_modulus(p)
    d = generate_sequence(p, 1, 2 * m.phi).d_values()
    assert len(set(d[: m.phi])) == m.phi
    assert d[m.phi :] == d[: m.phi]


def test_period_certificate_two_is_a_primitive_root_for_every_p():
    # phi = 2 * 3^(p-1) has the prime factors 2 and 3 for p >= 2, so 2 has
    # order phi unless 2^(phi/2) or 2^(phi/3) is 1. d_k = -(2^(k-1))^-1 then
    # repeats with period phi, including the rings orbit() cannot enumerate.
    for p in range(2, 81):
        m = make_modulus(p)
        assert m.phi == 2 * 3 ** (p - 1)
        assert pow(2, m.phi, m.M) == 1
        assert pow(2, m.phi // 2, m.M) != 1, p
        assert pow(2, m.phi // 3, m.M) != 1, p


@pytest.mark.parametrize("p,expected", [(1, 2), (2, 6), (3, 18), (4, 54), (5, 162)])
def test_orbit_cycle_lengths(p, expected):
    values, cycle_length = orbit(p)
    assert cycle_length == expected
    assert len(values) == cycle_length
    assert all(0 <= v < 3**p for v in values)


def test_orbit_p5_values_span_the_ring_range():
    values, _ = orbit(5)
    assert min(values) >= 0 and max(values) <= 242
    assert values == units_of(5)


@pytest.mark.parametrize("p", range(1, 8))
@pytest.mark.parametrize("inverse", [inverse_euclid, inverse_ct], ids=["euclid", "ct"])
def test_orbit_matches_per_k_inversion(p, inverse):
    m = make_modulus(p)
    expected = {-inverse(compute_a(k, m)).value % m.M for k in range(1, m.phi + 1)}
    assert orbit(p)[0] == expected


def test_orbit_rejects_oversized_p():
    with pytest.raises(OutOfRange, match="orbit enumeration is capped at p <= 14, got 15"):
        orbit(15)
    with pytest.raises(OutOfRange):
        orbit(27)


@pytest.mark.parametrize("p", ["3", None, 2.5, 0, 81])
def test_orbit_refuses_a_p_that_is_not_a_ring_exponent(p):
    with pytest.raises(OutOfRange):
        orbit(p)


@pytest.mark.parametrize("p,s,A,k,n,d", WITNESS_ROWS)
def test_decompose_identity_known_rows(p, s, A, k, n, d):
    w = decompose_identity(p, s)
    assert (w.A, w.k, w.n, w.d) == (A, k, n, d)
    assert verify_identity(w)


def test_decompose_identity_witness_shape():
    w = decompose_identity(4, 17)
    M = 3**4
    assert w.A == M * 18 - 1
    assert w.A == 2 ** (w.k - 1) * (2 * M * w.n + w.d)
    assert 0 <= w.d < 2 * M
    if w.k > 1:
        assert w.d % 2 == 1


def test_decompose_identity_rejects_bad_args():
    with pytest.raises(OutOfRange):
        decompose_identity(0, 1)
    with pytest.raises(OutOfRange):
        decompose_identity(81, 0)
    with pytest.raises(OutOfRange):
        decompose_identity(2, -1)
    with pytest.raises(OutOfRange):
        decompose_identity(5, 2.5)


def test_verify_identity_rejects_wrong_k():
    assert not verify_identity(IdentityWitness(p=2, s=0, A=8, k=3, n=0, d=1))
    # k = 0 matches A as 2^-1 * 16; it must be rejected, not raise.
    assert not verify_identity(IdentityWitness(p=2, s=0, A=8, k=0, n=0, d=16))


def test_verify_identity_rejects_bad_p():
    with pytest.raises(OutOfRange):
        verify_identity(IdentityWitness(p=81, s=0, A=0, k=1, n=0, d=0))


@pytest.mark.parametrize(
    "p,s,field",
    [(3, 2, field) for field in "sAknd"] + [pytest.param(80, 10**400, "k", id="80-10^400-k")],
)
def test_verify_identity_is_false_for_a_non_integer_field(p, s, field):
    # A float must neither verify nor overflow: 2.0 ** (k - 1) does at p=80.
    fields = decompose_identity(p, s)._asdict()
    assert verify_identity(IdentityWitness(**fields))
    assert not verify_identity(IdentityWitness(**{**fields, field: float(fields[field])}))


def test_verify_identity_rejects_wrong_A():
    assert not verify_identity(IdentityWitness(p=2, s=0, A=9, k=4, n=0, d=1))


def test_unreduced_d_bridges_to_canonical_residue():
    w = decompose_identity(3, 1)
    assert w.d == 53
    assert w.d % 27 == 26 == compute_d(1, make_modulus(3)).value


@pytest.mark.parametrize("p", range(1, 7))
def test_decompose_verify_round_trip(p):
    for s in range(0, 301):
        assert verify_identity(decompose_identity(p, s))


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 80), s=st.integers(0, 10**40), data=st.data())
def test_verified_witness_reduces_to_d_k(p, s, data):
    # Any power of two dividing A and any quotient n, canonical or not: the
    # integer identity alone must pin d to d_k (mod 3^p).
    w = decompose_identity(p, s)
    M = 3**p
    k = data.draw(st.integers(1, w.k))
    q = w.A >> (k - 1)
    n = q // (2 * M) + data.draw(st.integers(-3, 3))
    d = q - 2 * M * n
    assert verify_identity(IdentityWitness(p, s, w.A, k, n, d))
    assert d % M == pow_d(k, p)
    assert not verify_identity(IdentityWitness(p, s, w.A, k, n, d + 1))
