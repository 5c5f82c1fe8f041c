"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 5 and 6 contain sub-checks that are known to be unsatisfiable
exactly as written (the reference aggregate-score table is internally
inconsistent with the fixed 0.4/0.4/0.2 weighting for p >= 4, and the
p=1 ring cannot spread its two units evenly over three width-1 buckets).
Those checks are asserted faithfully anyway and fail honestly; see the
README's acceptance-status section.
"""

import contextlib
import json
import pathlib
import random
import time

from cyclemod.bench import count_iterations, time_inversion
from cyclemod.cli import main
from cyclemod.ecs import modular_bias_index, score, weighted_score
from cyclemod.hybrid import EntropyToken, mask_xor, unmask
from cyclemod.modring import inverse_ct, inverse_euclid, make_modulus
from cyclemod.seedgen import generate_sequence, orbit
from oracles import search_inverse, units_of

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


@contextlib.contextmanager
def criterion(num: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(
        f"[acceptance] criterion {num} ({name}): PASS "
        f"({time.perf_counter() - started:.2f}s)"
    )


def test_criterion_1_identity_decomposition_rows(tmp_path):
    expected = {
        (2, 0): (4, 0, 1),
        (3, 1): (1, 0, 53),
        (3, 2): (5, 0, 5),
        (5, 0): (2, 0, 121),
    }
    with criterion(1, "identity decomposition rows, exact"):
        started = time.perf_counter()
        for (p, s), (k, n, d) in expected.items():
            out = tmp_path / f"w_{p}_{s}.json"
            code = main(
                ["decompose", "--p", str(p), "--s", str(s), "--output", str(out)]
            )
            assert code == 0
            payload = json.loads(out.read_text())
            assert (payload["k"], payload["n"], payload["d"]) == (k, n, d)
            assert payload["verified"] is True
        assert time.perf_counter() - started < 1.0


def test_criterion_2_cycle_lengths_and_full_unit_groups():
    with criterion(2, "cycle lengths equal phi, full unit groups"):
        started = time.perf_counter()
        expected = {1: 2, 2: 6, 3: 18, 4: 54, 5: 162}
        for p, cycle in expected.items():
            values, length = orbit(p)
            assert length == cycle
            assert values == units_of(p)
        assert time.perf_counter() - started < 5.0


def test_criterion_3_defining_congruence_two_periods():
    with criterion(3, "2^(k-1) * d_k = -1 (mod 3^p), two periods"):
        failures = 0
        for p in range(1, 8):
            m = make_modulus(p)
            for _, a, d in generate_sequence(p, 1, 2 * m.phi):
                if a * d % m.M != m.M - 1:
                    failures += 1
        assert failures == 0


def test_criterion_4_inversion_oracle_equivalence():
    with criterion(4, "euclid = ladder = exhaustive search, p <= 7"):
        started = time.perf_counter()
        mismatches = 0
        for p in range(1, 8):
            m = make_modulus(p)
            for a in units_of(p):
                res = m.residue(a)
                expected = search_inverse(a, m.M)
                if inverse_euclid(res).value != expected:
                    mismatches += 1
                if inverse_ct(res).value != expected:
                    mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - started < 30.0


def test_criterion_5_reference_score_table_weighted_sums():
    # reference rows: (p, CD, 1-RUD, 1-MBI, aggregate score)
    table = [
        (3, 0.89, 0.82, 0.71, 0.83),
        (4, 0.94, 0.89, 0.78, 0.90),
        (5, 0.97, 0.91, 0.82, 0.94),
        (6, 0.99, 0.93, 0.85, 0.96),
        (7, 1.00, 0.96, 0.89, 0.98),
    ]
    with criterion(5, "reference component triples reproduce scores to 0.005"):
        mismatches = []
        for p, cd, uniformity, bias, reference in table:
            recomputed = weighted_score(cd, 1.0 - uniformity, 1.0 - bias)
            if abs(recomputed - reference) > 0.005:
                mismatches.append((p, round(recomputed, 4), reference))
        assert not mismatches, (
            "weighted sums of the reference components do not reproduce the "
            f"reference scores (p, recomputed, reference): {mismatches}"
        )


def test_criterion_6_component_property_suite():
    with criterion(6, "full-period and point-mass component values"):
        failures = []
        for p in range(1, 8):
            m = make_modulus(p)
            full = score(generate_sequence(p, 1, m.phi), buckets=3)
            for label, got, want in [
                ("cd", full.cd, 1.0),
                ("rud", full.rud, 0.0),
                ("mbi", full.mbi, 0.0),
                ("ecs", full.ecs, 1.0),
            ]:
                if abs(got - want) > 1e-9:
                    failures.append((p, "full-period", label, got))
            point = generate_sequence(p, 1, 1)
            rud = score(point, buckets=3).rud
            if rud != 1.0 - 1.0 / m.phi:
                failures.append((p, "point-mass", "rud", rud))
            if modular_bias_index(point, buckets=3) != 1.0:
                failures.append((p, "point-mass", "mbi", rud))
        assert not failures, f"component properties violated: {failures}"


def test_criterion_7_hybrid_round_trip_random_pairs():
    with criterion(7, "10^4 xor mask round trips per p <= 5"):
        rng = random.Random(0x5EED)
        failures = 0
        for p in range(1, 6):
            m = make_modulus(p)
            width = m.bit_width
            values = sorted(orbit(p)[0])
            for _ in range(10_000):
                d = m.residue(rng.choice(values))
                r = EntropyToken(bits=rng.getrandbits(width), width=width)
                if unmask(mask_xor(d, r), r) != d:
                    failures += 1
        assert failures == 0


def test_criterion_8_constant_step_proxy():
    with criterion(8, "ladder step count constant, euclid spread, p <= 10"):
        for p in range(1, 11):
            phi = make_modulus(p).phi
            lo, hi = count_iterations("ct", p, (1, phi))
            assert lo == hi, f"ct step count varies at p={p}: [{lo}, {hi}]"
        for p in range(3, 11):
            phi = make_modulus(p).phi
            lo, hi = count_iterations("euclid", p, (1, phi))
            assert lo < hi, f"euclid count unexpectedly constant at p={p}"
    # advisory only: wall-clock comparison is host-dependent, never asserted
    euclid = time_inversion("euclid", 5, (1, 50), reps=30)
    ct = time_inversion("ct", 5, (1, 50), reps=30)
    print(
        f"[acceptance] criterion 8 advisory: cv(euclid)={euclid.cv:.4f} "
        f"cv(ct)={ct.cv:.4f} (lower for ct is typical, not asserted)"
    )


def test_criterion_9_golden_file_determinism(tmp_path):
    cases = [
        (["gen", "--p", "2", "--k-end", "6"], "gen_p2_k1-6.csv"),
        (["gen", "--p", "5", "--k-end", "165"], "gen_p5_k1-165.csv"),
        (["ecs", "--p", "2", "--k-end", "6"], "ecs_p2_k1-6.json"),
        (["ecs", "--p", "5", "--k-end", "165"], "ecs_p5_k1-165.json"),
        (["plot", "--p", "2", "--k-end", "6"], "plot_p2_k1-6.svg"),
        (["plot", "--p", "5", "--k-end", "165"], "plot_p5_k1-165.svg"),
    ]
    with criterion(9, "gen/ecs/plot outputs byte-stable and match goldens"):
        for argv, golden in cases:
            runs = []
            for i in (0, 1):
                out = tmp_path / f"{golden}.{i}"
                assert main(argv + ["--output", str(out)]) == 0
                runs.append(out.read_bytes())
            assert runs[0] == runs[1], f"non-deterministic output for {argv}"
            assert runs[0] == (GOLDEN_DIR / golden).read_bytes()
