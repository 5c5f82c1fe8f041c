#!/usr/bin/env python3
"""Compare the timing profiles of the two inversion routines.

Exact step counts are the portable evidence: the extended-Euclid loop
length depends on the operand, while the ct variant's square-and-multiply
ladder (the builtin pow, on one public exponent per ring) runs the same
number of exponent bits for every unit. Wall-clock numbers are shown
too, but on a multitasking host they mostly measure scheduler noise.
"""

from cyclemod import compare_report, count_iterations, make_modulus

print("inner-loop step counts over one full period:")
print("  p    euclid min..max    ladder min..max")
for p in range(1, 9):
    phi = make_modulus(p).phi
    e_lo, e_hi = count_iterations("euclid", p, (1, phi))
    c_lo, c_hi = count_iterations("ct", p, (1, phi))
    print(f"  {p}    {e_lo:>3} .. {e_hi:<3}          {c_lo:>3} .. {c_hi:<3}")

print("\nwall-clock comparison at p=5, k=1..100, 50 reps per operand:")
report = compare_report(5, (1, 100), reps=50)
for row in report["rows"]:
    print(
        f"  {row['variant']:>6}: mean {row['mean_ns']:8.1f} ns  "
        f"median {row['median_ns']:8.1f} ns  jitter {row['max_jitter_ns']:9.1f} ns  "
        f"cv {row['cv']:.3f}  steps {row['iter_min']}..{row['iter_max']}"
    )
print(f"  ladder step count constant: {report['ct_iterations_constant']}")
print(f"  euclid step spread: {report['euclid_iteration_spread']}")
print("  (wall-clock cv is advisory; the step counts are the contract)")
