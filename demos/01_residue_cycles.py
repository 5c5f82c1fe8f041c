#!/usr/bin/env python3
"""Walk the inverse-consistent residue cycles.

Every index k maps to the unit d_k = -(2^(k-1))^-1 mod 3^p. Because 2
generates the whole unit group mod 3^p, the walk revisits itself only
after phi(3^p) = 2 * 3^(p-1) steps and touches every unit exactly once
per period.
"""

from cyclemod import generate_sequence, make_modulus, orbit

print("first period for p = 2 (modulus 9):")
for k, a_k, d_k in generate_sequence(2, 1, 6):
    print(f"  k={k}  a_k={a_k}  d_k={d_k}")

print("\nperiodicity: k and k + phi give the same residue")
seq = generate_sequence(2, 1, 12)
d = seq.d_values()
print(f"  d[1..6]  = {d[:6]}")
print(f"  d[7..12] = {d[6:]}")

print("\ncycle lengths across rings:")
print("  p   modulus   phi    distinct d_k")
for p in range(1, 7):
    m = make_modulus(p)
    _, cycle = orbit(p)
    print(f"  {p}   {m.M:>7}   {m.phi:>5}  {cycle:>6}")

print("\nfull coverage check for p = 3:")
values, cycle = orbit(3)
units = {x for x in range(1, 27) if x % 3 != 0}
print(f"  orbit == unit group mod 27: {values == units} ({cycle} elements)")
