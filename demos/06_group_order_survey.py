#!/usr/bin/env python3
"""Surveying every possible group order of a fixed dimension.

For dimension 30 the answer is empty: no nontrivial proper divisor of 30 can
be the group order of a non-cosemisimple Hopf algebra without nontrivial
skew-primitives.  Note gcd(r, 30/r) = 1 for every divisor, so the
skew-primitive-free hypothesis is automatic there (30 is squarefree).
Dimension 42 shows the contrast.
"""

from blocksieve import NSP, ModeFlags, admissible_group_orders, surveyed_group_orders

for dim in (30, 42, 60):
    feasible = admissible_group_orders(dim, NSP)
    print(f"dimension {dim}: surveyed group orders {surveyed_group_orders(dim)}")
    if feasible:
        print(f"  admissible: {sorted(feasible)}")
    else:
        print("  none admissible")

print()
print("same survey with skew-primitives allowed, dimension 30:")
relaxed = admissible_group_orders(30, ModeFlags(non_cosemisimple=True))
print(f"  admissible: {sorted(relaxed)}")
