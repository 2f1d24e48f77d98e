"""The fifteen invariant polynomials of degree below 8.

Each named invariant is built twice: geometrically, by summing flat
equations, and in closed form from the cube-group orbit sums.  Degrees are
confirmed a third way by exhaustive flat-incidence scans that never touch
the coefficient algebra.  The confirmations below are the registered
checks of the polys suite.
"""

from segre_pg72 import named_P_basis, named_Q
from segre_pg72.checks import REGISTRY, Run

p = named_P_basis()
print("Orbit-sum polynomials:")
for name, poly in p.items():
    print(f"  {name:>6}: degree {poly.degree}, {poly.coeffs.bit_count()} terms")

q = named_Q()
print("\nNamed invariants (each equal to its geometric construction):")
for name, poly in q.items():
    print(f"  {name:>4}: degree {poly.degree}, {poly.coeffs.bit_count()} terms")
print("  Q2 =", " + ".join(q["Q2"].monomial_strings()))

run = Run()
print("\nIncidence-only degree confirmations:")
for result in run.ids(f"polys/incidence/{name}" for name in ("Q2", "Q4", "Q4'", "Q6")):
    print(f"  {result.id.rsplit('/', 1)[1]:>4}: {result.actual}")

print("\nValue table of the seven low-degree invariants:")
for result in run.ids(cid for cid in REGISTRY if "/seven-table/" in cid):
    print(f"  {'ok ' if result.passed else 'BAD'} {result.description}: {result.actual}")

count, census, identity = run.ids(
    ("polys/invariant-count", "polys/degree-census", "polys/afterthought")
)
print("\nInvariants of degree < 8:", count.actual)
print("Degree census:", census.actual)

print("\nThe product identity expressing the sextic:")
print("  Q2*Q4' + Q4 + Q4' == Q6:", identity.passed)
