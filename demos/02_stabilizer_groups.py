"""The stabilizer group and its neighborhood in GL(8,2).

Two elements M and N of order 6 generate the full 1296-element stabilizer;
adding one transvection-free involution at a time climbs to the orthogonal
groups.  The centralizer of the index-2 subgroup is the cyclic group
generated by W.
"""

from segre_pg72 import (
    GFMatrix,
    centralizer_in_gl,
    closure,
    commutant_basis,
    element,
    fix_subspace,
    format_point,
    named_elements,
    schreier_sims,
    stabilizer_of_point,
    segre_group,
)

print("Named elements and their orders:")
for name, mat in named_elements().items():
    print(f"  {name:>3}: order {mat.order()}")

m, n = element("M"), element("N")
print("\nClosure sizes (and stabilizer-chain cross-checks):")
for label, gens in (("<M,N>", (m, n)),
                    ("<M',N>", (element("M'"), n)),
                    ("<M,K12>", (m, element("K12")))):
    print(f"  {label:>8}: {len(closure(gens))} == {schreier_sims(gens)}")

print("\nOrthogonal groups reached by adjoining an involution:")
print("  <M,N,K> :", schreier_sims((m, n, element("K"))))
print("  <M,N,K'>:", schreier_sims((m, n, element("K'"))))

print("\nCommutant of the even subgroup's generators:")
basis = commutant_basis((element("M'"), n))
print("  dimension:", len(basis))
cz = centralizer_in_gl((element("M'"), n))
w = element("W")
print("  invertible part:", ["I" if x == GFMatrix.identity() else
                             ("W" if x == w else "W^2") for x in cz.elements])
print("  W images:", [format_point(c) for c in w.cols])
print("  W fixed points:", fix_subspace(w).points() or "none")

stab = stabilizer_of_point(segre_group(), 0xFF)
print("\nStabilizer of the unit point has", len(stab), "elements")
