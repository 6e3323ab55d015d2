"""
Cycle tubings and lattice paths
===============================

Tubings of a cycle graph are nested families of connected proper
subgraphs.  The improper ones (those leaving a free vertex) biject with
unrestricted flat-step paths, the interval ones with nonnegative paths,
and their gradings carry sieving polynomials.
"""

from sievekit.gaussseq import TruncatedSeries, solve_functional_equation
from sievekit.objects import verify_csp
from sievekit.qgauss import PolyFamily
from sievekit.tubings import (
    count_paths,
    cycle_tubing_to_delannoy,
    delannoy_to_cycle_tubing,
    enumerate_paths,
    enumerate_tubings,
    free_vertex_polynomial,
    free_vertices,
    interval_tubing_to_schroder,
    schroder_to_interval_tubing,
    tube_count_polynomial,
    tubings_by_free_vertices,
    tubings_by_tube_count,
)

# totals first: interval tubings and improper cycle tubings
print("interval tubings:", [len(enumerate_tubings(n, "interval")) for n in range(1, 7)])
improper = [
    [t for t in enumerate_tubings(n, "cycle") if free_vertices(n, t, "cycle")]
    for n in range(1, 7)
]
print("improper cycle tubings:", [len(ts) for ts in improper])

# a tubing is encoded by (start, length) tubes
t = {(2, 4), (3, 3), (3, 1), (5, 1), (7, 2)}
print("\nfree vertices of an eight-cycle tubing:", sorted(free_vertices(8, t, "cycle")))

# interval tubings unroll to nonnegative paths, tubes becoming rises
for tubing in enumerate_tubings(3, "interval")[:6]:
    p = interval_tubing_to_schroder(3, tubing)
    assert schroder_to_interval_tubing(3, p) == tubing
    print(sorted(tubing), "->", p)

# improper cycle tubings reach every unrestricted path
w = cycle_tubing_to_delannoy(8, t)
print("\neight-cycle tubing ->", w)
assert delannoy_to_cycle_tubing(8, w) == t
images = {cycle_tubing_to_delannoy(5, tb) for tb in improper[4]}
print("n=5 image is every path:", images == set(enumerate_paths(8, "delannoy")))

# gradings carry sieving polynomials
fam = tubings_by_free_vertices(6)
F = PolyFamily.from_function(fam.instance, fam.window, lambda s: free_vertex_polynomial(*s))
print("\nfree-vertex grading sieves:", verify_csp(fam, F).ok)
print("f(4, 1) =", free_vertex_polynomial(4, 1).coeffs, "counts", fam.counts()[(4, 1)])

fam = tubings_by_tube_count(6)
F = PolyFamily.from_function(fam.instance, fam.window, lambda s: tube_count_polynomial(*s))
print("tube-count grading sieves:", verify_csp(fam, F).ok)

# strict paths: C = x * D(C) with D = (1 - t)/(1 - 2t) counts them
D = TruncatedSeries.from_rational([1, -1], [1, -2], 11)
solved = list(solve_functional_equation(D, 11).coeffs[1:])
print("\nstrict path counts:", solved)
print("series and path count agree:",
      solved == [count_paths(2 * (n - 1), "strict") for n in range(1, 11)])
