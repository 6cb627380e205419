"""The constructive orientations, one per strategy.

layered: direct everything by class order, keeping every symmetry that
respects the classes.  split/merge: trade pairs (direction bit, colour)
on edges for colours on arcs.  hamiltonian: direct along spanning-path
positions, killing every symmetry.  compatible: keep one chosen
non-twisted map alive.  clawfree: rigid orientation for connected
claw-free graphs of order at least six.  tree_od_values: closed-form
extremes for trees.
"""

from disorient import (CENTRAL_EDGE_SWAPPED, PairColouring, Permutation,
                       automorphism_generators,
                       clawfree_rigid_orientation_trace,
                       compatible_orientation, complete_bipartite_graph,
                       cycle_graph, double_star, hamiltonian_orientation,
                       is_rigid, layered_orientation, merge_colouring,
                       natural_bipartition, path_graph, split_colouring,
                       star_graph, tree_case, tree_od_values)

k23 = complete_bipartite_graph(2, 3)
part = natural_bipartition(k23)
layered = layered_orientation(k23, part)
print("layered K_{2,3}:", layered.arcs)
print("  group kept intact:", automorphism_generators(layered)[1], "of",
      automorphism_generators(k23)[1])

pair = PairColouring(2, bits=(0, 1, 0, 1, 0, 1), colours=(1, 2, 2, 1, 1, 2))
o, c = split_colouring(k23, part, pair)
print("split of a pair colouring:", o.arcs, c.assignment)
print("  merged back:", merge_colouring(k23, part, o, c) == pair)

ham = hamiltonian_orientation(cycle_graph(5))
print("hamiltonian orientation of C5:", ham.arcs)
print("  rigid:", is_rigid(ham))

c6 = cycle_graph(6)
rotation = Permutation((1, 2, 3, 4, 5, 0))
comp = compatible_orientation(c6, rotation)
print("orientation keeping the C6 rotation:", comp.arcs)

trace = clawfree_rigid_orientation_trace(c6)
print("claw-free procedure on C6: branch", trace.branch,
      "rigid", is_rigid(trace.result))

for t in (star_graph(3), path_graph(4), double_star(2, 2)):
    lo, hi, case = tree_od_values(t)
    extra = ""
    if case.kind == CENTRAL_EDGE_SWAPPED:
        extra = f", unique optimal half colouring: {case.unique_optimal}"
    print(f"tree on {t.n}: extremes {lo}..{hi} [{case.kind}{extra}]")

print("centre case of a path:", tree_case(path_graph(4)).kind)
