"""The distinguishing index: graphs, orientations, rooted trees.

The index is the least number of colours in an edge (or arc) colouring
that no non-trivial automorphism preserves.  Directing edges can only
help: arcs carry direction information for free.
"""

from disorient import (Colouring, Orientation, Permutation, RootedTree,
                       colour_preserving_automorphism, complete_graph,
                       count_optimal_rooted_colourings, cycle_graph, dprime,
                       dprime_at_most, path_graph, preserves, rooted_index,
                       star_graph)

k3 = complete_graph(3)
res = dprime(k3)
print("triangle needs", res.value, "colours:", res.witness.assignment)

c6 = cycle_graph(6)
res = dprime(c6)
print("6-cycle needs", res.value, "->", res.witness.assignment)
kept = colour_preserving_automorphism(c6, res.witness)
print("  any survivor?", kept)
print("  at width 1:", dprime_at_most(c6, 1))

# a directed triangle is easier than the plain one
o = Orientation(k3, 0b010)
print("directed triangle index:", dprime(o).value)

# the reversal of an undirected path dies once arcs exist
p4 = path_graph(4)
print("path index:", dprime(p4).value)
one_way = Orientation(p4, 0)
print("one-way path index:", dprime(one_way).value)

# rooted trees: colour the edges so only the identity fixes the root;
# the index and the colourings are counted over the tree's shapes
star = star_graph(3)
rt = RootedTree(star, 0)
print("star rooted at its centre:", rooted_index(rt))
print("  optimal colourings up to symmetry:",
      count_optimal_rooted_colourings(rt))

c = Colouring(2, (1, 2))
rev = Permutation((2, 1, 0))
print("width-2 colouring of a path breaks the reversal:",
      not preserves(path_graph(3), c, rev))
