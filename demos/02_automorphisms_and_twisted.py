"""Automorphism groups, their action on arcs, and twisted maps.

A map is twisted when some power of it transposes the endpoints of an
edge; equivalently some arc shares a cycle of the induced arc
permutation with its own reverse.  Twisted maps are exactly the ones no
orientation can keep.
"""

from disorient import (Permutation, arc_permutation, automorphism_generators,
                       automorphisms, cycle_graph, fixed_set_status,
                       is_twisted, path_graph, star_graph)

c4 = cycle_graph(4)
print("4-cycle group order:", automorphism_generators(c4)[1])
for p in automorphisms(c4):
    print("  ", p.image, "cycles", p.cycles(), "order", p.order())

rotation = Permutation((1, 2, 3, 0))
print("rotation on arcs:", arc_permutation(c4, rotation).cycles())

# the antipodal swap is twisted: its square is the identity but it
# exchanges the endpoints of no edge directly -- the arc cycles tell
swap = Permutation((1, 0, 3, 2))
print("(1 0)(3 2) twisted:", is_twisted(c4, swap))
print("rotation twisted:", is_twisted(c4, rotation))

p3 = path_graph(3)
print("path reversal twisted:", is_twisted(p3, Permutation((2, 1, 0))))

# generators suffice: the group fixes a set exactly when each of them does
star_gens = automorphism_generators(star_graph(3))[0]
centre_status = fixed_set_status(star_gens, {0})
leaves_status = fixed_set_status(star_gens, {1, 2})
print("star centre:", centre_status, "| two leaves:", leaves_status)
