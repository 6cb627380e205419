"""Parse the three input formats and probe a graph's structure."""

from disorient import (Orientation, analyze, encode_digraph6, encode_graph6,
                       longest_cycle, parse, tree_center)

# graph6: the triangle
k3 = parse("graph6", "Bw")
print("triangle:", k3.n, "vertices,", k3.m, "edges ->", k3.edges)

# edgelist: first line the vertex count, then one edge per line
spider = parse("edgelist", """
7
0 1
1 2
0 3
3 4
0 5
5 6
""")
print("spider:", encode_graph6(spider))

report = analyze(spider)
print("  connected:", report.connected)
print("  tree:", report.is_tree)
print("  claw-free:", report.is_claw_free)
print("  hamiltonian path:", report.hamiltonian_path)

c = tree_center(spider)
print("  centre:", c.kind, c.vertices)

# digraph6 keeps directions; opposite arc pairs are rejected at parse time
o = Orientation(k3, 0b010)
code = encode_digraph6(o)
print("directed triangle:", code, "->", parse("digraph6", code).arcs)

wheelish = parse("graph6", "DV{")
print("longest cycle of DV{:", longest_cycle(wheelish))
