"""Distinguishing indices of graphs and of their orientations.

The library computes the least number of edge (or arc) colours that
breaks every non-trivial automorphism, sweeps all orientations of a
graph for the extremes of that index, and builds the special
orientations that realise them: layered, Hamiltonian-path based,
symmetry-compatible and claw-free rigid.  Exhaustive corpora of small
graphs and a verification harness sit alongside.
"""

from .complete_bipartite import (Prediction, as_complete_bipartite,
                                 dprime_kmn, od_minus_kmn)
from .constructions import (CENTRAL_EDGE_FIXED, CENTRAL_EDGE_SWAPPED,
                            CENTRAL_VERTEX, ClawfreeTrace, ConstructionError,
                            OrderedPartition, PairColouring, TreeCase,
                            centre_case, clawfree_rigid_orientation,
                            clawfree_rigid_orientation_trace,
                            compatible_orientation, hamiltonian_orientation,
                            layered_orientation, merge_colouring,
                            natural_bipartition, split_colouring, tree_case,
                            tree_od_values)
from .distinguishing import (Colouring, DprimeResult, RootedTree,
                             colour_preserving_automorphism,
                             count_optimal_rooted_colourings, dprime,
                             dprime_at_most, is_distinguishing,
                             oriented_tree_colouring, oriented_tree_index,
                             preserves, rooted_index)
from .graphs import (CenterInfo, FormatError, Graph, HungTree, Orientation,
                     ShapeTable, StructureReport, analyze, bipartition,
                     encode_digraph6, encode_graph6, hamiltonian_path, hang,
                     hang_centre, is_claw_free, is_connected, is_tree,
                     longest_cycle, longest_path, parse, tree_center)
from .groups import (NOT_FIXED, POINTWISE, SETWISE_ONLY, Permutation,
                     arc_permutation, arcs_of, automorphism_generators,
                     automorphisms, fixed_set_status, is_automorphism,
                     is_rigid, is_twisted, kept_vector,
                     nontrivial_automorphism, tree_automorphism_generators)
from .orientations import (DEFAULT_EDGE_CAP, EdgeCapError, ODResult,
                           enumerate_orientations, find_rigid_orientation,
                           od_extremes, od_minus, od_plus)
from .smallgraphs import (are_isomorphic, clawfree_graphs, complete_graph,
                          complete_bipartite_graph, connected_bipartite_graphs,
                          connected_graphs, cycle_graph, double_star,
                          path_graph, star_graph, trees)
from .verify import (CLAIMS, THEOREM_IDS, Corpus, Report, Skip, Violation,
                     scan_conjectures, verify_theorem)

__version__ = "0.1.0"
