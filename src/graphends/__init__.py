"""Certified finite-window deciders for lazily described infinite graphs.

The package has three layers:

* `graph_core` / `gadgets`: graph oracles (neighbors-on-demand multigraphs),
  balls, and schedule-driven families with tunable structure at infinity;
* `separation` / `paths` / `eulerian`: deciders and semi-deciders for
  component counts after finite edge removal, end counting, one-way
  extendability of simple paths, and infinite Eulerian path criteria --
  each answer is definite or an explicit Unknown, never a guess;
* `automatic`: a small automatic-structure toolkit (convolution automata,
  first-order evaluation with counting quantifiers over a six-class
  cardinality semiring) with the Eulerian criteria as built-in sentences.

`cli` wires everything into a command-line front end.
"""

from .graph_core import (
    VertexId, EdgeRef, edge, EdgeSet, edge_set,
    GraphError, InvalidVertex, InvalidEdge, NotASimplePath, NotAShell,
    KindScheduleMismatch, UnsoundCertificateDetected, NoExtension,
    ArityMismatch, UnboundVariable,
    Unknown, Fuel, EndsCertificate,
    GraphOracle, degree, edges_at, multiplicity, check_edge, check_edge_set,
    Ball, ball, distances_from, bounded_distance,
    finite_components, edge_induced_vertices, to_dot,
)
from .gadgets import (
    Schedule, Halting, CeEnumeration, LimitApprox, parse_schedule,
    NatLine, IntLine, CycleChain, CycleChainWithRays, OneWayMulti, Doubled,
    Sigma21Line, Pi1Line, Delta2TwoEnded, LinesWithSticks, Comb, BinaryTree,
    ProductGraph, product_graph, tree_lambda, lambda_distance,
    GADGET_KINDS, build_gadget, parse_graph_spec,
)
from .separation import (
    comp_approx, semidecide_not_separating, decide_comp, comp_counter,
    BoundaryPartition, boundary_partition,
    shell_edges, minimal_separating_subsets,
    ends_from_sepmax, sepmax_witness_from_ends,
)
from .paths import (
    SimplePath, check_simple_path,
    decide_extendable, greedy_infinite_path, tree_sep_from_path,
)
from .eulerian import (
    ParityCertificate, LocalizationCertificate, EulerVerdict,
    odd_vertex_scan, cycle_space_basis, even_inducing_sets,
    check_one_way, check_two_way,
)
from .automatic import (
    PAD, FormulaSyntaxError, PresentationFormatError,
    Dfa, RelationAutomaton, Presentation,
    CountClass, CountSemiring,
    conv_alphabet, convolve, pad_dfa, relation,
    boolean_op, relation_not, project_exists, cylindrify, permute_tracks,
    counting_project,
    word_equality, llex_less, domain_as_relation, domain_words,
    validate_presentation, normalize_presentation,
    parse_formula, formula_to_text, free_variables,
    eval_formula, eval_sentence, decide_eulerian_automatic,
    nat_line_presentation, grid_presentation,
    parse_presentation, serialize_presentation,
)

__version__ = "0.1.0"
