"""abcmax: extremal analysis of the atom-bond connectivity index.

Graph construction and the named extremal families, exact connectivity and
chromatic predicates, exhaustive connected-graph enumeration, closed-form
bounds, and campaign runners that check the bounds against brute force.
"""

from .bounds import (
    CauchySchwarzBound,
    KaramataResult,
    PartitionProfile,
    bipartite_bound,
    cauchy_schwarz_bound,
    chromatic_bound,
    clique_side_second_derivative,
    clique_side_value,
    cs_equality_gap,
    edge_connectivity_bound,
    karamata_check,
    majorizes,
    multipartite_bound,
    vertex_migration_gain,
)
from .coloring import ColoringResult, chromatic_number, is_k_colorable, k_coloring
from .connectivity import edge_connectivity, vertex_connectivity
from .enumeration import (
    all_graphs,
    are_isomorphic,
    canonical_form,
    connected_graph_list,
    connected_graphs,
)
from .graphs import (
    Graph,
    Graph6Error,
    add_edge,
    bridge_cliques_graph,
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    is_connected,
    join,
    kn_k_graph,
    path_graph,
    remove_edge,
    star_graph,
    turan_graph,
)
from .invariants import abc_index, abc_index_decimal, f_abc
from .verifier import (
    ConstraintSpec,
    Report,
    run_campaign,
    run_full_battery,
    verify_bridge_rewrite,
    verify_monotonicity,
)

__version__ = "0.1.0"
