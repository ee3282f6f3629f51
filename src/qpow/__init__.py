"""Signless-Laplacian power sums: spectra, invariants, sharp bounds, scans."""

from .bounds import (
    BOUNDS,
    BoundSpec,
    balanced_bipartite_bound,
    complete_bipartite_bound,
    complete_bipartite_q_spectrum,
    complete_graph_bound,
    complete_q_spectrum,
    connectivity_bound,
    el_bound_vnk,
    el_bound_vnk_as_printed,
    extremal_graph,
    gi_spectrum,
    max_edges_vnk,
    resolve_bound_id,
)
from .connectivity import (
    ConnectivityProfile,
    connectivity_profile,
    edge_connectivity,
    kappa_at_most,
    min_edge_cut,
    min_vertex_cut,
    vertex_connectivity,
)
from .graph6 import Graph6Error, emit_graph6, parse_graph6, read_stream
from .graphs import (
    MAX_VERTICES,
    Graph,
    complete,
    complete_bipartite,
    construct_gi,
    cycle,
    disjoint_union,
    empty,
    from_code,
    join,
    new_graph,
    path,
)
from .invariants import (
    InvariantBundle,
    laplacian_power_sum,
    named_invariants,
    nonzero_power_sum,
    signless_power_sum,
    zagreb,
)
from .search import (
    ScanReport,
    ViolationRecord,
    enumerate_graphs,
    extremal_table,
    scan,
)
from .spectra import (
    EigensolverError,
    Spectrum,
    a_spectrum,
    adjacency,
    eigenvalues,
    jacobi_eigenvalues,
    l_spectrum,
    laplacian,
    q_spectrum,
    signless_laplacian,
)
from .verify import (
    BoundResult,
    bound_results_to_jsonl,
    check_bipartite_cospectral,
    check_bound,
    check_edge_monotonicity,
    check_identities,
    check_interlacing,
    matches_extremal,
)

__version__ = "0.1.0"
