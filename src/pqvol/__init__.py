"""Exact normalized volumes of PQ-type adjacency polytopes.

The volume of the adjacency polytope of a connected graph equals the number
of its draconian sequences, so everything here reduces to counting those:
an enumeration oracle, closed forms for special families, two local
recurrences with explicit bijection witnesses, and a product formula for
outerplanar graphs.
"""

from .draconian import (
    DraconianSet,
    ResourceCapExceeded,
    check_flow,
    check_subset,
    count,
    enumerate_draconian,
)
from .graphs import (
    BipartiteDouble,
    Graph,
    build_double,
    from_edge_list,
    generate,
    graph_fingerprint,
    read_edge_list,
    write_edge_list,
)
from .outerplanar import (
    NotOuterplanarError,
    is_outerplanar,
    nvol_outerplanar,
)
from .recurrence import (
    BijectionWitness,
    IdentityCheck,
    VolumeResult,
    edge_step,
    nvol,
    nvol_complete_minus_matching,
    nvol_cycle,
    nvol_forest,
    nvol_k2m,
    stirling_identity_check,
    subdivision_step,
    triangle_step,
    wheel_conjecture_value,
)

__version__ = "0.1.0"

__all__ = [
    "BijectionWitness",
    "BipartiteDouble",
    "DraconianSet",
    "Graph",
    "IdentityCheck",
    "NotOuterplanarError",
    "ResourceCapExceeded",
    "VolumeResult",
    "build_double",
    "check_flow",
    "check_subset",
    "count",
    "edge_step",
    "enumerate_draconian",
    "from_edge_list",
    "generate",
    "graph_fingerprint",
    "is_outerplanar",
    "nvol",
    "nvol_complete_minus_matching",
    "nvol_cycle",
    "nvol_forest",
    "nvol_k2m",
    "nvol_outerplanar",
    "read_edge_list",
    "stirling_identity_check",
    "subdivision_step",
    "triangle_step",
    "wheel_conjecture_value",
    "write_edge_list",
]
