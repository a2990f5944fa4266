"""Deterministic simulator for an information-centric M2M overlay.

Building blocks: hierarchical names with prefix routing, a per-node
Interest/Data forwarding plane, ETSI-style service capability layers
with resource trees, an overlay that discovers resources by name and
forms links under a hop policy, and the degree-scaling experiment for
that link-formation rule.
"""

__version__ = "0.1.0"

from .names import (
    EmptyComponent,
    EmptyName,
    HierarchicalName,
    InvalidName,
    PrefixTable,
    is_prefix,
    parse_name,
)
from .ndn import (
    APP_FACE,
    ContentStore,
    DataPacket,
    FibEntry,
    InterestPacket,
    NdnNode,
    PitEntry,
    fib_register,
    on_data,
    on_interest,
)
from .overlay import (
    LinkDecision,
    LinkMetrics,
    Overlay,
    OverlayGraph,
    QosMetrics,
    QosPolicy,
)
from .scl import (
    DiscoveryResult,
    Locator,
    M2mSystem,
    SclInstance,
    SclKind,
    Subscription,
)
from .topology import (
    ExperimentConfig,
    TopologyStats,
    bfs_bounded,
    predicted_degree,
    run_topology_experiment,
)

__all__ = [
    "APP_FACE",
    "ContentStore",
    "DataPacket",
    "DiscoveryResult",
    "EmptyComponent",
    "EmptyName",
    "ExperimentConfig",
    "FibEntry",
    "HierarchicalName",
    "InterestPacket",
    "InvalidName",
    "LinkDecision",
    "LinkMetrics",
    "Locator",
    "M2mSystem",
    "NdnNode",
    "Overlay",
    "OverlayGraph",
    "PitEntry",
    "PrefixTable",
    "QosMetrics",
    "QosPolicy",
    "SclInstance",
    "SclKind",
    "Subscription",
    "TopologyStats",
    "bfs_bounded",
    "fib_register",
    "is_prefix",
    "on_data",
    "on_interest",
    "parse_name",
    "predicted_degree",
    "run_topology_experiment",
]
