"""Deterministic simulator for an information-centric M2M overlay.

Building blocks: hierarchical names, a per-node Interest/Data
forwarding plane that answers its own prefix and floods the rest,
ETSI-style service capability layers with resource trees, an overlay
that discovers resources by name and forms links under a hop policy,
and the degree-scaling experiment for that link-formation rule.
"""

__version__ = "0.1.0"
