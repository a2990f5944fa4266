"""Overlay topology formation and the degree scaling experiment.

Random node pairs exchange traffic; a direct link is created only when
no path of at most h hops already joins the pair, h being the hop
budget (``max_hops``, the CLI's --d). Run long enough, the average
degree settles near (2 n ln n)^(1/h) for n nodes, so the budget is the
knob trading per-node link state against worst-case path stretch.

The experiment works on hop balls kept as integer bitmasks rather than
on Overlay objects: it needs millions of pair draws, and bookkeeping on
full forwarder state would drown the measurement. It decides each draw
with a meet-in-the-middle test over those balls. Every ball is exact
from the first draw, and a link grows the balls it changes in place.
Each node also keeps a list of its neighbours: a growth step walks an
end's first shell from it, and the adjacency sets of the result are
built from the lists (see run_topology_experiment). bfs_bounded is the
reference search that the tests check that kernel against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


def bfs_bounded(
    adjacency: Sequence[Set[int]], src: int, dst: int, bound: int
) -> Optional[int]:
    """Shortest path length src->dst if it is <= bound, else None.

    Bidirectional level-synchronized search. Each round expands the
    smaller frontier by one hop; the first time the two sides touch,
    the sum of the expanded radii is exact, because any shorter meeting
    would have been seen on an earlier round. Frontier expansion is a
    single set-union over neighbor sets, which keeps the hot loop in C.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if src == dst:
        return 0
    if bound == 0:
        return None

    seen_s: Set[int] = {src}
    seen_d: Set[int] = {dst}
    frontier_s: Set[int] = {src}
    frontier_d: Set[int] = {dst}
    dist = 0
    while frontier_s and frontier_d and dist < bound:
        # grow the cheaper side; ties grow the source side
        if len(frontier_s) <= len(frontier_d):
            frontier, seen, other_seen = frontier_s, seen_s, seen_d
            grew_src = True
        else:
            frontier, seen, other_seen = frontier_d, seen_d, seen_s
            grew_src = False
        nxt = set().union(*(adjacency[v] for v in frontier)) - seen
        dist += 1
        if nxt & other_seen:
            return dist
        seen |= nxt
        if grew_src:
            frontier_s = nxt
        else:
            frontier_d = nxt
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    """One topology-formation run.

    pair_count defaults to 50 * n * ln n draws, enough for the link
    rate to die out at every size this package targets. The degree
    series takes one sample per n draws (``stride``), and a run counts
    as saturated when its last 10 n draws added no link (``window``).
    """

    n_nodes: int
    max_hops: int
    seed: int = 0
    pair_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.pair_count is not None and self.pair_count < 1:
            raise ValueError("pair_count must be >= 1")

    @property
    def pairs(self) -> int:
        if self.pair_count is not None:
            return self.pair_count
        return default_pair_count(self.n_nodes)

    @property
    def stride(self) -> int:
        return self.n_nodes

    @property
    def window(self) -> int:
        return 10 * self.n_nodes


def default_pair_count(n_nodes: int) -> int:
    return max(1, int(round(50 * n_nodes * math.log(n_nodes))))


@dataclass
class TopologyStats:
    """Outcome of one run: final graph plus the degree trajectory."""

    config: ExperimentConfig
    adjacency: List[Set[int]]
    degree_series: List[Tuple[int, float]]  # (pair index, average degree)
    links_created: int
    last_link_pair: int  # pair index of the final link, -1 if none
    saturated: bool

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    @property
    def final_degree(self) -> float:
        return 2.0 * self.edge_count / len(self.adjacency)


def run_topology_experiment(config: ExperimentConfig) -> TopologyStats:
    """Draw random pairs and link the ones the overlay cannot serve.

    A pair is linked exactly when no path of at most h = max_hops hops
    joins it, which is the answer bfs_bounded would give. The test meets
    in the middle: u and v are within h hops iff the closed ball of
    radius h//2 around u meets the closed ball of radius h - h//2 around
    v. Balls are bitmasks over node indices, and every ball of every
    radius is exact from the first draw: in the empty graph each ball is
    its centre alone. Each node's neighbour list holds the links of its
    1-ball; the result's adjacency sets are built from the lists.

    A shortest path uses a new link (u, v) at most once, so for a node x
    at old distance j < r from u, the new r-ball of x is its old r-ball
    plus the old (r-1-j)-ball of v, and likewise with u and v swapped.
    The old balls of u and v are gathered first, then every ball of the
    nodes on the shells of u and v grows in place: shell 0 is the end,
    shell 1 its list (the link is listed after), deeper ones (h >= 5)
    are peeled off the old balls, and the outermost, j = far - 1, only
    gains the other end in its far-ball. Pairs are drawn with the
    rejection loop that ``rng.randrange`` runs, inlined, so the stream
    is the same.
    """
    n = config.n_nodes
    last = n - 1
    rng = random.Random(config.seed)
    getrandbits = rng.getrandbits
    u_bits, v_bits = n.bit_length(), last.bit_length()
    # no simple path is longer than n-1 hops, so a larger bound decides alike
    bound = min(config.max_hops, last)
    near, far = bound // 2, bound - bound // 2

    # balls[r][x]: closed r-ball of x as a bitmask, for r = 0..far
    balls = [[1 << x for x in range(n)] for _ in range(far + 1)]
    near_balls, far_balls = balls[near], balls[far]
    # nbrs[x]: the neighbours of x, in linking order
    nbrs: List[List[int]] = [[] for _ in range(n)]

    series: List[Tuple[int, float]] = []
    pairs = config.pairs
    links = 0
    last_link = -1

    for block in range(0, pairs, config.stride):
        block_end = min(block + config.stride, pairs)
        for i in range(block, block_end):
            u = getrandbits(u_bits)
            while u >= n:
                u = getrandbits(u_bits)
            v = getrandbits(v_bits)
            while v >= last:
                v = getrandbits(v_bits)
            if v >= u:
                v += 1
            if near_balls[u] & far_balls[v]:
                continue
            # old j-balls of both ends, j < far, taken before any ball grows
            u_reach = [radius_balls[u] for radius_balls in balls[:far]]
            v_reach = [radius_balls[v] for radius_balls in balls[:far]]
            for end, reach, other in ((u, u_reach, v_reach), (v, v_reach, u_reach)):
                for j in range(far):
                    if j > 1:
                        shell = _members(reach[j] ^ reach[j - 1])
                    else:
                        shell = nbrs[end] if j else (end,)
                    if j == far - 1:
                        # its far-ball gains the other end alone
                        gain = other[0]
                        for x in shell:
                            far_balls[x] |= gain
                        continue
                    # x at distance j: its r-ball gains the other end's (r-1-j)-ball
                    gains = list(zip(balls[j + 1 :], other))
                    for x in shell:
                        for radius_balls, gain in gains:
                            radius_balls[x] |= gain
            nbrs[u].append(v)
            nbrs[v].append(u)
            links += 1
            last_link = i
        series.append((block_end, 2.0 * links / n))

    adjacency = [set(x_nbrs) for x_nbrs in nbrs]
    saturated = (pairs - 1 - last_link) >= config.window
    return TopologyStats(
        config=config,
        adjacency=adjacency,
        degree_series=series,
        links_created=links,
        last_link_pair=last_link,
        saturated=saturated,
    )


def _members(mask: int) -> List[int]:
    """Indices of the set bits of ``mask``, highest first."""
    members = []
    while mask:
        x = mask.bit_length() - 1
        members.append(x)
        mask ^= 1 << x
    return members


def seed_mean_spread(ratios: Iterable[Tuple[int, float]]) -> float:
    """Max over min, across sizes n, of the seed-mean degree ratio:
    ``ratios`` holds one (n, final degree / predicted_degree) pair per
    run, all at one hop budget, and each n's runs are averaged in order."""
    by_size: Dict[int, List[float]] = {}
    for n, ratio in ratios:
        by_size.setdefault(n, []).append(ratio)
    means = [sum(v) / len(v) for v in by_size.values()]
    return max(means) / min(means)


def predicted_degree(n_nodes: float, max_hops: int) -> float:
    """Model value (2 n ln n)^(1/h) the saturated degree should track."""
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    return (2.0 * n_nodes * math.log(n_nodes)) ** (1.0 / max_hops)
