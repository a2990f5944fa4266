import hashlib
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from oscl_sim.cli import main
from oscl_sim.topology import (
    ExperimentConfig,
    bfs_bounded,
    default_pair_count,
    predicted_degree,
    run_topology_experiment,
)


def _line_graph(n):
    adj = [set() for _ in range(n)]
    for i in range(n - 1):
        adj[i].add(i + 1)
        adj[i + 1].add(i)
    return adj


def _random_graph(n, p, rng):
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def _sssp(adj, src):
    """Plain BFS distances, the oracle for the bidirectional search."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# ===== bounded search =====


def test_bfs_same_node_is_zero_even_with_zero_bound():
    adj = _line_graph(3)
    assert bfs_bounded(adj, 1, 1, 0) == 0


def test_bfs_line_graph_exact_and_boundary():
    adj = _line_graph(6)
    assert bfs_bounded(adj, 0, 5, 5) == 5
    assert bfs_bounded(adj, 0, 5, 4) is None
    assert bfs_bounded(adj, 0, 3, 10) == 3
    assert bfs_bounded(adj, 2, 3, 1) == 1
    assert bfs_bounded(adj, 2, 3, 0) is None


def test_bfs_disconnected_and_bad_bound():
    adj = [set(), set()]
    assert bfs_bounded(adj, 0, 1, 5) is None
    with pytest.raises(ValueError):
        bfs_bounded(adj, 0, 1, -1)


def test_bfs_matches_floyd_warshall_on_random_graphs():
    rng = random.Random(1234)
    for trial in range(10):
        n = rng.randrange(4, 20)
        adj = _random_graph(n, rng.uniform(0.05, 0.4), rng)
        inf = float("inf")
        dist = [[0 if i == j else (1 if j in adj[i] else inf) for j in range(n)] for i in range(n)]
        for k in range(n):
            for i in range(n):
                dik = dist[i][k]
                if dik == inf:
                    continue
                row_k = dist[k]
                row_i = dist[i]
                for j in range(n):
                    alt = dik + row_k[j]
                    if alt < row_i[j]:
                        row_i[j] = alt
        for u in range(n):
            for v in range(n):
                for bound in range(0, 7):
                    want = dist[u][v] if dist[u][v] <= bound else None
                    assert bfs_bounded(adj, u, v, bound) == want


@given(st.data())
def test_bfs_matches_plain_bfs(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(2, 16))
    adj = _random_graph(n, data.draw(st.floats(0.0, 0.6)), rng)
    src = data.draw(st.integers(0, n - 1))
    dst = data.draw(st.integers(0, n - 1))
    bound = data.draw(st.integers(0, n))
    dist = _sssp(adj, src).get(dst)
    want = dist if dist is not None and dist <= bound else None
    assert bfs_bounded(adj, src, dst, bound) == want


# ===== configuration =====


def test_config_defaults():
    c = ExperimentConfig(n_nodes=32, max_hops=3)
    assert c.pairs == default_pair_count(32) == round(50 * 32 * math.log(32))
    assert c.stride == 32
    assert c.window == 320


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_nodes": 1, "max_hops": 3},
        {"n_nodes": 8, "max_hops": 0},
        {"n_nodes": 8, "max_hops": 3, "pair_count": -1},
        {"n_nodes": 8, "max_hops": 3, "pair_count": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


# ===== experiment =====


def test_experiment_is_deterministic():
    config = ExperimentConfig(n_nodes=24, max_hops=3, seed=9)
    a = run_topology_experiment(config)
    b = run_topology_experiment(config)
    assert a.adjacency == b.adjacency
    assert a.degree_series == b.degree_series
    other = run_topology_experiment(ExperimentConfig(n_nodes=24, max_hops=3, seed=10))
    assert other.adjacency != a.adjacency


def test_degree_series_is_monotone_and_strided():
    stats = run_topology_experiment(ExperimentConfig(n_nodes=16, max_hops=3, seed=2))
    indices = [i for i, _ in stats.degree_series]
    degrees = [d for _, d in stats.degree_series]
    assert indices[0] == 16
    assert indices[-1] == stats.config.pairs
    assert all(b - a in (16, stats.config.pairs % 16) for a, b in zip(indices, indices[1:]))
    assert all(b >= a for a, b in zip(degrees, degrees[1:]))
    assert degrees[-1] == pytest.approx(stats.final_degree)


def test_single_hop_budget_builds_complete_graph():
    # no pair is ever reachable without a direct link
    stats = run_topology_experiment(ExperimentConfig(n_nodes=8, max_hops=1, seed=0))
    assert stats.final_degree == 7.0
    assert stats.edge_count == 28
    assert stats.saturated


def test_every_drawn_pair_ends_within_budget():
    config = ExperimentConfig(n_nodes=32, max_hops=3, seed=5)
    stats = run_topology_experiment(config)
    # replay the draw sequence: links are only ever added, so each pair
    # seen during the run must be reachable in the final graph
    rng = random.Random(config.seed)
    n = config.n_nodes
    for _ in range(config.pairs):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        assert bfs_bounded(stats.adjacency, u, v, config.max_hops) is not None


def _reference_experiment(config):
    """The draw loop deciding every pair with bfs_bounded: the kernel's oracle."""
    n = config.n_nodes
    rng = random.Random(config.seed)
    adjacency = [set() for _ in range(n)]
    series = []
    links = 0
    last_link = -1
    for i in range(config.pairs):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        if v not in adjacency[u] and bfs_bounded(adjacency, u, v, config.max_hops) is None:
            adjacency[u].add(v)
            adjacency[v].add(u)
            links += 1
            last_link = i
        if (i + 1) % config.stride == 0 or i + 1 == config.pairs:
            series.append((i + 1, 2.0 * links / n))
    saturated = config.pairs - 1 - last_link >= config.window
    return adjacency, series, links, last_link, saturated


def _assert_kernel_matches_reference(config):
    stats = run_topology_experiment(config)
    got = (
        stats.adjacency,
        stats.degree_series,
        stats.links_created,
        stats.last_link_pair,
        stats.saturated,
    )
    assert got == _reference_experiment(config)


@given(
    n=st.integers(2, 40),
    max_hops=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    pair_count=st.integers(1, 400),
)
def test_ball_kernel_matches_bfs_reference(n, max_hops, seed, pair_count):
    _assert_kernel_matches_reference(
        ExperimentConfig(n_nodes=n, max_hops=max_hops, seed=seed, pair_count=pair_count)
    )


# balls of more than one machine word, and shells at larger degree
@settings(max_examples=40)
@given(
    n=st.integers(41, 160),
    max_hops=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    pair_count=st.integers(1, 3000),
)
def test_ball_kernel_matches_bfs_reference_on_larger_graphs(n, max_hops, seed, pair_count):
    _assert_kernel_matches_reference(
        ExperimentConfig(n_nodes=n, max_hops=max_hops, seed=seed, pair_count=pair_count)
    )


# sha256 of the degree series and every sorted neighbour set, by hop
# budget: the whole graph at the benchmark's size
GRAPH_DIGESTS_AT_512 = {
    3: "fda324800ea051938a4164d9650034d398b83f54ded827e212286dbe8d40a99e",
    5: "63aa2e97bf2693ab7906753863fddbca24f4ad558e4a8491cfdc4a04566ceabd",
}


# computed with the rng.randrange draw loop; a drift in the pair stream
# or the kernel changes them
@pytest.mark.parametrize("max_hops, links, last_link", [(3, 3430, 158336), (5, 1394, 159189)])
def test_kernel_pinned_at_512_nodes(max_hops, links, last_link):
    stats = run_topology_experiment(ExperimentConfig(n_nodes=512, max_hops=max_hops, seed=0))
    assert (stats.links_created, stats.last_link_pair) == (links, last_link)
    graph = repr((stats.degree_series, [sorted(nbrs) for nbrs in stats.adjacency]))
    assert hashlib.sha256(graph.encode()).hexdigest() == GRAPH_DIGESTS_AT_512[max_hops]


def test_unsaturated_run_is_flagged():
    stats = run_topology_experiment(
        ExperimentConfig(n_nodes=16, max_hops=3, seed=0, pair_count=40)
    )
    assert not stats.saturated


def test_last_link_tracking():
    stats = run_topology_experiment(ExperimentConfig(n_nodes=8, max_hops=2, seed=1))
    assert stats.links_created == stats.edge_count
    assert 0 <= stats.last_link_pair < stats.config.pairs
    assert stats.saturated == (stats.config.pairs - 1 - stats.last_link_pair >= 80)


# ===== model =====


def test_predicted_degree_anchors():
    assert predicted_degree(32, 3) == pytest.approx(6.0532946359034066, rel=1e-12)
    assert predicted_degree(2048, 3) == pytest.approx(31.491452914909402, rel=1e-12)
    assert predicted_degree(100, 1) == pytest.approx(2 * 100 * math.log(100))


def test_predicted_degree_rejects_degenerate_input():
    with pytest.raises(ValueError):
        predicted_degree(1, 3)
    with pytest.raises(ValueError):
        predicted_degree(32, 0)


# ===== scaling sweep =====


def test_sweep_spread_of_seed_mean_ratios(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "16,32", "--d", "3", "--seeds", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out

    lines = (out / "summary.csv").read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    assert [tuple(map(int, r[:3])) for r in rows] == [
        (16, 3, 0), (16, 3, 1), (32, 3, 0), (32, 3, 1)
    ]
    ratios = {}
    for n, _, seed, degree, predicted, ratio, _ in rows:
        stats = run_topology_experiment(
            ExperimentConfig(n_nodes=int(n), max_hops=3, seed=int(seed))
        )
        assert float(degree) == stats.final_degree
        assert float(predicted) == pytest.approx(predicted_degree(int(n), 3))
        assert float(ratio) == pytest.approx(float(degree) / float(predicted))
        ratios.setdefault(int(n), []).append(float(ratio))
    means = [sum(r) / len(r) for r in ratios.values()]
    assert f"d=3: spread={max(means) / min(means):.4f} over 2 sizes" in printed
