"""The benchmark's three seeded workloads.

Each workload has a set-up and an episode. The set-up turns the seed
into inputs and does the work a user pays once (import, graph
building, registration, wiring). An episode is a fixed amount of
closed-loop work: every operation runs the event queue until it is
empty before the next one starts. Episodes of one run repeat identical
work, so their output digests must agree and their medians are
comparable between runs.

- degree-sweep: the topology experiment at n=512, d=3 and d=5. Nearly
  all time is in ``bfs_bounded``; the forwarder and overlay sit idle.
- overlay-flood: seeded discoveries on a 128-node flooding overlay
  whose links come from an n=128, d=3 topology run. Stresses the
  Interest path, name lookup, the event loop and state growth.
- metering-notify: in-process ``oscl-sim scenario`` runs over
  usecase1/usecase2 with the overlay on and off. Stresses the
  solicited-Data path, hub relaying and CSV writing.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

MODULES = ("names", "ndn", "scl", "topology", "overlay", "scenarios", "cli")
TRAVERSAL_KINDS = ("interest", "data")


def fresh_import() -> SimpleNamespace:
    """Import the simulator from scratch, so set-up time includes import."""
    for name in [m for m in sys.modules if m == "oscl_sim" or m.startswith("oscl_sim.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"oscl_sim.{m}") for m in MODULES})


@dataclass
class Episode:
    """Outcome of one episode. Only the operations are timed: each has a
    begin and end ``time.perf_counter`` reading and a work count (draws,
    link traversals or appends)."""

    op_begin: List[float]
    op_end: List[float]
    op_work: List[int]
    attempted: int
    failed: int
    promised: int  # units failed_share is counted over
    missed: int
    digest: str
    facts: Dict[str, float] = field(default_factory=dict)


def _seed_stream(seed: int) -> random.Random:
    return random.Random(f"oscl-sim-bench/{seed}")


def _traversals(rows) -> int:
    return sum(1 for r in rows if r.msg_type in TRAVERSAL_KINDS)


def _strictly_increasing(values: List[int]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


class DegreeSweep:
    name = "degree-sweep"
    work_unit = "draws"
    op_name = "run"
    N_NODES = 512
    HOPS = (3, 5)

    def setup(self, mods, seed: int, work_dir: str):
        rng = _seed_stream(seed)
        return [
            mods.topology.ExperimentConfig(
                n_nodes=self.N_NODES, max_hops=d, seed=rng.randrange(2**31)
            )
            for d in self.HOPS
        ]

    def episode(self, mods, configs, tracer) -> Episode:
        clock = time.perf_counter
        begins, ends, runs = [], [], []
        with tracer.window():
            for config in configs:
                begins.append(clock())
                runs.append(mods.topology.run_topology_experiment(config))
                ends.append(clock())
        failed = 0
        digest = hashlib.sha256()
        for stats in runs:
            degrees = [degree for _, degree in stats.degree_series]
            if stats.edge_count != stats.links_created or any(
                b < a for a, b in zip(degrees, degrees[1:])
            ):
                failed += 1
            digest.update(
                repr(
                    (stats.config, stats.links_created, stats.last_link_pair,
                     stats.saturated, stats.degree_series)
                ).encode()
            )
        return Episode(
            op_begin=begins,
            op_end=ends,
            op_work=[c.pairs for c in configs],
            attempted=len(runs),
            failed=failed,
            promised=len(runs),
            missed=failed,
            digest=digest.hexdigest(),
        )


class OverlayFlood:
    name = "overlay-flood"
    work_unit = "traversals"
    op_name = "discover"
    N_NODES = 128
    HOPS = 3
    SCOPE = 3
    DISCOVERIES = 1000
    # One graph for every seed: flood cost grows steeply with node degree,
    # so a graph per seed would swamp the timing with graph-to-graph spread.
    TOPOLOGY_SEED = 0

    def setup(self, mods, seed: int, work_dir: str):
        rng = _seed_stream(seed)
        topology = mods.topology
        stats = topology.run_topology_experiment(
            topology.ExperimentConfig(
                n_nodes=self.N_NODES, max_hops=self.HOPS, seed=self.TOPOLOGY_SEED
            )
        )
        queries = []
        for _ in range(self.DISCOVERIES):
            origin = rng.randrange(self.N_NODES)
            target = rng.randrange(self.N_NODES - 1)
            queries.append((origin, target + (target >= origin)))
        state = SimpleNamespace(
            ids=[f"Gscl{i}" for i in range(self.N_NODES)],
            targets=[
                mods.names.parse_name(f"Gscl{i}/applications/app{i}")
                for i in range(self.N_NODES)
            ],
            edges=[(u, v) for u, nbrs in enumerate(stats.adjacency) for v in sorted(nbrs) if u < v],
            queries=queries,
            overlay_seed=rng.randrange(2**31),
        )
        # Wired once so that set-up time covers registration and wiring;
        # every episode then wires a fresh copy, untimed, so all episodes
        # (traced or not) do identical work.
        self._build(mods, state)
        return state

    def _build(self, mods, state):
        """128 GSCLs with one app and container each, all registered to
        an NSCL that sits on no overlay link; links from the topology."""
        scl = mods.scl
        system = scl.M2mSystem()
        nscl = system.add_scl(scl.SclKind.NSCL, "Nscl")
        overlay = mods.overlay.Overlay(system, seed=state.overlay_seed)
        for i, node_id in enumerate(state.ids):
            gscl = system.add_scl(scl.SclKind.GSCL, node_id)
            scl.register_scl(gscl, nscl)
            scl.create_application(gscl, f"app{i}")
            scl.create_container(gscl, f"app{i}", "data")
            overlay.add_node(gscl)
        for u, v in state.edges:
            overlay.add_link(state.ids[u], state.ids[v])
        return system, overlay, nscl

    def episode(self, mods, state, tracer) -> Episode:
        system, overlay, nscl = self._build(mods, state)
        ids, targets, scope = state.ids, state.targets, self.SCOPE
        log = system.log
        clock = time.perf_counter
        marks, begins, ends, results = [], [], [], []
        with tracer.window():
            for origin, target in state.queries:
                marks.append(len(log))
                begins.append(clock())
                try:
                    result = overlay.discover(ids[origin], targets[target], scope, nscl)
                except Exception as exc:  # a raising discover is a failed operation
                    result = exc
                ends.append(clock())
                results.append(result)

        failed = fallbacks = 0
        digest = hashlib.sha256()
        for (_, target), result in zip(state.queries, results):
            if isinstance(result, Exception):
                failed += 1
                digest.update(repr(type(result)).encode())
                continue
            fallbacks += result.method == "centralized"
            if result.locator.node_id != ids[target] or (
                result.method == "distributed" and result.path_hops > scope
            ):
                failed += 1
            digest.update(repr((result.method, result.locator.node_id, result.path)).encode())
        counters = system.counters
        digest.update(repr((len(log), len(overlay.drops), counters.rows())).encode())

        bounds = marks + [len(log)]
        op_work = [_traversals(log[a:b]) for a, b in zip(bounds, bounds[1:])]
        received = sum(counters.total(k, "received") for k in TRAVERSAL_KINDS)
        dropped = sum(counters.total(k, "dropped") for k in TRAVERSAL_KINDS)
        return Episode(
            op_begin=begins,
            op_end=ends,
            op_work=op_work,
            attempted=len(results),
            failed=failed,
            promised=len(results),
            missed=failed,
            digest=digest.hexdigest(),
            facts={
                "traversals": sum(op_work),
                "received": received,
                "dropped": dropped,
                "discovers": len(results),
                "fallbacks": fallbacks,
                "log_len_end": len(log),
                "drops_len_end": len(overlay.drops),
                "pit_entries_end": sum(len(s.ndn.pit) for s in system.scls.values()),
            },
        )


class _Sink:
    """Discards the scenario command's console output."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class MeteringNotify:
    name = "metering-notify"
    work_unit = "appends"
    op_name = "scenario"
    STRATA = 48  # append counts: one log-uniform draw per stratum of [3, 1000]
    LOW, HIGH = 3, 1000
    VARIANTS = (("usecase1", "on"), ("usecase1", "off"), ("usecase2", "on"), ("usecase2", "off"))
    OUTPUTS = ("messages.csv", "counters.csv", "manifest.json")

    def setup(self, mods, seed: int, work_dir: str):
        rng = _seed_stream(seed)
        width = math.log(self.HIGH / self.LOW) / self.STRATA
        counts = [
            int(round(self.LOW * math.exp((i + rng.random()) * width)))
            for i in range(self.STRATA)
        ]
        plan = [
            (name, oscl, appends, rng.randrange(2**31))
            for appends in counts
            for name, oscl in self.VARIANTS
        ]
        rng.shuffle(plan)
        return SimpleNamespace(
            plan=plan,
            out_dirs=[os.path.join(work_dir, str(i)) for i in range(len(plan))],
        )

    def episode(self, mods, state, tracer) -> Episode:
        cli = mods.cli
        run_scenario = cli.run_scenario
        results: List = []

        def keep_result(config):
            result = run_scenario(config)
            results.append(result)
            return result

        clock = time.perf_counter
        begins, ends, outcomes = [], [], []
        cli.run_scenario = keep_result
        sink = _Sink()
        try:
            with tracer.window(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for (name, oscl, appends, seed), out_dir in zip(state.plan, state.out_dirs):
                    argv = ["scenario", name, "--oscl", oscl, "--appends", str(appends),
                            "--seed", str(seed), "--out", out_dir]
                    before = len(results)
                    begins.append(clock())
                    code = cli.main(argv)
                    ends.append(clock())
                    outcomes.append((code, results[before] if len(results) > before else None))
        finally:
            cli.run_scenario = run_scenario

        failed = promised = missed = 0
        facts = dict.fromkeys(
            ("traversals", "received", "dropped", "discovers", "fallbacks", "bytes_written",
             "log_len_end", "drops_len_end", "pit_entries_end"), 0)
        digest = hashlib.sha256()
        for (name, oscl, appends, _), out_dir, (code, result) in zip(
            state.plan, state.out_dirs, outcomes
        ):
            promised += appends
            if code != 0 or result is None:
                failed += 1
                missed += appends
                continue
            indices = self._delivered(mods, result)
            if indices is None:
                failed += 1
                indices = []
            elif not _strictly_increasing(indices) or not all(0 <= i < appends for i in indices):
                failed += 1
            missed += appends - len(indices)
            for output in self.OUTPUTS:
                with open(os.path.join(out_dir, output), "rb") as fh:
                    body = fh.read()
                facts["bytes_written"] += len(body)
                if output != "manifest.json":  # the manifest carries a wall time
                    digest.update(body)
            system, overlay = result.system, result.overlay
            counters = system.counters
            facts["traversals"] += _traversals(system.log)
            facts["received"] += sum(counters.total(k, "received") for k in TRAVERSAL_KINDS)
            facts["dropped"] += sum(counters.total(k, "dropped") for k in TRAVERSAL_KINDS)
            if oscl == "on":
                facts["discovers"] += 1
                facts["fallbacks"] += result.discovery.method == "centralized"
            for key, value in (
                ("log_len_end", len(system.log)),
                ("drops_len_end", len(overlay.drops)),
                ("pit_entries_end", sum(len(s.ndn.pit) for s in system.scls.values())),
            ):
                facts[key] = max(facts[key], value)
        return Episode(
            op_begin=begins,
            op_end=ends,
            op_work=[appends for _, _, appends, _ in state.plan],
            attempted=len(outcomes),
            failed=failed,
            promised=promised,
            missed=missed,
            digest=digest.hexdigest(),
            facts=facts,
        )

    @staticmethod
    def _delivered(mods, result) -> Optional[List[int]]:
        """Instance indices that reached the subscriber, in arrival order;
        None when the hub's relay counter disagrees with its log."""
        if result.config.oscl_enabled:
            container = mods.names.parse_name(result.container_uri)
            notes = result.overlay.notifications(result.subscriber.node_id, container)
            return [note["index"] for note in notes]
        rows = [r for r in result.system.log if r.msg_type == "notify"]
        relayed = result.system.counters.get(result.system.nscl.node_id, "notify", "relayed")
        if relayed != len(rows):
            return None
        return [int(r.name.rsplit("/", 1)[1]) for r in rows]


WORKLOADS = {w.name: w for w in (DegreeSweep, OverlayFlood, MeteringNotify)}
