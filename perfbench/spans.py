"""Span recording for the traced benchmark run.

The tracer wraps public entry points of the simulator from outside the
package: each wrapper records one span per call into per-name
aggregates (calls, inclusive seconds, self seconds). Spans are kept as
aggregates rather than one record per call, because a single episode
makes hundreds of thousands of forwarder calls.

Self time is a span's duration minus the time covered by the spans it
directly encloses. ``Overlay.run`` re-enters itself from the
subscription notifier, so inclusive time is added only when the
outermost span of a name closes; nested spans of the same name still
contribute their own self time and are subtracted from their parent.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Aggregated spans, call counts and garbage-collector time."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack: List[List[float]] = []  # per open span: [child_s]
        self._depth: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_started: Optional[float] = None

    # ----- spans -----

    def wrap(self, name: str, fn: Callable, inspect: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording a span named ``name`` per call.

        ``inspect`` sees each return value, to count outcomes where the
        layer reports them.
        """
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                agg[0] += 1
                agg[2] += elapsed - frame[0]
                if depth[name] == 0:
                    agg[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if inspect is not None:
                inspect(result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` counting calls only; its time stays with the caller."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def absorb(self, other: "Tracer", prefix: str) -> None:
        """Take over ``other``'s spans and counts whose names start with ``prefix``."""
        self.spans.update({k: v for k, v in other.spans.items() if k.startswith(prefix)})
        self.counts.update({k: v for k, v in other.counts.items() if k.startswith(prefix)})

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0,))[0])

    def inclusive_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return 1e6 * self.inclusive_s(name) / calls if calls else 0.0

    # ----- garbage collector, inside timed windows only -----

    @contextlib.contextmanager
    def window(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None


class NullTracer:
    """Stand-in for untraced episodes: records nothing."""

    def window(self):
        return contextlib.nullcontext()


def instrument(tracer: Tracer, mods) -> None:
    """Wrap each layer's entry points where their callers look them up.

    Forwarder handlers are patched in ``oscl_sim.overlay``, which
    imported them by name; the same holds for the SCL and name helpers
    in the modules that call them. ``tracer.restore()`` undoes it all.
    """
    ndn, overlay, scl, names = mods.ndn, mods.overlay, mods.scl, mods.names
    topology, scenarios, cli = mods.topology, mods.scenarios, mods.cli
    counts = tracer.counts

    def interest_outcome(emissions) -> None:
        if not emissions:
            counts["ndn.aggregated"] += 1
        elif isinstance(emissions[0], ndn.Drop):
            counts[f"ndn.drop.{emissions[0].reason}"] += 1
        elif isinstance(emissions[0], ndn.SendData):
            counts["ndn.cs_hits"] += 1

    def data_outcome(emissions) -> None:
        if emissions and isinstance(emissions[0], ndn.Drop):
            counts[f"ndn.drop.{emissions[0].reason}"] += 1

    run_experiment = topology.run_topology_experiment

    def run_by_depth(config):
        stats = tracer.wrap(f"topology.run.d{config.max_hops}", run_experiment)(config)
        counts[f"topology.draws.d{config.max_hops}"] += config.pairs
        counts["topology.links"] += stats.links_created
        return stats

    tracer.patch(topology, "run_topology_experiment", run_by_depth)
    tracer.patch(topology, "bfs_bounded", tracer.wrap("topology.bfs", topology.bfs_bounded))
    tracer.patch(overlay, "on_interest",
                 tracer.wrap("ndn.on_interest", overlay.on_interest, interest_outcome))
    tracer.patch(overlay, "on_data", tracer.wrap("ndn.on_data", overlay.on_data, data_outcome))
    for method in ("run", "discover"):
        tracer.patch(overlay.Overlay, method,
                     tracer.wrap(f"overlay.{method}", getattr(overlay.Overlay, method)))
    tracer.patch(scenarios, "create_content_instance",
                 tracer.wrap("scl.append", scenarios.create_content_instance))
    for module in (overlay, scenarios):
        tracer.patch(module, "centralized_discover",
                     tracer.wrap("scl.centralized_discover", module.centralized_discover))
    for module in (overlay, scl):
        tracer.patch(module, "resolve_resource",
                     tracer.wrap("scl.resolve", module.resolve_resource))
    tracer.patch(scl.MessageCounters, "record",
                 tracer.counted("scl.counter_records", scl.MessageCounters.record))
    tracer.patch(names.PrefixTable, "longest_prefix_match",
                 tracer.wrap("names.lpm", names.PrefixTable.longest_prefix_match))
    for module in (scl, overlay, scenarios):
        tracer.patch(module, "parse_name", tracer.wrap("names.parse", module.parse_name))
    tracer.patch(cli, "run_scenario", tracer.wrap("scenarios.run_scenario", cli.run_scenario))
    tracer.patch(cli, "_write_csv", tracer.wrap("cli.write_csv", cli._write_csv))
