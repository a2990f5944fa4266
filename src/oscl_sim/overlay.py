"""Overlay layer: content-centric traffic between SCLs.

The Overlay owns the SCL nodes' forwarders, an event queue, and the
glue between forwarders and resource trees. An overlay link is a pair
of forwarder faces that share one LinkMetrics. Interests travel over
links with per-link delay and loss; Data retraces pending-Interest
state back to consumers. Discovery first tries the overlay within a
hop budget and only falls back to the registry on the network SCL,
and subscription notifications flow producer-to-subscriber without
touching the hub.

Counter semantics: a packet is "originated" once where it is injected,
"relayed" at every node that forwards it onward, "received" where a
local application consumes it, and "dropped" where a copy terminates
without consumer (loop pruning, no route, loss, or aggregation into an
existing pending entry). Probe and link_up records appear in the
message log but never in the counters.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .names import HierarchicalName, is_prefix, parse_name
from .ndn import (
    APP_FACE,
    DataPacket,
    Drop,
    InterestPacket,
    NdnNode,
    SendInterest,
    on_data,
    on_interest,
)
from .scl import (
    Container,
    DiscoveryResult,
    Locator,
    M2mSystem,
    MessageRecord,
    MSG_DATA,
    MSG_INTEREST,
    MSG_LINK_UP,
    MSG_PROBE,
    NotFound,
    ROLE_DROPPED,
    ROLE_ORIGINATED,
    ROLE_RECEIVED,
    ROLE_RELAYED,
    SclInstance,
    Subscription,
    centralized_discover,
    resolve_resource,
)
from .topology import AT_MOST, COMPARISONS, hop_bound

DEFAULT_SUBSCRIBE_SCOPE = 16

# json.dumps(obj, sort_keys=True) without building an encoder per call
_to_json = json.JSONEncoder(sort_keys=True).encode


class OverlayError(Exception):
    pass


class UnknownNode(OverlayError):
    pass


class DuplicateLink(OverlayError):
    pass


class BrokenPath(OverlayError):
    """QoS probe asked for a path with a missing link."""


class NoPath(OverlayError):
    """Subscription Interest never reached the producer."""


@dataclass(frozen=True)
class LinkMetrics:
    delay_ms: float = 5.0
    loss: float = 0.0
    capacity: float = 100.0

    def __post_init__(self) -> None:
        if not self.delay_ms >= 0:  # written so that NaN fails too
            raise ValueError("delay_ms must be >= 0")
        if not (0.0 <= self.loss <= 1.0):
            raise ValueError("loss must be in [0, 1]")
        if not self.capacity > 0:
            raise ValueError("capacity must be positive")


@dataclass(frozen=True)
class QosMetrics:
    """Probe-based estimate of one path's quality.

    mean_delay is None when every probe was lost; throughput is the
    bottleneck link capacity, exact rather than sampled.
    """

    loss_ratio: float
    mean_delay_ms: Optional[float]
    throughput: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("metrics need at least one sample")
        if not (0.0 <= self.loss_ratio <= 1.0):
            raise ValueError("loss_ratio out of range")


# QoS a measured path must meet to keep serving traffic
MAX_LOSS = 0.05
MAX_DELAY_MS = 200.0
MIN_THROUGHPUT = 1.0


@dataclass(frozen=True)
class QosPolicy:
    """Acceptability thresholds for serving traffic over an existing path:
    the hop bound here, the measured-QoS bounds in the module constants."""

    max_path_hops: int = 3
    comparison: str = AT_MOST

    def __post_init__(self) -> None:
        if self.max_path_hops < 1:
            raise ValueError("max_path_hops must be >= 1")
        if self.comparison not in COMPARISONS:
            raise ValueError(f"comparison must be one of {COMPARISONS}")

    def path_acceptable(self, hops: int) -> bool:
        return hops <= hop_bound(self.max_path_hops, self.comparison)

    def metrics_acceptable(self, metrics: QosMetrics) -> bool:
        if metrics.loss_ratio > MAX_LOSS:
            return False
        if metrics.mean_delay_ms is None or metrics.mean_delay_ms > MAX_DELAY_MS:
            return False
        return metrics.throughput >= MIN_THROUGHPUT


class LinkDecision(Enum):
    REUSED_PATH = "reused-path"
    NEW_LINK = "new-link"


def _notification(container_name: HierarchicalName, payload: str, index: int) -> DataPacket:
    """Data message carrying one new content instance to a subscriber."""
    body = _to_json({"uri": str(container_name), "value": payload, "index": index}).encode()
    return DataPacket(container_name, body)


@dataclass(slots=True)
class _Envelope:
    """One in-flight packet copy and the node trail it has visited,
    origin first."""

    packet: Union[InterestPacket, DataPacket]
    trail: Tuple[str, ...]
    kind: str  # MSG_INTEREST | MSG_DATA


class Overlay:
    """Event-driven overlay on top of an M2mSystem.

    All randomness (nonces, loss draws) comes from one seeded RNG, so a
    given seed replays the same message sequence. The event queue holds
    link traversals as plain data, ``(at, seq, u, v, envelope)``: the
    copy in ``envelope`` arrives at ``v`` from ``u`` at time ``at``, and
    ``seq`` orders arrivals due at the same time by when they were sent.
    """

    def __init__(self, system: M2mSystem, seed: int = 0) -> None:
        self.system = system
        self.rng = random.Random(seed)
        self._events: List[Tuple[float, int, str, str, _Envelope]] = []
        self._seq = itertools.count()
        # node id -> forwarder; its faces are the node's links
        self._nodes: Dict[str, NdnNode] = {}
        # (consumer, name) -> delivered (packet, trail) answers
        self._inbox: Dict[Tuple[str, str], List[Tuple[DataPacket, List[str]]]] = {}
        # (origin, name, nonce) -> subscription installed at the producer
        self._subs: Dict[Tuple[str, str, int], Subscription] = {}
        self.drops: List[Tuple[str, str, str]] = []  # (node, reason, name)

    # ----- construction -----

    def add_node(self, scl: SclInstance) -> None:
        if scl.node_id == APP_FACE:
            # a neighbor's face toward it would be the application face
            raise ValueError(f"node id {APP_FACE!r} is reserved")
        self._nodes[scl.node_id] = scl.ndn

    def add_link(self, u: str, v: str, metrics: Optional[LinkMetrics] = None) -> None:
        """Link two nodes: each gets a face toward the other, and both
        faces carry the same LinkMetrics."""
        if u == v:
            raise ValueError("self links are not allowed")
        for x in (u, v):
            if x not in self._nodes:
                raise UnknownNode(x)
        u_faces, v_faces = self._nodes[u].faces, self._nodes[v].faces
        if v in u_faces:
            raise DuplicateLink(f"{u} -- {v}")
        u_faces[v] = v_faces[u] = metrics or LinkMetrics()

    @property
    def edge_count(self) -> int:
        # every forwarder has one face per link plus APP_FACE
        return sum(len(node.faces) - 1 for node in self._nodes.values()) // 2

    # ----- event loop -----

    def run(self) -> None:
        """Drain the event queue, advancing the shared clock."""
        events, system = self._events, self.system
        while events:
            at, _, u, v, env = heapq.heappop(events)
            if at > system.clock_ms:
                system.clock_ms = at
            self._arrive(u, v, env)

    # ----- packet plumbing -----

    def _inject(self, origin: str, pkt: Union[InterestPacket, DataPacket], kind: str) -> None:
        """Hand a packet from ``origin``'s application to its forwarder."""
        node = self._nodes.get(origin)
        if node is None:
            raise UnknownNode(origin)
        self.system.counters.record(origin, kind, ROLE_ORIGINATED)
        env = _Envelope(pkt, (origin,), kind)
        if kind == MSG_INTEREST:
            emissions = on_interest(node, pkt, APP_FACE, self.system.clock_ms)
        else:
            emissions = on_data(node, pkt, APP_FACE, self.system.clock_ms)
        self._handle(origin, env, emissions)

    def _handle(self, at_node: str, env: _Envelope, emissions) -> None:
        counters = self.system.counters
        if not emissions:
            # aggregated into a pending entry or fanned out to nobody
            counters.record(at_node, env.kind, ROLE_DROPPED)
            self.drops.append((at_node, "aggregated", str(env.packet.name)))
            return
        for em in emissions:
            if isinstance(em, Drop):
                counters.record(at_node, env.kind, ROLE_DROPPED)
                self.drops.append((at_node, em.reason, str(env.packet.name)))
            elif isinstance(em, SendInterest):
                if em.face == APP_FACE:
                    counters.record(at_node, MSG_INTEREST, ROLE_RECEIVED)
                    self._app_interest(at_node, em.packet, env)
                else:
                    self._forward(at_node, em.face, em.packet, env)
            else:
                if env.kind == MSG_INTEREST:
                    # Content Store answered: the Interest stops here and
                    # a fresh Data journey starts at this node
                    counters.record(at_node, MSG_INTEREST, ROLE_RECEIVED)
                    counters.record(at_node, MSG_DATA, ROLE_ORIGINATED)
                    data_env = _Envelope(em.packet, (at_node,), MSG_DATA)
                else:
                    data_env = env
                if em.face == APP_FACE:
                    counters.record(at_node, MSG_DATA, ROLE_RECEIVED)
                    self._app_data(at_node, em.packet, data_env)
                else:
                    self._forward(at_node, em.face, em.packet, data_env)

    def _forward(self, u: str, face: str, pkt, env: _Envelope) -> None:
        peer = face  # face ids double as neighbor ids
        metrics = self._nodes[u].faces[face]
        kind = env.kind
        if u != env.trail[0]:
            self.system.counters.record(u, kind, ROLE_RELAYED)
        if metrics.loss > 0.0 and self.rng.random() < metrics.loss:
            self.system.counters.record(u, kind, ROLE_DROPPED)
            self.drops.append((u, "loss", str(pkt.name)))
            return
        new_env = _Envelope(pkt, env.trail + (peer,), kind)
        heapq.heappush(
            self._events,
            (self.system.clock_ms + metrics.delay_ms, next(self._seq), u, peer, new_env),
        )

    def _arrive(self, u: str, v: str, env: _Envelope) -> None:
        self.system.log.append(
            MessageRecord(self.system.clock_ms, u, v, "", env.kind, str(env.packet.name))
        )
        node = self._nodes[v]
        if env.kind == MSG_INTEREST:
            emissions = on_interest(node, env.packet, u, self.system.clock_ms)
        else:
            emissions = on_data(node, env.packet, u, self.system.clock_ms)
        self._handle(v, env, emissions)

    # ----- application endpoints -----

    def _app_interest(self, node_id: str, pkt: InterestPacket, env: _Envelope) -> None:
        """Producer-side handling of a delivered Interest.

        A container name installs a standing subscription for the next
        solicit_count instances. Any other resolvable name is answered
        immediately. Names this SCL cannot resolve are silently left to
        die in pending tables; the consumer's fallback handles it.
        """
        scl = self.system.scl(node_id)
        try:
            resolved = resolve_resource(scl, pkt.name)
        except NotFound:
            return
        if resolved[0] == "container":
            container: Container = resolved[1]
            origin = env.trail[0]
            sub = Subscription(
                subscriber=self.system.scl(origin).locator,
                mode="p2p",
                delivery_path=tuple(reversed(env.trail)),  # producer first
                remaining=pkt.solicit_count,
                deliver=partial(self._notify, node_id, pkt.name),
            )
            container.subscriptions.append(sub)
            self._subs[(origin, str(pkt.name), pkt.nonce)] = sub
            return
        payload = self._answer_payload(scl, pkt.name, resolved)
        self._inject(node_id, DataPacket(pkt.name, payload), MSG_DATA)

    def _answer_payload(self, scl: SclInstance, name: HierarchicalName, resolved) -> bytes:
        body = {
            "uri": str(name),
            "locator": {
                "node_id": scl.locator.node_id,
                "host": scl.locator.host,
                "port": scl.locator.port,
            },
        }
        if resolved[0] == "instance":
            body["value"] = resolved[1]
            body["index"] = resolved[2]
        return _to_json(body).encode()

    def _notify(self, producer_id: str, name: HierarchicalName, payload: str, index: int) -> None:
        """Remote subscription hook: send one Data along the reverse path."""
        self._inject(producer_id, _notification(name, payload, index), MSG_DATA)
        self.run()

    def _notify_local(self, origin: str, name: HierarchicalName, payload: str, index: int) -> None:
        """Hook of a subscription to the origin's own container."""
        packet = _notification(name, payload, index)
        self._inbox.setdefault((origin, str(name)), []).append((packet, [origin]))

    def _app_data(self, node_id: str, pkt: DataPacket, env: _Envelope) -> None:
        key = (node_id, str(pkt.name))
        self._inbox.setdefault(key, []).append((pkt, list(env.trail)))

    def _request(
        self, origin: str, name: HierarchicalName, solicit: int, scope: int
    ) -> Tuple[int, List[Tuple[DataPacket, List[str]]]]:
        """Inject one Interest and run to quiescence; returns (nonce, answers)."""
        key = (origin, str(name))
        self._inbox.pop(key, None)
        nonce = self.begin_fetch(origin, name, scope, solicit)
        self.run()
        return nonce, self._inbox.pop(key, [])

    # ----- operations -----

    def distributed_discover(
        self, origin: str, target_name: HierarchicalName, scope: int
    ) -> Optional[DiscoveryResult]:
        """Name-based discovery over the overlay, None on no answer.

        The hop budget caps how far the Interest may travel, so the
        returned path never exceeds ``scope`` hops. Asking for a name
        this node already owns short-circuits to a zero-hop result.
        """
        if scope < 0:
            raise ValueError("scope must be >= 0")
        origin_scl = self.system.scl(origin)
        if origin not in self._nodes:
            raise UnknownNode(origin)
        if is_prefix(origin_scl.base_name, target_name):
            resolve_resource(origin_scl, target_name)  # NotFound propagates
            return DiscoveryResult(
                uri=target_name,
                locator=origin_scl.locator,
                method="distributed",
                path=(origin,),
            )
        _, answers = self._request(origin, target_name, solicit=1, scope=scope)
        if not answers:
            return None
        pkt, trail = answers[0]
        body = json.loads(pkt.payload)
        return DiscoveryResult(
            uri=parse_name(body["uri"]),
            locator=Locator(**body["locator"]),
            method="distributed",
            path=tuple(reversed(trail)),
        )

    def discover(
        self,
        origin: str,
        target_name: HierarchicalName,
        scope: int,
        nscl: Optional[SclInstance] = None,
    ) -> DiscoveryResult:
        """Distributed discovery with centralized fallback.

        Raises NotFound only when the overlay is silent and the network
        SCL's registry cannot resolve the name either.
        """
        result = self.distributed_discover(origin, target_name, scope)
        if result is not None:
            return result
        hub = nscl if nscl is not None else self.system.nscl
        if hub is None:
            raise NotFound(str(target_name))
        return centralized_discover(self.system.scl(origin), hub, target_name)

    def fetch_resource(
        self, origin: str, name: HierarchicalName, scope: int
    ) -> Optional[Tuple[dict, List[str]]]:
        """One-shot content retrieval; (decoded payload, trail) or None.

        Answers may come from any Content Store on the way, not only
        the producer.
        """
        origin_scl = self.system.scl(origin)
        if is_prefix(origin_scl.base_name, name):
            payload = self._answer_payload(origin_scl, name, resolve_resource(origin_scl, name))
            return json.loads(payload), [origin]
        _, answers = self._request(origin, name, solicit=1, scope=scope)
        if not answers:
            return None
        pkt, trail = answers[0]
        return json.loads(pkt.payload), trail

    def begin_fetch(
        self, origin: str, name: HierarchicalName, scope: int, solicit: int = 1
    ) -> int:
        """Inject a fetch Interest without draining the event queue.

        Lets several consumers race for the same name before run() is
        called; pair with answers() to read what each one got.
        """
        nonce = self.rng.getrandbits(62)
        pkt = InterestPacket(name, nonce, hop_limit=scope, solicit_count=solicit)
        self._inject(origin, pkt, MSG_INTEREST)
        return nonce

    def answers(self, origin: str, name: HierarchicalName) -> List[Tuple[dict, List[str]]]:
        """Decoded Data answers delivered to ``origin`` for ``name`` so far."""
        rows = self._inbox.get((origin, str(name)), [])
        return [(json.loads(pkt.payload), list(trail)) for pkt, trail in rows]

    def qos_monitor(
        self, path: Sequence[str], probe_count: int = 8
    ) -> QosMetrics:
        """Estimate loss and delay over ``path`` with active probes.

        Each probe is one Bernoulli trial per link; a lost probe stops
        at the failing link. Throughput is read off the bottleneck
        capacity directly. Probes show up in the message log but are
        not billed to the traffic counters.
        """
        if probe_count < 1:
            raise ValueError("probe_count must be >= 1")
        if not path:
            raise BrokenPath("empty path")
        links: List[LinkMetrics] = []
        for u, v in zip(path, path[1:]):
            node = self._nodes.get(u)
            link = None if node is None else node.faces.get(v)  # APP_FACE: None
            if link is None:
                raise BrokenPath(f"{u} -- {v}")
            links.append(link)
        delivered = 0
        total_delay = 0.0
        for _ in range(probe_count):
            delay = 0.0
            ok = True
            for m in links:
                if m.loss > 0.0 and self.rng.random() < m.loss:
                    ok = False
                    break
                delay += m.delay_ms
            if ok:
                delivered += 1
                total_delay += delay
            self.system.log.append(
                MessageRecord(
                    self.system.clock_ms,
                    path[0],
                    path[-1],
                    "",
                    MSG_PROBE,
                    "delivered" if ok else "lost",
                )
            )
        loss_ratio = (probe_count - delivered) / probe_count
        mean_delay = (total_delay / delivered) if delivered else None
        throughput = min((m.capacity for m in links), default=math.inf)
        return QosMetrics(loss_ratio, mean_delay, throughput, probe_count)

    def ensure_link(
        self,
        origin: str,
        result: DiscoveryResult,
        policy: QosPolicy,
        metrics: Optional[QosMetrics] = None,
    ) -> LinkDecision:
        """Create a direct link to the discovered peer when needed.

        Triggers on any of: the discovery had to fall back to the
        registry, the overlay path is longer than the policy allows, or
        measured QoS violates the policy. An existing direct link is
        always good enough.
        """
        target = result.locator.node_id
        if target == origin:
            return LinkDecision.REUSED_PATH
        trigger = result.method == "centralized"
        if result.path_hops is not None and not policy.path_acceptable(result.path_hops):
            trigger = True
        if metrics is not None and not policy.metrics_acceptable(metrics):
            trigger = True
        if not trigger:
            return LinkDecision.REUSED_PATH
        try:
            self.add_link(origin, target)
        except DuplicateLink:
            return LinkDecision.REUSED_PATH
        self.system.log.append(
            MessageRecord(
                self.system.clock_ms, origin, target, "", MSG_LINK_UP, str(result.uri)
            )
        )
        return LinkDecision.NEW_LINK

    def p2p_subscribe(
        self,
        origin: str,
        target_uri: HierarchicalName,
        expected_notifications: int,
        scope: int = DEFAULT_SUBSCRIBE_SCOPE,
    ) -> Subscription:
        """Subscribe to a container over the overlay, bypassing the hub.

        The Interest's solicit count pre-authorizes that many future
        Data messages along the reverse path; refreshing means simply
        subscribing again. Raises NoPath when the Interest dies before
        reaching the producer.
        """
        if expected_notifications < 1:
            raise ValueError("expected_notifications must be >= 1")
        origin_scl = self.system.scl(origin)
        if is_prefix(origin_scl.base_name, target_uri):
            resolved = resolve_resource(origin_scl, target_uri)
            if resolved[0] != "container":
                raise NotFound(f"{target_uri} is not a container")
            container: Container = resolved[1]
            sub = Subscription(
                subscriber=origin_scl.locator,
                mode="p2p",
                delivery_path=(origin,),
                remaining=expected_notifications,
                deliver=partial(self._notify_local, origin, target_uri),
            )
            container.subscriptions.append(sub)
            return sub
        nonce, _ = self._request(
            origin, target_uri, solicit=expected_notifications, scope=scope
        )
        sub = self._subs.pop((origin, str(target_uri), nonce), None)
        if sub is None:
            raise NoPath(str(target_uri))
        return sub

    def notifications(self, consumer: str, container_uri: HierarchicalName) -> List[dict]:
        """Decoded subscription payloads delivered to ``consumer`` so far."""
        rows = self._inbox.get((consumer, str(container_uri)), [])
        return [json.loads(pkt.payload) for pkt, _ in rows]
