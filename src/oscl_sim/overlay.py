"""Overlay layer: content-centric traffic between SCLs.

The Overlay owns the SCL nodes' forwarders, an event queue, and the
glue between forwarders and the SCLs' resources. An overlay link is a pair
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
existing pending entry). Probe and link_up rows appear in the
message log but never in the counters.

Most link traversals of a flood end in a drop, chiefly at the loop
check, so a dropped copy costs only its log row, one counter, one
drop tuple and the forwarder's shared Drop.
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
from typing import Dict, List, Optional, Sequence, Tuple

from .names import HierarchicalName, is_prefix, parse_name
from .ndn import (
    APP_FACE,
    DataPacket,
    Drop,
    InterestPacket,
    NdnNode,
    Packet,
    SendInterest,
    on_data,
    on_interest,
)
from .scl import (
    DiscoveryResult,
    Locator,
    M2mSystem,
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

DEFAULT_SUBSCRIBE_SCOPE = 16

# json.dumps(obj, sort_keys=True) without building an encoder per call
_to_json = json.JSONEncoder(sort_keys=True).encode
# a JSON string literal, as _to_json writes one (ASCII, with \u escapes)
_json_str = json.encoder.encode_basestring_ascii


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
        # chained comparisons with math.inf: NaN and infinity fail too
        if not 0 <= self.delay_ms < math.inf:
            raise ValueError("delay_ms must be finite and >= 0")
        if not (0.0 <= self.loss <= 1.0):
            raise ValueError("loss must be in [0, 1]")
        if not 0 < self.capacity < math.inf:
            raise ValueError("capacity must be finite and positive")


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


# the link-admission policy: an overlay path keeps serving traffic while
# it is at most MAX_PATH_HOPS long and its measured QoS meets these bounds
MAX_PATH_HOPS = 3
MAX_LOSS = 0.05
MAX_DELAY_MS = 200.0
MIN_THROUGHPUT = 1.0


def _metrics_acceptable(metrics: QosMetrics) -> bool:
    if metrics.loss_ratio > MAX_LOSS:
        return False
    if metrics.mean_delay_ms is None or metrics.mean_delay_ms > MAX_DELAY_MS:
        return False
    return metrics.throughput >= MIN_THROUGHPUT


class LinkDecision(Enum):
    REUSED_PATH = "reused-path"
    NEW_LINK = "new-link"


def _notification(container_name: HierarchicalName, payload: str, index: int) -> DataPacket:
    """Data message carrying one new content instance to a subscriber.

    The body is the bytes ``_to_json`` gives for ``{"uri": ..., "value":
    payload, "index": index}``, filled into a template: every append
    makes one, so it skips the general encoder's key sorting and type
    dispatch.
    """
    body = '{"index": %d, "uri": %s, "value": %s}' % (
        index, _json_str(container_name.text), _json_str(payload)
    )
    return DataPacket(container_name, body.encode())


class Overlay:
    """Event-driven overlay on top of an M2mSystem.

    All randomness (nonces, loss draws) comes from one seeded RNG, so a
    given seed replays the same message sequence. The event queue holds
    link traversals as plain data, ``(at, seq, u, v, packet, trail)``:
    a copy of ``packet`` arrives at ``v`` from ``u`` at time ``at``,
    ``trail`` lists the nodes the copy has visited, origin first, and
    ``seq`` orders arrivals due at the same time by when they were sent.
    The overlay moves packets; the application endpoints decide what an
    Interest means (see ``_app_interest``).
    """

    def __init__(self, system: M2mSystem, seed: int = 0) -> None:
        self.system = system
        self.rng = random.Random(seed)
        self._events: List[Tuple[float, int, str, str, Packet, Tuple[str, ...]]] = []
        self._seq = itertools.count()
        # node id -> forwarder; its faces are the node's links
        self._nodes: Dict[str, NdnNode] = {}
        # (consumer, name) -> delivered (packet, trail) answers
        self._inbox: Dict[Tuple[str, str], List[Tuple[DataPacket, List[str]]]] = {}
        # (origin, name, nonce) of a subscribe Interest in flight -> the
        # subscription the producer installed, None until it arrives
        self._subs: Dict[Tuple[str, str, int], Optional[Subscription]] = {}
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
        """Drain the event queue, advancing the shared clock.

        One pass per link traversal: log the arriving copy, hand it to
        the receiving forwarder, and let ``_handle`` act on what the
        forwarder emits. The packet's kind is read once, from its type.
        """
        events, system, nodes = self._events, self.system, self._nodes
        log_extend, pop, handle = system.log.extend, heapq.heappop, self._handle
        while events:
            at, _, u, v, pkt, trail = pop(events)
            if at > system.clock_ms:
                system.clock_ms = at
            now = system.clock_ms
            if type(pkt) is InterestPacket:
                kind, handler = MSG_INTEREST, on_interest
            else:
                kind, handler = MSG_DATA, on_data
            log_extend((now, u, v, "", kind, pkt.name.text))
            handle(v, kind, pkt, trail, handler(nodes[v], pkt, u, now))

    # ----- packet plumbing -----

    def _inject(self, origin: str, pkt: Packet) -> None:
        """Hand a packet from ``origin``'s application to its forwarder."""
        node = self._nodes.get(origin)
        if node is None:
            raise UnknownNode(origin)
        if type(pkt) is InterestPacket:
            kind, handler = MSG_INTEREST, on_interest
        else:
            kind, handler = MSG_DATA, on_data
        self.system.counters.record(origin, kind, ROLE_ORIGINATED)
        emissions = handler(node, pkt, APP_FACE, self.system.clock_ms)
        self._handle(origin, kind, pkt, (origin,), emissions)

    def _handle(
        self, at_node: str, kind: str, pkt: Packet, trail: Tuple[str, ...], emissions
    ) -> None:
        """Act on the emissions of ``at_node``'s forwarder for ``pkt``.

        No emission means the copy was absorbed into a pending entry; a
        Drop ends the copy. Anything sent to APP_FACE goes up to the
        node's application. Anything else is forwarded over the link
        behind its face, in one place: a relay count unless the copy
        starts its journey here, a loss draw, and the push of its
        arrival. A Data answer to an Interest is a Content Store hit,
        which ends the Interest and starts a Data journey at this node.
        """
        record = self.system.counters.record
        if not emissions or type(emissions[0]) is Drop:  # a Drop comes alone
            record(at_node, kind, ROLE_DROPPED)
            reason = emissions[0].reason if emissions else "aggregated"
            self.drops.append((at_node, reason, pkt.name.text))
            return
        faces = self._nodes[at_node].faces
        for em in emissions:
            cls = type(em)
            face, out, out_trail = em.face, em.packet, trail
            if cls is SendInterest:
                out_kind = MSG_INTEREST
            else:
                out_kind = MSG_DATA
                if kind == MSG_INTEREST:  # Content Store hit
                    record(at_node, MSG_INTEREST, ROLE_RECEIVED)
                    record(at_node, MSG_DATA, ROLE_ORIGINATED)
                    out_trail = (at_node,)
            if face == APP_FACE:
                record(at_node, out_kind, ROLE_RECEIVED)
                if cls is SendInterest:
                    self._app_interest(at_node, out, out_trail)
                else:
                    self._app_data(at_node, out, out_trail)
                continue
            link = faces[face]  # face ids double as neighbor ids
            if at_node != out_trail[0]:
                record(at_node, out_kind, ROLE_RELAYED)
            if link.loss > 0.0 and self.rng.random() < link.loss:
                record(at_node, out_kind, ROLE_DROPPED)
                self.drops.append((at_node, "loss", out.name.text))
                continue
            heapq.heappush(
                self._events,
                (self.system.clock_ms + link.delay_ms, next(self._seq), at_node, face, out,
                 out_trail + (face,)),
            )

    # ----- application endpoints -----

    def _app_interest(self, node_id: str, pkt: InterestPacket, trail: Tuple[str, ...]) -> None:
        """Producer-side handling of a delivered Interest.

        A subscribe Interest, one whose (origin, name, nonce) key
        p2p_subscribe filed in ``_subs``, installs a standing
        subscription to its container for the next solicit_count
        instances. Any other resolvable name, a container's included, is
        answered immediately. Names this SCL cannot resolve are silently
        left to die in pending tables; the consumer's fallback handles it.
        """
        scl = self.system.scl(node_id)
        try:
            resolved = resolve_resource(scl, pkt.name)
        except NotFound:
            return
        key = (trail[0], str(pkt.name), pkt.nonce)
        if resolved[0] == "container" and key in self._subs:
            sub = Subscription(partial(self._notify, node_id, pkt.name), pkt.solicit_count)
            resolved[1].subscriptions.append(sub)
            self._subs[key] = sub
            return
        payload = self._answer_payload(scl, pkt.name, resolved)
        self._inject(node_id, DataPacket(pkt.name, payload))

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
        self._inject(producer_id, _notification(name, payload, index))
        self.run()

    def _notify_local(self, origin: str, name: HierarchicalName, payload: str, index: int) -> None:
        """Hook of a subscription to the origin's own container."""
        packet = _notification(name, payload, index)
        self._inbox.setdefault((origin, str(name)), []).append((packet, [origin]))

    def _app_data(self, node_id: str, pkt: DataPacket, trail: Tuple[str, ...]) -> None:
        key = (node_id, str(pkt.name))
        self._inbox.setdefault(key, []).append((pkt, list(trail)))

    def _request(
        self, origin: str, name: HierarchicalName, solicit: int, scope: int, subscribe: bool
    ) -> Tuple[int, List[Tuple[DataPacket, List[str]]]]:
        """Inject one Interest and run to quiescence; returns (nonce, answers).

        A subscribe request files its key in ``_subs`` before the queue
        runs, which is before the Interest can reach any other node.
        """
        key = (origin, str(name))
        self._inbox.pop(key, None)
        nonce = self.begin_fetch(origin, name, scope, solicit)
        if subscribe:
            self._subs[(origin, str(name), nonce)] = None
        self.run()
        return nonce, self._inbox.pop(key, [])

    # ----- operations -----

    def distributed_discover(
        self, origin: str, target_name: HierarchicalName, scope: int
    ) -> Optional[DiscoveryResult]:
        """Name-based discovery over the overlay, None on no answer.

        A fetch whose answer names the resource and its SCL's locator; the
        path never exceeds ``scope`` hops, and a name this node owns is a
        zero-hop result.
        """
        if scope < 0:
            raise ValueError("scope must be >= 0")
        self.system.scl(origin)  # NotFound for an unknown SCL
        if origin not in self._nodes:
            raise UnknownNode(origin)
        answer = self.fetch_resource(origin, target_name, scope)
        if answer is None:
            return None
        body, trail = answer
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
        _, answers = self._request(origin, name, solicit=1, scope=scope, subscribe=False)
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
        self._inject(origin, InterestPacket(name, nonce, hop_limit=scope, solicit_count=solicit))
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
            self.system.log.extend(
                (self.system.clock_ms, path[0], path[-1], "", MSG_PROBE,
                 "delivered" if ok else "lost")
            )
        loss_ratio = (probe_count - delivered) / probe_count
        mean_delay = (total_delay / delivered) if delivered else None
        throughput = min((m.capacity for m in links), default=math.inf)
        return QosMetrics(loss_ratio, mean_delay, throughput, probe_count)

    def ensure_link(
        self, origin: str, result: DiscoveryResult, metrics: Optional[QosMetrics] = None
    ) -> LinkDecision:
        """Create a direct link to the discovered peer when needed.

        Triggers on any of: the discovery had to fall back to the
        registry, the overlay path is longer than MAX_PATH_HOPS, or the
        measured QoS misses the MAX_LOSS, MAX_DELAY_MS or MIN_THROUGHPUT
        bound. An existing direct link is always good enough.
        """
        target = result.locator.node_id
        if target == origin:
            return LinkDecision.REUSED_PATH
        trigger = result.method == "centralized"
        if result.path_hops is not None and result.path_hops > MAX_PATH_HOPS:
            trigger = True
        if metrics is not None and not _metrics_acceptable(metrics):
            trigger = True
        if not trigger:
            return LinkDecision.REUSED_PATH
        try:
            self.add_link(origin, target)
        except DuplicateLink:
            return LinkDecision.REUSED_PATH
        self.system.log.extend(
            (self.system.clock_ms, origin, target, "", MSG_LINK_UP, str(result.uri))
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
        Data messages along the reverse path. Raises NoPath when the
        Interest dies before reaching the producer.

        Subscribing again does not refresh a subscription: once one
        notification (or a fetched answer) has arrived, the consumer's
        own Content Store answers the next subscribe Interest under the
        container's name, so the call raises NoPath and empties the
        consumer's inbox for that container. A relay's store, or another consumer's live
        subscription behind the same relay, swallows it likewise.
        """
        if expected_notifications < 1:
            raise ValueError("expected_notifications must be >= 1")
        origin_scl = self.system.scl(origin)
        if is_prefix(origin_scl.base_name, target_uri):
            resolved = resolve_resource(origin_scl, target_uri)
            if resolved[0] != "container":
                raise NotFound(f"{target_uri} is not a container")
            hook = partial(self._notify_local, origin, target_uri)
            sub = Subscription(hook, expected_notifications)
            resolved[1].subscriptions.append(sub)
            return sub
        nonce, _ = self._request(
            origin, target_uri, solicit=expected_notifications, scope=scope, subscribe=True
        )
        sub = self._subs.pop((origin, str(target_uri), nonce), None)
        if sub is None:
            raise NoPath(str(target_uri))
        return sub

    def notifications(self, consumer: str, container_uri: HierarchicalName) -> List[dict]:
        """Decoded subscription payloads delivered to ``consumer`` so far;
        ``answers`` gives each one's path too."""
        return [payload for payload, _ in self.answers(consumer, container_uri)]
