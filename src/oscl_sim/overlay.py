"""Overlay layer: content-centric traffic between SCLs.

The Overlay owns the SCL nodes' forwarders, an event queue, and the
glue between forwarders and the SCLs' resources. An overlay link is a pair
of forwarder faces that share one LinkMetrics. Interests travel over
links with per-link delay and loss; Data retraces pending-Interest
state back to consumers. Discovery first tries the overlay within a
hop budget and only falls back to the registry on the network SCL,
and subscription notifications flow producer-to-subscriber without
touching the hub. Link admission is ensure_link's alone: it probes
the path a discovery found and brings up a direct link unless the
producer answered over an acceptable path.

Counter semantics: a packet is "originated" once where it is injected,
"relayed" at every node that forwards it onward, "received" where a
local application consumes it, and "dropped" where a copy terminates
without consumer (loop pruning, no route, loss, or aggregation into an
existing pending entry). A request for a name its origin owns goes
through the origin's own forwarder and is counted alike. Probe and
link_up rows appear in the message log but never in the counters.

Most link traversals of a flood end in a drop, chiefly at the loop
check, so a dropped copy costs one counter update, three slots in the
flat drop store and its log row, and leaves nothing the garbage
collector tracks: the forwarder's Drop is shared, and a copy's trail
grows only where it lives on. A copy the forwarder sends on costs one
emission and one relay count however many faces it goes out on, and
one queue entry for all of its link faces that fall due together; the
log stores that entry's arrivals as one row plus one slot per copy
(see MessageLog), and reads them back as one row each. A node whose
links all share one delay and none loses, every link of the default
LinkMetrics, queues a send of link faces as that one entry at once:
the entry files the send's own faces tuple, which a flood takes from
the forwarder's kept flood faces, so such a send walks no face.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import DefaultDict, Dict, List, Optional, Sequence, Tuple

from .names import parse_name
from .ndn import (
    APP_FACE,
    DataPacket,
    Drop,
    InterestPacket,
    NdnNode,
    Packet,
    PitEntry,
    SendInterest,
    add_face,
    on_data,
    on_interest,
    pending,
)
from .scl import (
    DiscoveryResult,
    FlatRows,
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
    centralized_discover,
    resolve_resource,
)

DEFAULT_SUBSCRIBE_SCOPE = 16


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

    Only the loss ratio is sampled. mean_delay_ms is the path's summed
    link delay, None when every probe was lost; throughput is the
    bottleneck link capacity.
    """

    loss_ratio: float
    mean_delay_ms: Optional[float]
    throughput: float


# the link-admission bounds (see Overlay.ensure_link): an overlay path
# keeps serving traffic while it is at most MAX_PATH_HOPS long and its
# QoS, measured with PROBE_COUNT probes, meets the other three
MAX_PATH_HOPS = 3
PROBE_COUNT = 8
MAX_LOSS = 0.05
MAX_DELAY_MS = 200.0
MIN_THROUGHPUT = 1.0


def _metrics_acceptable(metrics: QosMetrics) -> bool:
    if metrics.loss_ratio > MAX_LOSS:
        return False
    if metrics.mean_delay_ms is None or metrics.mean_delay_ms > MAX_DELAY_MS:
        return False
    return metrics.throughput >= MIN_THROUGHPUT


class Overlay:
    """Event-driven overlay on top of an M2mSystem.

    All randomness (nonces, loss draws) comes from one seeded RNG, so a
    given seed replays the same message sequence. The event queue holds
    link traversals as plain data, one entry ``(u, faces, packet,
    trail)`` per send and due time: a copy of ``packet`` arrives from
    ``u`` at each node in ``faces``, in that order, and ``trail`` lists
    the nodes the copies visited before, origin first and ``u`` last;
    every copy ``u`` sends in one go shares it, and a receiver joins a
    trail of its own only if its copy lives on there. Entries are
    bucketed by due time, in the order they were sent, and ``_times``
    is a heap of the due times that have a bucket. It stays so because
    both simpler queues ran byte-identical but slower on the
    ``overlay-flood`` benchmark's wall time, in two sets of 8 alternated
    5-s pairs on seeds 11-18: one heap of ``(due, seq, entry)`` by 4.4%
    and 3.2% (faster in 0 and 2 of 8 pairs), and draining the dict by
    ``min`` by 2.3% and 2.4% (1 of 8 each). ``drops`` keeps one
    ``(node, reason, name)`` row per dropped copy, in drop order, as
    flat fields (a ``FlatRows``). ``_delay`` keeps, per node id, the
    one delay of its links when none of them loses and ``None``
    otherwise (a node with no link has no key); ``add_link`` keeps it
    for both ends, and ``_handle`` reads it to queue a send from such a
    node as one entry. The overlay moves packets; the application
    endpoints decide what an Interest means (see ``_app_interest``).
    """

    def __init__(self, system: M2mSystem, seed: int = 0) -> None:
        self.system = system
        self.rng = random.Random(seed)
        self._events: Dict[float, List[Tuple[str, Sequence[str], Packet, Tuple[str, ...]]]] = {}
        self._times: List[float] = []
        self._running = False
        # node id -> forwarder; its faces are the node's links
        self._nodes: Dict[str, NdnNode] = {}
        # node id -> its links' one delay when none loses, else None
        self._delay: Dict[str, Optional[float]] = {}
        # (consumer, name) -> delivered (packet, trail) answers; a
        # trail is the delivering copy's own tuple, copied only when read
        self._inbox: DefaultDict[Tuple[str, str], List[Tuple[DataPacket, Tuple[str, ...]]]] = (
            defaultdict(list)
        )
        # (origin, name, nonce) of a subscribe Interest in flight ->
        # whether it has reached its producer, which bound a hook to it
        self._subs: Dict[Tuple[str, str, int], bool] = {}
        self.drops = FlatRows(3)  # (node, reason, name) per dropped copy

    # ----- construction -----

    def add_node(self, scl: SclInstance) -> None:
        if scl.node_id == APP_FACE:
            # a neighbor's face toward it would be the application face
            raise ValueError(f"node id {APP_FACE!r} is reserved")
        if self.system.scls.get(scl.node_id) is not scl:
            raise ValueError(f"{scl.node_id!r} is not an SCL of this overlay's system")
        self._nodes[scl.node_id] = scl.ndn

    def add_link(self, u: str, v: str, metrics: Optional[LinkMetrics] = None) -> None:
        """Link two nodes: each gets a face toward the other, and both
        faces carry the same LinkMetrics. Each end's kept flood faces
        and one-entry delay are brought up to date."""
        if u == v:
            raise ValueError("self links are not allowed")
        for x in (u, v):
            if x not in self._nodes:
                raise UnknownNode(x)
        if v in self._nodes[u].faces:
            raise DuplicateLink(f"{u} -- {v}")
        link = metrics or LinkMetrics()
        delay = link.delay_ms if link.loss == 0.0 else None
        for x, y in ((u, v), (v, u)):
            node = self._nodes[x]
            self._delay[x] = delay if not node.faces or self._delay.get(x) == delay else None
            add_face(node, y, link)

    # ----- event loop -----

    def run(self) -> None:
        """Drain the event queue, advancing the shared clock.

        Buckets run in due-time order, each in sending order. A send
        made while a bucket drains, due at that same time when its link
        has no delay, opens a fresh bucket that runs next. An entry's
        kind, handler and name are read once, the kind from the
        packet's type, and its arrivals are logged at once: one row for
        a single face, else one grouped row (``extend_copies``) that
        reads back as one row per face in face order. That log is the
        one a row per traversal would write, because nothing between two
        copies of one entry writes the log: the handlers, ``_handle``
        and the application endpoints it calls only queue, count, store
        drops and fill inboxes (a raise from one of them would leave the
        entry's later copies logged but not handed on). Then one pass
        per link traversal, in the entry's face order: hand the copy to
        the receiving forwarder. A Drop or an aggregation, the fate of
        most flooded copies, is counted and stored here as ``_handle``
        would; a send goes to ``_handle``, with the receiver added to the
        copy's trail.

        Raises RuntimeError when called while it is already draining: a
        nested pass would run later buckets before the rest of the
        current one.
        """
        if self._running:
            raise RuntimeError("Overlay.run called while the event queue is draining")
        events, times, system, nodes = self._events, self._times, self.system, self._nodes
        log_extend, log_copies = system.log.extend, system.log.extend_copies
        pop, handle = heapq.heappop, self._handle
        record, drop = system.counters.record, self.drops.extend
        self._running = True
        try:
            while times:
                at = pop(times)
                if at > system.clock_ms:
                    system.clock_ms = at
                now = system.clock_ms
                for u, faces, pkt, trail in events.pop(at):
                    if type(pkt) is InterestPacket:
                        kind, handler = MSG_INTEREST, on_interest
                    else:
                        kind, handler = MSG_DATA, on_data
                    name = pkt.name
                    if len(faces) == 1:
                        log_extend((now, u, faces[0], "", kind, name))
                    else:
                        log_copies(now, u, faces, "", kind, name)
                    for v in faces:
                        emissions = handler(nodes[v], pkt, u, now)
                        if not emissions or type(emissions[0]) is Drop:
                            record(v, kind, ROLE_DROPPED)
                            drop((v, emissions[0].reason if emissions else "aggregated", name))
                        else:
                            handle(v, kind, pkt, trail + (v,), emissions)
        finally:
            self._running = False

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
        """Act on the emission of ``at_node``'s forwarder for ``pkt``;
        ``trail`` lists the nodes the copy has visited, ``at_node`` last.

        No emission means the copy was absorbed into a pending entry; a
        Drop ends the copy (``run`` ends its own copies of both inline). A
        send goes out on its faces in their sorted order. Unless the
        copy starts its journey here, its link faces are counted as
        relayed at once, lost copies included. APP_FACE hands the packet
        up to the node's application; any other face forwards it over
        the link behind it: a loss draw, then the arrival, carrying
        this node's trail. Consecutive link faces due at one time share
        one queue entry, appended to its due time's bucket when its
        first face is. A lost face does not end the entry; the
        application face does, so anything the application sends is
        queued after the copies before that face and ahead of those
        after it, as it would be with one entry per copy. A send on a
        single face files the emission's own tuple, so its entry costs
        what a lone arrival would. A node whose links all share one
        delay and none loses (``_delay``) skips the walk for a send
        without APP_FACE: no face would draw or split the entry, so the
        walk would build one entry of all the send's faces, in order,
        due after that delay, and the send's own tuple is queued as it.
        A Data answer to an Interest is a Content Store hit, which ends
        the Interest and starts a Data journey at this node.
        """
        record = self.system.counters.record
        if not emissions or type(emissions[0]) is Drop:
            record(at_node, kind, ROLE_DROPPED)
            reason = emissions[0].reason if emissions else "aggregated"
            self.drops.extend((at_node, reason, pkt.name))
            return
        send = emissions[0]
        out, faces = send.packet, send.faces
        if type(send) is SendInterest:
            out_kind = MSG_INTEREST
        else:
            out_kind = MSG_DATA
            if kind == MSG_INTEREST:  # Content Store hit
                record(at_node, MSG_INTEREST, ROLE_RECEIVED)
                record(at_node, MSG_DATA, ROLE_ORIGINATED)
                trail = (at_node,)
        to_app = APP_FACE in faces
        if at_node != trail[0]:
            link_faces = len(faces) - to_app
            if link_faces:
                record(at_node, out_kind, ROLE_RELAYED, link_faces)
        events = self._events
        now = self.system.clock_ms
        delay = self._delay.get(at_node)
        if delay is not None and not to_app:
            at = now + delay
            entry = (at_node, faces, out, trail)
            bucket = events.get(at)
            if bucket is None:
                events[at] = [entry]
                heapq.heappush(self._times, at)
            else:
                bucket.append(entry)
            return
        links = self._nodes[at_node].faces
        due = -1.0  # the open entry's due time; the clock starts at 0, so none is open
        for face in faces:
            if face == APP_FACE:
                due = -1.0
                record(at_node, out_kind, ROLE_RECEIVED)
                if out_kind == MSG_INTEREST:
                    self._app_interest(at_node, out, trail)
                else:
                    self._app_data(at_node, out, trail)
                continue
            link = links[face]  # face ids double as neighbor ids
            if link.loss > 0.0 and self.rng.random() < link.loss:
                record(at_node, out_kind, ROLE_DROPPED)
                self.drops.extend((at_node, "loss", out.name))
                continue
            at = now + link.delay_ms
            if at == due:
                run.append(face)
                continue
            due = at
            run = faces if len(faces) == 1 else [face]
            entry = (at_node, run, out, trail)
            bucket = events.get(at)
            if bucket is None:
                events[at] = [entry]
                heapq.heappush(self._times, at)
            else:
                bucket.append(entry)

    # ----- application endpoints -----

    def _app_interest(self, node_id: str, pkt: InterestPacket, trail: Tuple[str, ...]) -> None:
        """Producer-side handling of a delivered Interest, whether it came
        over a link or from this node's own requests.

        A subscribe Interest, one whose (origin, name, nonce) key
        p2p_subscribe filed in ``_subs``, has just filed a pending entry
        in this node's PIT on its way up; that entry is the
        subscription. Its container gains a hook bound to the entry,
        which sends each new instance back along it for as long as the
        entry lives: until its solicit count is spent or its lifetime
        passes. Any other resolvable name, a container's included, is
        answered immediately. Names this SCL cannot resolve are silently
        left to die in pending tables; the consumer's fallback handles it.
        """
        scl, name = self.system.scl(node_id), pkt.name
        try:
            resolved = resolve_resource(scl, name)
        except NotFound:
            return
        key = (trail[0], name, pkt.nonce)
        if resolved[0] == "container" and key in self._subs:
            entry = self._nodes[node_id].pit[name]
            resolved[1].subscriptions.append(partial(self._notify, node_id, name, entry))
            self._subs[key] = True
            return
        answer = {"uri": name, "locator": scl.locator}
        if resolved[0] == "instance":
            answer["value"], answer["index"] = resolved[1], resolved[2]
        self._inject(node_id, DataPacket(name, answer))

    def _notify(
        self, producer_id: str, name: str, entry: PitEntry, payload: str, index: int
    ) -> bool:
        """Subscription hook: send one Data back along ``entry``, the
        subscribe Interest's pending entry at the producer, and say that
        the subscription stands. Once that entry is no longer the live
        one under ``name`` the subscription has lapsed: send nothing,
        and return False."""
        if pending(self._nodes[producer_id], name, self.system.clock_ms) is not entry:
            return False
        note = {"uri": name, "value": payload, "index": index}
        self._inject(producer_id, DataPacket(name, note))
        self.run()
        return True

    def _app_data(self, node_id: str, pkt: DataPacket, trail: Tuple[str, ...]) -> None:
        self._inbox[node_id, pkt.name].append((pkt, trail))

    def _request(
        self, origin: str, name: str, solicit: int, scope: int, subscribe: bool
    ) -> Tuple[bool, List[Tuple[DataPacket, Tuple[str, ...]]]]:
        """Inject one Interest for ``name``, the caller's name text, and
        run to quiescence; returns (whether a subscribe request reached
        its producer, answers). Raises InvalidName when ``name`` is no
        name: this is where a request's name is checked, once.

        A subscribe request's key is filed in ``_subs`` before the
        Interest is injected, because a request for the origin's own
        name reaches its application inside ``_inject``; the key leaves
        ``_subs`` however the request ends.
        """
        name = parse_name(name)
        key = (origin, name)
        self._inbox.pop(key, None)
        pkt = InterestPacket(name, self.rng.getrandbits(62), scope, solicit)
        sub_key = key + (pkt.nonce,)
        if subscribe:
            self._subs[sub_key] = False
        try:
            self._inject(origin, pkt)
            self.run()
        finally:
            subscribed = self._subs.pop(sub_key, False)
        return subscribed, self._inbox.pop(key, [])

    # ----- operations -----

    def distributed_discover(
        self, origin: str, target_name: str, scope: int
    ) -> Optional[DiscoveryResult]:
        """Name-based discovery over the overlay, None on no answer.

        A fetch whose answer names the resource and its SCL's locator; the
        path never exceeds ``scope`` hops, and a name this node owns is a
        zero-hop result. An answer with no locator is no answer: a
        subscription's notification, cached under its container's name,
        can answer a discovery of that container.
        """
        answer = self.fetch_resource(origin, target_name, scope)
        if answer is None or "locator" not in answer[0]:
            return None
        body, trail = answer
        return DiscoveryResult(body["uri"], body["locator"], path=tuple(reversed(trail)))

    def discover(
        self,
        origin: str,
        target_name: str,
        scope: int = MAX_PATH_HOPS,
        nscl: Optional[SclInstance] = None,
    ) -> DiscoveryResult:
        """Distributed discovery with centralized fallback.

        Raises InvalidName when ``target_name`` is no name, and NotFound
        only when the overlay is silent and the network SCL's registry
        cannot resolve the name either.
        """
        result = self.distributed_discover(origin, target_name, scope)
        if result is not None:
            return result
        hub = nscl if nscl is not None else self.system.nscl
        if hub is None:
            raise NotFound(target_name)
        return centralized_discover(self.system.scl(origin), hub, target_name)

    def fetch_resource(
        self, origin: str, name: str, scope: int
    ) -> Optional[Tuple[dict, List[str]]]:
        """One-shot content retrieval; (answer, trail) or None.

        The answer is a copy of the Data's payload: the canonical name, its
        SCL's Locator and an instance's value and index. Any Content Store
        on the way may answer, not only the producer; a name the origin
        owns is answered by its own application, with a trail of the
        origin alone.
        """
        _, answers = self._request(origin, name, solicit=1, scope=scope, subscribe=False)
        if not answers:
            return None
        pkt, trail = answers[0]
        return dict(pkt.payload), list(trail)

    def answers(self, origin: str, name: str) -> List[Tuple[dict, List[str]]]:
        """Copies of the Data answers delivered to ``origin`` for ``name``, with trails."""
        rows = self._inbox.get((origin, parse_name(name)), [])
        return [(dict(pkt.payload), list(trail)) for pkt, trail in rows]

    def qos_monitor(self, path: Sequence[str]) -> QosMetrics:
        """Estimate loss and delay over ``path`` with PROBE_COUNT probes.

        Each probe is one Bernoulli trial per link; a lost probe stops
        at the failing link. Link delays are fixed, so the mean delay is
        the path's summed delay when any probe arrives, and throughput
        the bottleneck capacity: both are read off the links. Probes
        show up in the message log but are not billed to the traffic
        counters.
        """
        if not path:
            raise BrokenPath("empty path")
        links: List[LinkMetrics] = []
        for u, v in zip(path, path[1:]):
            node = self._nodes.get(u)
            link = None if node is None else node.faces.get(v)
            if link is None:
                raise BrokenPath(f"{u} -- {v}")
            links.append(link)
        delivered = 0
        for _ in range(PROBE_COUNT):
            ok = not any(m.loss > 0.0 and self.rng.random() < m.loss for m in links)
            if ok:
                delivered += 1
            self.system.log.extend(
                (self.system.clock_ms, path[0], path[-1], "", MSG_PROBE,
                 "delivered" if ok else "lost")
            )
        loss_ratio = (PROBE_COUNT - delivered) / PROBE_COUNT
        mean_delay = sum(m.delay_ms for m in links) if delivered else None
        throughput = min((m.capacity for m in links), default=math.inf)
        return QosMetrics(loss_ratio, mean_delay, throughput)

    def ensure_link(self, origin: str, result: DiscoveryResult) -> bool:
        """The admission rule: link ``origin`` directly to the SCL that
        ``result`` locates unless the overlay path is good enough, and
        return whether a link was made.

        A path is good enough when that SCL answered over it, it is at
        most MAX_PATH_HOPS long, and its probes (``qos_monitor``) meet
        the MAX_LOSS, MAX_DELAY_MS and MIN_THROUGHPUT bounds. A hub
        answer, a longer path or a Content Store's answer, which says
        nothing about the way to the producer, links unprobed. An
        existing direct link is always good enough.
        """
        target = result.locator.node_id
        if target == origin:
            return False
        path = result.path
        if path is not None and result.path_hops <= MAX_PATH_HOPS and path[-1] == target:
            if _metrics_acceptable(self.qos_monitor(path)):
                return False
        try:
            self.add_link(origin, target)
        except DuplicateLink:
            return False
        self.system.log.extend(
            (self.system.clock_ms, origin, target, "", MSG_LINK_UP, result.uri)
        )
        return True

    def p2p_subscribe(
        self, origin: str, target_uri: str, expected_notifications: int
    ) -> None:
        """Subscribe to a container over the overlay, bypassing the hub,
        with an Interest that may travel DEFAULT_SUBSCRIBE_SCOPE hops.

        The subscription is the Interest's pending entry at the producer:
        its solicit count pre-authorizes that many future Data messages
        along the reverse path, and when it is spent or the entry's
        lifetime (DEFAULT_PIT_LIFETIME_MS) passes, the producer sends no
        more. Raises NoPath when the Interest dies before reaching the
        producer. A container the origin owns is subscribed alike: its
        pending entry lapses too.

        Subscribing again does not refresh a live subscription: while
        one notification (or a fetched answer) is fresh in the
        consumer's own Content Store, that store answers the next
        subscribe Interest under the container's name, so the call
        raises NoPath and empties the consumer's inbox for that
        container. A relay's store, or another consumer's live
        subscription behind the same relay, swallows it likewise. A
        subscribe Interest that does reach the producer files a new
        entry there, and the old subscription stands down.
        """
        if expected_notifications < 1:
            raise ValueError("expected_notifications must be >= 1")
        subscribed, _ = self._request(
            origin, target_uri, expected_notifications, DEFAULT_SUBSCRIBE_SCOPE, subscribe=True
        )
        if not subscribed:
            raise NoPath(target_uri)

    def notifications(self, consumer: str, container_uri: str) -> List[dict]:
        """Copies of the notifications delivered to ``consumer`` so far, each
        {uri, value, index}; ``answers`` gives each one's path too."""
        return [payload for payload, _ in self.answers(consumer, container_uri)]
