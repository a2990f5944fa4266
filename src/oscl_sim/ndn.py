"""Content-centric forwarding plane: Content Store, PIT, nonce set.

Each overlay node runs one forwarder. It answers names under its own
prefix and floods every other Interest, like multicast forwarding in
NFD. Handlers are pure with respect to the wire: they mutate node
state and return emission records; the harness decides what a "face"
physically is and what a send costs. A handler returns at most one
emission: one send names every face its packet goes out on, in sorted
order, and the handlers return shared Drop constants, so a dropped
copy costs no record of its own.

A node's faces are its links: ``NdnNode.faces`` maps each face id to
whatever the harness attaches to that link (the overlay attaches the
link's metrics), and nothing else records who is linked to whom. The
face toward a neighbor carries that neighbor's node id. APP_FACE, the
node-local application, is no link and so in no ``faces``. Hop limits
meter overlay hops only, so handing a packet up to the local
application neither checks nor spends budget.

A name is its canonical text (see ``names``), so the tables looked up
by name (PIT, Content Store, nonce set) key by the name itself, a str
that hashes and compares in C. Each is a dict, probed at C level, in
the order of NFD's Interest pipeline (nonce, Content Store, PIT),
before any Python-level call. The tables have one fixed size on every
forwarder: a Content Store holds DEFAULT_CS_CAPACITY Data packets and
a nonce set DEFAULT_NONCE_CAPACITY keys, module constants read at each
insertion; no constructor takes a size. The nonce set is a plain dict,
probed and filed on every Interest, with a deque of the same keys as
its eviction queue, as NFD keeps its nonces in hash tables and expires
them apart: the oldest key is the queue's left end, while a plain dict
reaches its oldest live key only by scanning the deleted slots at its
front, and an OrderedDict, which finds it at once, takes about twice
the memory per key.

Packets are frozen, so an Interest builds its hop-spent copy and its
nonce key once, on first use: every forwarder at one hop of a request
sends the same copy, on all of its faces, and every nonce set files the
same key for it. Emissions and PIT entries are slotted, not frozen: a
frozen dataclass sets each field through ``object.__setattr__``, about
2.5 times the cost, and an emission lives only until the harness has
read it.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Set, Tuple, Union

APP_FACE = "app"

DEFAULT_PIT_LIFETIME_MS = 4000.0
DEFAULT_FRESHNESS_MS = 10_000.0
DEFAULT_CS_CAPACITY = 64
DEFAULT_NONCE_CAPACITY = 1 << 16


# ===== packets =====


@dataclass(frozen=True)
class InterestPacket:
    """A request for ``name``, identified by ``nonce``, that may cross
    ``hop_limit`` more overlay links.

    ``spent`` and ``key`` are built on first use and kept in the
    instance dict, which leaves the frozen fields, equality and hash
    alone: the forwarders that flood one packet all send its one
    ``spent``, and all their nonce sets hold its one ``key``.
    """

    name: str
    nonce: int
    hop_limit: int
    solicit_count: int = 1

    def __post_init__(self) -> None:
        if self.hop_limit < 0:
            raise ValueError("hop_limit must be >= 0")
        if self.solicit_count < 1:
            raise ValueError("solicit_count must be >= 1")

    @cached_property
    def spent(self) -> InterestPacket:
        """This request one hop on: the copy a forwarder floods."""
        return InterestPacket(self.name, self.nonce, self.hop_limit - 1, self.solicit_count)

    @cached_property
    def key(self) -> Tuple[str, int]:
        """The nonce-set key: (name, nonce)."""
        return (self.name, self.nonce)


@dataclass(frozen=True)
class DataPacket:
    """A named answer. The payload is the answer itself, a dict no
    forwarder reads; it leaves the packet unhashable, and nothing hashes one."""

    name: str
    payload: Dict[str, Any]


# ===== emissions: what a handler asks the harness to do =====


@dataclass(slots=True)
class SendInterest:
    faces: Tuple[str, ...]
    packet: InterestPacket


@dataclass(slots=True)
class SendData:
    faces: Tuple[str, ...]
    packet: DataPacket


@dataclass(frozen=True)
class Drop:
    reason: str  # "loop" | "no-route" | "unsolicited"


# a dropped copy needs no object of its own: the handlers share these
_LOOP = Drop("loop")
_NO_ROUTE = Drop("no-route")
_UNSOLICITED = Drop("unsolicited")


Packet = Union[InterestPacket, DataPacket]
Emission = Union[SendInterest, SendData, Drop]


# ===== tables =====


@dataclass(slots=True)
class PitEntry:
    """Pending Interest, filed under its name: where answers must flow
    back to.

    ``downstream`` holds the faces the Interest arrived on, the first
    copy's and every aggregated one's; Data goes back out on each of
    them but the link it arrived on.
    ``remaining`` is how many further Data messages this entry will
    accept before it is consumed; a solicited stream keeps the entry
    alive across several Data arrivals. A peer-to-peer subscription is
    such an entry at its producer, so this is its only countdown.
    """

    downstream: Set[str]
    remaining: int
    expiry: float


class ContentStore(OrderedDict):
    """LRU cache of Data packets with freshness-based expiry, holding at
    most DEFAULT_CS_CAPACITY of them.

    An entry goes stale DEFAULT_FRESHNESS_MS after its insertion. Stale
    entries are purged lazily when a lookup or insert touches them, so
    the store never serves an expired item but also never needs a timer.
    An OrderedDict filed by name with no overridden lookup, so a
    forwarder probes it with a C-level ``in`` before calling ``lookup``.
    """

    __slots__ = ()

    def lookup(self, name: str, now: float) -> Optional[DataPacket]:
        hit = self.get(name)
        if hit is None:
            return None
        packet, inserted_at = hit
        if inserted_at + DEFAULT_FRESHNESS_MS <= now:
            del self[name]
            return None
        self.move_to_end(name)  # refresh recency
        return packet

    def insert(self, packet: DataPacket, now: float) -> None:
        key = packet.name
        if key in self:
            self.move_to_end(key)
        self[key] = (packet, now)
        while len(self) > DEFAULT_CS_CAPACITY:
            self.popitem(last=False)  # evict least recent


@dataclass
class NdnNode:
    """Forwarder state for one overlay node, built from its prefix; its
    application answers every name under ``prefix``. ``seen_nonces``
    holds the (name, nonce) keys of recent Interests, a plain dict that
    iterates oldest first, and ``nonce_queue`` the same keys in the same
    order, the end it evicts from on the left; the nonce set and ``cs``
    have the fixed sizes DEFAULT_NONCE_CAPACITY and DEFAULT_CS_CAPACITY
    on every node."""

    prefix: str
    cs: ContentStore = field(default_factory=ContentStore)
    pit: Dict[str, PitEntry] = field(default_factory=dict)
    seen_nonces: Dict[Tuple[str, int], None] = field(default_factory=dict, repr=False)
    nonce_queue: deque = field(default_factory=deque, init=False, repr=False)
    # neighbor id -> the harness's record of the link to it
    faces: Dict[str, Any] = field(default_factory=dict)


# ===== operations =====


def pit_expire(node: NdnNode, now: float) -> List[str]:
    """Drop every PIT entry whose lifetime has passed; returns their names."""
    dead = [name for name, e in node.pit.items() if e.expiry <= now]
    for name in dead:
        del node.pit[name]
    return dead


def pending(node: NdnNode, name: str, now: float) -> Optional[PitEntry]:
    """The live PIT entry filed under ``name``, or None: an entry whose
    lifetime has passed is dropped here, so it never answers."""
    entry = node.pit.get(name)
    if entry is not None and entry.expiry <= now:
        del node.pit[name]
        return None
    return entry


def on_interest(
    node: NdnNode, pkt: InterestPacket, in_face: str, now: float
) -> List[Emission]:
    """Process an arriving Interest.

    Order matters: the nonce check runs before any table can answer, so
    a looped copy always dies regardless of cache state. A Content Store
    hit answers on the arrival face without touching the PIT; a live PIT
    entry absorbs the Interest (only the first copy of a request is ever
    forwarded onward); otherwise a name under the node's prefix goes up
    to the application, any other is flooded, as the packet's one
    ``spent`` copy, to every overlay face but the arrival one, and a PIT
    entry records the way back.

    Each check keeps that order and is a C-level dict or str probe;
    ``lookup`` and ``pending``, the only code for freshness and expiry,
    run only on a held name. Components hold no '/', so the text test
    for the own prefix equals the component-wise one. The nonce set files
    the packet's own ``key``, shared by every forwarder it reaches, in
    its dict and at the right of its queue; past DEFAULT_NONCE_CAPACITY
    keys, the key at the queue's left, the oldest, leaves both. Most
    copies end at the nonce check, so the name is read after it.
    """
    key = pkt.key
    seen = node.seen_nonces
    if key in seen:
        return [_LOOP]
    seen[key] = None
    queue = node.nonce_queue
    queue.append(key)
    if len(queue) > DEFAULT_NONCE_CAPACITY:
        del seen[queue.popleft()]  # FIFO: evict the oldest key

    name = pkt.name
    if name in node.cs:
        cached = node.cs.lookup(name, now)
        if cached is not None:
            return [SendData((in_face,), cached)]

    if name in node.pit:
        entry = pending(node, name, now)
        if entry is not None:
            # aggregate: remember the extra consumer, do not re-forward
            entry.downstream.add(in_face)
            entry.remaining = max(entry.remaining, pkt.solicit_count)
            entry.expiry = max(entry.expiry, now + DEFAULT_PIT_LIFETIME_MS)
            return []

    prefix = node.prefix
    if name == prefix or name.startswith(prefix + "/"):
        send = SendInterest((APP_FACE,), pkt)
    elif pkt.hop_limit <= 0:
        return [_NO_ROUTE]
    else:
        faces = sorted(node.faces)
        if in_face in node.faces:
            faces.remove(in_face)
        if not faces:
            return [_NO_ROUTE]
        send = SendInterest(tuple(faces), pkt.spent)
    node.pit[name] = PitEntry(
        downstream={in_face},
        remaining=pkt.solicit_count,
        expiry=now + DEFAULT_PIT_LIFETIME_MS,
    )
    return [send]


def on_data(node: NdnNode, pkt: DataPacket, in_face: str, now: float) -> List[Emission]:
    """Process an arriving Data message.

    Unsolicited Data (no live PIT entry under the exact name) is
    dropped and never cached. A match sends the packet out on every
    downstream face but the link it arrived on, in sorted face order,
    caches it, and consumes one unit of the entry's solicit budget.
    """
    name = pkt.name
    entry = pending(node, name, now)
    if entry is None:
        return [_UNSOLICITED]

    faces = sorted(entry.downstream)
    if in_face != APP_FACE and in_face in entry.downstream:
        faces.remove(in_face)
    entry.remaining -= 1
    if entry.remaining <= 0:
        del node.pit[name]
    node.cs.insert(pkt, now)
    return [SendData(tuple(faces), pkt)] if faces else []
