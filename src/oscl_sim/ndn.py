"""Content-centric forwarding plane: Content Store, PIT, nonce set.

Each overlay node runs one forwarder. It answers names under its own
prefix and floods every other Interest, like multicast forwarding in
NFD. Handlers are pure with respect to the wire: they mutate node
state and return emission records; the harness decides what a "face"
physically is and what a send costs.

A node's faces are its links: ``NdnNode.faces`` maps each face id to
whatever the harness attaches to that link (the overlay attaches the
link's metrics), and nothing else records who is linked to whom. The
face toward a neighbor carries that neighbor's node id, and APP_FACE,
which carries nothing, is the node-local application. Hop limits meter
overlay hops only, so handing a packet up to the local application
neither checks nor spends budget.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from .names import HierarchicalName, is_prefix

APP_FACE = "app"

DEFAULT_PIT_LIFETIME_MS = 4000.0
DEFAULT_FRESHNESS_MS = 10_000.0
DEFAULT_CS_CAPACITY = 64
DEFAULT_NONCE_CAPACITY = 1 << 16


class UnknownFace(ValueError):
    """Packet handed to a node on a face it does not own."""


# ===== packets =====


@dataclass(frozen=True)
class InterestPacket:
    name: HierarchicalName
    nonce: int
    hop_limit: int
    solicit_count: int = 1

    def __post_init__(self) -> None:
        if self.hop_limit < 0:
            raise ValueError("hop_limit must be >= 0")
        if self.solicit_count < 1:
            raise ValueError("solicit_count must be >= 1")


@dataclass(frozen=True)
class DataPacket:
    name: HierarchicalName
    payload: bytes
    freshness_ms: float = DEFAULT_FRESHNESS_MS

    def __post_init__(self) -> None:
        if self.freshness_ms <= 0:
            raise ValueError("freshness_ms must be positive")


# ===== emissions: what a handler asks the harness to do =====


@dataclass(frozen=True)
class SendInterest:
    face: str
    packet: InterestPacket


@dataclass(frozen=True)
class SendData:
    face: str
    packet: DataPacket


@dataclass(frozen=True)
class Drop:
    reason: str  # "loop" | "no-route" | "unsolicited"


Emission = Union[SendInterest, SendData, Drop]


# ===== tables =====


@dataclass
class PitEntry:
    """Pending Interest, filed under its name: where answers must flow
    back to.

    ``remaining`` is how many further Data messages this entry will
    accept before it is consumed; a solicited stream keeps the entry
    alive across several Data arrivals.
    """

    downstream: Set[Tuple[str, int]]  # (face, nonce) pairs
    remaining: int
    expiry: float


class ContentStore:
    """LRU cache of Data packets with freshness-based expiry.

    Stale entries are purged lazily when a lookup or insert touches
    them, so the store never serves an expired item but also never
    needs a timer.
    """

    def __init__(self, capacity: int = DEFAULT_CS_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._items: "OrderedDict[HierarchicalName, Tuple[DataPacket, float]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def lookup(self, name: HierarchicalName, now: float) -> Optional[DataPacket]:
        hit = self._items.get(name)
        if hit is None:
            return None
        packet, inserted_at = hit
        if inserted_at + packet.freshness_ms <= now:
            del self._items[name]
            return None
        self._items.move_to_end(name)  # refresh recency
        return packet

    def insert(self, packet: DataPacket, now: float) -> None:
        if self.capacity == 0:
            return
        if packet.name in self._items:
            self._items.move_to_end(packet.name)
        self._items[packet.name] = (packet, now)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)  # evict least recent


class BoundedNonceSet:
    """FIFO set of recently seen (name, nonce) pairs for loop pruning."""

    def __init__(self, capacity: int = DEFAULT_NONCE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._seen: "OrderedDict[Tuple[HierarchicalName, int], None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, key: Tuple[HierarchicalName, int]) -> bool:
        return key in self._seen

    def add(self, key: Tuple[HierarchicalName, int]) -> None:
        if key in self._seen:
            return
        if len(self._seen) >= self.capacity:
            self._seen.popitem(last=False)
        self._seen[key] = None


@dataclass
class NdnNode:
    """Forwarder state for one overlay node; its application answers
    every name under ``prefix``."""

    node_id: str
    prefix: HierarchicalName
    cs: ContentStore = field(default_factory=ContentStore)
    pit: Dict[HierarchicalName, PitEntry] = field(default_factory=dict)
    seen_nonces: BoundedNonceSet = field(default_factory=BoundedNonceSet)
    # face id -> the harness's link record; APP_FACE carries None
    faces: Dict[str, Any] = field(default_factory=lambda: {APP_FACE: None})


# ===== operations =====


def pit_expire(node: NdnNode, now: float) -> List[HierarchicalName]:
    """Drop every PIT entry whose lifetime has passed."""
    dead = [name for name, e in node.pit.items() if e.expiry <= now]
    for name in dead:
        del node.pit[name]
    return dead


def _expired_gone(node: NdnNode, name: HierarchicalName, now: float) -> Optional[PitEntry]:
    entry = node.pit.get(name)
    if entry is not None and entry.expiry <= now:
        del node.pit[name]
        return None
    return entry


def _forwarding_faces(node: NdnNode, pkt: InterestPacket, in_face: str) -> List[str]:
    """Pick outbound faces: the application face alone for a name under
    the node's prefix, else every overlay face but the arrival one."""
    if is_prefix(node.prefix, pkt.name):
        return [APP_FACE]
    if pkt.hop_limit <= 0:
        return []
    return sorted(f for f in node.faces if f not in (in_face, APP_FACE))


def on_interest(
    node: NdnNode, pkt: InterestPacket, in_face: str, now: float
) -> List[Emission]:
    """Process an arriving Interest.

    Order matters: the nonce check runs before any table can answer, so
    a looped copy always dies regardless of cache state. A Content
    Store hit answers on the arrival face without touching the PIT; a
    live PIT entry absorbs the Interest (only the first copy of a
    request is ever forwarded onward); otherwise a name under the
    node's prefix goes up to the application, any other is flooded with
    the hop budget spent per overlay hop, and a PIT entry records the
    way back.
    """
    if in_face not in node.faces:
        raise UnknownFace(f"{node.node_id} has no face {in_face!r}")

    key = (pkt.name, pkt.nonce)
    if key in node.seen_nonces:
        return [Drop("loop")]
    node.seen_nonces.add(key)

    cached = node.cs.lookup(pkt.name, now)
    if cached is not None:
        return [SendData(in_face, cached)]

    entry = _expired_gone(node, pkt.name, now)
    if entry is not None:
        # aggregate: remember the extra consumer, do not re-forward
        entry.downstream.add((in_face, pkt.nonce))
        entry.remaining = max(entry.remaining, pkt.solicit_count)
        entry.expiry = max(entry.expiry, now + DEFAULT_PIT_LIFETIME_MS)
        return []

    out = _forwarding_faces(node, pkt, in_face)
    if not out:
        return [Drop("no-route")]

    node.pit[pkt.name] = PitEntry(
        downstream={(in_face, pkt.nonce)},
        remaining=pkt.solicit_count,
        expiry=now + DEFAULT_PIT_LIFETIME_MS,
    )
    if out[0] == APP_FACE:
        return [SendInterest(APP_FACE, pkt)]
    # one hop-spent copy serves every overlay face: packets are frozen
    spent = InterestPacket(pkt.name, pkt.nonce, pkt.hop_limit - 1, pkt.solicit_count)
    return [SendInterest(face, spent) for face in out]


def on_data(node: NdnNode, pkt: DataPacket, in_face: str, now: float) -> List[Emission]:
    """Process an arriving Data message.

    Unsolicited Data (no live PIT entry under the exact name) is
    dropped and never cached. A match fans the packet out to every
    distinct downstream face except the arrival one, caches it, and
    consumes one unit of the entry's solicit budget.
    """
    if in_face not in node.faces:
        raise UnknownFace(f"{node.node_id} has no face {in_face!r}")

    entry = _expired_gone(node, pkt.name, now)
    if entry is None:
        return [Drop("unsolicited")]

    faces = sorted({face for face, _ in entry.downstream if face != in_face})
    emissions: List[Emission] = [SendData(face, pkt) for face in faces]
    entry.remaining -= 1
    if entry.remaining <= 0:
        del node.pit[pkt.name]
    node.cs.insert(pkt, now)
    return emissions
