"""Hierarchical content names and longest-prefix matching.

Names are ordered component sequences ("Gscl1/applications/meter_app").
Matching is per component, never per character, so "meter" is not a
prefix of "meter_app".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

V = TypeVar("V")


class InvalidName(ValueError):
    """A textual name that cannot be parsed into components."""


class EmptyName(InvalidName):
    """Name with no components at all."""


class EmptyComponent(InvalidName):
    """Name containing a zero-length component, e.g. "a//b"."""


@dataclass(frozen=True)
class HierarchicalName:
    """Immutable component path, compared for equality only.

    ``text``, which ``str`` returns, is joined once at construction and
    is not a field: equality, hash and repr see the components only.
    Two names are equal exactly when their texts are.
    """

    components: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise EmptyName("name needs at least one component")
        for part in self.components:
            if not isinstance(part, str) or not part:
                raise EmptyComponent(f"empty component in {self.components!r}")
            if "/" in part:
                raise InvalidName(f"component may not contain '/': {part!r}")
        object.__setattr__(self, "text", "/".join(self.components))

    def __str__(self) -> str:
        return self.text

    def __len__(self) -> int:
        return len(self.components)

    def extend(self, *parts: str) -> "HierarchicalName":
        """Return a child name with ``parts`` appended."""
        return HierarchicalName(self.components + tuple(parts))


def parse_name(text: str) -> HierarchicalName:
    """Parse a '/'-separated textual name.

    One optional leading slash is tolerated; anything else empty is an
    error rather than silently collapsed.
    """
    if not isinstance(text, str):
        raise InvalidName(f"expected str, got {type(text).__name__}")
    if text.startswith("/"):
        text = text[1:]
    if not text:
        raise EmptyName("empty name text")
    parts = text.split("/")
    if any(not p for p in parts):
        raise EmptyComponent(f"empty component in {text!r}")
    return HierarchicalName(tuple(parts))


@dataclass
class _TrieNode(Generic[V]):
    children: Dict[str, "_TrieNode[V]"] = field(default_factory=dict)
    value: Optional[V] = None
    has_value: bool = False


class PrefixTable(Generic[V]):
    """Component trie mapping name prefixes to values.

    Lookup cost is proportional to the name length, not the table size.
    """

    def __init__(self) -> None:
        self._root: _TrieNode[V] = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def set(self, prefix: HierarchicalName, value: V) -> None:
        node = self._root
        for part in prefix.components:
            node = node.children.setdefault(part, _TrieNode())
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def get(self, prefix: HierarchicalName) -> Optional[V]:
        """Exact-prefix lookup; None when absent."""
        node = self._root
        for part in prefix.components:
            nxt = node.children.get(part)
            if nxt is None:
                return None
            node = nxt
        return node.value if node.has_value else None

    def __contains__(self, prefix: HierarchicalName) -> bool:
        node = self._root
        for part in prefix.components:
            nxt = node.children.get(part)
            if nxt is None:
                return False
            node = nxt
        return node.has_value

    def longest_prefix_match(
        self, name: HierarchicalName
    ) -> Optional[Tuple[HierarchicalName, V]]:
        """Deepest stored prefix of ``name``, or None.

        Walks the single root-to-name path, remembering the last node
        that carried a value.
        """
        node = self._root
        best: Optional[Tuple[int, V]] = None
        for depth, part in enumerate(name.components, start=1):
            nxt = node.children.get(part)
            if nxt is None:
                break
            node = nxt
            if node.has_value:
                best = (depth, node.value)  # type: ignore[arg-type]
        if best is None:
            return None
        depth, value = best
        return HierarchicalName(name.components[:depth]), value

    def items(self) -> Iterator[Tuple[HierarchicalName, V]]:
        """All stored (prefix, value) pairs, shallow first."""
        stack: List[Tuple[Tuple[str, ...], _TrieNode[V]]] = [((), self._root)]
        out: List[Tuple[HierarchicalName, V]] = []
        while stack:
            path, node = stack.pop()
            if node.has_value:
                out.append((HierarchicalName(path), node.value))  # type: ignore[arg-type]
            for part in sorted(node.children, reverse=True):
                stack.append((path + (part,), node.children[part]))
        out.sort(key=lambda kv: (len(kv[0].components), kv[0].components))
        return iter(out)
