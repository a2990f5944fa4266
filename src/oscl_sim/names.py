"""Hierarchical content names and longest-prefix matching.

A name is its canonical text: '/'-separated, non-empty components with
no leading slash ("Gscl1/applications/meter_app"), the form every table
keys on. Matching is per component, never per character, so "meter" is
not a prefix of "meter_app".
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


def parse_name(text: str) -> str:
    """Validate a '/'-separated textual name and return its canonical text.

    One optional leading slash is tolerated and dropped; anything else
    empty is an error rather than silently collapsed.
    """
    if not isinstance(text, str):
        raise InvalidName(f"expected str, got {type(text).__name__}")
    if text.startswith("/"):
        text = text[1:]
    if not text:
        raise EmptyName("empty name text")
    if "" in text.split("/"):
        raise EmptyComponent(f"empty component in {text!r}")
    return text


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

    def set(self, prefix: str, value: V) -> None:
        node = self._root
        for part in prefix.split("/"):
            node = node.children.setdefault(part, _TrieNode())
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def _find(self, prefix: str) -> Optional[_TrieNode[V]]:
        node = self._root
        for part in prefix.split("/"):
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def get(self, prefix: str) -> Optional[V]:
        """Exact-prefix lookup; None when absent."""
        node = self._find(prefix)
        return node.value if node is not None and node.has_value else None

    def __contains__(self, prefix: str) -> bool:
        node = self._find(prefix)
        return node is not None and node.has_value

    def longest_prefix_match(self, name: str) -> Optional[Tuple[str, V]]:
        """Deepest stored prefix of ``name``, or None.

        Walks the single root-to-name path, remembering the last node
        that carried a value.
        """
        parts = name.split("/")
        node = self._root
        best: Optional[Tuple[int, V]] = None
        for depth, part in enumerate(parts, start=1):
            nxt = node.children.get(part)
            if nxt is None:
                break
            node = nxt
            if node.has_value:
                best = (depth, node.value)  # type: ignore[arg-type]
        if best is None:
            return None
        depth, value = best
        return "/".join(parts[:depth]), value

    def items(self) -> Iterator[Tuple[str, V]]:
        """All stored (prefix, value) pairs, shallow first, then by
        components."""
        stack: List[Tuple[Tuple[str, ...], _TrieNode[V]]] = [((), self._root)]
        out: List[Tuple[Tuple[str, ...], V]] = []
        while stack:
            path, node = stack.pop()
            if node.has_value:
                out.append((path, node.value))  # type: ignore[arg-type]
            for part in sorted(node.children, reverse=True):
                stack.append((path + (part,), node.children[part]))
        out.sort(key=lambda kv: (len(kv[0]), kv[0]))
        return iter([("/".join(path), value) for path, value in out])
