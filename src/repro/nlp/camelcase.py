"""Camel-case word filter.

Paper §3.1: entities that are also classes in the source code follow the
camel-case naming convention ("MapTask", "BlockManager").  IntelLog splits
such words into phrases ("map task", "block manager") so nomenclature
grouping can correlate them with their plain-text siblings.  Users can
register additional filters for other conventions (snake_case is provided).
"""

from __future__ import annotations

import re
from typing import Protocol

_CAMEL_BOUNDARY = re.compile(
    r"""
      (?<=[a-z0-9])(?=[A-Z])          # fooBar -> foo | Bar
    | (?<=[A-Z])(?=[A-Z][a-z])        # HTTPServer -> HTTP | Server
    | (?<=[A-Za-z])(?=\d)             # task0 -> task | 0
    | (?<=\d)(?=[A-Za-z])             # 0task -> 0 | task
    """,
    re.VERBOSE,
)


class NameFilter(Protocol):
    """A naming-convention filter: returns sub-words or None if no match."""

    def __call__(self, word: str) -> list[str] | None: ...


def is_camel_case(word: str) -> bool:
    """True for words with an internal case change, e.g. ``MapTask``."""
    # An all-lowercase word (the common case) has no uppercase letter.
    if len(word) < 2 or word.islower() or not word.isalnum():
        return False
    has_upper_inside = any(c.isupper() for c in word[1:])
    has_lower = any(c.islower() for c in word)
    return has_upper_inside and has_lower


def split_camel_case(word: str) -> list[str]:
    """Split a camel-case word into lower-cased parts.

    >>> split_camel_case("MapTask")
    ['map', 'task']
    >>> split_camel_case("BlockManagerEndpoint")
    ['block', 'manager', 'endpoint']
    """
    return [part.lower() for part in _CAMEL_BOUNDARY.split(word) if part]


def camel_filter(word: str) -> list[str] | None:
    """The default camel-case :class:`NameFilter`."""
    if is_camel_case(word):
        parts = split_camel_case(word)
        # Pure alpha parts only: "task0" is an identifier, not an entity.
        if all(p.isalpha() for p in parts) and len(parts) >= 2:
            return parts
    return None


def snake_filter(word: str) -> list[str] | None:
    """Optional snake_case :class:`NameFilter` ("block_manager")."""
    if "_" in word.strip("_"):
        parts = [p.lower() for p in word.split("_") if p]
        if len(parts) >= 2 and all(p.isalpha() for p in parts):
            return parts
    return None


class FilterChain:
    """Composable chain of naming-convention filters.

    The first filter that matches wins.  Users targeting systems with other
    conventions register their own callables (paper §3.1: "users can define
    their own filters").
    """

    def __init__(self, filters: list[NameFilter] | None = None) -> None:
        self._filters: list[NameFilter] = (
            list(filters) if filters is not None else [camel_filter]
        )

    def add(self, name_filter: NameFilter) -> None:
        self._filters.append(name_filter)

    def split(self, word: str) -> list[str] | None:
        for name_filter in self._filters:
            parts = name_filter(word)
            if parts:
                return parts
        return None


DEFAULT_FILTERS = FilterChain()


def make_default_chain() -> FilterChain:
    """A fresh default chain (camel-case only, per the paper)."""
    return FilterChain([camel_filter])
