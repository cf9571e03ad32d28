"""Log-aware tokenizer.

Log messages differ from free-form prose: they embed identifiers
(``attempt_01``), host:port localities (``host1:13562``), filesystem paths,
units glued to numbers (``4ms``), bracketed component prefixes
(``[fetcher #1]``) and the asterisk variable marker of log keys.  A standard
word tokenizer would shred these.  This tokenizer keeps such atoms intact
while still splitting ordinary punctuation, which is what the downstream POS
tagger and pattern extractors expect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

# Atoms that must survive tokenization unsplit, tried in order.
_TOKEN_RE = re.compile(
    r"""
    (?P<path>   (?:hdfs://|file://|s3://)[^\s,;]+     # DFS URIs
              | /(?:[\w.\-]+/)+[\w.\-]*               # absolute POSIX paths
    )
  | (?P<hostport> [A-Za-z][\w.\-]*:\d{2,5}            # host:port
              | (?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?  # IPv4[:port]
    )
  | (?P<ident> [A-Za-z]+[_\-][\w\-]*\d[\w\-]*         # attempt_01, job-7_2
              | [A-Za-z]+\d+(?:_[\w]+)*               # task000_1, vertex12
              | \d+[_\-][\w\-]*[A-Za-z][\w\-]*        # 01_attempt
    )
  | (?P<number> \d+(?:\.\d+)?(?:[eE][+-]?\d+)?        # 2264, 12.5, 1e9
    )
  | (?P<word>  [A-Za-z]+(?:_[A-Za-z]+)+               # snake_case compounds
              | [A-Za-z][A-Za-z'\-]*                  # words, don't, on-disk
    )
  | (?P<star>  \*                                     # log-key variable field
    )
  | (?P<punct> [^\sA-Za-z0-9]                         # everything else, 1 char
    )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    """A single token with its surface form, kind and character offset."""

    text: str
    kind: str  # one of: path, hostport, ident, number, word, star, punct
    start: int

    @property
    def end(self) -> int:
        return self.start + len(self.text)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def iter_tokens(text: str) -> Iterator[Token]:
    """Yield :class:`Token` objects for ``text`` in surface order."""
    # The named groups are the top-level alternatives, none nested, so
    # the last (only) group that matched names the token's kind.
    for match in _TOKEN_RE.finditer(text):
        yield Token(match.group(), match.lastgroup, match.start())


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list of :class:`Token`."""
    return list(iter_tokens(text))


def words(text: str) -> list[str]:
    """Tokenize and return surface strings only."""
    return [token.text for token in iter_tokens(text)]


def detokenize(tokens: list[Token] | list[str]) -> str:
    """Join tokens back into a single-space-separated string.

    Exact whitespace is not recoverable (nor needed): log keys are compared
    token-wise throughout the pipeline.
    """
    parts = [t.text if isinstance(t, Token) else t for t in tokens]
    return " ".join(parts)
