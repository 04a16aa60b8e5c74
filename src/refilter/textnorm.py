"""Tweet text normalization.

Turns raw tweet text into a lowercase token sequence in which URLs,
numbers, and smileys are collapsed to pseudo-tokens, while surface facts
(length, mentions, hashtags, exclamation marks, smiley counts) are
recorded before the replacements destroy them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

URL_TOKEN = "_url_"
NUM_TOKEN = "_num_"
SMILEY_TOKENS = {
    "love": "_love_",
    "positive": "_pos_",
    "negative": "_neg_",
    "neutral": "_neutral_",
}
SMILEY_CLASSES = ("love", "positive", "negative", "neutral")

DEFAULT_SMILEYS: dict[str, frozenset[str]] = {
    "love": frozenset({"<3", "♥"}),
    "positive": frozenset({":)", ":-)", ":D", "=)", ";)"}),
    "negative": frozenset({":(", ":-(", ":'("}),
    "neutral": frozenset({":|", ":-|"}),
}

_URL_RE = re.compile(r"^(https?://|www\.)\S*$", re.IGNORECASE)
# plain integers/decimals with optional sign, and comma-grouped thousands
_NUM_RE = re.compile(r"^[+-]?(\d+|\d{1,3}(,\d{3})+)(\.\d+)?$")
_TAG_RE = re.compile(r"^([@#][A-Za-z0-9_]+)(.*)$")
# word runs keep apostrophes and underscores so contractions and
# pseudo-tokens survive re-normalization intact
_WORD_RE = re.compile(r"[A-Za-z0-9_'’]+|[^A-Za-z0-9_'’\s]")


@dataclass(frozen=True)
class NormalizedTweet:
    """Token sequence plus surface statistics of one tweet."""

    tokens: tuple[str, ...]
    char_length: int
    has_url: bool = False
    has_photo: bool = False
    mentions: tuple[str, ...] = ()
    has_hashtag: bool = False
    has_exclamation: bool = False
    smiley_counts: Mapping[str, int] = field(
        default_factory=lambda: {c: 0 for c in SMILEY_CLASSES}
    )


def normalize(
    raw_text: str,
    smileys: Mapping[str, frozenset[str]] | None = None,
) -> NormalizedTweet:
    """Tokenize and normalize one tweet.

    URLs become ``_url_``, numeric tokens ``_num_``, smileys one of four
    sentiment pseudo-tokens; everything else is lowercased with
    punctuation split off as standalone tokens. Mentions (``@name``) and
    hashtags (``#tag``) stay whole. Total function: any string, including
    the empty one, yields a tweet.
    """
    lexicons = DEFAULT_SMILEYS if smileys is None else smileys
    smiley_of = {s: cls for cls in SMILEY_CLASSES for s in lexicons.get(cls, ())}

    tokens: list[str] = []
    mentions: list[str] = []
    has_url = False
    has_hashtag = False
    counts = {c: 0 for c in SMILEY_CLASSES}

    def emit_chunk(chunk: str) -> None:
        nonlocal has_url, has_hashtag
        if not chunk:
            return
        if _URL_RE.match(chunk):
            tokens.append(URL_TOKEN)
            has_url = True
            return
        if chunk in smiley_of:
            cls = smiley_of[chunk]
            tokens.append(SMILEY_TOKENS[cls])
            counts[cls] += 1
            return
        if _NUM_RE.match(chunk):
            tokens.append(NUM_TOKEN)
            return
        m = _TAG_RE.match(chunk)
        if m:
            tag = m.group(1).lower()
            tokens.append(tag)
            if tag[0] == "@":
                mentions.append(tag[1:])
            else:
                has_hashtag = True
            emit_chunk(m.group(2))
            return
        for piece in _WORD_RE.findall(chunk):
            if _NUM_RE.match(piece):
                tokens.append(NUM_TOKEN)
            else:
                tokens.append(piece.lower())

    for chunk in raw_text.split():
        emit_chunk(chunk)

    return NormalizedTweet(
        tokens=tuple(tokens),
        char_length=len(raw_text),
        has_url=has_url,
        has_photo=False,
        mentions=tuple(mentions),
        has_hashtag=has_hashtag,
        has_exclamation="!" in raw_text,
        smiley_counts=counts,
    )

