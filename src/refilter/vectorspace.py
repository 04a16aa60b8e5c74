"""Sparse TF-IDF vectors and average cosine similarity.

Tokens may be strings (raw pipeline) or integer ids (encoded corpora);
anything hashable works. Document frequency is smoothed so unseen tokens
get a finite weight: idf = ln((N+1)/(df+1)) + 1.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

Token = Hashable
SparseVector = dict  # token -> weight, L2-normalized unless empty
FixedVector = dict  # token -> weight as an exact integer in units of 2**-FIXED_BITS

FIXED_BITS = 60
_FIXED_SCALE = float(1 << FIXED_BITS)  # a power of two: w * scale is exact


@dataclass(frozen=True)
class IdfTable:
    """Document counts of a background corpus, queried for idf weights."""

    doc_count: int
    doc_frequency: Mapping[Token, int] = field(default_factory=dict)

    def idf(self, token: Token) -> float:
        df = self.doc_frequency.get(token, 0)
        return math.log((self.doc_count + 1) / (df + 1)) + 1.0

    @staticmethod
    def uniform() -> "IdfTable":
        """Empty-background table: every token weighs ln(1)+1 = 1."""
        return IdfTable(doc_count=0, doc_frequency={})


def build_idf(corpus: Iterable[Sequence[Token]]) -> IdfTable:
    """Count in how many documents each token appears (not occurrences)."""
    df: dict[Token, int] = {}
    n = 0
    for doc in corpus:
        n += 1
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    return IdfTable(doc_count=n, doc_frequency=df)


def vectorize(tokens: Sequence[Token], idf: IdfTable) -> SparseVector:
    """Raw term count times idf, L2-normalized. Empty input: zero vector."""
    if not tokens:
        return {}
    counts: dict[Token, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    weights = {t: c * idf.idf(t) for t, c in counts.items()}
    norm = math.sqrt(sum(w * w for w in weights.values()))
    if norm == 0.0:
        return {}
    return {t: w / norm for t, w in weights.items()}


def cosine(u: SparseVector, v: SparseVector) -> float:
    """Dot product of already-normalized vectors; zero vector gives 0."""
    if len(u) > len(v):
        u, v = v, u
    return sum(w * v[t] for t, w in u.items() if t in v)


def avg_similarity(
    tweet: Sequence[Token],
    collection: Iterable[Sequence[Token]],
    idf: IdfTable,
) -> float:
    """Mean cosine between a tweet and each member of a collection.

    An empty collection carries no evidence of similarity and returns 0.
    """
    t_vec = vectorize(tweet, idf)
    total = 0.0
    n = 0
    for member in collection:
        total += cosine(t_vec, vectorize(member, idf))
        n += 1
    if n == 0:
        return 0.0
    return min(max(total / n, 0.0), 1.0)


def to_fixed(vec: SparseVector) -> FixedVector:
    """Round each weight to the nearest multiple of 2**-FIXED_BITS."""
    return {t: round(w * _FIXED_SCALE) for t, w in vec.items()}


def _subtract(sums: dict, vec: FixedVector) -> None:
    """Take `vec` out of exact integer sums; a key that reaches 0 goes."""
    for t, w in vec.items():
        left = sums[t] - w
        if left:
            sums[t] = left
        else:
            del sums[t]


def _uncount(counts: dict, tweet_id: int) -> None:
    left = counts[tweet_id] - 1
    if left:
        counts[tweet_id] = left
    else:
        del counts[tweet_id]


def _mean(dot: int, n: int, dup: int, square: int) -> float:
    """Mean cosine of a query over `n` docs whose vectors sum to a dot of
    `dot` with it, leaving out `dup` copies of the query (each `square`)."""
    if dup:
        dot -= dup * square
        n -= dup
    if n <= 0:
        return 0.0
    # clamped like avg_similarity: rounding the weights to fixed point
    # can lift the mean over identical docs just past 1
    mean = dot / (n << 2 * FIXED_BITS)
    return 0.0 if mean < 0.0 else 1.0 if mean > 1.0 else mean


class RollingCentroid:
    """The most recent `cap` docs of one time-ordered stream, kept as exact
    integer sums of their fixed-point vectors. Given a `window`, the held
    docs older than the window are also summed apart, so one structure
    answers both the capped mean and the mean over the held docs of the
    trailing `window` seconds.

    The held docs of the window are the newest `cap` docs of the window,
    since the docs arrive in time order. Integer sums depend only on which
    docs are held, never on the order in which docs were pushed or
    dropped, so each mean is a pure function of the docs held and the query.
    """

    __slots__ = (
        "cap", "window", "times", "ids", "vecs", "sums", "counts",
        "n_old", "old_sums", "old_counts",
    )

    def __init__(self, cap: int, window: int | None = None) -> None:
        self.cap = cap
        self.window = window
        # the held docs, oldest first, as parallel deques: a tuple per doc
        # would be a tracked object and make the cyclic GC run more often
        self.times: deque = deque()
        self.ids: deque = deque()
        self.vecs: deque = deque()
        self.sums: dict = {}  # token -> exact int sum; a key at 0 is deleted
        self.counts: dict = {}  # tweet_id -> copies held
        # the oldest `n_old` held docs lie outside the window
        self.n_old = 0
        self.old_sums: dict = {}
        self.old_counts: dict = {}

    def _drop_oldest(self) -> None:
        self.times.popleft()
        old_id = self.ids.popleft()
        vec = self.vecs.popleft()
        _subtract(self.sums, vec)
        _uncount(self.counts, old_id)
        if self.n_old:
            self.n_old -= 1
            _subtract(self.old_sums, vec)
            _uncount(self.old_counts, old_id)

    def push(self, ts: int, tweet_id: int, vec: FixedVector) -> None:
        """Add the newest doc as a `to_fixed` vector; docs arrive in
        timestamp order, and the oldest is dropped beyond `cap`."""
        self.times.append(ts)
        self.ids.append(tweet_id)
        self.vecs.append(vec)
        sums = self.sums
        for t, w in vec.items():
            sums[t] = sums.get(t, 0) + w
        self.counts[tweet_id] = self.counts.get(tweet_id, 0) + 1
        if len(self.ids) > self.cap:
            self._drop_oldest()

    def _age(self, now: int) -> None:
        """Sum apart the held docs older than `now - window`; a doc exactly
        `window` seconds old stays in the window."""
        horizon = now - self.window
        times, i, end = self.times, self.n_old, len(self.times)
        if i == end or times[i] >= horizon:
            return
        ids, vecs = self.ids, self.vecs
        old_sums, old_counts = self.old_sums, self.old_counts
        while i < end and times[i] < horizon:
            for t, w in vecs[i].items():
                old_sums[t] = old_sums.get(t, 0) + w
            tweet_id = ids[i]
            old_counts[tweet_id] = old_counts.get(tweet_id, 0) + 1
            i += 1
        self.n_old = i

    def means(
        self, vec: FixedVector, exclude_tweet_id: int, now: int
    ) -> tuple[float, float | None]:
        """(capped, window) mean cosine between `vec` and the docs held at
        `now`, leaving out copies of `exclude_tweet_id` (the tweet of
        `vec`); the window mean is None without a window.

        An empty collection gives 0. The dot products are exact integers,
        so the one rounding of each mean is its division. The window's dot
        is the held dot minus the dot with the docs older than the window,
        and there is no second dot while no held doc is that old.
        """
        window = self.window
        n = len(self.ids)
        if n == 0:
            return 0.0, None if window is None else 0.0
        sums = self.sums
        dot = sum(w * sums.get(t, 0) for t, w in vec.items())
        dup = self.counts.get(exclude_tweet_id, 0)
        square = sum(w * w for w in vec.values()) if dup else 0
        capped = _mean(dot, n, dup, square)
        if window is None:
            return capped, None
        self._age(now)
        n_old = self.n_old
        if not n_old:
            return capped, capped
        old_sums = self.old_sums
        old_dot = sum(w * old_sums.get(t, 0) for t, w in vec.items())
        return capped, _mean(
            dot - old_dot, n - n_old, dup - self.old_counts.get(exclude_tweet_id, 0), square
        )
