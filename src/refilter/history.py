"""Time-aware per-user views over history events.

Every query takes a `before` timestamp and returns only events strictly
earlier than it; that strictness is the leak-prevention guarantee the
feature extractors rely on. The index is built once from a corpus and is
immutable afterwards, so concurrent readers are safe.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .corpus_io import Corpus

WEEK_SECONDS = 7 * 86400
DEFAULT_CAP = 1000


@dataclass(frozen=True, slots=True)
class HistoryDoc:
    """One tweet occurrence in a user stream."""

    timestamp: int
    tweet_id: int
    tokens: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class InteractionCounts:
    a_mentioned_b: int
    a_retweeted_b: int


class _Stream:
    """Time-sorted docs of one user with a parallel timestamp array."""

    __slots__ = ("docs", "times")

    def __init__(self) -> None:
        self.docs: list[HistoryDoc] = []
        self.times: list[int] = []

    def append(self, doc: HistoryDoc) -> None:
        self.docs.append(doc)
        self.times.append(doc.timestamp)

    def slice(self, before: int, window: int | None, cap: int) -> list[HistoryDoc]:
        hi = bisect_left(self.times, before)
        lo = 0 if window is None else bisect_left(self.times, before - window, 0, hi)
        if hi - lo > cap:
            lo = hi - cap
        return self.docs[lo:hi]


_EMPTY_STREAM = _Stream()


class UserHistoryIndex:
    """Per-user authored/retweeted/seen streams and interaction counters.

    Retweets are attributed to the author of the retweeted tweet; the
    author of a tweet id is resolved from authored events (first one wins)
    and instance metadata.
    """

    def __init__(self, corpus: Corpus) -> None:
        self._posts: dict[int, _Stream] = {}
        self._retweets: dict[int, _Stream] = {}
        self._seen: dict[int, _Stream] = {}
        self._mention_times: dict[tuple[int, int], list[int]] = {}
        self._retweet_times: dict[tuple[int, int], list[int]] = {}
        self._tweet_retweeters: dict[int, list[tuple[int, int]]] = {}
        author_of: dict[int, int] = {}
        self._neighbours = {uid: p.neighbours for uid, p in corpus.profiles.items()}

        for e in corpus.events:
            if e.action == "authored":
                author_of.setdefault(e.tweet_id, e.user_id)
        for inst in corpus.instances:
            author_of.setdefault(inst.tweet_id, inst.author_id)

        def stream(table: dict[int, _Stream], user: int) -> _Stream:
            s = table.get(user)
            if s is None:
                s = table[user] = _Stream()
            return s

        for e in corpus.events:  # corpus events are already time-sorted
            doc = HistoryDoc(e.timestamp, e.tweet_id, e.tokens)
            if e.action == "authored":
                stream(self._posts, e.user_id).append(doc)
            elif e.action == "retweeted":
                stream(self._posts, e.user_id).append(doc)
                stream(self._retweets, e.user_id).append(doc)
                self._tweet_retweeters.setdefault(e.tweet_id, []).append(
                    (e.timestamp, e.user_id)
                )
                author = author_of.get(e.tweet_id)
                if author is not None:
                    self._retweet_times.setdefault((e.user_id, author), []).append(
                        e.timestamp
                    )
            else:
                stream(self._seen, e.user_id).append(doc)
            if e.mentions_user is not None:
                self._mention_times.setdefault((e.user_id, e.mentions_user), []).append(
                    e.timestamp
                )

    # -- collection queries (token sequences, most recent `cap`) ------------

    def posts_by(
        self,
        user: int,
        before: int,
        cap: int = DEFAULT_CAP,
        exclude_tweet_id: int | None = None,
    ) -> list[tuple[int, ...]]:
        """Tweets the user authored or retweeted strictly before `before`."""
        docs = self._query(self._posts, user, before, None, cap, exclude_tweet_id)
        return [d.tokens for d in docs]

    def retweets_by(
        self,
        user: int,
        before: int,
        window: int | None = None,
        cap: int = DEFAULT_CAP,
        exclude_tweet_id: int | None = None,
    ) -> list[tuple[int, ...]]:
        """The user's retweets in [before-window, before), or all if no window."""
        docs = self._query(self._retweets, user, before, window, cap, exclude_tweet_id)
        return [d.tokens for d in docs]

    def seen_by(
        self,
        user: int,
        before: int,
        window: int | None = None,
        cap: int = DEFAULT_CAP,
        exclude_tweet_id: int | None = None,
    ) -> list[tuple[int, ...]]:
        """Tweets the user received strictly before `before`."""
        docs = self._query(self._seen, user, before, window, cap, exclude_tweet_id)
        return [d.tokens for d in docs]

    def _query(
        self,
        table: dict[int, _Stream],
        user: int,
        before: int,
        window: int | None,
        cap: int,
        exclude_tweet_id: int | None,
    ) -> list[HistoryDoc]:
        docs = table.get(user, _EMPTY_STREAM).slice(before, window, cap)
        if exclude_tweet_id is not None:
            docs = [d for d in docs if d.tweet_id != exclude_tweet_id]
        return docs

    # full time-sorted streams, for sweep-style consumers

    def posts_stream(self, user: int) -> list[HistoryDoc]:
        return self._posts.get(user, _EMPTY_STREAM).docs

    def retweets_stream(self, user: int) -> list[HistoryDoc]:
        return self._retweets.get(user, _EMPTY_STREAM).docs

    def seen_stream(self, user: int) -> list[HistoryDoc]:
        return self._seen.get(user, _EMPTY_STREAM).docs

    # -- counters ------------------------------------------------------------

    def interaction(self, a: int, b: int, before: int) -> InteractionCounts:
        """How often `a` mentioned / retweeted `b` strictly before `before`."""
        return InteractionCounts(
            a_mentioned_b=self.mention_count(a, b, before),
            a_retweeted_b=self.retweet_count(a, b, before),
        )

    def mention_count(self, a: int, b: int, before: int) -> int:
        """How often `a` mentioned `b` strictly before `before`."""
        return bisect_left(self._mention_times.get((a, b), ()), before)

    def retweet_count(self, a: int, b: int, before: int) -> int:
        """How often `a` retweeted a tweet of `b` strictly before `before`."""
        return bisect_left(self._retweet_times.get((a, b), ()), before)

    def neighbour_retweets(self, tweet_id: int, recipient: int, before: int) -> int:
        """Number of the recipient's neighbours that retweeted the tweet
        strictly before `before`."""
        neighbours = self._neighbours.get(recipient)
        if not neighbours:
            return 0
        seen_users: set[int] = set()
        for ts, user in self._tweet_retweeters.get(tweet_id, ()):
            if ts < before and user in neighbours:
                seen_users.add(user)
        return len(seen_users)

    def has_posts_in(self, user: int, before: int, window: int) -> bool:
        """Did the user author or retweet anything in [before-window, before)?"""
        s = self._posts.get(user)
        if s is None:
            return False
        hi = bisect_left(s.times, before)
        lo = bisect_left(s.times, before - window, 0, hi)
        return hi > lo