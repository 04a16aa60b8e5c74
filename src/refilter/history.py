"""Time-aware per-user views over history events.

`recent` is the one slice of an event stream, and every query returns
only events strictly earlier than its `before` timestamp; that strictness
is the leak-prevention guarantee the feature extractors rely on. The
index is built once from a corpus and holds the corpus's own events; it
is immutable afterwards, so concurrent readers are safe.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .corpus_io import Corpus, HistoryEvent

WEEK_SECONDS = 7 * 86400
DEFAULT_CAP = 1000

_timestamp = attrgetter("timestamp")


def recent(
    events: Sequence[HistoryEvent],
    before: int,
    window: int | None = None,
    cap: int = DEFAULT_CAP,
    exclude_tweet_id: int | None = None,
) -> Sequence[HistoryEvent]:
    """The events of a time-sorted stream in [before-window, before), or
    all strictly before `before` if no window: the most recent `cap` of
    them, then without copies of `exclude_tweet_id`."""
    hi = bisect_left(events, before, key=_timestamp)
    lo = 0 if window is None else bisect_left(events, before - window, 0, hi, key=_timestamp)
    kept = events[max(lo, hi - cap):hi]
    if exclude_tweet_id is not None:
        kept = [e for e in kept if e.tweet_id != exclude_tweet_id]
    return kept


class UserHistoryIndex:
    """Per-user time-sorted event streams and interaction counters.

    A user's posts are the tweets they authored or retweeted; the retweet
    and seen streams hold one action each. Retweets are attributed to the
    author of the retweeted tweet; the author of a tweet id is resolved
    from authored events (first one wins) and instance metadata.
    """

    def __init__(self, corpus: Corpus) -> None:
        self._posts: dict[int, list[HistoryEvent]] = {}
        self._retweets: dict[int, list[HistoryEvent]] = {}
        self._seen: dict[int, list[HistoryEvent]] = {}
        self._mention_times: dict[tuple[int, int], list[int]] = {}
        self._retweet_times: dict[tuple[int, int], list[int]] = {}
        self._tweet_retweeters: dict[int, list[HistoryEvent]] = {}
        author_of: dict[int, int] = {}
        self._neighbours = {uid: p.neighbours for uid, p in corpus.profiles.items()}

        for e in corpus.events:
            if e.action == "authored":
                author_of.setdefault(e.tweet_id, e.user_id)
        for inst in corpus.instances:
            author_of.setdefault(inst.tweet_id, inst.author_id)

        for e in corpus.events:  # corpus events are already time-sorted
            if e.action == "authored":
                self._posts.setdefault(e.user_id, []).append(e)
            elif e.action == "retweeted":
                self._posts.setdefault(e.user_id, []).append(e)
                self._retweets.setdefault(e.user_id, []).append(e)
                self._tweet_retweeters.setdefault(e.tweet_id, []).append(e)
                author = author_of.get(e.tweet_id)
                if author is not None:
                    self._retweet_times.setdefault((e.user_id, author), []).append(
                        e.timestamp
                    )
            else:
                self._seen.setdefault(e.user_id, []).append(e)
            if e.mentions_user is not None:
                self._mention_times.setdefault((e.user_id, e.mentions_user), []).append(
                    e.timestamp
                )

    # -- time-sorted streams, sliced with `recent` ----------------------------

    def posts_stream(self, user: int) -> list[HistoryEvent]:
        return self._posts.get(user, [])

    def retweets_stream(self, user: int) -> list[HistoryEvent]:
        return self._retweets.get(user, [])

    def seen_stream(self, user: int) -> list[HistoryEvent]:
        return self._seen.get(user, [])

    def has_posts_in(self, user: int, before: int, window: int) -> bool:
        """Did the user author or retweet anything in [before-window, before)?"""
        return bool(recent(self.posts_stream(user), before, window, cap=1))

    # -- counters ------------------------------------------------------------

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
        for e in self._tweet_retweeters.get(tweet_id, ()):
            if e.timestamp < before and e.user_id in neighbours:
                seen_users.add(e.user_id)
        return len(seen_users)
