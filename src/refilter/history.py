"""Time-aware per-user views over history events.

`UserHistoryIndex.recent` is the one slice of an event stream, and every
query returns only events strictly earlier than its `before` timestamp;
that strictness is the leak-prevention guarantee the feature extractors
rely on. The index is built once from a corpus and holds each stream as
the int64 places of its events in `corpus.events`; it is immutable
afterwards, so concurrent readers are safe.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from .corpus_io import Corpus, HistoryEvent

WEEK_SECONDS = 7 * 86400
DEFAULT_CAP = 1000

_timestamp = attrgetter("timestamp")
_tweet_id = attrgetter("tweet_id")
_user_id = attrgetter("user_id")
_action = attrgetter("action")


def group_places(keys: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(key, the int64 places where it occurs in `keys`, in order) for
    each distinct key, in key order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return zip(ordered[np.r_[0, cuts][:len(ordered)]].tolist(), np.split(order, cuts))


def _read_only(places: np.ndarray) -> np.ndarray:
    places.flags.writeable = False
    return places


def _places_by_user(users: np.ndarray, chosen: np.ndarray) -> dict[int, np.ndarray]:
    """user -> the places of the chosen events that are the user's, in
    order, as a read-only int64 array."""
    places = np.flatnonzero(chosen).astype(np.int64, copy=False)
    return {user: _read_only(places[at]) for user, at in group_places(users[places])}


_NO_PLACES = _read_only(np.zeros(0, dtype=np.int64))


class UserHistoryIndex:
    """Per-user time-sorted event streams and interaction counters.

    A user's posts are the tweets they authored or retweeted; the retweet
    and seen streams hold one action each. Retweets are attributed to the
    author of the retweeted tweet; the author of a tweet id is resolved
    from authored events (first one wins) and instance metadata.

    Each stream is the read-only int64 array of its events' places in
    `corpus.events`, in time order (`posts_places` and the like). The
    events' `times` and `tweet_ids` are held once as read-only int64
    columns, which `recent` bisects and a reader of many streams gathers
    by the places in numpy.
    """

    def __init__(self, corpus: Corpus) -> None:
        self._events = corpus.events
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
            if e.action == "retweeted":
                self._tweet_retweeters.setdefault(e.tweet_id, []).append(e)
                author = author_of.get(e.tweet_id)
                if author is not None:
                    self._retweet_times.setdefault((e.user_id, author), []).append(
                        e.timestamp
                    )
            if e.mentions_user is not None:
                self._mention_times.setdefault((e.user_id, e.mentions_user), []).append(
                    e.timestamp
                )
        events, n = corpus.events, len(corpus.events)
        self.times, self.tweet_ids, users = (
            _read_only(np.fromiter(map(field, events), np.int64, n))
            for field in (_timestamp, _tweet_id, _user_id))
        # `recent` bisects through memoryviews, whose items are Python ints
        self._time_at = memoryview(self.times).__getitem__
        authored, retweeted = (np.fromiter(map(action.__eq__, map(_action, events)), bool, n)
                               for action in ("authored", "retweeted"))
        posts = authored | retweeted
        self._posts = _places_by_user(users, posts)
        self._retweets = _places_by_user(users, retweeted)
        self._seen = _places_by_user(users, ~posts)

    # -- time-sorted streams as places in corpus.events, sliced with `recent` --

    def posts_places(self, user: int) -> np.ndarray:
        return self._posts.get(user, _NO_PLACES)

    def retweets_places(self, user: int) -> np.ndarray:
        return self._retweets.get(user, _NO_PLACES)

    def seen_places(self, user: int) -> np.ndarray:
        return self._seen.get(user, _NO_PLACES)

    def recent(
        self,
        places: np.ndarray,
        before: int,
        window: int | None = None,
        cap: int = DEFAULT_CAP,
        exclude_tweet_id: int | None = None,
    ) -> list[HistoryEvent]:
        """The events of a stream's places in [before-window, before), or
        all strictly before `before` if no window: the most recent `cap` of
        them, then without copies of `exclude_tweet_id`. Each is the
        corpus's own event, not a copy."""
        time = self._time_at
        view = memoryview(places)
        hi = bisect_left(view, before, key=time)
        lo = 0 if window is None else bisect_left(view, before - window, 0, hi, key=time)
        kept = [self._events[i] for i in view[max(lo, hi - cap):hi].tolist()]
        if exclude_tweet_id is not None:
            kept = [e for e in kept if e.tweet_id != exclude_tweet_id]
        return kept

    def has_posts_in(self, user: int, before: int, window: int) -> bool:
        """Did the user author or retweet anything in [before-window, before)?"""
        return bool(self.recent(self.posts_places(user), before, window, cap=1))

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
