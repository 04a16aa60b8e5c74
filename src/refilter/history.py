"""Time-aware per-user views over history events.

`UserHistoryIndex.recent` is the one slice of an event stream, and every
query returns only events strictly earlier than its `before` timestamp;
that strictness is the leak-prevention guarantee the feature extractors
rely on. The index is built once from a corpus's event and instance
columns and holds each stream as the int64 places of its events in
`corpus.events`; it is immutable afterwards, so concurrent readers are
safe.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from .corpus_io import Corpus, HistoryEvent

WEEK_SECONDS = 7 * 86400
DEFAULT_CAP = 1000


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


def _times_by_pair(a: np.ndarray, b: np.ndarray,
                   times: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """(a, b) -> the sorted times of the rows that hold that pair."""
    order = np.lexsort((times, b, a))
    a, b, times = a[order], b[order], times[order]
    cuts = np.flatnonzero((a[1:] != a[:-1]) | (b[1:] != b[:-1])) + 1
    firsts = np.r_[0, cuts][:len(a)]
    return dict(zip(zip(a[firsts].tolist(), b[firsts].tolist()),
                    (part.tolist() for part in np.split(times, cuts))))


def _first_of_each(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and the value at each one's first place."""
    distinct, first = np.unique(keys, return_index=True)
    return distinct, values[first]


_NO_PLACES = _read_only(np.zeros(0, dtype=np.int64))


class UserHistoryIndex:
    """Per-user time-sorted event streams and interaction counters.

    A user's posts are the tweets they authored or retweeted; the retweet
    and seen streams hold one action each. Retweets are attributed to the
    author of the retweeted tweet; the author of a tweet id is resolved
    from authored events (first one wins) and instance metadata.

    Each stream is the read-only int64 array of its events' places in
    `corpus.events`, in time order (`posts_places` and the like). The
    events' `times` and `tweet_ids` are the corpus's read-only int64
    columns, which `recent` bisects and a reader of many streams gathers
    by the places in numpy. Every part of the index is built from the
    columns in numpy; no event record is made.
    """

    def __init__(self, corpus: Corpus) -> None:
        from .corpus_io import ACTIONS

        events, instances = corpus.events, corpus.instances
        self._events = events
        self._neighbours = {uid: p.neighbours for uid, p in corpus.profiles.items()}
        self.times, self.tweet_ids, users = (
            events.column(name) for name in ("timestamp", "tweet_id", "user_id"))
        # `recent` bisects through memoryviews, whose items are Python ints
        self._time_at = memoryview(self.times).__getitem__
        action = events.column("action")
        authored, retweeted = (action == ACTIONS.index(name) for name in ("authored", "retweeted"))
        posts = authored | retweeted
        self._posts = _places_by_user(users, posts)
        self._retweets = _places_by_user(users, retweeted)
        self._seen = _places_by_user(users, ~posts)

        mentions = np.flatnonzero(~events.nulls("mentions_user"))
        self._mention_times = _times_by_pair(
            users[mentions], events.column("mentions_user")[mentions], self.times[mentions])

        # the author of a tweet: its first authored event's user, else the
        # author of its first instance
        tweets, authors = _first_of_each(self.tweet_ids[authored], users[authored])
        delivered, their_authors = _first_of_each(instances.column("tweet_id"),
                                                  instances.column("author_id"))
        more = ~np.isin(delivered, tweets, assume_unique=True)
        tweets = np.concatenate([tweets, delivered[more]])
        authors = np.concatenate([authors, their_authors[more]])
        order = np.argsort(tweets)
        tweets, authors = tweets[order], authors[order]

        retweets = np.flatnonzero(retweeted)
        retweeted_ids = self.tweet_ids[retweets]
        at = np.minimum(np.searchsorted(tweets, retweeted_ids), max(len(tweets) - 1, 0))
        known = tweets[at] == retweeted_ids if len(tweets) else np.zeros(len(retweets), bool)
        kept = retweets[known]
        self._retweet_times = _times_by_pair(users[kept], authors[at[known]], self.times[kept])

        # each retweeted tweet's (time, user) pairs, in event order
        by_tweet = retweets[np.argsort(retweeted_ids, kind="stable")]
        pairs = list(zip(self.times[by_tweet].tolist(), users[by_tweet].tolist()))
        ids = self.tweet_ids[by_tweet]
        cuts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
        self._retweeters = {tweet: pairs[lo:hi] for tweet, lo, hi in
                            zip(ids[[0, *cuts][:len(ids)]].tolist(), [0, *cuts], [*cuts, len(ids)])}

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
        them, then without copies of `exclude_tweet_id`. Each is made from
        the corpus's columns on this call, equal to the event at its place
        in `corpus.events`."""
        time = self._time_at
        view = memoryview(places)
        hi = bisect_left(view, before, key=time)
        lo = 0 if window is None else bisect_left(view, before - window, 0, hi, key=time)
        kept = places[max(lo, hi - cap):hi]
        if exclude_tweet_id is not None:
            kept = kept[self.tweet_ids[kept] != exclude_tweet_id]
        return self._events.at(kept)

    def has_posts_in(self, user: int, before: int, window: int) -> bool:
        """Did the user author or retweet anything in [before-window, before)?"""
        view = memoryview(self.posts_places(user))
        hi = bisect_left(view, before, key=self._time_at)
        return hi > 0 and self._time_at(view[hi - 1]) >= before - window

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
        for time, user in self._retweeters.get(tweet_id, ()):
            if time < before and user in neighbours:
                seen_users.add(user)
        return len(seen_users)
