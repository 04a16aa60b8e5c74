"""The 50 recipient-specific features and their [0, 1] scaling.

Feature values are extracted raw; min-max scaling parameters are fit on
training data only and applied (with clamping) everywhere else. Two
extraction paths exist: `assemble` computes one instance directly from
history queries, and `extract_matrix` featurizes many instances in two
passes, orders of magnitude faster on large corpora. Its similarity pass
sweeps the instances in timestamp order with one cursor per history
stream, feeding exact `RollingCentroid`s, and answers a query repeated
within one second from a memo cleared whenever the timestamp advances.
Its column pass fills the other 44 features one column at a time. Those
44 columns equal `assemble` bitwise; the six similarity features agree
with it to within a few units of 1e-16 when every record of a tweet id
carries the same tokens, since a `RollingCentroid` leaves out the tweet's
own copies by subtracting `dup·|vec|²` of the query vector. Each row
depends only on the instance and the context: featurizing any subset of
instances gives bitwise the same rows as featurizing them all.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from operator import attrgetter, contains, itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import Corpus, HistoryEvent, Instance, UserProfile
from .history import DEFAULT_CAP, WEEK_SECONDS, UserHistoryIndex, recent
from .vectorspace import (
    FixedVector,
    IdfTable,
    RollingCentroid,
    avg_similarity,
    to_fixed,
    vectorize,
)

logger = logging.getLogger(__name__)

N_FEATURES = 50

FEATURE_NAMES: tuple[str, ...] = (
    "char_length", "has_url", "has_mention", "has_hashtag",
    "global_retweet_count", "global_favourite_count", "has_exclamation",
    "has_photo", "mention_count",
    "sim_sender_posts", "sim_recipient_posts", "sim_recipient_seen",
    "sim_recipient_retweets",
    "sender_followers", "sender_following", "sender_statuses", "sender_listed",
    "sender_verified", "sender_account_age", "sender_profile_url",
    "sender_klout", "sender_klout_delta_1d", "sender_klout_delta_7d",
    "sender_klout_delta_30d",
    "recipient_followers", "recipient_following", "recipient_statuses",
    "recipient_listed", "recipient_verified", "recipient_account_age",
    "recipient_profile_url", "recipient_klout", "recipient_klout_delta_1d",
    "recipient_klout_delta_7d", "recipient_klout_delta_30d",
    "mentions_recipient", "sender_ever_mentioned_recipient",
    "recipient_ever_mentioned_sender", "sender_ever_retweeted_recipient",
    "recipient_ever_retweeted_sender", "recipient_retweets_of_sender",
    "sim_recipient_seen_week", "sim_recipient_retweets_week",
    "author_is_neighbour", "neighbour_retweet_count",
    "share_keyword_count", "noun_verb_count", "definite_article_count",
    "indefinite_article_count", "good_minus_bad_keywords",
)

# unbounded counts and magnitudes get min-max scaled; flags and cosine
# similarities already live in [0, 1] and pass through
SCALED_FEATURE_IDS = frozenset(
    [1, 5, 6, 9]
    + [14, 15, 16, 17, 19, 21, 22, 23, 24]
    + [25, 26, 27, 28, 30, 32, 33, 34, 35]
    + [41, 45, 46, 47, 48, 49, 50]
)
_SCALED_MASK = np.zeros(N_FEATURES, dtype=bool)
for _ft in SCALED_FEATURE_IDS:
    _SCALED_MASK[_ft - 1] = True

DEFAULT_SHARE_KEYWORDS = frozenset({"rt", "spread", "share"})


@dataclass(frozen=True)
class KeywordConfig:
    """Lexicons for the wording features; good/bad default to empty."""

    share_words: frozenset[str] = DEFAULT_SHARE_KEYWORDS
    good_words: frozenset[str] = frozenset()
    bad_words: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FeatureVector:
    """Raw feature values of one instance, ordered FT1..FT50."""

    values: np.ndarray
    instance_id: int
    label: int


def check_cap(cap: int) -> None:
    """A history cap is an integer >= 1; a bool is not one."""
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValueError(f"history cap must be an integer >= 1, got cap={cap!r}")


class FeatureContext:
    """Everything extraction needs besides the instance itself."""

    def __init__(
        self,
        corpus: Corpus,
        hist: UserHistoryIndex,
        idf: IdfTable,
        keywords: KeywordConfig | None = None,
        vocab: Mapping[int, str] | None = None,
        cap: int = DEFAULT_CAP,
    ) -> None:
        check_cap(cap)
        self.corpus = corpus
        self.hist = hist
        self.idf = idf
        self.keywords = keywords or KeywordConfig()
        self.vocab = vocab
        self.cap = cap
        self._vec_cache: dict[tuple, FixedVector] = {}
        self._warned_fallback = False

    def vector_for(self, tokens: tuple) -> FixedVector:
        """The TF-IDF vector of a token tuple in fixed point, computed once
        per distinct tuple: equal tokens share one vector object."""
        vec = self._vec_cache.get(tokens)
        if vec is None:
            vec = self._vec_cache[tokens] = to_fixed(vectorize(tokens, self.idf))
        return vec


# ---------------------------------------------------------------------------
# group extractors (raw values)


def extract_group1(instance: Instance) -> list[float]:
    t = instance.tweet
    return [
        float(t.char_length),
        1.0 if t.has_url else 0.0,
        1.0 if t.mentions else 0.0,
        1.0 if t.has_hashtag else 0.0,
        float(instance.global_retweet_count),
        float(instance.global_favourite_count),
        1.0 if t.has_exclamation else 0.0,
        1.0 if t.has_photo else 0.0,
        float(len(t.mentions)),
    ]


def _history_similarities(
    instance: Instance,
    streams: Iterable[Sequence[HistoryEvent]],
    window: int | None,
    idf: IdfTable,
    cap: int,
) -> list[float]:
    """Mean similarity of the tweet to the `recent` events of each stream,
    leaving out copies of the tweet itself."""
    t, ts, tid = instance.tweet.tokens, instance.timestamp, instance.tweet_id
    return [
        avg_similarity(t, [e.tokens for e in recent(events, ts, window, cap, tid)], idf)
        for events in streams
    ]


def extract_group2(
    instance: Instance,
    hist: UserHistoryIndex,
    idf: IdfTable,
    cap: int = DEFAULT_CAP,
) -> list[float]:
    r = instance.recipient_id
    streams = (
        hist.posts_stream(instance.sender_id),
        hist.posts_stream(r),
        hist.seen_stream(r),
        hist.retweets_stream(r),
    )
    return _history_similarities(instance, streams, None, idf, cap)


def _profile_values(p: UserProfile) -> list[float]:
    return [
        float(p.followers),
        float(p.following),
        float(p.statuses),
        float(p.listed),
        1.0 if p.verified else 0.0,
        float(p.account_age_days),
        1.0 if p.has_profile_url else 0.0,
        float(p.klout),
        float(p.klout_delta_1d),
        float(p.klout_delta_7d),
        float(p.klout_delta_30d),
    ]


def extract_group3(sender: UserProfile, recipient: UserProfile) -> list[float]:
    return _profile_values(sender) + _profile_values(recipient)


def extract_group4(instance: Instance, hist: UserHistoryIndex) -> list[float]:
    ts = instance.timestamp
    s, r = instance.sender_id, instance.recipient_id
    r_retweeted_s = hist.retweet_count(r, s, ts)
    return [
        1.0 if r in instance.tweet.mentions else 0.0,
        1.0 if hist.mention_count(s, r, ts) > 0 else 0.0,
        1.0 if hist.mention_count(r, s, ts) > 0 else 0.0,
        1.0 if hist.retweet_count(s, r, ts) > 0 else 0.0,
        1.0 if r_retweeted_s > 0 else 0.0,
        float(r_retweeted_s),
    ]


def extract_group5(
    instance: Instance,
    hist: UserHistoryIndex,
    idf: IdfTable,
    cap: int = DEFAULT_CAP,
) -> list[float]:
    r = instance.recipient_id
    streams = (hist.seen_stream(r), hist.retweets_stream(r))
    return _history_similarities(instance, streams, WEEK_SECONDS, idf, cap)


def extract_group6(
    instance: Instance,
    hist: UserHistoryIndex,
    profiles: Mapping[int, UserProfile],
) -> list[float]:
    neighbours = profiles[instance.recipient_id].neighbours
    return [
        1.0 if instance.author_id in neighbours else 0.0,
        float(hist.neighbour_retweets(instance.tweet_id, instance.recipient_id, instance.timestamp)),
    ]


# fallback tagging on plain string tokens; a crude, documented
# approximation used only when instances carry no pos_counts
_DEFINITE_ARTICLES = frozenset({"the"})
_INDEFINITE_ARTICLES = frozenset({"a", "an"})
_FUNCTION_WORDS = frozenset(
    """the a an and or but if then than as of to in on at by for with from
    up down out about into over after before i you he she it we they me him
    her us them my your his its our their this that these those is are was
    were be been am do does did not no yes so very too also just only
    """.split()
)
_NOUN_VERB_SUFFIXES = (
    "tion", "sion", "ment", "ness", "ity", "ing", "ed", "es", "er", "or",
    "ist", "ism", "ate", "ize", "ise", "fy", "ty", "al", "ance", "ence",
)


def fallback_pos_counts(tokens: Iterable[str]) -> dict[str, int]:
    """Heuristic article and noun/verb counts from string tokens."""
    nouns_verbs = definite = indefinite = 0
    for tok in tokens:
        if tok in _DEFINITE_ARTICLES:
            definite += 1
        elif tok in _INDEFINITE_ARTICLES:
            indefinite += 1
        elif tok.isalpha() and tok not in _FUNCTION_WORDS:
            if len(tok) >= 5 or tok.endswith(_NOUN_VERB_SUFFIXES):
                nouns_verbs += 1
    return {
        "nouns_verbs": nouns_verbs,
        "definite_articles": definite,
        "indefinite_articles": indefinite,
    }


def _token_strings(
    tokens: Sequence, vocab: Mapping[int, str] | None
) -> list[str] | None:
    """Tokens as strings, or None when ids cannot be resolved."""
    if all(isinstance(t, str) for t in tokens):
        return list(tokens)
    if vocab is None:
        return None
    return [vocab[t] for t in tokens if t in vocab]


def extract_group7(
    instance: Instance,
    keywords: KeywordConfig,
    vocab: Mapping[int, str] | None = None,
) -> list[float]:
    strings = _token_strings(instance.tweet.tokens, vocab)
    if strings is None:
        share = good = bad = 0
    else:
        share = sum(1 for t in strings if t in keywords.share_words)
        good = sum(1 for t in strings if t in keywords.good_words)
        bad = sum(1 for t in strings if t in keywords.bad_words)

    pos = instance.pos_counts
    if pos is None and strings is not None:
        pos = fallback_pos_counts(strings)
    if pos is None:
        pos = {"nouns_verbs": 0, "definite_articles": 0, "indefinite_articles": 0}

    return [
        float(share),
        float(pos.get("nouns_verbs", 0)),
        float(pos.get("definite_articles", 0)),
        float(pos.get("indefinite_articles", 0)),
        float(good - bad),
    ]


def _note_fallback(ctx: FeatureContext, instance_id: int) -> None:
    """Log the first instance of a context that uses the fallback tagger."""
    if not ctx._warned_fallback:
        logger.info("instance %s: pos_counts missing, using fallback tagger", instance_id)
        ctx._warned_fallback = True


def assemble(instance: Instance, ctx: FeatureContext) -> FeatureVector:
    """All 50 raw features of one instance, straight from history queries."""
    if instance.pos_counts is None and _token_strings(instance.tweet.tokens, ctx.vocab) is not None:
        _note_fallback(ctx, instance.instance_id)
    values = (
        extract_group1(instance)
        + extract_group2(instance, ctx.hist, ctx.idf, ctx.cap)
        + extract_group3(
            ctx.corpus.profiles[instance.sender_id],
            ctx.corpus.profiles[instance.recipient_id],
        )
        + extract_group4(instance, ctx.hist)
        + extract_group5(instance, ctx.hist, ctx.idf, ctx.cap)
        + extract_group6(instance, ctx.hist, ctx.corpus.profiles)
        + extract_group7(instance, ctx.keywords, ctx.vocab)
    )
    return FeatureVector(
        values=np.array(values, dtype=np.float64),
        instance_id=instance.instance_id,
        label=int(instance.label),
    )


# ---------------------------------------------------------------------------
# batch extraction: a similarity pass over rolling history summaries, then a
# column pass for the other 44 features


def extract_matrix(
    ctx: FeatureContext, instances: Sequence[Instance]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature matrix for many instances: (ids, X of shape (n, 50), labels).

    Rows are returned in the order of `instances`. Two passes write
    straight into X. The similarity pass (FT10-13, FT42-43) runs in
    timestamp order with one cursor per history stream, which feeds the
    stream's capped `RollingCentroid` and, for the recipient's seen and
    retweet streams, its weekly one; a query repeated within one second
    (same stream, same tweet) is answered from a memo cleared whenever
    the timestamp advances. The column pass fills the other 44 columns one
    column at a time, with each user's profile values and each token
    tuple's wording counts computed once.
    """
    n = len(instances)
    ids = np.array([inst.instance_id for inst in instances], dtype=np.int64)
    labels = np.array([int(inst.label) for inst in instances], dtype=np.int64)
    X = np.empty((n, N_FEATURES), dtype=np.float64)
    _similarity_pass(ctx, instances, X)
    _column_pass(ctx, instances, X)
    return ids, X, labels


class _Cursor:
    """One user's stream of one kind, pushed in time order into a capped
    centroid and, given a window, into a windowed centroid too.

    `means` answers every query at one timestamp from a memo keyed by the
    tweet id, and reuses an entry only for the very vector object it was
    computed from. That is exact: the held events change only when the
    timestamp grows, and equal tokens share one vector object.
    """

    __slots__ = ("events", "next", "capped", "windowed", "ts", "memo", "vector_for")

    def __init__(self, events: Sequence, cap: int, window: int | None, vector_for) -> None:
        self.events = events
        self.next = 0  # the first event not yet pushed
        self.capped = RollingCentroid(cap)
        self.windowed = None if window is None else RollingCentroid(cap, window)
        self.ts = None
        self.memo: dict[int, tuple] = {}  # tweet id -> (query vector, means)
        self.vector_for = vector_for

    def means(self, ts: int, tweet_id: int, vec: FixedVector) -> tuple:
        """(capped, windowed or None) mean similarity of `vec` to the events
        strictly before `ts`, leaving out copies of `tweet_id`."""
        if ts != self.ts:
            self.ts = ts
            self.memo.clear()
            events, i, end = self.events, self.next, len(self.events)
            capped, windowed = self.capped, self.windowed
            while i < end and events[i].timestamp < ts:
                e = events[i]
                evec = self.vector_for(e.tokens)
                capped.push(e.timestamp, e.tweet_id, evec)
                if windowed is not None:
                    windowed.push(e.timestamp, e.tweet_id, evec)
                i += 1
            self.next = i
        got = self.memo.get(tweet_id)
        if got is not None and got[0] is vec:
            return got[1]
        windowed = self.windowed
        means = (
            self.capped.mean_similarity(vec, tweet_id, ts),
            None if windowed is None else windowed.mean_similarity(vec, tweet_id, ts),
        )
        self.memo[tweet_id] = (vec, means)
        return means


class _Cursors(dict):
    """user -> `_Cursor` over one kind of stream, made on first use."""

    def __init__(self, ctx: FeatureContext, stream, window: int | None) -> None:
        super().__init__()
        self.stream = stream  # user -> that user's time-sorted events
        self.cap = ctx.cap
        self.window = window
        self.vector_for = ctx.vector_for

    def __missing__(self, user: int) -> _Cursor:
        cursor = self[user] = _Cursor(self.stream(user), self.cap, self.window, self.vector_for)
        return cursor


def _similarity_pass(ctx: FeatureContext, instances: Sequence[Instance], X: np.ndarray) -> None:
    hist = ctx.hist
    posts = _Cursors(ctx, hist.posts_stream, None)
    seen = _Cursors(ctx, hist.seen_stream, WEEK_SECONDS)
    retweets = _Cursors(ctx, hist.retweets_stream, WEEK_SECONDS)
    sender_posts, recipient_posts, recipient_seen, recipient_retweets = (
        X[:, col] for col in range(9, 13)
    )
    seen_week, retweets_week = X[:, 41], X[:, 42]
    vector_for = ctx.vector_for

    keys = [(inst.timestamp, inst.instance_id) for inst in instances]
    order = sorted(range(len(instances)), key=keys.__getitem__)
    del keys  # n tuples, not to be held through the sweep
    for row in order:
        inst = instances[row]
        ts, tid, recipient = inst.timestamp, inst.tweet_id, inst.recipient_id
        vec = vector_for(inst.tweet.tokens)
        sender_posts[row] = posts[inst.sender_id].means(ts, tid, vec)[0]
        recipient_posts[row] = posts[recipient].means(ts, tid, vec)[0]
        recipient_seen[row], seen_week[row] = seen[recipient].means(ts, tid, vec)
        recipient_retweets[row], retweets_week[row] = retweets[recipient].means(ts, tid, vec)


def _column(values: Iterable, n: int, dtype=np.float64) -> np.ndarray:
    """n values as an array; with dtype=bool, each value's truth."""
    return np.fromiter(values, dtype=dtype, count=n)


_NO_POS_COUNTS: Mapping[str, int] = {}


def _column_pass(ctx: FeatureContext, instances: Sequence[Instance], X: np.ndarray) -> None:
    """Groups 1, 3, 4, 6 and 7, one column at a time, each value the one
    `assemble` computes for its row."""
    hist, profiles, n = ctx.hist, ctx.corpus.profiles, len(instances)
    tweets = [inst.tweet for inst in instances]
    senders = [inst.sender_id for inst in instances]
    recipients = [inst.recipient_id for inst in instances]
    times = [inst.timestamp for inst in instances]

    def attr(objects: Sequence, name: str, dtype=np.float64) -> np.ndarray:
        return _column(map(attrgetter(name), objects), n, dtype)

    # group 1: FT1-9
    X[:, 0] = attr(tweets, "char_length")
    X[:, 1] = attr(tweets, "has_url", bool)
    X[:, 3] = attr(tweets, "has_hashtag", bool)
    X[:, 4] = attr(instances, "global_retweet_count")
    X[:, 5] = attr(instances, "global_favourite_count")
    X[:, 6] = attr(tweets, "has_exclamation", bool)
    X[:, 7] = attr(tweets, "has_photo", bool)
    X[:, 8] = _column(map(len, map(attrgetter("mentions"), tweets)), n)
    X[:, 2] = X[:, 8] > 0.0

    # group 3: FT14-35, each user's eleven profile values once
    slot: dict[int, int] = {}
    for user in itertools.chain(senders, recipients):
        slot.setdefault(user, len(slot))
    table = np.array([_profile_values(profiles[uid]) for uid in slot], dtype=np.float64)
    table = table.reshape(len(slot), 11)
    for first, users in ((13, senders), (24, recipients)):
        rows = _column(map(slot.__getitem__, users), n, np.intp)
        for j in range(11):
            X[:, first + j] = table[rows, j]

    # group 4: FT36-41
    X[:, 35] = _column(map(contains, map(attrgetter("mentions"), tweets), recipients), n, bool)
    X[:, 36] = _column(map(hist.mention_count, senders, recipients, times), n, bool)
    X[:, 37] = _column(map(hist.mention_count, recipients, senders, times), n, bool)
    X[:, 38] = _column(map(hist.retweet_count, senders, recipients, times), n, bool)
    X[:, 40] = _column(map(hist.retweet_count, recipients, senders, times), n)
    X[:, 39] = X[:, 40] > 0.0

    # group 6: FT44-45
    X[:, 43] = _column(
        (i.author_id in profiles[i.recipient_id].neighbours for i in instances), n, bool)
    tweet_ids = map(attrgetter("tweet_id"), instances)
    X[:, 44] = _column(map(hist.neighbour_retweets, tweet_ids, recipients, times), n)

    _wording_columns(ctx, instances, X)


def _wording(tokens: Sequence, keywords: KeywordConfig, vocab: Mapping[int, str] | None) -> tuple:
    """(share count, good minus bad count, fallback pos counts or None
    when the tokens do not resolve to strings), as `extract_group7`."""
    strings = _token_strings(tokens, vocab)
    if strings is None:
        return 0, 0, None
    return (
        sum(1 for t in strings if t in keywords.share_words),
        sum(1 for t in strings if t in keywords.good_words)
        - sum(1 for t in strings if t in keywords.bad_words),
        fallback_pos_counts(strings),
    )


def _wording_columns(ctx: FeatureContext, instances: Sequence[Instance], X: np.ndarray) -> None:
    """Group 7 (FT46-50), with the token-string work once per distinct
    token tuple; the fallback-tagger warning is logged once per context."""
    n = len(instances)
    token_rows = [inst.tweet.tokens for inst in instances]
    wording = dict.fromkeys(token_rows)
    for tokens in wording:
        wording[tokens] = _wording(tokens, ctx.keywords, ctx.vocab)
    words_of = list(map(wording.__getitem__, token_rows))
    pos_of = [inst.pos_counts for inst in instances]
    for row, pos in enumerate(pos_of):
        if pos is None:
            fallback = words_of[row][2]
            if fallback is None:
                pos_of[row] = _NO_POS_COUNTS
            else:
                _note_fallback(ctx, instances[row].instance_id)
                pos_of[row] = fallback

    X[:, 45] = _column(map(itemgetter(0), words_of), n)
    for col, name in ((46, "nouns_verbs"), (47, "definite_articles"), (48, "indefinite_articles")):
        X[:, col] = _column((pos.get(name, 0) for pos in pos_of), n)
    X[:, 49] = _column(map(itemgetter(1), words_of), n)


# ---------------------------------------------------------------------------
# scaling


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature min/max from training data; only scaled ids are used."""

    mins: np.ndarray
    maxs: np.ndarray

    @staticmethod
    def identity() -> "ScalingParams":
        return ScalingParams(mins=np.zeros(N_FEATURES), maxs=np.zeros(N_FEATURES))


def fit_scaling(matrix: np.ndarray) -> ScalingParams:
    """Column-wise min/max over training rows."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if matrix.shape[0] == 0:
        return ScalingParams.identity()
    return ScalingParams(mins=matrix.min(axis=0), maxs=matrix.max(axis=0))


def scale_columns(block: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Scale `block` in place and return it. Each of its columns is a
    scaled feature with extremes `mins`, `maxs`: x maps to
    (x-min)/(max-min) clamped to [0, 1], a degenerate (min == max) column
    to 0, and a column whose span is NaN passes through. The formula is
    elementwise, so any rows of a column scale alone."""
    span = maxs - mins
    ok = span > 0
    block[..., ok] = np.clip((block[..., ok] - mins[ok]) / span[ok], 0.0, 1.0)
    block[..., span <= 0] = 0.0
    return block


def apply_scaling(values: np.ndarray, params: ScalingParams) -> np.ndarray:
    """Clamp-scaled copy: scaled ids go through `scale_columns`, the rest
    pass through."""
    values = np.asarray(values, dtype=np.float64)
    out = values.copy()
    m = _SCALED_MASK
    out[..., m] = scale_columns(values[..., m], params.mins[m], params.maxs[m])
    return out
