"""The 50 recipient-specific features and their [0, 1] scaling.

Feature values are extracted raw; min-max scaling parameters are fit on
training data only and applied (with clamping) everywhere else. Two
extraction paths exist: `assemble` computes one instance directly from
history queries, and `extract_matrix` featurizes many instances in two
passes, orders of magnitude faster on large corpora. Its similarity pass
gives each distinct token tuple of the events and instances one slot,
builds the fixed-point vectors of all slots at once in numpy
(`vectorspace.PackedVectors`), gathers each history stream's slots,
timestamps and tweet ids by the index's int64 places of its events (the
events' slots come from the corpus's column of token tuple numbers, and
their timestamps and tweet ids are the corpus's int64 columns), and
hands the stream, with every instance that queries it, to one
`vectorspace.stream_means` call. That call answers each distinct query
once (a tweet delivered to many recipients at one instant asks its
sender's posts one question), sums the held docs' vectors exactly in
int64 limbs, divides each mean in int64, and gives both the capped and,
for the recipient's seen and retweet streams, the weekly mean. Its
column pass fills the other 44 features one column at a time. Those 44
columns equal `assemble` bitwise; the six similarity features agree with
it to within a few units of 1e-16 when every record of a tweet id carries
the same tokens, since the sweep leaves out the tweet's own copies by
subtracting `dup·|vec|²` of the query vector. Each row depends only on
the instance and the context: featurizing any subset of instances gives
bitwise the same rows as featurizing them all.
"""

from __future__ import annotations

import itertools
import logging
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter, contains, itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import Corpus, Instance, UserProfile
from .history import DEFAULT_CAP, WEEK_SECONDS, UserHistoryIndex, group_places
from .vectorspace import (
    IdfTable,
    PackedVectors,
    avg_similarity,
    stream_means,
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
        self._warned_fallback = False


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
    hist: UserHistoryIndex,
    streams: Iterable[np.ndarray],
    window: int | None,
    idf: IdfTable,
    cap: int,
) -> list[float]:
    """Mean similarity of the tweet to the `recent` events of each stream,
    leaving out copies of the tweet itself."""
    t, ts, tid = instance.tweet.tokens, instance.timestamp, instance.tweet_id
    return [
        avg_similarity(t, [e.tokens for e in hist.recent(places, ts, window, cap, tid)], idf)
        for places in streams
    ]


def extract_group2(
    instance: Instance,
    hist: UserHistoryIndex,
    idf: IdfTable,
    cap: int = DEFAULT_CAP,
) -> list[float]:
    r = instance.recipient_id
    streams = (
        hist.posts_places(instance.sender_id),
        hist.posts_places(r),
        hist.seen_places(r),
        hist.retweets_places(r),
    )
    return _history_similarities(instance, hist, streams, None, idf, cap)


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
    streams = (hist.seen_places(r), hist.retweets_places(r))
    return _history_similarities(instance, hist, streams, WEEK_SECONDS, idf, cap)


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
    straight into X. The similarity pass (FT10-13, FT42-43) answers all
    queries of one history stream with one `stream_means` call, whose
    exact integer sums give the capped and, for the recipient's seen and
    retweet streams, the weekly mean. Each distinct token tuple has one
    vector per call, all of them built together in numpy with each
    distinct token's idf read once, and each distinct query of a stream
    is answered once.
    The column pass fills the other 44 columns one column at a time, with
    each user's profile values and each token tuple's wording counts
    computed once.
    """
    n = len(instances)
    ids = np.array([inst.instance_id for inst in instances], dtype=np.int64)
    labels = np.array([int(inst.label) for inst in instances], dtype=np.int64)
    X = np.empty((n, N_FEATURES), dtype=np.float64)
    _similarity_pass(ctx, instances, X)
    _column_pass(ctx, instances, X)
    return ids, X, labels


_TWEET_TOKENS = attrgetter("tweet.tokens")
_TIMESTAMP = attrgetter("timestamp")
_TWEET_ID = attrgetter("tweet_id")
_SENDER = attrgetter("sender_id")
_RECIPIENT = attrgetter("recipient_id")
_INSTANCE_ID = attrgetter("instance_id")


def _similarity_pass(ctx: FeatureContext, instances: Sequence[Instance], X: np.ndarray) -> None:
    """FT10-13 and FT42-43, one `stream_means` call per history stream: a
    user's posts answer the instances they send (FT10) and receive (FT11),
    and a recipient's seen and retweet streams give FT12 with FT42 and FT13
    with FT43. Every event's token slot is read into an array once per
    call, from the corpus's token column; its timestamp and tweet id are
    the index's `times` and `tweet_ids`, and each stream's arrays are
    gathered by the stream's places in the index. User ids, timestamps
    and tweet ids are 64-bit integers, as the loader checks."""
    hist, corpus = ctx.hist, ctx.corpus
    n = len(instances)
    # each distinct token tuple of the instances and events has one slot,
    # its vector's index in the pack, numbered as first met
    slot: defaultdict = defaultdict(itertools.count().__next__)

    def slots(tuples: Iterable[tuple], count: int) -> np.ndarray:
        return np.fromiter(map(slot.__getitem__, tuples), np.int64, count)

    def ints(records: Sequence, field: attrgetter) -> np.ndarray:
        return _column(map(field, records), len(records), np.int64)

    query = (slots(map(_TWEET_TOKENS, instances), n),
             ints(instances, _TIMESTAMP), ints(instances, _TWEET_ID))
    # the events' tokens are numbers of the corpus's distinct tuples; each
    # number used takes its tuple's slot, in order of first use
    numbers = corpus.events.column("tokens")
    used, first = np.unique(numbers, return_index=True)
    used = used[np.argsort(first)]
    slot_of = np.zeros(len(corpus.tuples), np.int64)
    slot_of[used] = slots(map(corpus.tuples.__getitem__, used.tolist()), len(used))
    event = (slot_of[numbers], hist.times, hist.tweet_ids)
    pack = PackedVectors(slot, ctx.idf)
    del slot

    def means(places: np.ndarray, rows: np.ndarray, window: int | None) -> tuple:
        return stream_means(pack, tuple(a[places] for a in event),
                            tuple(a[rows] for a in query), ctx.cap, window)

    # each stream's queries come in (timestamp, instance id) order, which
    # `stream_means` sorts by time at little cost; the posts of a user
    # answer first the rows they send (FT10), then the rows they receive
    # (FT11)
    by_time = np.lexsort((ints(instances, _INSTANCE_ID), query[1]))
    senders, recipients = (ints(instances, field)[by_time] for field in (_SENDER, _RECIPIENT))
    for user, at in group_places(np.concatenate([senders, recipients])):
        rows = by_time[at % n]
        X[rows, np.where(at < n, 9, 10)] = means(hist.posts_places(user), rows, None)[0]
    for user, at in group_places(recipients):
        rows = by_time[at]
        for places, capped_column, week_column in ((hist.seen_places(user), 11, 41),
                                                   (hist.retweets_places(user), 12, 42)):
            X[rows, capped_column], X[rows, week_column] = means(places, rows, WEEK_SECONDS)


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
