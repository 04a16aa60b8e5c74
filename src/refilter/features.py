"""The 50 recipient-specific features and their [0, 1] scaling.

Feature values are extracted raw; min-max scaling parameters are fit on
training data only and applied (with clamping) everywhere else. Two
extraction paths exist: `assemble` computes one instance directly from
history queries, and `extract_matrix` sweeps many instances in timestamp
order with one exact `RollingCentroid` per history stream, which is orders
of magnitude faster on large corpora. The sweep's similarity features
agree with `assemble` to within a few units of 1e-16, and each of its
rows depends only on the instance and the context: featurizing any subset
of instances gives bitwise the same rows as featurizing them all.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import Corpus, Instance, UserProfile
from .history import DEFAULT_CAP, WEEK_SECONDS, UserHistoryIndex
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

    @staticmethod
    def from_files(
        share_path: str | Path | None = None,
        good_path: str | Path | None = None,
        bad_path: str | Path | None = None,
    ) -> "KeywordConfig":
        from .textnorm import load_lexicon

        return KeywordConfig(
            share_words=load_lexicon(share_path) if share_path else DEFAULT_SHARE_KEYWORDS,
            good_words=load_lexicon(good_path) if good_path else frozenset(),
            bad_words=load_lexicon(bad_path) if bad_path else frozenset(),
        )


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
        week: int = WEEK_SECONDS,
    ) -> None:
        check_cap(cap)
        self.corpus = corpus
        self.hist = hist
        self.idf = idf
        self.keywords = keywords or KeywordConfig()
        self.vocab = vocab
        self.cap = cap
        self.week = week
        self._vec_cache: dict[int, FixedVector] = {}
        self._warned_fallback = False

    def vector_for(self, tweet_id: int, tokens: Sequence) -> FixedVector:
        """The tweet's TF-IDF vector in fixed point, computed once per id."""
        vec = self._vec_cache.get(tweet_id)
        if vec is None:
            vec = self._vec_cache[tweet_id] = to_fixed(vectorize(tokens, self.idf))
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


def extract_group2(
    instance: Instance,
    hist: UserHistoryIndex,
    idf: IdfTable,
    cap: int = DEFAULT_CAP,
) -> list[float]:
    t, ts, tid = instance.tweet.tokens, instance.timestamp, instance.tweet_id
    return [
        avg_similarity(t, hist.posts_by(instance.sender_id, ts, cap, tid), idf),
        avg_similarity(t, hist.posts_by(instance.recipient_id, ts, cap, tid), idf),
        avg_similarity(t, hist.seen_by(instance.recipient_id, ts, None, cap, tid), idf),
        avg_similarity(t, hist.retweets_by(instance.recipient_id, ts, None, cap, tid), idf),
    ]


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
    sr = hist.interaction(s, r, ts)
    rs = hist.interaction(r, s, ts)
    return [
        1.0 if r in instance.tweet.mentions else 0.0,
        1.0 if sr.a_mentioned_b > 0 else 0.0,
        1.0 if rs.a_mentioned_b > 0 else 0.0,
        1.0 if sr.a_retweeted_b > 0 else 0.0,
        1.0 if rs.a_retweeted_b > 0 else 0.0,
        float(rs.a_retweeted_b),
    ]


def extract_group5(
    instance: Instance,
    hist: UserHistoryIndex,
    idf: IdfTable,
    cap: int = DEFAULT_CAP,
    week: int = WEEK_SECONDS,
) -> list[float]:
    t, ts, tid = instance.tweet.tokens, instance.timestamp, instance.tweet_id
    return [
        avg_similarity(t, hist.seen_by(instance.recipient_id, ts, week, cap, tid), idf),
        avg_similarity(t, hist.retweets_by(instance.recipient_id, ts, week, cap, tid), idf),
    ]


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
    warn: bool = True,
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
        if warn:
            logger.info("instance %s: pos_counts missing, using fallback tagger",
                        instance.instance_id)
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


def assemble(instance: Instance, ctx: FeatureContext) -> FeatureVector:
    """All 50 raw features of one instance, straight from history queries."""
    values = (
        extract_group1(instance)
        + extract_group2(instance, ctx.hist, ctx.idf, ctx.cap)
        + extract_group3(
            ctx.corpus.profiles[instance.sender_id],
            ctx.corpus.profiles[instance.recipient_id],
        )
        + extract_group4(instance, ctx.hist)
        + extract_group5(instance, ctx.hist, ctx.idf, ctx.cap, ctx.week)
        + extract_group6(instance, ctx.hist, ctx.corpus.profiles)
        + extract_group7(instance, ctx.keywords, ctx.vocab, warn=not ctx._warned_fallback)
    )
    ctx._warned_fallback = True
    return FeatureVector(
        values=np.array(values, dtype=np.float64),
        instance_id=instance.instance_id,
        label=int(instance.label),
    )


# ---------------------------------------------------------------------------
# batch extraction with rolling history summaries


def extract_matrix(
    ctx: FeatureContext, instances: Sequence[Instance]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature matrix for many instances: (ids, X of shape (n, 50), labels).

    Rows are returned in the order of `instances`; internally the sweep
    runs in timestamp order so each history summary is built once.
    """
    n = len(instances)
    ids = np.array([inst.instance_id for inst in instances], dtype=np.int64)
    labels = np.array([int(inst.label) for inst in instances], dtype=np.int64)
    X = np.empty((n, N_FEATURES), dtype=np.float64)

    hist = ctx.hist
    # (kind, user, weekly) -> [centroid, that user's stream, next doc to push]
    rolling: dict[tuple[str, int, bool], list] = {}

    def similarity(kind: str, user: int, weekly: bool) -> float:
        """Mean similarity of the current row's tweet (`vec`, `tid`) to the
        user's stream strictly before the row's timestamp `ts`."""
        key = (kind, user, weekly)
        state = rolling.get(key)
        if state is None:
            state = rolling[key] = [
                RollingCentroid(ctx.cap, ctx.week if weekly else None),
                getattr(hist, f"{kind}_stream")(user),
                0,
            ]
        centroid, docs, i = state
        while i < len(docs) and docs[i].timestamp < ts:
            d = docs[i]
            centroid.push(d.timestamp, d.tweet_id, ctx.vector_for(d.tweet_id, d.tokens))
            i += 1
        state[2] = i
        return centroid.mean_similarity(vec, tid, ts)

    order = sorted(range(n), key=lambda i: (instances[i].timestamp, instances[i].instance_id))
    warned = ctx._warned_fallback
    for row in order:
        inst = instances[row]
        ts = inst.timestamp
        vec = ctx.vector_for(inst.tweet_id, inst.tweet.tokens)
        tid = inst.tweet_id
        recipient = inst.recipient_id

        group2 = [
            similarity("posts", inst.sender_id, False),
            similarity("posts", recipient, False),
            similarity("seen", recipient, False),
            similarity("retweets", recipient, False),
        ]
        group5 = [
            similarity("seen", recipient, True),
            similarity("retweets", recipient, True),
        ]
        values = (
            extract_group1(inst)
            + group2
            + extract_group3(
                ctx.corpus.profiles[inst.sender_id], ctx.corpus.profiles[inst.recipient_id]
            )
            + extract_group4(inst, hist)
            + group5
            + extract_group6(inst, hist, ctx.corpus.profiles)
            + extract_group7(inst, ctx.keywords, ctx.vocab, warn=not warned)
        )
        warned = True
        X[row, :] = values
    ctx._warned_fallback = warned
    return ids, X, labels


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


def apply_scaling(values: np.ndarray, params: ScalingParams) -> np.ndarray:
    """Clamp-scaled copy: scaled ids map to (x-min)/(max-min) in [0, 1],
    degenerate (min == max) columns map to 0, the rest pass through."""
    values = np.asarray(values, dtype=np.float64)
    out = values.copy()
    span = params.maxs - params.mins
    ok = _SCALED_MASK & (span > 0)
    degenerate = _SCALED_MASK & (span <= 0)
    scaled = (values[..., ok] - params.mins[ok]) / span[ok]
    out[..., ok] = np.clip(scaled, 0.0, 1.0)
    out[..., degenerate] = 0.0
    return out
