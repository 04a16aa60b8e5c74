"""Encoded corpus model: the three-file dataset format plus a synthetic
corpus generator with a planted retweet signal.

A corpus is three UTF-8 JSON-lines files (one self-describing record per
line): user profiles, history events, and labeled instances. Words are
integer token ids; ids 0-5 are reserved for the pseudo-tokens produced by
text normalization. Field names are frozen in docs/FORMATS.md.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
import math
import sys
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import vectorspace
from .textnorm import NUM_TOKEN, SMILEY_TOKENS, URL_TOKEN

# reserved token ids for the normalization pseudo-tokens
PSEUDO_TOKEN_IDS: dict[str, int] = {
    URL_TOKEN: 0,
    NUM_TOKEN: 1,
    SMILEY_TOKENS["love"]: 2,
    SMILEY_TOKENS["positive"]: 3,
    SMILEY_TOKENS["negative"]: 4,
    SMILEY_TOKENS["neutral"]: 5,
}
FIRST_WORD_ID = 6

ACTIONS = ("authored", "retweeted", "seen")
_ACTION_RANK = {a: i for i, a in enumerate(ACTIONS)}

PROFILES_FILE = "profiles.jsonl"
HISTORY_FILE = "history.jsonl"
INSTANCES_FILE = "instances.jsonl"
MANIFEST_FILE = "manifest.json"


class CorpusError(ValueError):
    """Base class for corpus loading problems."""


class CorpusFormatError(CorpusError):
    """A record line that cannot be parsed; names the file and line."""


class CorpusIntegrityError(CorpusError):
    """A reference that does not resolve, or a duplicated identifier."""


@dataclass(frozen=True, slots=True)
class UserProfile:
    user_id: int
    followers: int
    following: int
    statuses: int
    listed: int
    verified: bool
    account_age_days: int
    has_profile_url: bool
    klout: float
    klout_delta_1d: float = 0.0
    klout_delta_7d: float = 0.0
    klout_delta_30d: float = 0.0
    neighbours: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class HistoryEvent:
    user_id: int
    tweet_id: int
    action: str
    timestamp: int
    tokens: tuple[int, ...]
    mentions_user: int | None = None


@dataclass(frozen=True, slots=True)
class EncodedTweet:
    """Normalized tweet content in integer-id form, plus surface flags."""

    tokens: tuple[int, ...]
    char_length: int
    has_url: bool = False
    has_photo: bool = False
    has_hashtag: bool = False
    has_exclamation: bool = False
    mentions: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class Instance:
    """One classification example: a tweet delivered to a recipient."""

    instance_id: int
    tweet_id: int
    author_id: int
    sender_id: int
    recipient_id: int
    timestamp: int
    label: bool
    tweet: EncodedTweet
    global_retweet_count: int = 0
    global_favourite_count: int = 0
    pos_counts: Mapping[str, int] | None = None


def _event_key(e: HistoryEvent) -> tuple:
    return (e.timestamp, e.user_id, _ACTION_RANK[e.action], e.tweet_id)


@dataclass
class Corpus:
    """An in-memory dataset: profiles, time-sorted events, instances."""

    profiles: dict[int, UserProfile]
    events: list[HistoryEvent]
    instances: list[Instance]

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=_event_key)
        self.instances = sorted(self.instances, key=lambda i: i.instance_id)
        self.instance_by_id = {i.instance_id: i for i in self.instances}


class Vocabulary:
    """String-token to integer-id mapping with the reserved pseudo ids."""

    def __init__(self) -> None:
        self._to_id: dict[str, int] = dict(PSEUDO_TOKEN_IDS)
        self._to_token: dict[int, str] = {v: k for k, v in PSEUDO_TOKEN_IDS.items()}

    def encode(self, tokens: Iterable[str]) -> tuple[int, ...]:
        out = []
        for tok in tokens:
            tid = self._to_id.get(tok)
            if tid is None:
                tid = len(self._to_id)
                self._to_id[tok] = tid
                self._to_token[tid] = tok
            out.append(tid)
        return tuple(out)

    def id_to_token(self) -> dict[int, str]:
        return dict(self._to_token)


# ---------------------------------------------------------------------------
# reading and writing


def corpus_paths(directory: str | Path) -> tuple[Path, Path, Path]:
    d = Path(directory)
    return d / PROFILES_FILE, d / HISTORY_FILE, d / INSTANCES_FILE


def _read_records(path: Path, required: Sequence[str]) -> Iterable[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{path}:{lineno}: record is not an object")
            for key in required:
                if key not in record:
                    raise CorpusFormatError(f"{path}:{lineno}: field {key!r} is missing")
            yield lineno, record


# Integer fields must hold JSON integers. `type(v) is int` rejects floats,
# strings and bools (`int` would truncate 1200.7, and `True == 1`). Ids and
# timestamps fit in 64 bits, as the feature table stores instance ids; a
# count becomes a float feature value, so it must not exceed the float range.
_INT64 = range(-(2**63), 2**63)
_FLOAT_COUNTS = range(int(sys.float_info.max) + 1)


def _check_ints(rec: dict, keys: Sequence[str], path: Path, lineno: int) -> None:
    for key in keys:
        value = rec[key]
        if type(value) is not int or value not in _INT64:
            raise CorpusFormatError(f"{path}:{lineno}: field {key!r} must be a 64-bit integer")


def _check_counts(rec: dict, keys: Sequence[str], path: Path, lineno: int) -> None:
    """Integers >= 0 within the float range; an absent optional count is 0."""
    for key in keys:
        value = rec.get(key, 0)
        if type(value) is not int or value not in _FLOAT_COUNTS:
            raise CorpusFormatError(
                f"{path}:{lineno}: field {key!r} must be an integer >= 0 within the float range"
            )


def _check_flags(rec: dict, keys: Sequence[str], path: Path, lineno: int) -> None:
    """JSON 0 or 1; an absent optional flag is 0."""
    for key in keys:
        value = rec.get(key, 0)
        if type(value) is not int or value not in (0, 1):
            raise CorpusFormatError(f"{path}:{lineno}: field {key!r} must be 0 or 1")


def _finite_number(rec: dict, key: str, path: Path, lineno: int) -> float:
    """A JSON integer or float that is finite as a float; absent is 0.0.
    `json.loads` accepts the non-standard literals NaN and Infinity."""
    value = rec.get(key, 0.0)
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise CorpusFormatError(f"{path}:{lineno}: field {key!r} must be a finite number")


def _int_list(raw, key: str, path: Path, lineno: int) -> tuple[int, ...]:
    if type(raw) is not list or not {int}.issuperset(map(type, raw)):
        raise CorpusFormatError(f"{path}:{lineno}: field {key!r} must be a list of integers")
    return tuple(raw)


_PROFILE_REQUIRED = (
    "user_id", "followers", "following", "statuses", "listed", "verified",
    "account_age_days", "has_profile_url", "neighbours",
)
_EVENT_REQUIRED = ("user_id", "tweet_id", "action", "timestamp", "tokens")
_INSTANCE_REQUIRED = (
    "instance_id", "tweet_id", "author_id", "sender_id", "recipient_id",
    "timestamp", "label", "tokens", "char_length",
)
_PROFILE_COUNTS = ("followers", "following", "statuses", "listed", "account_age_days")
_PROFILE_FLAGS = ("verified", "has_profile_url")
_PROFILE_NUMBERS = ("klout", "klout_delta_1d", "klout_delta_7d", "klout_delta_30d")
_EVENT_INTS = ("user_id", "tweet_id", "timestamp")
_INSTANCE_INTS = ("instance_id", "tweet_id", "author_id", "sender_id", "recipient_id", "timestamp")
_INSTANCE_COUNTS = ("char_length", "global_retweet_count", "global_favourite_count")
_INSTANCE_FLAGS = ("label", "has_url", "has_photo", "has_hashtag", "has_exclamation")


def load_corpus(
    profiles_path: str | Path,
    history_path: str | Path,
    instances_path: str | Path,
) -> Corpus:
    """Read the three record files into a validated, indexed corpus.

    Malformed lines raise CorpusFormatError, and references to unknown
    users or repeated ids raise CorpusIntegrityError; both name the file,
    the line and the field.
    """
    # every record built here lives as long as the corpus: the cyclic
    # collector would only rescan them, in full collections
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_corpus(Path(profiles_path), Path(history_path), Path(instances_path))
    finally:
        if gc_was_enabled:
            gc.enable()


def _check_reference(problem: tuple[str, str] | None, path: Path, lineno: int) -> None:
    if problem is not None:
        field, message = problem
        raise CorpusIntegrityError(f"{path}:{lineno}: field {field!r}: {message}")


def _read_corpus(profiles_path: Path, history_path: Path, instances_path: Path) -> Corpus:
    profiles: dict[int, UserProfile] = {}
    profile_lines: dict[int, int] = {}
    for lineno, rec in _read_records(profiles_path, _PROFILE_REQUIRED):
        _check_ints(rec, ("user_id",), profiles_path, lineno)
        _check_counts(rec, _PROFILE_COUNTS, profiles_path, lineno)
        _check_flags(rec, _PROFILE_FLAGS, profiles_path, lineno)
        klout, delta_1d, delta_7d, delta_30d = (
            _finite_number(rec, key, profiles_path, lineno) for key in _PROFILE_NUMBERS
        )
        uid = rec["user_id"]
        if uid in profiles:
            raise CorpusIntegrityError(
                f"{profiles_path}:{lineno}: field 'user_id': duplicate user_id {uid}"
            )
        profile_lines[uid] = lineno
        profiles[uid] = UserProfile(
            user_id=uid,
            followers=rec["followers"],
            following=rec["following"],
            statuses=rec["statuses"],
            listed=rec["listed"],
            verified=rec["verified"] == 1,
            account_age_days=rec["account_age_days"],
            has_profile_url=rec["has_profile_url"] == 1,
            klout=klout,
            klout_delta_1d=delta_1d,
            klout_delta_7d=delta_7d,
            klout_delta_30d=delta_30d,
            neighbours=frozenset(_int_list(rec["neighbours"], "neighbours", profiles_path, lineno)),
        )
    for uid, profile in profiles.items():
        _check_reference(_profile_problem(profile, profiles), profiles_path, profile_lines[uid])

    events: list[HistoryEvent] = []
    for lineno, rec in _read_records(history_path, _EVENT_REQUIRED):
        action = rec["action"]
        if action not in ACTIONS:
            raise CorpusFormatError(
                f"{history_path}:{lineno}: field 'action' must be one of "
                f"{', '.join(ACTIONS)}, not {action!r}"
            )
        _check_ints(rec, _EVENT_INTS, history_path, lineno)
        mentions_user = rec.get("mentions_user")
        if mentions_user is not None and type(mentions_user) is not int:
            raise CorpusFormatError(
                f"{history_path}:{lineno}: field 'mentions_user' must be an integer or null"
            )
        event = HistoryEvent(
            user_id=rec["user_id"],
            tweet_id=rec["tweet_id"],
            action=action,
            timestamp=rec["timestamp"],
            tokens=_int_list(rec["tokens"], "tokens", history_path, lineno),
            mentions_user=mentions_user,
        )
        _check_reference(_event_problem(event, profiles), history_path, lineno)
        events.append(event)

    instances: list[Instance] = []
    seen_ids: set[int] = set()
    for lineno, rec in _read_records(instances_path, _INSTANCE_REQUIRED):
        _check_ints(rec, _INSTANCE_INTS, instances_path, lineno)
        _check_counts(rec, _INSTANCE_COUNTS, instances_path, lineno)
        _check_flags(rec, _INSTANCE_FLAGS, instances_path, lineno)
        iid = rec["instance_id"]
        if iid in seen_ids:
            raise CorpusIntegrityError(
                f"{instances_path}:{lineno}: field 'instance_id': duplicate instance_id {iid}"
            )
        seen_ids.add(iid)
        pos_counts = rec.get("pos_counts")
        if pos_counts is not None and (
            type(pos_counts) is not dict or not {int}.issuperset(map(type, pos_counts.values()))
        ):
            raise CorpusFormatError(
                f"{instances_path}:{lineno}: field 'pos_counts' must map names to integers"
            )
        instance = Instance(
            instance_id=iid,
            tweet_id=rec["tweet_id"],
            author_id=rec["author_id"],
            sender_id=rec["sender_id"],
            recipient_id=rec["recipient_id"],
            timestamp=rec["timestamp"],
            label=rec["label"] == 1,
            tweet=EncodedTweet(
                tokens=_int_list(rec["tokens"], "tokens", instances_path, lineno),
                char_length=rec["char_length"],
                has_url=rec.get("has_url", 0) == 1,
                has_photo=rec.get("has_photo", 0) == 1,
                has_hashtag=rec.get("has_hashtag", 0) == 1,
                has_exclamation=rec.get("has_exclamation", 0) == 1,
                mentions=_int_list(rec.get("mentions", []), "mentions", instances_path, lineno),
            ),
            global_retweet_count=rec.get("global_retweet_count", 0),
            global_favourite_count=rec.get("global_favourite_count", 0),
            pos_counts=pos_counts,
        )
        _check_reference(_instance_problem(instance, profiles), instances_path, lineno)
        instances.append(instance)

    return Corpus(profiles=profiles, events=events, instances=instances)


def load_corpus_dir(directory: str | Path) -> Corpus:
    return load_corpus(*corpus_paths(directory))


# Reference checks of one record against the known user ids: None, or the
# offending field and what is wrong with it.


def _unknown(uid: int, where: str) -> str:
    return f"unknown user_id {uid} referenced by {where}"


def _profile_problem(profile: UserProfile, known: Mapping) -> tuple[str, str] | None:
    uid = profile.user_id
    if uid in profile.neighbours:
        return "neighbours", f"user {uid} lists itself as a neighbour"
    for n in sorted(profile.neighbours):
        if n not in known:
            return "neighbours", _unknown(n, f"neighbours of user {uid}")
    return None


def _event_problem(e: HistoryEvent, known: Mapping) -> tuple[str, str] | None:
    if e.user_id not in known:
        return "user_id", _unknown(e.user_id, f"history event on tweet {e.tweet_id}")
    if e.mentions_user is not None and e.mentions_user not in known:
        return "mentions_user", _unknown(
            e.mentions_user, f"mention in history event on tweet {e.tweet_id}"
        )
    return None


def _instance_problem(inst: Instance, known: Mapping) -> tuple[str, str] | None:
    where = f"instance {inst.instance_id}"
    for field, role in (("sender_id", "sender"), ("recipient_id", "recipient"),
                        ("author_id", "author")):
        uid = getattr(inst, field)
        if uid not in known:
            return field, _unknown(uid, f"{role} of {where}")
    for m in inst.tweet.mentions:
        if m not in known:
            return "mentions", _unknown(m, f"mention in {where}")
    if inst.sender_id == inst.recipient_id:
        return "recipient_id", f"{where} has sender == recipient ({inst.sender_id})"
    return None


def _check_integrity(corpus: Corpus) -> None:
    known = corpus.profiles
    problems = itertools.chain(
        (_profile_problem(p, known) for p in corpus.profiles.values()),
        (_event_problem(e, known) for e in corpus.events),
        (_instance_problem(i, known) for i in corpus.instances),
    )
    for problem in problems:
        if problem is not None:
            raise CorpusIntegrityError(problem[1])


def _dump(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def write_corpus(
    corpus: Corpus,
    profiles_path: str | Path,
    history_path: str | Path,
    instances_path: str | Path,
) -> None:
    """Write the three record files with a deterministic field and row order."""
    with open(profiles_path, "w", encoding="utf-8") as fh:
        for uid in sorted(corpus.profiles):
            p = corpus.profiles[uid]
            fh.write(_dump({
                "user_id": p.user_id,
                "followers": p.followers,
                "following": p.following,
                "statuses": p.statuses,
                "listed": p.listed,
                "verified": int(p.verified),
                "account_age_days": p.account_age_days,
                "has_profile_url": int(p.has_profile_url),
                "klout": p.klout,
                "klout_delta_1d": p.klout_delta_1d,
                "klout_delta_7d": p.klout_delta_7d,
                "klout_delta_30d": p.klout_delta_30d,
                "neighbours": sorted(p.neighbours),
            }) + "\n")
    with open(history_path, "w", encoding="utf-8") as fh:
        for e in corpus.events:
            fh.write(_dump({
                "user_id": e.user_id,
                "tweet_id": e.tweet_id,
                "action": e.action,
                "timestamp": e.timestamp,
                "tokens": list(e.tokens),
                "mentions_user": e.mentions_user,
            }) + "\n")
    with open(instances_path, "w", encoding="utf-8") as fh:
        for inst in corpus.instances:
            record = {
                "instance_id": inst.instance_id,
                "tweet_id": inst.tweet_id,
                "author_id": inst.author_id,
                "sender_id": inst.sender_id,
                "recipient_id": inst.recipient_id,
                "timestamp": inst.timestamp,
                "label": int(inst.label),
                "tokens": list(inst.tweet.tokens),
                "char_length": inst.tweet.char_length,
                "has_url": int(inst.tweet.has_url),
                "has_photo": int(inst.tweet.has_photo),
                "has_hashtag": int(inst.tweet.has_hashtag),
                "has_exclamation": int(inst.tweet.has_exclamation),
                "mentions": list(inst.tweet.mentions),
                "global_retweet_count": inst.global_retweet_count,
                "global_favourite_count": inst.global_favourite_count,
                "pos_counts": None if inst.pos_counts is None else dict(inst.pos_counts),
            }
            fh.write(_dump(record) + "\n")


def write_corpus_dir(corpus: Corpus, directory: str | Path) -> None:
    Path(directory).mkdir(parents=True, exist_ok=True)
    write_corpus(corpus, *corpus_paths(directory))


# ---------------------------------------------------------------------------
# synthetic corpora


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic corpus generator.

    Labels are sampled from a logistic model over four planted quantities
    (sender-history similarity, recipient-retweet-history similarity,
    capped recipient-to-author retweet count, author-is-neighbour flag);
    `signal_strength` is the shared coefficient magnitude, so 0 yields
    labels independent of all features with positive rate `retweet_rate`.
    """

    num_recipients: int = 30
    neighbours_per_user: int = 12
    vocab_size: int = 480
    topics: int = 6
    days: int = 30
    retweet_rate: float = 0.3
    signal_strength: float = 0.0
    posts_per_day: float = 2.5
    recipient_posts_per_day: float = 1.0
    publisher_pool: int = 0  # 0 means 2 * neighbours_per_user
    tweet_length_mean: float = 16.0
    forward_rate: float = 0.1  # share of publisher posts that pass on an older tweet
    mention_rate: float = 0.1
    topic_concentration: float = 0.02  # Dirichlet alpha of each topic's word distribution
    user_topics: int = 3  # each user posts a flat mixture over this many topics
    liked_topics: int = 2  # each recipient's seeded taste spans this many topics
    seed_tweets_per_topic: int = 2  # burn-in posts per (user, topic) that seed tastes
    start_timestamp: int = 1_400_000_000

    def validate(self) -> None:
        for name in ("num_recipients", "neighbours_per_user", "vocab_size", "topics", "days"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.retweet_rate < 1.0:
            raise ValueError("retweet_rate must lie in (0, 1)")
        if self.signal_strength < 0:
            raise ValueError("signal_strength must be non-negative")
        if not 0 < self.user_topics <= self.topics:
            raise ValueError("user_topics must be in 1..topics")
        if not 0 < self.liked_topics <= self.topics:
            raise ValueError("liked_topics must be in 1..topics")


def config_to_dict(config: SyntheticConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(SyntheticConfig)}


def config_from_dict(data: Mapping) -> SyntheticConfig:
    known = {f.name for f in fields(SyntheticConfig)}
    return SyntheticConfig(**{k: v for k, v in data.items() if k in known})


# Planted-model shape: decision value of instance i (in creation order)
#   z_i = logit(retweet_rate) + drift_i + signal * sum_f w_f * (x_f - c_f)
# where each planted quantity x_f is a saturating [0, 1] normalization of
# one feature (similarities divided by PLANT_SIM_SCALE and capped, the
# recipient-to-author retweet count divided by its cap, the neighbour
# flag as is) and every coefficient has magnitude `signal`. The planted
# set covers the sender-history and recipient-retweet-history
# similarities, the week-windowed retweet similarity, the
# recipient-to-author retweet count, and the author-is-neighbour flag.
# The drift term is a slow, clamped stochastic-approximation correction,
# drift_{i+1} = drift_i - eta * (label_i - retweet_rate), which keeps the
# realized positive rate near the target despite the self-reinforcing
# planted features (a recipient's retweets feed the very histories the
# features are computed from). It is exactly replayable from the stored
# labels.
PLANT_HISTORY_CAP = 25
PLANT_RETWEET_COUNT_CAP = 2.0
PLANT_SIM_SCALE = 0.15
PLANT_ADAPT_RATE = 0.08
PLANT_DRIFT_LIMIT = 2.0
PLANT_WEEK = 7 * 86400
PLANT_WEIGHTS = {
    "sender_sim": -1.0,
    "retweet_sim": 1.0,
    "retweet_week_sim": 1.0,
    "retweet_count": 1.0,
    "author_neighbour": 1.0,
}
PLANT_CENTERS = {
    "sender_sim": 0.80,
    "retweet_sim": 0.65,
    "retweet_week_sim": 0.50,
    "retweet_count": 0.80,
    "author_neighbour": 0.80,
}
_RETWEET_DELAY = 60  # seconds between receiving a tweet and retweeting it


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


@dataclass(frozen=True)
class PlantedModel:
    """The label model a synthetic corpus was sampled from."""

    signal_strength: float
    intercept: float
    target_rate: float
    weights: Mapping[str, float]
    centers: Mapping[str, float]

    def decision_value(self, planted: Mapping[str, float], drift: float = 0.0) -> float:
        z = self.intercept + drift
        for name, w in self.weights.items():
            z += self.signal_strength * w * (planted[name] - self.centers[name])
        return z

    def probability(self, planted: Mapping[str, float], drift: float = 0.0) -> float:
        return _sigmoid(self.decision_value(planted, drift))

    def next_drift(self, drift: float, label: bool) -> float:
        drift -= PLANT_ADAPT_RATE * ((1.0 if label else 0.0) - self.target_rate)
        return max(-PLANT_DRIFT_LIMIT, min(PLANT_DRIFT_LIMIT, drift))


def planted_model(config: SyntheticConfig) -> PlantedModel:
    return PlantedModel(
        signal_strength=config.signal_strength,
        intercept=math.log(config.retweet_rate / (1.0 - config.retweet_rate)),
        target_rate=config.retweet_rate,
        weights=dict(PLANT_WEIGHTS),
        centers=dict(PLANT_CENTERS),
    )


@dataclass(frozen=True, slots=True)
class _Tweet:
    tweet_id: int
    author_id: int
    tokens: tuple[int, ...]
    tweet: EncodedTweet
    global_retweet_count: int
    global_favourite_count: int
    pos_counts: dict


def _planted_pos_counts(tokens: Sequence[int]) -> dict:
    """Deterministic stand-in for tagger output on encoded tokens."""
    nv = det = indet = 0
    for t in tokens:
        if t < FIRST_WORD_ID:
            continue
        h = (t * 2654435761) % 100
        if h < 45:
            nv += 1
        elif h < 52:
            det += 1
        elif h < 56:
            indet += 1
    return {"nouns_verbs": nv, "definite_articles": det, "indefinite_articles": indet}


def generate_synthetic(config: SyntheticConfig, seed: int) -> Corpus:
    """Sample a corpus whose labels follow the planted logistic model.

    Fully reproducible from `seed`. The random draws do not depend on
    `signal_strength`, so corpora generated at different strengths from
    the same seed share their timeline and differ only in labels and the
    retweet events those labels induce.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    n_rec = config.num_recipients
    pool = config.publisher_pool or 2 * config.neighbours_per_user
    recipients = list(range(1, n_rec + 1))
    publishers = list(range(n_rec + 1, n_rec + pool + 1))
    all_users = recipients + publishers

    # topics own disjoint vocabulary blocks, so cross-topic text similarity
    # is exactly zero and the planted signal separates cleanly
    block = config.vocab_size // config.topics
    topic_word = np.zeros((config.topics, config.vocab_size))
    for k in range(config.topics):
        lo = k * block
        hi = (k + 1) * block if k < config.topics - 1 else config.vocab_size
        topic_word[k, lo:hi] = rng.dirichlet(
            np.full(hi - lo, config.topic_concentration)
        )
    # each user posts a flat mixture over a small topic subset, so tweets
    # of a user are always well inside their own history (their novelty
    # quantity saturates) while still varying in topic
    user_topic_sets = {
        u: tuple(
            sorted(int(k) for k in rng.choice(config.topics, size=min(config.user_topics, config.topics), replace=False))
        )
        for u in all_users
    }
    # a recipient's taste: the topics its seeded retweet history starts on
    liked_topic_sets = {
        r: frozenset(
            int(k) for k in rng.choice(config.topics, size=min(config.liked_topics, config.topics), replace=False)
        )
        for r in recipients
    }

    follows: dict[int, tuple[int, ...]] = {}
    for r in recipients:
        candidates = np.array([u for u in all_users if u != r])
        k = min(config.neighbours_per_user, len(candidates))
        picked = rng.choice(candidates, size=k, replace=False)
        follows[r] = tuple(sorted(int(x) for x in picked))
    followers: dict[int, list[int]] = {u: [] for u in all_users}
    for r in recipients:
        for u in follows[r]:
            followers[u].append(r)
    for u in all_users:
        followers[u].sort()
    follow_sets = {r: set(ns) for r, ns in follows.items()}

    horizon = config.days * 86400
    moments: list[tuple[int, int]] = []
    for u in all_users:
        rate = config.recipient_posts_per_day if u <= n_rec else config.posts_per_day
        count = int(rng.poisson(rate * config.days))
        times = sorted(int(t) for t in rng.integers(0, horizon, size=count))
        moments.extend((config.start_timestamp + t, u) for t in times)
    moments.sort()

    plant = planted_model(config)
    signal = config.signal_strength
    drift = 0.0
    uniform_idf = vectorspace.IdfTable.uniform()

    # plant state, visible strictly before the current timestamp
    posts_streams: dict[int, vectorspace.RollingCentroid] = {}
    retweet_streams: dict[int, vectorspace.RollingCentroid] = {}
    retweet_week_streams: dict[int, vectorspace.RollingCentroid] = {}
    retweet_counts: dict[tuple[int, int], int] = {}
    pending: list[tuple[int, int, str, tuple]] = []  # (ts, seq, kind, payload)
    pending_seq = 0

    def stream(table: dict, user: int, window: int | None = None) -> vectorspace.RollingCentroid:
        s = table.get(user)
        if s is None:
            s = table[user] = vectorspace.RollingCentroid(PLANT_HISTORY_CAP, window)
        return s

    def flush_before(ts: int) -> None:
        while pending and pending[0][0] < ts:
            ev_ts, _, kind, payload = heapq.heappop(pending)
            if kind == "post":
                user, tweet_id, vec = payload
                stream(posts_streams, user).push(ev_ts, tweet_id, vec)
            else:  # retweet by `user` of a tweet authored by `author`
                user, author, tweet_id, vec = payload
                stream(posts_streams, user).push(ev_ts, tweet_id, vec)
                stream(retweet_streams, user).push(ev_ts, tweet_id, vec)
                stream(retweet_week_streams, user, PLANT_WEEK).push(ev_ts, tweet_id, vec)
                key = (user, author)
                retweet_counts[key] = retweet_counts.get(key, 0) + 1

    def push_pending(ts: int, kind: str, payload: tuple) -> None:
        nonlocal pending_seq
        heapq.heappush(pending, (ts, pending_seq, kind, payload))
        pending_seq += 1

    tweets: dict[int, _Tweet] = {}
    tweet_vecs: dict[int, dict] = {}  # fixed-point vectors
    buffer: deque[_Tweet] = deque(maxlen=500)
    events: list[HistoryEvent] = []
    instances: list[Instance] = []
    status_counts = {u: 0 for u in all_users}
    word_base = FIRST_WORD_ID

    def mint_tweet(u: int, topic: int, ts: int) -> _Tweet:
        length = 3 + int(rng.poisson(max(config.tweet_length_mean - 3.0, 0.0)))
        tokens = [
            word_base + int(t)
            for t in rng.choice(config.vocab_size, size=length, p=topic_word[topic])
        ]
        draws = rng.random(5)
        has_url = bool(draws[0] < 0.25)
        if draws[1] < 0.15:
            tokens.append(PSEUDO_TOKEN_IDS[NUM_TOKEN])
        mentioned: tuple[int, ...] = ()
        mention_target: int | None = None
        if followers[u] and rng.random() < config.mention_rate:
            mention_target = followers[u][int(rng.integers(0, len(followers[u])))]
            mentioned = (mention_target,)
        tweet_id = len(tweets) + 1
        token_tuple = tuple(tokens)
        tweet = _Tweet(
            tweet_id=tweet_id,
            author_id=u,
            tokens=token_tuple,
            tweet=EncodedTweet(
                tokens=token_tuple,
                char_length=int(6 * len(token_tuple)),
                has_url=has_url,
                has_photo=bool(draws[4] < 0.1),
                has_hashtag=bool(draws[2] < 0.2),
                has_exclamation=bool(draws[3] < 0.2),
                mentions=mentioned,
            ),
            global_retweet_count=int(rng.poisson(1 + 0.5 * len(followers[u]))),
            global_favourite_count=int(rng.poisson(1 + len(followers[u]))),
            pos_counts=_planted_pos_counts(token_tuple),
        )
        tweets[tweet_id] = tweet
        events.append(HistoryEvent(u, tweet_id, "authored", ts, token_tuple, mention_target))
        status_counts[u] += 1
        if signal > 0:
            vec = tweet_vecs[tweet_id] = vectorspace.to_fixed(
                vectorspace.vectorize(token_tuple, uniform_idf)
            )
            push_pending(ts, "post", (u, tweet_id, vec))
        return tweet

    # burn-in: every user posts a few tweets per topic shortly before the
    # main window, and recipients retweet the ones matching their taste;
    # this seeds retweet histories and sender-recipient counters so the
    # planted signal is visible from the first delivered instance
    seed_window = 3 * 86400
    for u in all_users:
        for topic in user_topic_sets[u]:
            for _ in range(config.seed_tweets_per_topic):
                ts = config.start_timestamp - seed_window + int(
                    rng.integers(0, seed_window - 2 * _RETWEET_DELAY)
                )
                tweet = mint_tweet(u, topic, ts)
                for r in followers[u]:
                    if topic in liked_topic_sets[r]:
                        rt_ts = ts + _RETWEET_DELAY
                        events.append(
                            HistoryEvent(r, tweet.tweet_id, "retweeted", rt_ts, tweet.tokens, None)
                        )
                        status_counts[r] += 1
                        if signal > 0:
                            push_pending(
                                rt_ts, "retweet", (r, u, tweet.tweet_id, tweet_vecs[tweet.tweet_id])
                            )

    for ts, u in moments:
        if signal > 0:
            flush_before(ts)

        forward = None
        if u > n_rec and buffer and rng.random() < config.forward_rate:
            forward = buffer[int(rng.integers(0, len(buffer)))]
            if forward.author_id == u:
                forward = None

        if forward is None:
            topic_set = user_topic_sets[u]
            topic = topic_set[int(rng.integers(0, len(topic_set)))]
            tweet = mint_tweet(u, topic, ts)
            buffer.append(tweet)
        else:
            tweet = forward
            events.append(HistoryEvent(u, tweet.tweet_id, "retweeted", ts, tweet.tokens, None))
            status_counts[u] += 1
            if signal > 0:
                vec = tweet_vecs[tweet.tweet_id]
                push_pending(ts, "retweet", (u, tweet.author_id, tweet.tweet_id, vec))

        author = tweet.author_id
        for r in followers[u]:
            if r == author:
                continue
            label_draw = float(rng.random())
            if signal > 0:
                vec = tweet_vecs[tweet.tweet_id]
                planted = {
                    "sender_sim": min(
                        stream(posts_streams, u).mean_similarity(vec, tweet.tweet_id, ts)
                        / PLANT_SIM_SCALE,
                        1.0,
                    ),
                    "retweet_sim": min(
                        stream(retweet_streams, r).mean_similarity(vec, tweet.tweet_id, ts)
                        / PLANT_SIM_SCALE,
                        1.0,
                    ),
                    "retweet_week_sim": min(
                        stream(retweet_week_streams, r, PLANT_WEEK).mean_similarity(
                            vec, tweet.tweet_id, ts
                        )
                        / PLANT_SIM_SCALE,
                        1.0,
                    ),
                    "retweet_count": min(retweet_counts.get((r, author), 0), PLANT_RETWEET_COUNT_CAP)
                    / PLANT_RETWEET_COUNT_CAP,
                    "author_neighbour": 1.0 if author in follow_sets[r] else 0.0,
                }
                p = plant.probability(planted, drift)
            else:
                p = config.retweet_rate
            label = label_draw < p
            if signal > 0:
                drift = plant.next_drift(drift, label)
            instance_id = len(instances) + 1
            instances.append(
                Instance(
                    instance_id=instance_id,
                    tweet_id=tweet.tweet_id,
                    author_id=author,
                    sender_id=u,
                    recipient_id=r,
                    timestamp=ts,
                    label=label,
                    tweet=tweet.tweet,
                    global_retweet_count=tweet.global_retweet_count,
                    global_favourite_count=tweet.global_favourite_count,
                    pos_counts=tweet.pos_counts,
                )
            )
            events.append(HistoryEvent(r, tweet.tweet_id, "seen", ts, tweet.tokens, None))
            if label:
                rt_ts = ts + _RETWEET_DELAY
                events.append(HistoryEvent(r, tweet.tweet_id, "retweeted", rt_ts, tweet.tokens, None))
                status_counts[r] += 1
                if signal > 0:
                    vec = tweet_vecs[tweet.tweet_id]
                    push_pending(rt_ts, "retweet", (r, author, tweet.tweet_id, vec))

    profiles: dict[int, UserProfile] = {}
    for u in all_users:
        followers_n = len(followers[u]) * 40 + int(rng.poisson(30))
        following_n = len(follows.get(u, ())) + int(rng.poisson(40))
        statuses = status_counts[u]
        listed = int(rng.poisson(1 + followers_n / 100))
        verified = bool(rng.random() < 0.12)
        age = int(rng.integers(120, 3200))
        has_url = bool(rng.random() < 0.4)
        # influence stand-in: log-scaled composite of audience and activity
        klout = min(100.0, 18.0 * math.log10(1 + followers_n) + 7.0 * math.log10(1 + statuses))
        deltas = rng.normal(0.0, 0.4, size=3)
        profiles[u] = UserProfile(
            user_id=u,
            followers=followers_n,
            following=following_n,
            statuses=statuses,
            listed=listed,
            verified=verified,
            account_age_days=age,
            has_profile_url=has_url,
            klout=round(klout, 4),
            klout_delta_1d=round(float(deltas[0]), 4),
            klout_delta_7d=round(float(deltas[1]), 4),
            klout_delta_30d=round(float(deltas[2]), 4),
            neighbours=frozenset(follows.get(u, ())),
        )

    corpus = Corpus(profiles=profiles, events=events, instances=instances)
    _check_integrity(corpus)
    return corpus


def planted_features(
    corpus: Corpus,
    instances: Sequence[Instance] | None = None,
) -> list[dict[str, float]]:
    """Recompute the planted quantities for instances of a synthetic corpus.

    Independent of the generator's incremental bookkeeping: scans the
    written events directly, so it can serve as an oracle against them.
    """
    if instances is None:
        instances = corpus.instances

    posts: dict[int, list[tuple[int, int]]] = {}  # user -> [(ts, tweet_id)]
    retweets: dict[int, list[tuple[int, int]]] = {}
    author_of: dict[int, int] = {}
    for e in corpus.events:
        if e.action == "authored":
            author_of.setdefault(e.tweet_id, e.user_id)
    for inst in corpus.instances:
        author_of.setdefault(inst.tweet_id, inst.author_id)
    pair_retweet_times: dict[tuple[int, int], list[int]] = {}
    for e in corpus.events:
        if e.action == "authored":
            posts.setdefault(e.user_id, []).append((e.timestamp, e.tweet_id))
        elif e.action == "retweeted":
            posts.setdefault(e.user_id, []).append((e.timestamp, e.tweet_id))
            retweets.setdefault(e.user_id, []).append((e.timestamp, e.tweet_id))
            author = author_of.get(e.tweet_id)
            if author is not None:
                pair_retweet_times.setdefault((e.user_id, author), []).append(e.timestamp)

    tokens_of: dict[int, tuple[int, ...]] = {}
    for e in corpus.events:
        tokens_of.setdefault(e.tweet_id, e.tokens)
    for inst in corpus.instances:
        tokens_of.setdefault(inst.tweet_id, inst.tweet.tokens)

    uniform = vectorspace.IdfTable.uniform()
    vec_cache: dict[int, dict] = {}

    def vec_for(tweet_id: int) -> dict:
        v = vec_cache.get(tweet_id)
        if v is None:
            v = vec_cache[tweet_id] = vectorspace.vectorize(tokens_of[tweet_id], uniform)
        return v

    def recent(stream: list[tuple[int, int]], before: int, window: int | None = None) -> list[int]:
        hi = bisect_left(stream, before, key=lambda d: d[0])
        lo = 0
        if window is not None:
            lo = bisect_left(stream, before - window, 0, hi, key=lambda d: d[0])
        return [tid for _, tid in stream[max(lo, hi - PLANT_HISTORY_CAP):hi]]

    def mean_sim(tweet_id: int, members: list[int]) -> float:
        kept = [m for m in members if m != tweet_id]
        if not kept:
            return 0.0
        v = vec_for(tweet_id)
        total = sum(vectorspace.cosine(v, vec_for(m)) for m in kept)
        return min(max(total / len(kept), 0.0), 1.0)

    out = []
    for inst in instances:
        times = pair_retweet_times.get((inst.recipient_id, inst.sender_id), ())
        count = bisect_left(times, inst.timestamp)
        r_retweets = retweets.get(inst.recipient_id, [])
        sender_sim = mean_sim(
            inst.tweet_id, recent(posts.get(inst.sender_id, []), inst.timestamp)
        )
        retweet_sim = mean_sim(inst.tweet_id, recent(r_retweets, inst.timestamp))
        week_sim = mean_sim(inst.tweet_id, recent(r_retweets, inst.timestamp, PLANT_WEEK))
        out.append({
            "sender_sim": min(sender_sim / PLANT_SIM_SCALE, 1.0),
            "retweet_sim": min(retweet_sim / PLANT_SIM_SCALE, 1.0),
            "retweet_week_sim": min(week_sim / PLANT_SIM_SCALE, 1.0),
            "retweet_count": min(count, PLANT_RETWEET_COUNT_CAP) / PLANT_RETWEET_COUNT_CAP,
            "author_neighbour": 1.0
            if inst.author_id in corpus.profiles[inst.recipient_id].neighbours
            else 0.0,
        })
    return out


def planted_decision_values(
    corpus: Corpus,
    config: SyntheticConfig,
    instances: Sequence[Instance] | None = None,
) -> np.ndarray:
    """Decision values of the generator's own label model (its Bayes rule
    classifies positive exactly when the value is >= 0).

    The intercept drift is replayed from the stored labels over all
    instances in creation order, so the values match the probabilities the
    labels were actually sampled from.
    """
    model = planted_model(config)
    feats = planted_features(corpus)
    drift = 0.0
    z_by_id: dict[int, float] = {}
    for inst, f in zip(corpus.instances, feats):
        z_by_id[inst.instance_id] = model.decision_value(f, drift)
        if model.signal_strength > 0:
            drift = model.next_drift(drift, inst.label)
    wanted = corpus.instances if instances is None else instances
    return np.array([z_by_id[inst.instance_id] for inst in wanted])
