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
from operator import attrgetter
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


# Each record kind is one table of (name, kind, value when absent) rows in
# record order, which is also the order of its dataclass's fields; an
# instance's tweet fields sit flat, from `tokens` to `mentions`. The loader
# and the writer both walk these tables. A kind loads one JSON value into
# its Python value, or raises _BadValue with what the field must hold;
# _REQUIRED marks a field that has no value when absent.
#
# A kind also takes the load's _Memo: token tuples repeat across tens of
# thousands of records, so the kinds of repeated fields return the object
# the load already holds for an equal value, not this line's parsed copy.


class _BadValue(ValueError):
    """What a field must hold; the loader adds the file, line and field."""


_REQUIRED = object()


class _Memo:
    """One object per distinct value of one load's repeated fields.

    `ids` maps each id tuple, and each int inside one, to itself; `counts`
    maps a pos_counts record's items, in key order, to its dict. Only
    exact ints and tuples of them are keys of `ids`, never floats or bools,
    which hash like the equal ints. It lives for one load.
    """

    __slots__ = ("ids", "counts")

    def __init__(self) -> None:
        self.ids: dict = {}
        self.counts: dict = {}


# Integer fields must hold JSON integers. `type(v) is int` rejects floats,
# strings and bools (`int` would truncate 1200.7, and `True == 1`). Ids and
# timestamps fit in 64 bits, as the feature table stores instance ids; a
# count becomes a float feature value, so it must not exceed the float range.
_INT64 = range(-(2**63), 2**63)
_FLOAT_COUNTS = range(int(sys.float_info.max) + 1)


def _id(value, memo: _Memo) -> int:
    if type(value) is int and value in _INT64:
        return value
    raise _BadValue("must be a 64-bit integer")


def _count(value, memo: _Memo) -> int:
    if type(value) is int and value in _FLOAT_COUNTS:
        return value
    raise _BadValue("must be an integer >= 0 within the float range")


def _flag(value, memo: _Memo) -> bool:
    """JSON 0 or 1."""
    if type(value) is int and (value == 0 or value == 1):
        return value == 1
    raise _BadValue("must be 0 or 1")


def _number(value, memo: _Memo) -> float:
    """A JSON integer or float that is finite as a float; `json.loads`
    accepts the non-standard literals NaN and Infinity."""
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise _BadValue("must be a finite number")


def _id_list(value, memo: _Memo) -> tuple[int, ...]:
    if type(value) is list and {int}.issuperset(map(type, value)):
        ids = memo.ids
        key = tuple(value)
        shared = ids.get(key)
        if shared is None:
            shared = tuple(map(ids.setdefault, value, value))
            ids[shared] = shared
        return shared
    raise _BadValue("must be a list of integers")


def _id_set(value, memo: _Memo) -> frozenset[int]:
    return frozenset(_id_list(value, memo))


def _action(value, memo: _Memo) -> str:
    if value in ACTIONS:
        return ACTIONS[ACTIONS.index(value)]
    raise _BadValue(f"must be one of {', '.join(ACTIONS)}, not {value!r}")


def _user_or_null(value, memo: _Memo) -> int | None:
    if value is None or type(value) is int:
        return value
    raise _BadValue("must be an integer or null")


# the part-of-speech counts FT47-FT49 read; a missing one reads 0
_POS_COUNT_NAMES = {name: name for name in
                    ("nouns_verbs", "definite_articles", "indefinite_articles")}


def _pos_counts(value, memo: _Memo) -> dict | None:
    if value is None:
        return None
    if type(value) is not dict or not {int}.issuperset(map(type, value.values())):
        raise _BadValue("must map names to integers")
    for name in value:
        if name not in _POS_COUNT_NAMES:
            raise _BadValue(
                f"has unknown name {name!r}, not one of {', '.join(_POS_COUNT_NAMES)}"
            )
    if not all(n in _FLOAT_COUNTS for n in value.values()):
        raise _BadValue("must map names to integers >= 0 within the float range")
    key = tuple(value.items())
    shared = memo.counts.get(key)
    if shared is None:
        # the keys become the module's name strings
        shared = memo.counts[key] = {_POS_COUNT_NAMES[k]: n for k, n in key}
    return shared


_PROFILE_FIELDS = (
    ("user_id", _id, _REQUIRED),
    ("followers", _count, _REQUIRED),
    ("following", _count, _REQUIRED),
    ("statuses", _count, _REQUIRED),
    ("listed", _count, _REQUIRED),
    ("verified", _flag, _REQUIRED),
    ("account_age_days", _count, _REQUIRED),
    ("has_profile_url", _flag, _REQUIRED),
    ("klout", _number, 0.0),
    ("klout_delta_1d", _number, 0.0),
    ("klout_delta_7d", _number, 0.0),
    ("klout_delta_30d", _number, 0.0),
    ("neighbours", _id_set, _REQUIRED),
)
_EVENT_FIELDS = (
    ("user_id", _id, _REQUIRED),
    ("tweet_id", _id, _REQUIRED),
    ("action", _action, _REQUIRED),
    ("timestamp", _id, _REQUIRED),
    ("tokens", _id_list, _REQUIRED),
    ("mentions_user", _user_or_null, None),
)
_INSTANCE_FIELDS = (
    ("instance_id", _id, _REQUIRED),
    ("tweet_id", _id, _REQUIRED),
    ("author_id", _id, _REQUIRED),
    ("sender_id", _id, _REQUIRED),
    ("recipient_id", _id, _REQUIRED),
    ("timestamp", _id, _REQUIRED),
    ("label", _flag, _REQUIRED),
    ("tokens", _id_list, _REQUIRED),
    ("char_length", _count, _REQUIRED),
    ("has_url", _flag, False),
    ("has_photo", _flag, False),
    ("has_hashtag", _flag, False),
    ("has_exclamation", _flag, False),
    ("mentions", _id_list, ()),
    ("global_retweet_count", _count, 0),
    ("global_favourite_count", _count, 0),
    ("pos_counts", _pos_counts, None),
)
_TWEET = slice(7, 14)  # the instance rows that hold its tweet's fields


def _read_records(path: Path, table: Sequence[tuple],
                  memo: _Memo) -> Iterable[tuple[int, list]]:
    """(line number, field values in table order) of every record line."""
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
            values = []
            try:
                for name, load, absent in table:
                    raw = record.get(name, _REQUIRED)
                    if raw is not _REQUIRED:
                        values.append(load(raw, memo))
                    elif absent is not _REQUIRED:
                        values.append(absent)
                    else:
                        raise _BadValue("is missing")
            except _BadValue as exc:
                raise CorpusFormatError(f"{path}:{lineno}: field {name!r} {exc}") from None
            yield lineno, values


def load_corpus(
    profiles_path: str | Path,
    history_path: str | Path,
    instances_path: str | Path,
) -> Corpus:
    """Read the three record files into a validated, indexed corpus.

    Malformed lines raise CorpusFormatError, and references to unknown
    users or repeated ids raise CorpusIntegrityError; both name the file,
    the line and the field.

    Equal id tuples (tokens, mentions, neighbours), the ints inside them,
    actions and equal pos_counts dicts are each one shared object, as in a
    generated corpus; no value is shared with another load.
    """
    # every record built here lives as long as the corpus: the cyclic
    # collector would only rescan them, in full collections
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_corpus(
            Path(profiles_path), Path(history_path), Path(instances_path), _Memo()
        )
    finally:
        if gc_was_enabled:
            gc.enable()


def _check_reference(problem: tuple[str, str] | None, path: Path, lineno: int) -> None:
    if problem is not None:
        field, message = problem
        raise CorpusIntegrityError(f"{path}:{lineno}: field {field!r}: {message}")


def _read_corpus(
    profiles_path: Path, history_path: Path, instances_path: Path, memo: _Memo
) -> Corpus:
    profiles: dict[int, UserProfile] = {}
    profile_lines: dict[int, int] = {}
    for lineno, values in _read_records(profiles_path, _PROFILE_FIELDS, memo):
        profile = UserProfile(*values)
        uid = profile.user_id
        if uid in profiles:
            raise CorpusIntegrityError(
                f"{profiles_path}:{lineno}: field 'user_id': duplicate user_id {uid}"
            )
        profile_lines[uid] = lineno
        profiles[uid] = profile
    for uid, profile in profiles.items():
        _check_reference(_profile_problem(profile, profiles), profiles_path, profile_lines[uid])

    events: list[HistoryEvent] = []
    for lineno, values in _read_records(history_path, _EVENT_FIELDS, memo):
        event = HistoryEvent(*values)
        _check_reference(_event_problem(event, profiles), history_path, lineno)
        events.append(event)

    instances: list[Instance] = []
    seen_ids: set[int] = set()
    for lineno, v in _read_records(instances_path, _INSTANCE_FIELDS, memo):
        instance = Instance(*v[:7], EncodedTweet(*v[_TWEET]), *v[14:])
        iid = instance.instance_id
        if iid in seen_ids:
            raise CorpusIntegrityError(
                f"{instances_path}:{lineno}: field 'instance_id': duplicate instance_id {iid}"
            )
        seen_ids.add(iid)
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


# json.dumps with keyword arguments builds a new encoder on every call
_dump = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


# what a field's value needs before it encodes as its JSON value; a tuple
# of ids encodes as an array as it is, and a number is written as the float
# it loads as, so an integer klout written back is byte-stable
_WRITE_AS = {
    _flag: int,
    _number: float,
    _id_set: sorted,
    _pos_counts: lambda counts: None if counts is None else dict(counts),
}


def _encoder(table: Sequence[tuple], tweet: slice = slice(0)):
    """One record's JSON line from its object, keys in table order; the
    rows in `tweet` are read from the object's `tweet`."""
    names = [name for name, _, _ in table]
    attrs = list(names)
    attrs[tweet] = [f"tweet.{name}" for name in names[tweet]]
    get = attrgetter(*attrs)
    converts = [(i, _WRITE_AS[kind]) for i, (_, kind, _) in enumerate(table) if kind in _WRITE_AS]

    def encode(obj) -> str:
        values = list(get(obj))
        for i, convert in converts:
            values[i] = convert(values[i])
        return _dump(dict(zip(names, values))) + "\n"

    return encode


_encode_profile = _encoder(_PROFILE_FIELDS)
_encode_event = _encoder(_EVENT_FIELDS)
_encode_instance = _encoder(_INSTANCE_FIELDS, _TWEET)


def write_corpus(
    corpus: Corpus,
    profiles_path: str | Path,
    history_path: str | Path,
    instances_path: str | Path,
) -> None:
    """Write the three record files with a deterministic field and row order."""
    profiles = corpus.profiles
    with open(profiles_path, "w", encoding="utf-8") as fh:
        fh.writelines(_encode_profile(profiles[uid]) for uid in sorted(profiles))
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_encode_event, corpus.events))
    with open(instances_path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_encode_instance, corpus.instances))


def write_corpus_dir(corpus: Corpus, directory: str | Path) -> None:
    Path(directory).mkdir(parents=True, exist_ok=True)
    write_corpus(corpus, *corpus_paths(directory))


# ---------------------------------------------------------------------------
# synthetic corpora


# generator settings that are not experiment knobs: one value each
VOCAB_SIZE = 480
TOPICS = 6
TOPIC_CONCENTRATION = 0.02  # Dirichlet alpha of each topic's word distribution
USER_TOPICS = 3  # each user posts a flat mixture over this many topics
LIKED_TOPICS = 2  # each recipient's seeded taste spans this many topics
SEED_TWEETS_PER_TOPIC = 2  # burn-in posts per (user, topic) that seed tastes
TWEET_LENGTH_MEAN = 16.0
MENTION_RATE = 0.1
START_TIMESTAMP = 1_400_000_000


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic corpus generator, checked on construction.
    Errors name the manifest field and the `synth` flag.

    Labels are sampled from a logistic model over four planted quantities
    (sender-history similarity, recipient-retweet-history similarity,
    capped recipient-to-author retweet count, author-is-neighbour flag);
    `signal_strength` is the shared coefficient magnitude, so 0 yields
    labels independent of all features with positive rate `retweet_rate`.
    """

    num_recipients: int = 30
    neighbours_per_user: int = 12
    days: int = 30
    retweet_rate: float = 0.3
    signal_strength: float = 0.0
    posts_per_day: float = 2.5
    recipient_posts_per_day: float = 1.0
    publisher_pool: int = 0  # 0 means 2 * neighbours_per_user
    forward_rate: float = 0.1  # share of publisher posts that pass on an older tweet

    def __post_init__(self) -> None:
        def check(name: str, kind: type | tuple, ok, bound: str) -> None:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"field 'config.{name}' ({flag}) must be {bound}, got {value!r}")

        for name in ("num_recipients", "neighbours_per_user", "days"):
            check(name, int, lambda v: v >= 1, "an integer >= 1")
        check("publisher_pool", int, lambda v: v >= 0, "an integer >= 0")
        number = (int, float)
        # comparisons are False for NaN, so NaN fails every bound; the float
        # range bound also stops an int the generator cannot use as a float
        check("retweet_rate", number, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
        check("forward_rate", number, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
        for name in ("signal_strength", "posts_per_day", "recipient_posts_per_day"):
            check(name, number, lambda v: 0.0 <= v <= sys.float_info.max, "a finite number >= 0")


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
    rng = np.random.default_rng(seed)
    n_rec = config.num_recipients
    pool = config.publisher_pool or 2 * config.neighbours_per_user
    recipients = list(range(1, n_rec + 1))
    publishers = list(range(n_rec + 1, n_rec + pool + 1))
    all_users = recipients + publishers

    # topics own disjoint vocabulary blocks, so cross-topic text similarity
    # is exactly zero and the planted signal separates cleanly
    block = VOCAB_SIZE // TOPICS
    topic_word = np.zeros((TOPICS, VOCAB_SIZE))
    for k in range(TOPICS):
        lo = k * block
        hi = (k + 1) * block if k < TOPICS - 1 else VOCAB_SIZE
        topic_word[k, lo:hi] = rng.dirichlet(np.full(hi - lo, TOPIC_CONCENTRATION))
    # each user posts a flat mixture over a small topic subset, so tweets
    # of a user are always well inside their own history (their novelty
    # quantity saturates) while still varying in topic
    user_topic_sets = {
        u: tuple(sorted(int(k) for k in rng.choice(TOPICS, size=USER_TOPICS, replace=False)))
        for u in all_users
    }
    # a recipient's taste: the topics its seeded retweet history starts on
    liked_topic_sets = {
        r: frozenset(int(k) for k in rng.choice(TOPICS, size=LIKED_TOPICS, replace=False))
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
        moments.extend((START_TIMESTAMP + t, u) for t in times)
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
        length = 3 + int(rng.poisson(TWEET_LENGTH_MEAN - 3.0))
        tokens = [
            word_base + int(t)
            for t in rng.choice(VOCAB_SIZE, size=length, p=topic_word[topic])
        ]
        draws = rng.random(5)
        has_url = bool(draws[0] < 0.25)
        if draws[1] < 0.15:
            tokens.append(PSEUDO_TOKEN_IDS[NUM_TOKEN])
        mentioned: tuple[int, ...] = ()
        mention_target: int | None = None
        if followers[u] and rng.random() < MENTION_RATE:
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
            for _ in range(SEED_TWEETS_PER_TOPIC):
                ts = START_TIMESTAMP - seed_window + int(
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
