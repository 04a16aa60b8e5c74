"""Encoded corpus model: the three-file dataset format plus a synthetic
corpus generator with a planted retweet signal.

A corpus is three UTF-8 JSON-lines files (one self-describing record per
line): user profiles, history events, and labeled instances. Words are
integer token ids; ids 0-5 are reserved for the pseudo-tokens produced by
text normalization. Field names are frozen in docs/FORMATS.md.

In memory, a `Corpus` holds its events and instances as columns: ids,
times and counts in int64, flags in bool, the action as a small code, and
tokens, mentions and pos_counts as numbers of the corpus's shared tuples
and dicts. Every id, time and count fits in 64 bits, so every value has
its code: the loader refuses a larger one, and `Corpus(...)` refuses a
record's value that its column cannot hold. The loader and the generator
append to these columns and make no records; `Corpus.events` and
`Corpus.instances` make each record on access. Each field kind declares
its column once, for all three record kinds: the loader reads profiles
into columns too (klout in float64, neighbours as numbers of the corpus's
distinct sets), and makes each profile record once from them, since a
`Corpus` holds its profiles as records by user id.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
import math
import operator
import sys
from collections import Counter, defaultdict, deque
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import attrgetter, eq, is_, itemgetter
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import history, vectorspace
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


# Each record kind is one table of (name, kind, JSON value when absent) rows
# in record order, which is also the order of its dataclass's fields; an
# instance's tweet fields sit flat, from `tokens` to `mentions`. The loader
# and the writer both walk these tables one column at a time: a column is
# one field's values across a block of up to _RECORD_BLOCK records. Blocks,
# not whole files, keep the columns of a large corpus out of memory. On the
# README corpus a load raised a fresh process's peak RSS by 24.7 MB in
# blocks of 128 records, 25.7 MB in blocks of 512 and 133.5 MB over whole
# files, at about the same speed; reading one line at a time took 24.5 MB.
#
# A kind's `checks` are tests that every value of a column of JSON values
# passes, in order, each with what the field must hold otherwise: a text,
# or a function of the first value that fails. `dump` encodes a column of
# Python values as JSON texts. The rest declares the field's column
# (`_Builder`): the checked column of any record kind's field, or the
# values of records built in memory, go to `encode`, and `decode` makes
# the values a record holds. _REQUIRED marks a field that has no value
# when absent.

_RECORD_BLOCK = 128
_REQUIRED = object()


class _Kind(NamedTuple):
    checks: tuple[tuple[Callable[[list], bool], str | Callable[[object], str]], ...]
    dump: Callable[[list], list[str]]
    # the array.array typecode of a block's codes, and the column's dtype
    typecode: str
    dtype: type
    # a block's codes, given the corpus's distinct values (`_Tables`); one
    # of _NO_CODE refuses a value that has none
    encode: Callable[[_Tables, Sequence], Iterable]
    # the Python values of a part of the codes and of the null mask
    decode: Callable[[_Tables, np.ndarray, np.ndarray | None], list]
    # whether the column keeps a null mask, with code 0 at a null
    nullable: bool = False


# json.dumps with keyword arguments builds a new encoder on every call
_dump = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode

_DICT = frozenset({dict})
_INT = frozenset({int})
_LIST = frozenset({list})
_STR = frozenset({str})
_NUMBER = frozenset({int, float})
_USER_OR_NULL = frozenset({int, type(None)})
_MAP_OR_NULL = frozenset({dict, type(None)})


def _ints_within(low: int, high: int) -> Callable[[list], bool]:
    """Every value is an int in [low, high]. `type(v) is int` rejects
    floats, strings and bools (`int` would truncate 1200.7, and `True == 1`)."""
    return lambda col: _INT.issuperset(map(type, col)) and (
        not col or low <= min(col) and max(col) <= high)


# the part-of-speech counts FT47-FT49 read; a missing one reads 0
_POS_COUNT_NAMES = {name: name for name in
                    ("nouns_verbs", "definite_articles", "indefinite_articles")}


def _count_values(col: list) -> Iterable:
    """The values of a column of pos_counts maps or nulls."""
    return chain.from_iterable(map(dict.values, filter(None, col)))


# Integer fields must hold JSON integers that fit in 64 bits, signed for an
# id or timestamp and >= 0 for a count: each such field of an event or
# instance is an int64 column, and the feature table stores instance ids.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _dump_ints(col: list) -> list[str]:
    if _INT.issuperset(map(type, col)):
        return list(map(int.__repr__, col))
    return list(map(_dump, col))


def _dump_numbers(col: list) -> list[str]:
    """Each value as the float it loads as, so an integer klout written
    back is byte-stable."""
    floats = list(map(float, col))
    if all(map(math.isfinite, floats)):
        return list(map(float.__repr__, floats))
    return list(map(_dump, floats))


def _dump_each(convert: Callable | None = None) -> Callable[[list], list[str]]:
    """Encode each distinct object of a column once: tuples, dicts and
    strings repeat across records. `convert` makes a value encodable as
    its JSON value; a tuple of ids encodes as an array as it is."""
    def dump(col: list) -> list[str]:
        keys = list(map(id, col))
        distinct = dict(zip(keys, col))
        values = distinct.values() if convert is None else map(convert, distinct.values())
        texts = dict(zip(distinct, map(_dump, values)))
        return list(map(texts.__getitem__, keys))
    return dump


def _finite_numbers(col: list) -> bool:
    """JSON integers or floats that are finite as floats; `json.loads`
    accepts the non-standard literals NaN and Infinity."""
    try:
        return _NUMBER.issuperset(map(type, col)) and all(map(math.isfinite, col))
    except OverflowError:  # an integer beyond the float range
        return False


def _list_of_ints(col: list) -> bool:
    return (_LIST.issuperset(map(type, col))
            and _INT.issuperset(map(type, chain.from_iterable(col))))


# ---- the column store
#
# A corpus holds each field of its records as one numpy column in record
# order: the loader holds profiles so until it makes their records, and a
# `Corpus` holds its events and instances so. A field's kind encodes each
# block of its values as an array.array of machine codes, and the blocks
# are joined once, into the column (`_Builder`). Every value has a code:
# the loader's checks admit no other, and a record built in memory with a
# value that has none is refused, with its field named.


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


class _Column(NamedTuple):
    """One field's codes, its null mask or None, and the function that
    makes its Python values from a part of both."""

    values: np.ndarray
    nulls: np.ndarray | None
    decode: Callable[[np.ndarray, np.ndarray | None], list]

    def take(self, rows: np.ndarray) -> _Column:
        return _Column(_frozen(self.values[rows]),
                       None if self.nulls is None else _frozen(self.nulls[rows]), self.decode)


def _as_is(tables: _Tables, col: Sequence) -> Sequence:
    return col


def _as_list(tables: _Tables, values: np.ndarray, nulls: np.ndarray | None) -> list:
    return values.tolist()


def _shared_ints(tables: _Tables, values: np.ndarray, nulls: np.ndarray | None) -> list:
    """The values as ints, one object per distinct value: the records made
    in one block share the ids and times they repeat."""
    held = values.tolist()
    return list(map({}.setdefault, held, held))


def _flags(tables: _Tables, col: Sequence) -> array:
    """Bools, or 0 and 1."""
    codes = array("B", col)
    if max(codes, default=0) > 1:
        raise ValueError("a flag is 0 or 1")
    return codes


def _zero_at_null(tables: _Tables, col: Sequence) -> list:
    return [0 if value is None else value for value in col]


def _with_nulls(tables: _Tables, values: np.ndarray, nulls: np.ndarray) -> list:
    held = values.tolist()
    if not nulls.any():
        return held
    return [None if null else value for value, null in zip(held, nulls.tolist())]


def _action_codes(tables: _Tables, col: Sequence) -> Iterable[int]:
    return map(_ACTION_RANK.__getitem__, col)


def _actions(tables: _Tables, codes: np.ndarray, nulls: None) -> list[str]:
    return list(map(ACTIONS.__getitem__, codes.tolist()))


def _numbered(distinct: Callable[[_Tables], _Distinct]) -> tuple[Callable, Callable]:
    """The encode and decode of a field held as the numbers of its values
    among the distinct values `distinct(tables)`."""
    return (lambda tables, col: distinct(tables).numbers(col),
            lambda tables, codes, nulls: distinct(tables).decode(codes))


def _coded(blocks: list[array], dtype) -> np.ndarray:
    # the blocks joined: one allocation, read by numpy in place. Growing
    # one array.array per field instead reallocates every field's buffer
    # in small steps; that raised the README walkthrough's peak RSS by
    # about 4 MB. numpy 1.24 refuses an empty buffer.
    return _frozen(np.frombuffer(b"".join(blocks), dtype) if blocks else np.zeros(0, dtype))


class _Distinct:
    """One object per distinct value of a corpus's repeated field, numbered
    as first met. A value is known by its `key`, and the object kept for a
    new key is made by `new(key)`, whether the value came as JSON or in a
    record."""

    def __init__(self) -> None:
        self.values: list = []
        self._numbers: dict = {}

    def numbers(self, col: Sequence) -> list[int]:
        keys = list(map(self.key, col))
        numbers = list(map(self._numbers.get, keys))
        for row in compress(range(len(keys)), map(is_, numbers, repeat(None))):
            number = self._numbers.get(keys[row])
            if number is None:
                kept = self.new(keys[row])
                # keyed by the kept object's key, which shares its parts
                number = self._numbers[self.key(kept)] = len(self.values)
                self.values.append(kept)
            numbers[row] = number
        return numbers

    def decode(self, numbers: np.ndarray) -> list:
        return list(map(self.values.__getitem__, numbers.tolist()))


class _Tuples(_Distinct):
    """A corpus's distinct id tuples (tokens and mentions), from JSON lists
    or tuples. Each int inside one is the object `ints` holds for it."""

    key = staticmethod(tuple)

    def __init__(self, ints: dict[int, int]) -> None:
        super().__init__()
        self._ints = ints

    def new(self, key: tuple) -> tuple[int, ...]:
        return self.key(map(self._ints.setdefault, key, key))


class _Sets(_Tuples):
    """A corpus's distinct neighbour sets, from JSON lists; they share
    their ints with the id tuples."""

    key = staticmethod(frozenset)


class _Counts(_Distinct):
    """A corpus's distinct pos_counts dicts and null. A dict is known by
    its items in key order, and the kept one's names are the module's
    name strings."""

    @staticmethod
    def key(counts: Mapping[str, int] | None) -> tuple | None:
        return None if counts is None else tuple(counts.items())

    @staticmethod
    def new(key: tuple | None) -> dict[str, int] | None:
        return None if key is None else {_POS_COUNT_NAMES.get(name, name): n for name, n in key}


class _Tables:
    """A corpus's distinct values, shared by the columns of its record
    kinds that hold their numbers."""

    def __init__(self) -> None:
        ints: dict[int, int] = {}
        self.tuples, self.sets, self.counts = _Tuples(ints), _Sets(ints), _Counts()


_IDS = ("q", np.int64, _as_is, _shared_ints)
_id = _Kind(((_ints_within(_INT64_MIN, _INT64_MAX), "must be a 64-bit integer"),),
            _dump_ints, *_IDS)
_count = _Kind(((_ints_within(0, _INT64_MAX), "must be an integer >= 0 that fits in 64 bits"),),
               _dump_ints, *_IDS)
# JSON 0 or 1
_flag = _Kind(((_ints_within(0, 1), "must be 0 or 1"),),
              lambda col: _dump_ints(list(map(int, col))), "B", np.bool_, _flags, _as_list)
_number = _Kind(((_finite_numbers, "must be a finite number"),), _dump_numbers,
                "d", np.float64, _as_is, _as_list)
_id_list = _Kind(((_list_of_ints, "must be a list of integers"),), _dump_each(),
                 "q", np.int64, *_numbered(attrgetter("tuples")))
_id_set = _Kind(_id_list.checks, _dump_each(sorted), "q", np.int64,
                *_numbered(attrgetter("sets")))
_action = _Kind(((lambda col: _STR.issuperset(map(type, col)) and _ACTION_RANK.keys() >= set(col),
                  lambda value: f"must be one of {', '.join(ACTIONS)}, not {value!r}"),),
                _dump_each(), "B", np.uint8, _action_codes, _actions)
_user_or_null = _Kind(((lambda col: _USER_OR_NULL.issuperset(map(type, col))
                        and _ints_within(_INT64_MIN, _INT64_MAX)([v for v in col if v is not None]),
                        "must be a 64-bit integer or null"),),
                      _dump_each(), "q", np.int64, _zero_at_null, _with_nulls, nullable=True)
_pos_counts = _Kind(
    ((lambda col: _MAP_OR_NULL.issuperset(map(type, col))
      and _INT.issuperset(map(type, _count_values(col))),
      "must map names to integers"),
     (lambda col: _POS_COUNT_NAMES.keys() >= set(chain.from_iterable(filter(None, col))),
      lambda value: f"has unknown name {next(k for k in value if k not in _POS_COUNT_NAMES)!r},"
                    f" not one of {', '.join(_POS_COUNT_NAMES)}"),
     (lambda col: _ints_within(0, _INT64_MAX)(list(_count_values(col))),
      "must map names to integers >= 0 that fit in 64 bits")),
    _dump_each(lambda counts: None if counts is None else dict(counts)),
    "q", np.int64, *_numbered(attrgetter("counts")),
)

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
    ("has_url", _flag, 0),
    ("has_photo", _flag, 0),
    ("has_hashtag", _flag, 0),
    ("has_exclamation", _flag, 0),
    ("mentions", _id_list, []),
    ("global_retweet_count", _count, 0),
    ("global_favourite_count", _count, 0),
    ("pos_counts", _pos_counts, None),
)
_TWEET = slice(7, 14)  # the instance rows that hold its tweet's fields


def _attribute_paths(table: Sequence[tuple], tweet: slice = slice(0)) -> dict[str, str]:
    """Each field's attribute path in its record object; the rows in
    `tweet` are read from the object's `tweet`."""
    names = [name for name, _, _ in table]
    paths = list(names)
    paths[tweet] = [f"tweet.{name}" for name in names[tweet]]
    return dict(zip(names, paths))


_EVENT_PATHS = _attribute_paths(_EVENT_FIELDS)
_INSTANCE_PATHS = _attribute_paths(_INSTANCE_FIELDS, _TWEET)


# what a kind's `encode` raises for a value that has no code
_NO_CODE = (TypeError, ValueError, OverflowError, KeyError, AttributeError)


class _Builder:
    """The columns of the record kind whose fields `table` declares,
    appended a block of columns or one record at a time. A corpus's record
    kinds share its distinct values, `tables`, and each column decodes
    through them."""

    def __init__(self, table: Sequence[tuple], tables: _Tables) -> None:
        self.tables = tables
        self._names = [name for name, _, _ in table]
        self._kinds = [kind for _, kind, _ in table]
        self._codes: list[list[array]] = [[] for _ in table]
        # a field's null blocks, or None if its kind is not nullable
        self._nulls = [[] if kind.nullable else None for kind in self._kinds]
        self._rows: list[tuple] = []
        self._columns: dict[str, _Column] | None = None

    @classmethod
    def of_records(cls, records: Iterable, table: Sequence[tuple], paths: Mapping[str, str],
                   tables: _Tables) -> _Builder:
        builder = cls(table, tables)
        getters = [attrgetter(paths[name]) for name in builder._names]
        records = iter(records)
        while block := list(islice(records, _RECORD_BLOCK)):
            builder.extend([list(map(get, block)) for get in getters])
        return builder

    def append(self, *values) -> None:
        """One record: its values in table order, an instance's tweet
        fields flat."""
        self._rows.append(values)
        if len(self._rows) >= _RECORD_BLOCK:
            self._flush()

    def extend(self, columns: Iterable[Sequence]) -> None:
        """A block of records: one column per field, in table order.
        CorpusError names the field and the first value that its column
        cannot hold."""
        self._flush()
        for name, kind, codes, nulls, col in zip(
                self._names, self._kinds, self._codes, self._nulls, columns):
            try:
                codes.append(self._encoded(kind, col))
            except _NO_CODE as exc:
                refused = self._refused(kind, col)
                raise CorpusError(f"field {name!r} cannot hold {refused!r}") from exc
            if nulls is not None:
                nulls.append(array("B", map(is_, col, repeat(None))))

    def _encoded(self, kind: _Kind, col: Sequence) -> array:
        return array(kind.typecode, kind.encode(self.tables, col))

    def _refused(self, kind: _Kind, col: Sequence) -> object:
        """The first value of `col` that `kind` has no code for."""
        for value in col:
            try:
                self._encoded(kind, [value])
            except _NO_CODE:
                return value
        raise AssertionError("a block had no code, but each of its values has one")

    def _flush(self) -> None:
        rows, self._rows = self._rows, []
        if rows:
            self.extend(zip(*rows))

    def columns(self) -> dict[str, _Column]:
        """The columns, each field's blocks joined once, on the first call;
        the builder takes no record after it."""
        if self._columns is None:
            self._flush()
            self._columns = {
                name: _Column(_coded(codes, kind.dtype),
                              None if nulls is None else _coded(nulls, np.bool_),
                              partial(kind.decode, self.tables))
                for name, kind, codes, nulls in zip(self._names, self._kinds, self._codes,
                                                    self._nulls)}
            self._codes = self._nulls = None  # frees the blocks
        return self._columns


def _make_profiles(values: list[list]) -> Iterator[UserProfile]:
    return map(UserProfile, *values)


def _make_events(values: list[list]) -> Iterator[HistoryEvent]:
    return map(HistoryEvent, *values)


def _make_instances(values: list[list]) -> Iterator[Instance]:
    return map(Instance, *values[:7], _tweets(values[_TWEET]), *values[14:])


def _tweets(fields: list[list]) -> Iterator[EncodedTweet]:
    """The tweets of a block of instances; a run of rows with equal tweet
    fields, as the recipients of one delivery have, shares one tweet."""
    last = tweet = None
    for values in zip(*fields):
        if values != last:
            last, tweet = values, EncodedTweet(*values)
        yield tweet


class Records(Sequence):
    """A read-only sequence of one record kind, held as columns. Each
    record is made on access, from Python ints and bools and the corpus's
    shared tuples and dicts: two accesses give equal records, not one
    object."""

    def __init__(self, columns: dict[str, _Column],
                 make: Callable[[list[list]], Iterator]) -> None:
        self._columns = columns
        self._make = make
        self._len = len(next(iter(columns.values())).values)

    def column(self, name: str) -> np.ndarray:
        """A field's read-only codes: int64 ids, times, counts and numbers
        of the corpus's `tuples` (or of its distinct pos_counts or
        neighbour sets), bool flags, float64 numbers, and the action's
        uint8 place in ACTIONS."""
        return self._columns[name].values

    def nulls(self, name: str) -> np.ndarray | None:
        """The null mask of `mentions_user`; None for any other field."""
        return self._columns[name].nulls

    def values(self, name: str, rows: slice | np.ndarray = slice(None)) -> list:
        """A field's Python values at `rows`, as its records hold them."""
        column = self._columns[name]
        return column.decode(column.values[rows],
                             None if column.nulls is None else column.nulls[rows])

    def at(self, rows: np.ndarray | Sequence[int]) -> list:
        """The records at places `rows`, in that order."""
        return list(self._made(np.asarray(rows, dtype=np.int64)))

    def _made(self, rows: slice | np.ndarray) -> Iterator:
        return self._make([self.values(name, rows) for name in self._columns])

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.at(np.arange(*index.indices(self._len)))
        place = operator.index(index)
        if place < 0:
            place += self._len
        if not 0 <= place < self._len:
            raise IndexError("record index out of range")
        return next(self._made(slice(place, place + 1)))

    def __iter__(self) -> Iterator:
        blocks = map(slice, range(0, self._len, _RECORD_BLOCK),
                     range(_RECORD_BLOCK, self._len + _RECORD_BLOCK, _RECORD_BLOCK))
        return chain.from_iterable(map(self._made, blocks))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None


def _in_order(columns: dict[str, _Column], order: np.ndarray) -> dict[str, _Column]:
    if np.array_equal(order, np.arange(len(order))):
        return columns
    return {name: column.take(order) for name, column in columns.items()}


def _fits_int64(value) -> bool:
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and _INT64_MIN <= value <= _INT64_MAX)


def sorted_places(held: np.ndarray, ids: Sequence) -> np.ndarray:
    """The place in `held`, sorted int64 ids, of each of `ids`; an id held
    twice gives its last place. KeyError names the first id not held."""
    wanted, fits = np.asarray(ids), True
    if wanted.dtype != np.int64:  # ints beyond 64 bits, other values, or no id at all
        fits = np.fromiter(map(_fits_int64, ids), bool, len(ids))
        wanted = np.array([i if ok else 0 for i, ok in zip(ids, fits)], dtype=np.int64)
    at = np.searchsorted(held, wanted, side="right") - 1
    found = (held[np.maximum(at, 0)] == wanted) & fits if len(held) else np.zeros(len(at), bool)
    if not found.all():
        raise KeyError(ids[int(found.argmin())])
    return at


class InstanceIndex(Mapping):
    """The instances by id, over the sorted id column; an id held twice
    gives its last instance."""

    def __init__(self, instances: Records) -> None:
        self._instances = instances
        self._ids = instances.column("instance_id")

    def take(self, ids: Sequence[int]) -> list[Instance]:
        """The instances of `ids`, in that order; KeyError names the first
        id that is not held."""
        return self._instances.at(sorted_places(self._ids, ids))

    def __getitem__(self, key) -> Instance:
        return self._instances[int(sorted_places(self._ids, [key])[0])]

    def __iter__(self) -> Iterator[int]:
        return iter(np.unique(self._ids).tolist())

    def __len__(self) -> int:
        return len(np.unique(self._ids))


class Corpus:
    """An in-memory dataset: profiles by user id, history events in time
    order and instances in id order.

    Events and instances are held as columns. `events` and `instances`
    are read-only sequences (`Records`) whose records are made on access,
    and `instance_by_id` maps an id to its instance. `tuples` holds each
    distinct id tuple once; the tokens and mentions columns hold their
    numbers. A corpus is built from any iterables of records, or from the
    columns that the loader and the generator append. Equal corpora hold
    equal profiles and records."""

    def __init__(self, profiles: dict[int, UserProfile],
                 events: Iterable[HistoryEvent] | _Builder = (),
                 instances: Iterable[Instance] | _Builder = ()) -> None:
        if not isinstance(events, _Builder):
            tables = _Tables()
            events = _Builder.of_records(events, _EVENT_FIELDS, _EVENT_PATHS, tables)
            instances = _Builder.of_records(instances, _INSTANCE_FIELDS, _INSTANCE_PATHS, tables)
        self.profiles = profiles
        self.tuples: list[tuple] = events.tables.tuples.values
        columns = events.columns()
        # by time, then user, action and tweet id: lexsort sorts stably,
        # by its last key first
        order = np.lexsort([columns[name].values
                            for name in ("tweet_id", "action", "user_id", "timestamp")])
        self.events = Records(_in_order(columns, order), _make_events)
        columns = instances.columns()
        order = np.argsort(columns["instance_id"].values, kind="stable")
        self.instances = Records(_in_order(columns, order), _make_instances)
        self.instance_by_id = InstanceIndex(self.instances)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.profiles == other.profiles and self.events == other.events
                and self.instances == other.instances)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"Corpus({len(self.profiles)} profiles, {len(self.events)} events, "
                f"{len(self.instances)} instances)")


# ---- reading


def _line_blocks(path: Path) -> Iterator[tuple[list[int], list[str]]]:
    """(line numbers, stripped texts) of the non-blank lines of each block
    of _RECORD_BLOCK lines of a record file. A line that is not UTF-8
    raises after the lines before it are yielded, as reading line by line
    would."""
    with open(path, encoding="utf-8") as fh:
        first = 1
        while True:
            lines: list[str] = []
            error = None
            try:
                lines.extend(islice(fh, _RECORD_BLOCK))  # keeps the lines read before an error
            except UnicodeDecodeError as exc:
                error = exc
            texts = list(map(str.strip, lines))
            if any(texts):
                yield list(compress(itertools.count(first), texts)), list(filter(None, texts))
            if error is not None:
                raise error
            if len(lines) < _RECORD_BLOCK:
                return
            first += len(lines)


def json_object(pairs: list[tuple[str, object]]) -> dict:
    """`json.loads(text, object_pairs_hook=json_object)`: ValueError names
    a key given twice, of which `json.loads` alone keeps the last."""
    keys = [key for key, _ in pairs]
    twice = [key for i, key in enumerate(keys) if key in keys[:i]]
    if twice:
        raise ValueError(f"field {twice[0]!r} is given twice")
    return dict(pairs)


def json_record(value, names: Sequence[str], where: str = "", *, nullable: Sequence[str] = (),
                error: type[ValueError] = ValueError) -> dict:
    """`value`, the object at the dotted field `where` of a record that
    `json_object` parsed, holding the fields `names` and no other. A null
    counts as missing, in a field outside `nullable` and in `where`
    itself. `error` names the dotted field it refuses."""
    prefix = f"{where}." if where else ""
    if value is None:
        raise error(f"lacks the field {where!r}")
    if not isinstance(value, dict):
        raise error(f"field {where!r} must be an object, got {value!r}")
    unknown = ", ".join(repr(prefix + name) for name in sorted(set(value) - set(names)))
    if unknown:
        raise error(f"unknown field(s) {unknown}")
    for name in names:
        if value.get(name) is None and (name not in value or name not in nullable):
            raise error(f"lacks the field {prefix + name!r}")
    return value


def check_field(settings, prefix: str, name: str, kind: type | tuple, ok, bound: str, *,
                flag: str | None = None, error: type[ValueError] = ValueError) -> None:
    """Refuses field `name` of a settings object unless it is a `kind`,
    never a bool, for which `ok` holds; `error` names the field as
    `<prefix>.<name>`, its flag (by default the name's) and the `bound`."""
    value = getattr(settings, name)
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        flag = flag or "--" + name.replace("_", "-")
        raise error(f"field '{prefix}.{name}' ({flag}) must be {bound}, got {value!r}")


# the scanner of `json.loads`: (value, end) of the JSON value that starts
# at an index of a string
_scan = json.JSONDecoder().scan_once


def _decoded(texts: list[str],
             where: Callable[[int], str]) -> tuple[list[dict], Exception | None]:
    """The records of a block's lines, up to the first line that is not a
    JSON object, and the error of that line, the one after the last record.

    Each line is decoded on its own, and holds one value if its scan ends
    at its end. Decoding the lines joined as one JSON array would be wrong:
    the lines `{"x":1},{"y":[{}` and `{}]}` join into two objects. A line
    the scanner refuses raises, or ends the map early (the scanner signals
    a missing value with StopIteration); `json.loads` then finds the first
    bad line, and its error says what is wrong."""
    error = None
    try:
        scanned = list(map(_scan, texts, repeat(0)))
    except (ValueError, RecursionError):  # json.loads below finds the line
        scanned = []
    values, ends = zip(*scanned) if scanned else ((), ())
    if ends == tuple(map(len, texts)):
        records = list(values)
    else:
        records = []
        for text in texts:
            try:
                records.append(json.loads(text))
            except json.JSONDecodeError as exc:
                error = CorpusFormatError(f"{where(len(records))}: invalid JSON ({exc.msg})")
                error.__cause__ = exc
            except (ValueError, RecursionError) as exc:  # raised as it is
                error = exc
            if error is not None:
                break
    if not _DICT.issuperset(map(type, records)):
        row = next(row for row, record in enumerate(records) if type(record) is not dict)
        del records[row:]
        error = CorpusFormatError(f"{where(row)}: record is not an object")
    return records, error


_PRESENT = ((lambda col: _REQUIRED not in col, "is missing"),)


def _first_bad(col: list, checks: Sequence[tuple]) -> tuple[int, str] | None:
    """(row, what the field must hold) of the first value that fails one
    of `checks`, or None if all pass."""
    if all(test(col) for test, _ in checks):
        return None
    for row, value in enumerate(col):
        for test, must in checks:
            if not test([value]):
                return row, must if isinstance(must, str) else must(value)
    raise AssertionError("a column check failed on no single value")


def _checked(records: list[dict], error: Exception | None, table: Sequence[tuple],
             where: Callable[[int], str]) -> tuple[list[list], int, Exception | None]:
    """The checked columns of a block's records in table order, up to the
    first record with a bad field, their length, and that record's error;
    `error` is the block's error at the row after its last record. Within
    a record, the first bad field in table order is named."""
    limit = len(records)
    columns = []
    for name, kind, absent in table:
        col = list(map(dict.get, records[:limit], repeat(name), repeat(absent)))
        bad = _first_bad(col, _PRESENT + kind.checks if absent is _REQUIRED else kind.checks)
        if bad is not None:
            limit, must = bad
            error = CorpusFormatError(f"{where(limit)}: field {name!r} {must}")
        columns.append(col)
    return [col[:limit] for col in columns], limit, error


# Reference rules over a record kind's columns (a `Records`): (field, the
# mask of the rows that break the rule, the message for one such row). A
# row that breaks several rules is reported for the first. The loader runs
# them over the rows of a file as read, `_check_integrity` over a corpus.


def _first_broken(rules: Sequence[tuple], records: Records) -> tuple[int, str, str] | None:
    """(row, field, message) of the first row that breaks a rule, or None."""
    broken = [(int(mask.argmax()), field, message)
              for field, test, message in rules if (mask := test(records)).any()]
    if not broken:
        return None
    row, field, message = min(broken, key=itemgetter(0))  # the first rule of a row
    return row, field, message(records, row)


def _unknown(uid: int, where: str) -> str:
    return f"unknown user_id {uid} referenced by {where}"


def _users_known(field: str, known: AbstractSet[int],
                 referrer: Callable[[Records, int], str]) -> tuple:
    """The rule that a field's user id, unless null, is known."""
    def test(records: Records) -> np.ndarray:
        unknown = ~np.isin(records.column(field), np.fromiter(known, np.int64, len(known)))
        nulls = records.nulls(field)
        return unknown if nulls is None else unknown & ~nulls

    return field, test, lambda records, row: _unknown(records.column(field)[row],
                                                      referrer(records, row))


def _repeats(ids: np.ndarray) -> np.ndarray:
    """Where an id repeats one of an earlier row."""
    order = np.argsort(ids, kind="stable")
    repeats = np.zeros(len(ids), dtype=bool)
    repeats[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    return repeats


def _unique(field: str) -> tuple:
    """The rule that no id repeats."""
    return (field, lambda records: _repeats(records.column(field)),
            lambda records, row: f"duplicate {field} {records.column(field)[row]}")


def _profile_problem(profiles: Iterable[UserProfile],
                     known: AbstractSet[int]) -> tuple[int, str, str] | None:
    """(row, field, message) of the first profile that lists itself or an
    unknown user as a neighbour, or None."""
    for row, profile in enumerate(profiles):
        uid, neighbours = profile.user_id, profile.neighbours
        if uid in neighbours:
            return row, "neighbours", f"user {uid} lists itself as a neighbour"
        unknown = [n for n in neighbours if n not in known]
        if unknown:
            return row, "neighbours", _unknown(min(unknown), f"neighbours of user {uid}")
    return None


def _event_rules(known: AbstractSet[int]) -> tuple:
    def on_tweet(prefix: str) -> Callable[[Records, int], str]:
        return lambda records, row: (
            f"{prefix}history event on tweet {records.column('tweet_id')[row]}")

    return (_users_known("user_id", known, on_tweet("")),
            _users_known("mentions_user", known, on_tweet("mention in ")))


def _instance_rules(known: AbstractSet[int], tuples: Sequence[tuple]) -> tuple:
    """`tuples` are the corpus's distinct id tuples, which the mentions
    column numbers: each distinct mention tuple is checked once."""
    def of(role: str) -> Callable[[Records, int], str]:
        return lambda records, row: f"{role}instance {records.column('instance_id')[row]}"

    def unknown_mention(records: Records) -> np.ndarray:
        numbers = records.column("mentions")
        bad = [n for n in np.unique(numbers).tolist()
               if not all(map(known.__contains__, tuples[n]))]
        return np.isin(numbers, np.array(bad, dtype=np.int64))

    def first_unknown_mention(records: Records, row: int) -> str:
        mentions = tuples[records.column("mentions")[row]]
        return _unknown(next(m for m in mentions if m not in known), mention_in(records, row))

    def delivered_to_self(records: Records, row: int) -> str:
        return (f"instance {records.column('instance_id')[row]} has sender == recipient "
                f"({records.column('sender_id')[row]})")

    mention_in = of("mention in ")
    return (
        _unique("instance_id"),
        _users_known("sender_id", known, of("sender of ")),
        _users_known("recipient_id", known, of("recipient of ")),
        _users_known("author_id", known, of("author of ")),
        ("mentions", unknown_mention, first_unknown_mention),
        ("recipient_id",
         lambda records: records.column("sender_id") == records.column("recipient_id"),
         delivered_to_self),
    )


def _read_file(path: Path, table: Sequence[tuple],
               add: Callable[[list[list]], None]) -> tuple[list[int], Exception | None]:
    """Hand each block of a record file's checked columns to `add`,
    up to the first record with a bad format, bad JSON or a byte that is not
    UTF-8: the line numbers of the rows handed over, and the error of that
    record, or None."""
    lines: list[int] = []
    try:
        for linenos, texts in _line_blocks(path):
            def where(row: int) -> str:
                return f"{path}:{linenos[row]}"

            columns, rows, error = _checked(*_decoded(texts, where), table, where)
            add(columns)
            lines += linenos[:rows]
            if error is not None:
                return lines, error
    except UnicodeDecodeError as exc:
        return lines, exc
    return lines, None


def _refuse(path: Path, lines: list[int], broken: tuple[int, str, str] | None,
            error: Exception | None = None) -> None:
    """Raise the first bad line of a file: the row that breaks a rule, at
    its line, before the error that stopped the reading after it."""
    if broken is not None:
        row, field, message = broken
        raise CorpusIntegrityError(f"{path}:{lines[row]}: field {field!r}: {message}")
    if error is not None:
        raise error


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic collector for a call that builds objects which
    mostly live as long as its result (profiles, distinct tuples and
    dicts): the collector would only rescan them, in full collections. A
    paused caller stays paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_cyclic_gc_paused()
def load_corpus(
    profiles_path: str | Path,
    history_path: str | Path,
    instances_path: str | Path,
) -> Corpus:
    """Read the three record files into a validated, indexed corpus.

    Each file is read in blocks of lines. Each line of a block is decoded
    on its own, and each field is checked as one column across the block's
    records. A file is read up to its first malformed line, and no later
    file after one. The reference rules then run once per file, as masks
    over the id columns of the rows read. The first bad line of the first
    bad file is reported: references to unknown users or repeated ids
    raise CorpusIntegrityError, malformed lines CorpusFormatError; both
    name the file, the line and the field.

    Each checked column of a field is appended to its column, through one
    `_Builder` per record kind; no event or instance record is made, and
    each profile record is made once, from the profile columns. Equal id
    tuples (tokens, mentions), equal neighbour sets, the ints inside all
    of them, and equal pos_counts dicts are each one shared object; no
    value is shared with another load.
    """
    profiles_path, history_path, instances_path = map(
        Path, (profiles_path, history_path, instances_path))
    tables = _Tables()
    builder = _Builder(_PROFILE_FIELDS, tables)
    lines, error = _read_file(profiles_path, _PROFILE_FIELDS, builder.extend)
    read = Records(builder.columns(), _make_profiles)
    _refuse(profiles_path, lines, _first_broken((_unique("user_id"),), read), error)
    profiles = dict(zip(read.column("user_id").tolist(), read))
    known = profiles.keys()
    _refuse(profiles_path, lines, _profile_problem(profiles.values(), known))

    events = _Builder(_EVENT_FIELDS, tables)
    instances = _Builder(_INSTANCE_FIELDS, tables)
    # both files are read before a column is joined: joining the events
    # first raised the README walkthrough's peak RSS by about 4 MB
    files = []
    for path, table, builder, make, rules in (
        (history_path, _EVENT_FIELDS, events, _make_events, _event_rules(known)),
        (instances_path, _INSTANCE_FIELDS, instances, _make_instances,
         _instance_rules(known, tables.tuples.values)),
    ):
        lines, error = _read_file(path, table, builder.extend)
        files.append((path, lines, error, builder, make, rules))
        if error is not None:
            break
    for path, lines, error, builder, make, rules in files:
        _refuse(path, lines, _first_broken(rules, Records(builder.columns(), make)), error)
    return Corpus(profiles, events, instances)


def load_corpus_dir(directory: str | Path) -> Corpus:
    return load_corpus(*corpus_paths(directory))


def _check_integrity(corpus: Corpus) -> None:
    """The loader's reference rules over a corpus built in memory: the
    first problem raises, with its message alone."""
    known = corpus.profiles.keys()
    broken = (_profile_problem(corpus.profiles.values(), known)
              or _first_broken(_event_rules(known), corpus.events)
              or _first_broken(_instance_rules(known, corpus.tuples), corpus.instances))
    if broken is not None:
        raise CorpusIntegrityError(broken[2])


# ---- writing


def _write_records(path: str | Path, table: Sequence[tuple], rows: int,
                   values: Callable[[str, slice], list]) -> None:
    """The JSON lines of `rows` records, keys in table order, in blocks:
    each field's values across a block (`values(name, rows)`) are encoded
    whole, then each line is filled into a template of the keys."""
    template = "{" + ",".join(f"{_dump(name)}:%s" for name, _, _ in table) + "}\n"
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, rows, _RECORD_BLOCK):
            block = slice(start, start + _RECORD_BLOCK)
            texts = [kind.dump(values(name, block)) for name, kind, _ in table]
            fh.writelines(map(template.__mod__, zip(*texts)))


def write_corpus(
    corpus: Corpus,
    profiles_path: str | Path,
    history_path: str | Path,
    instances_path: str | Path,
) -> None:
    """Write the three record files with a deterministic field and row order.

    Records are written in blocks, from the corpus's columns: each field
    is encoded as one column across a block, each distinct tuple or dict
    once, and each line is filled into its kind's template of the keys.
    """
    profiles = [corpus.profiles[uid] for uid in sorted(corpus.profiles)]
    _write_records(profiles_path, _PROFILE_FIELDS, len(profiles),
                   lambda name, block: list(map(attrgetter(name), profiles[block])))
    for path, table, records in ((history_path, _EVENT_FIELDS, corpus.events),
                                 (instances_path, _INSTANCE_FIELDS, corpus.instances)):
        _write_records(path, table, len(records), records.values)


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
_RETWEET_DELAY = 60  # seconds between receiving a tweet and retweeting it
# the most days whose last retweet still has a 64-bit timestamp, which the
# loader requires
_MAX_DAYS = (2**63 - START_TIMESTAMP - _RETWEET_DELAY) // 86400
# numpy's Poisson sampler refuses a larger mean
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max) - 10 * math.sqrt(np.iinfo(np.int64).max)
# the most history events a config may expect (`SyntheticConfig`)
_MAX_EVENTS = 10_000_000


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic corpus generator, checked on construction.
    Errors name the manifest field and the `synth` flag.

    Users 1..num_recipients are the recipients; the next
    2 * neighbours_per_user ids are publishers, who never receive.

    Labels are sampled from a logistic model over the planted quantities
    (sender-history similarity, recipient-retweet-history similarity and
    its week-windowed variant, capped recipient-to-author retweet count,
    author-is-neighbour flag); `signal_strength` is the shared coefficient
    magnitude, so 0 yields labels independent of all features with
    positive rate `retweet_rate`.
    """

    num_recipients: int = 30
    neighbours_per_user: int = 12
    days: int = 30
    retweet_rate: float = 0.3
    signal_strength: float = 0.0
    posts_per_day: float = 2.5
    recipient_posts_per_day: float = 1.0
    forward_rate: float = 0.1  # share of publisher posts that pass on an older tweet

    def __post_init__(self) -> None:
        check = partial(check_field, self, "config")
        for name in ("num_recipients", "neighbours_per_user"):
            check(name, int, lambda v: v >= 1, "an integer >= 1")
        check("days", int, lambda v: 1 <= v <= _MAX_DAYS,
              f"an integer in 1..{_MAX_DAYS}, so that every timestamp fits in 64 bits")
        # user ids run to num_recipients + the publishers, and the loader
        # requires 64-bit ids; the larger term is named
        publishers = 2 * self.neighbours_per_user
        users = self.num_recipients + publishers
        check("num_recipients" if self.num_recipients >= publishers else "neighbours_per_user",
              int, lambda v: users < 2**63,
              f"small enough that the {users} user ids fit in 64 bits")
        number = (int, float)
        # comparisons are False for NaN, so NaN fails every bound; the float
        # range bound also stops an int the generator cannot use as a float
        check("retweet_rate", number, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
        check("forward_rate", number, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
        for name in ("signal_strength", "posts_per_day", "recipient_posts_per_day"):
            check(name, number, lambda v: 0.0 <= v <= sys.float_info.max, "a finite number >= 0")
        for name in ("posts_per_day", "recipient_posts_per_day"):
            check(name, number, lambda v: v * self.days <= _POISSON_MEAN_MAX,
                  f"at most {_POISSON_MEAN_MAX:.6g} / config.days ({self.days}), numpy's "
                  "Poisson limit on a user's expected post count")
        # the corpus size before any draw: each user's burn-in and expected
        # posts, each seen by the poster's expected followers, a share of whom
        # retweet it; the field furthest above its default is named
        posts = users * USER_TOPICS * SEED_TWEETS_PER_TOPIC + self.days * (
            self.num_recipients * self.recipient_posts_per_day + publishers * self.posts_per_day)
        followers = self.num_recipients * self.neighbours_per_user / (users - 1)
        events = posts * (1 + followers * (1 + self.retweet_rate))
        name = max(("num_recipients", "neighbours_per_user", "days", "posts_per_day",
                    "recipient_posts_per_day"),
                   key=lambda n: getattr(self, n) / getattr(SyntheticConfig, n))
        check(name, number, lambda v: events <= _MAX_EVENTS, f"small enough that the "
              f"expected {events:.3g} history events are at most {_MAX_EVENTS:,}")


def config_from_dict(data: Mapping) -> SyntheticConfig:
    known = {f.name for f in fields(SyntheticConfig)}
    return SyntheticConfig(**{k: v for k, v in data.items() if k in known})


# Planted-model shape: decision value of instance i (in creation order)
#   z_i = logit(retweet_rate) + drift_i + signal * sum_f w_f * (x_f - c_f)
# where each planted quantity x_f is a saturating [0, 1] normalization of
# one feature (`_planted_quantities`) and every coefficient has magnitude
# `signal`. The planted set covers the sender-history and
# recipient-retweet-history similarities, the week-windowed retweet
# similarity, the recipient-to-author retweet count, and the
# author-is-neighbour flag.
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


def _planted_quantities(sender_sim: float, retweet_sim: float, week_sim: float,
                        retweet_count: int, author_neighbour: bool) -> dict[str, float]:
    """The five planted quantities from their raw values: each similarity
    divided by PLANT_SIM_SCALE and capped at 1, the recipient-to-author
    retweet count capped at PLANT_RETWEET_COUNT_CAP and divided by it, and
    the author-is-neighbour flag as 1.0 or 0.0."""
    return {
        "sender_sim": min(sender_sim / PLANT_SIM_SCALE, 1.0),
        "retweet_sim": min(retweet_sim / PLANT_SIM_SCALE, 1.0),
        "retweet_week_sim": min(week_sim / PLANT_SIM_SCALE, 1.0),
        "retweet_count": min(retweet_count, PLANT_RETWEET_COUNT_CAP) / PLANT_RETWEET_COUNT_CAP,
        "author_neighbour": 1.0 if author_neighbour else 0.0,
    }


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


@dataclass(frozen=True)
class PlantedModel:
    """The label model a synthetic corpus was sampled from: the config's
    signal strength and logit intercept over PLANT_WEIGHTS and
    PLANT_CENTERS, with the drift rule that keeps the positive rate near
    the target.

    At signal strength 0 it is the null model: the label probability is
    `target_rate` exactly, whatever the planted quantities, and the drift
    stays 0."""

    signal_strength: float
    intercept: float
    target_rate: float

    def decision_value(self, planted: Mapping[str, float], drift: float = 0.0) -> float:
        z = self.intercept + drift
        for name, w in PLANT_WEIGHTS.items():
            z += self.signal_strength * w * (planted[name] - PLANT_CENTERS[name])
        return z

    def probability(self, planted: Mapping[str, float], drift: float = 0.0) -> float:
        if self.signal_strength == 0:
            return self.target_rate
        return _sigmoid(self.decision_value(planted, drift))

    def next_drift(self, drift: float, label: bool) -> float:
        if self.signal_strength == 0:
            return 0.0
        drift -= PLANT_ADAPT_RATE * ((1.0 if label else 0.0) - self.target_rate)
        return max(-PLANT_DRIFT_LIMIT, min(PLANT_DRIFT_LIMIT, drift))


def planted_model(config: SyntheticConfig) -> PlantedModel:
    return PlantedModel(
        signal_strength=config.signal_strength,
        intercept=math.log(config.retweet_rate / (1.0 - config.retweet_rate)),
        target_rate=config.retweet_rate,
    )


@dataclass(frozen=True, slots=True)
class _Tweet:
    tweet_id: int
    author_id: int
    tokens: tuple[int, ...]
    fields: tuple  # an instance's fields from `tokens` to `pos_counts`, in table order
    vec: dict  # the fixed-point vector the plant's streams hold


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


@_cyclic_gc_paused()
def generate_synthetic(config: SyntheticConfig, seed: int) -> Corpus:
    """Sample a corpus whose labels follow the planted logistic model.

    Fully reproducible from `seed`. The random draws do not depend on
    `signal_strength`, so corpora generated at different strengths from
    the same seed share their timeline and differ only in labels and the
    retweet events those labels induce. The plant's streams run at every
    strength; at 0 the model ignores them and each label is positive with
    probability `retweet_rate`.
    """
    rng = np.random.default_rng(seed)
    n_rec = config.num_recipients
    recipients = list(range(1, n_rec + 1))
    publishers = list(range(n_rec + 1, n_rec + 2 * config.neighbours_per_user + 1))
    all_users = recipients + publishers

    # topics own disjoint vocabulary blocks, so cross-topic text similarity
    # is exactly zero and the planted signal separates cleanly
    # each topic's word CDF, built once as `Generator.choice(p=...)` builds
    # it on every call, so `searchsorted` on `rng.random` draws the same words
    block = VOCAB_SIZE // TOPICS
    topic_cdfs = []
    for k in range(TOPICS):
        lo = k * block
        hi = (k + 1) * block if k < TOPICS - 1 else VOCAB_SIZE
        cdf = np.zeros(VOCAB_SIZE)
        cdf[lo:hi] = rng.dirichlet(np.full(hi - lo, TOPIC_CONCENTRATION))
        cdf = cdf.cumsum()
        cdf /= cdf[-1]
        topic_cdfs.append(cdf)
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

    follows: dict[int, frozenset[int]] = {}
    for r in recipients:
        candidates = np.array([u for u in all_users if u != r])
        picked = rng.choice(candidates, size=config.neighbours_per_user, replace=False)
        follows[r] = frozenset(int(x) for x in picked)
    # each user's followers in ascending order
    followers = {u: [r for r in recipients if u in follows[r]] for u in all_users}

    horizon = config.days * 86400
    moments: list[tuple[int, int]] = []
    for u in all_users:
        rate = config.recipient_posts_per_day if u <= n_rec else config.posts_per_day
        count = int(rng.poisson(rate * config.days))
        times = sorted(int(t) for t in rng.integers(0, horizon, size=count))
        moments.extend((START_TIMESTAMP + t, u) for t in times)
    moments.sort()

    plant = planted_model(config)
    drift = 0.0
    uniform_idf = vectorspace.IdfTable.uniform()

    # plant state, visible strictly before the current timestamp
    posts_streams: defaultdict[int, vectorspace.RollingCentroid] = defaultdict(
        lambda: vectorspace.RollingCentroid(PLANT_HISTORY_CAP))
    retweet_streams: defaultdict[int, vectorspace.RollingCentroid] = defaultdict(
        lambda: vectorspace.RollingCentroid(PLANT_HISTORY_CAP, history.WEEK_SECONDS))
    retweet_counts: Counter[tuple[int, int]] = Counter()  # (user, author): retweets
    # (ts, seq, user, author of a retweeted tweet or None for a post, tweet)
    pending: list[tuple[int, int, int, int | None, _Tweet]] = []
    pending_seq = itertools.count()

    def flush_before(ts: int) -> None:
        while pending and pending[0][0] < ts:
            ev_ts, _, user, author, tweet = heapq.heappop(pending)
            posts_streams[user].push(ev_ts, tweet.tweet_id, tweet.vec)
            if author is not None:
                retweet_streams[user].push(ev_ts, tweet.tweet_id, tweet.vec)
                retweet_counts[user, author] += 1

    tweet_ids = itertools.count(1)
    instance_ids = itertools.count(1)
    buffer: deque[_Tweet] = deque(maxlen=500)
    tables = _Tables()
    events = _Builder(_EVENT_FIELDS, tables)
    instances = _Builder(_INSTANCE_FIELDS, tables)
    # a user's statuses are its posts and retweets
    statuses_of: Counter[int] = Counter()
    word_base = FIRST_WORD_ID

    def retweet(user: int, tweet: _Tweet, ts: int) -> None:
        """Record `user`'s retweet and queue it for the plant's streams."""
        events.append(user, tweet.tweet_id, "retweeted", ts, tweet.tokens, None)
        statuses_of[user] += 1
        heapq.heappush(pending, (ts, next(pending_seq), user, tweet.author_id, tweet))

    def mint_tweet(u: int, topic: int, ts: int) -> _Tweet:
        length = 3 + int(rng.poisson(TWEET_LENGTH_MEAN - 3.0))
        words = topic_cdfs[topic].searchsorted(rng.random(length), side="right")
        tokens = [word_base + int(t) for t in words]
        draws = rng.random(5)
        has_url = bool(draws[0] < 0.25)
        if draws[1] < 0.15:
            tokens.append(PSEUDO_TOKEN_IDS[NUM_TOKEN])
        mentioned: tuple[int, ...] = ()
        mention_target: int | None = None
        if followers[u] and rng.random() < MENTION_RATE:
            mention_target = followers[u][int(rng.integers(0, len(followers[u])))]
            mentioned = (mention_target,)
        tweet_id = next(tweet_ids)
        token_tuple = tuple(tokens)
        tweet = _Tweet(
            tweet_id=tweet_id,
            author_id=u,
            tokens=token_tuple,
            fields=(
                token_tuple,
                int(6 * len(token_tuple)),  # char_length
                has_url,
                bool(draws[4] < 0.1),  # has_photo
                bool(draws[2] < 0.2),  # has_hashtag
                bool(draws[3] < 0.2),  # has_exclamation
                mentioned,
                int(rng.poisson(1 + 0.5 * len(followers[u]))),  # global_retweet_count
                int(rng.poisson(1 + len(followers[u]))),  # global_favourite_count
                _planted_pos_counts(token_tuple),
            ),
            vec=vectorspace.to_fixed(vectorspace.vectorize(token_tuple, uniform_idf)),
        )
        events.append(u, tweet_id, "authored", ts, token_tuple, mention_target)
        statuses_of[u] += 1
        heapq.heappush(pending, (ts, next(pending_seq), u, None, tweet))
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
                        retweet(r, tweet, ts + _RETWEET_DELAY)

    for ts, u in moments:
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
            retweet(u, tweet, ts)

        author = tweet.author_id
        # no stream changes before the next moment's flush, so the sender's
        # posts give one mean for all its followers
        sender_sim = posts_streams[u].means(tweet.vec, tweet.tweet_id, ts)[0]
        for r in followers[u]:
            if r == author:
                continue
            label_draw = float(rng.random())
            retweet_sim, week_sim = retweet_streams[r].means(tweet.vec, tweet.tweet_id, ts)
            planted = _planted_quantities(sender_sim, retweet_sim, week_sim,
                                          retweet_counts[r, author], author in follows[r])
            label = label_draw < plant.probability(planted, drift)
            drift = plant.next_drift(drift, label)
            instances.append(next(instance_ids), tweet.tweet_id, author, u, r, ts, label,
                             *tweet.fields)
            events.append(r, tweet.tweet_id, "seen", ts, tweet.tokens, None)
            if label:
                retweet(r, tweet, ts + _RETWEET_DELAY)

    profiles: dict[int, UserProfile] = {}
    for u in all_users:
        followers_n = len(followers[u]) * 40 + int(rng.poisson(30))
        following_n = len(follows.get(u, ())) + int(rng.poisson(40))
        statuses = statuses_of[u]
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
            neighbours=follows.get(u, frozenset()),
        )

    corpus = Corpus(profiles, events, instances)
    _check_integrity(corpus)
    return corpus


def planted_features(
    corpus: Corpus,
    instances: Sequence[Instance] | None = None,
) -> list[dict[str, float]]:
    """Recompute the planted quantities for instances of a synthetic corpus
    (all of them by default) from its written events.

    An oracle for the generator's labels: it reads the history through
    `UserHistoryIndex`, not through the generator's online bookkeeping,
    and sums float cosines of each distinct token tuple's vector, not the
    generator's fixed-point sums. A retweet is counted for the author of
    the retweeted tweet, as the generator counts it.
    """
    if instances is None:
        instances = corpus.instances
    hist = history.UserHistoryIndex(corpus)
    uniform = vectorspace.IdfTable.uniform()
    vec_cache: dict[tuple[int, ...], dict] = {}

    def vec_for(tokens: tuple[int, ...]) -> dict:
        v = vec_cache.get(tokens)
        if v is None:
            v = vec_cache[tokens] = vectorspace.vectorize(tokens, uniform)
        return v

    def mean_sim(inst: Instance, places: np.ndarray, window: int | None = None) -> float:
        kept = hist.recent(places, inst.timestamp, window, PLANT_HISTORY_CAP, inst.tweet_id)
        if not kept:
            return 0.0
        v = vec_for(inst.tweet.tokens)
        total = sum(vectorspace.cosine(v, vec_for(e.tokens)) for e in kept)
        return min(max(total / len(kept), 0.0), 1.0)

    out = []
    for inst in instances:
        retweets = hist.retweets_places(inst.recipient_id)
        out.append(_planted_quantities(
            mean_sim(inst, hist.posts_places(inst.sender_id)),
            mean_sim(inst, retweets),
            mean_sim(inst, retweets, history.WEEK_SECONDS),
            hist.retweet_count(inst.recipient_id, inst.author_id, inst.timestamp),
            inst.author_id in corpus.profiles[inst.recipient_id].neighbours,
        ))
    return out


def planted_decision_values(
    corpus: Corpus,
    config: SyntheticConfig,
    instances: Sequence[Instance] | None = None,
) -> np.ndarray:
    """Decision values of the generator's own label model for `instances`
    (all of them by default); its Bayes rule classifies positive exactly
    when the value is >= 0.

    The planted quantities are computed for the asked instances only. The
    intercept drift is replayed from the stored labels over all instances
    in creation order, so the values match the probabilities the labels
    were actually sampled from.
    """
    model = planted_model(config)
    wanted = corpus.instances if instances is None else instances
    drift = 0.0
    drift_by_id: dict[int, float] = {}
    for iid, label in zip(corpus.instances.column("instance_id").tolist(),
                          corpus.instances.column("label").tolist()):
        drift_by_id[iid] = drift
        drift = model.next_drift(drift, label)
    return np.array([model.decision_value(f, drift_by_id[inst.instance_id])
                     for inst, f in zip(wanted, planted_features(corpus, wanted))])
