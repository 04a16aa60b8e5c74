"""Seeded fuzz of the record loaders: one field of a valid record changed.

Each case drops one field of a valid profile, event, instance or model
record, changes its type, or sets it (or one of its elements) to NaN, a
negative value, a huge value or a nested value. Loading must then either
succeed or fail with the loader's own error naming the field: a
`CorpusError` naming file:line and field, or a `LearnerError` naming the
model field. Any other exception is a failure, and so is any exception
from featurizing a corpus that loaded.

The corpus loader, which reads blocks of lines a column at a time, is also
held to a copy of the per-line loader it replaced: on seeded corpora with
changes at several lines, and on fixed cases, at several block sizes, both
must give the same exception type and text, or equal corpora.
"""

import json
import math
import random
import re
from collections import Counter

import numpy as np

from refilter import corpus_io
from refilter.corpus_io import (
    ACTIONS,
    Corpus,
    CorpusError,
    CorpusFormatError,
    CorpusIntegrityError,
    HistoryEvent,
    Instance,
    SyntheticConfig,
    UserProfile,
    corpus_paths,
    generate_synthetic,
    load_corpus,
    write_corpus,
)
from refilter.features import (
    N_FEATURES,
    FeatureContext,
    apply_scaling,
    assemble,
    extract_matrix,
    fit_scaling,
)
from refilter.history import UserHistoryIndex
from refilter.learner import LearnerError, model_from_json, model_to_json, train
from refilter.vectorspace import build_idf

from conftest import make_corpus, make_instance, make_profile

CORPUS_CASES = 400
MODEL_CASES = 200
MUTATIONS = ("drop", "type", "nan", "negative", "huge", "nested")
HUGE = (2**63, 10**30, 1e308, 10**400)
OTHER_TYPES = ("7", 7, 7.5, True, None, [7], {"k": 7})


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _mutated(value, kind: str, rng: random.Random):
    """`value` changed by one mutation other than "drop". NaN, negative
    and huge values go into one element of a list or an object."""
    if kind == "type":
        return rng.choice([v for v in OTHER_TYPES if type(v) is not type(value)])
    if kind == "nested":
        return rng.choice([[value], {"value": value}])
    if isinstance(value, list) and value:
        i = rng.randrange(len(value))
        return value[:i] + [_mutated(value[i], kind, rng)] + value[i + 1:]
    if isinstance(value, dict) and value:
        key = rng.choice(sorted(value))
        return {**value, key: _mutated(value[key], kind, rng)}
    if kind == "nan":
        return math.nan
    if kind == "negative":
        return -abs(value) - 1 if _is_number(value) else -1
    return rng.choice(HUGE)


def _valid_corpus():
    profiles = [
        make_profile(1, neighbours=[2, 3]),
        make_profile(2, neighbours=[1], verified=True, klout=61.5),
        make_profile(3, has_profile_url=True),
    ]
    events = [
        HistoryEvent(2, 100, "authored", 1000, (10, 11), mentions_user=1),
        HistoryEvent(1, 100, "retweeted", 1100, (10, 11)),
        HistoryEvent(1, 101, "seen", 1200, (12,)),
        HistoryEvent(3, 102, "authored", 1250, (12, 13), mentions_user=2),
    ]
    instances = [
        make_instance(1, 101, sender=2, recipient=1, timestamp=1200, label=True,
                      global_retweet_count=4,
                      has_url=True, mentions=(3,)),
        make_instance(2, 102, sender=3, recipient=1, timestamp=1300,
                      pos_counts={"nouns_verbs": 2, "definite_articles": 1,
                                  "indefinite_articles": 0},
                      has_photo=True, has_exclamation=True),
        make_instance(3, 102, sender=3, recipient=2, timestamp=1300,
                      has_hashtag=True),
    ]
    return make_corpus(profiles, events, instances)


def _featurize(corpus) -> None:
    """Both extraction paths over every instance of a loaded corpus."""
    ctx = FeatureContext(corpus, UserHistoryIndex(corpus), build_idf(e.tokens for e in corpus.events))
    extract_matrix(ctx, corpus.instances)
    for inst in corpus.instances:
        assemble(inst, ctx)


_LOCATED = re.compile(r"(\w+\.jsonl):(\d+): field '(\w+)'")


def test_corpus_field_mutations_load_or_name_the_field(tmp_path):
    paths = corpus_paths(tmp_path)
    write_corpus(_valid_corpus(), *paths)
    originals = [path.read_text(encoding="utf-8").splitlines() for path in paths]
    _featurize(load_corpus(*paths))

    rng = random.Random(5)
    bad = []
    for case in range(CORPUS_CASES):
        f = rng.randrange(3)
        lines = list(originals[f])
        i = rng.randrange(len(lines))
        record = json.loads(lines[i])
        field = rng.choice(sorted(record))
        kind = rng.choice(MUTATIONS)
        if kind == "drop":
            del record[field]
        else:
            record[field] = _mutated(record[field], kind, rng)
        lines[i] = json.dumps(record)
        paths[f].write_text("\n".join(lines) + "\n", encoding="utf-8")
        where = (paths[f].name, i + 1, field)
        try:
            corpus = load_corpus(*paths)
        except CorpusError as exc:
            named = _LOCATED.search(str(exc))
            # a format error is the mutated line's own; a broken reference
            # may surface at another record that points to the changed one
            if named is None or isinstance(exc, CorpusFormatError) and (
                named[1], int(named[2]), named[3]) != where:
                bad.append(f"case {case} {kind} {where}: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other type is the failure
            bad.append(f"case {case} {kind} {where}: {type(exc).__name__}: {exc}")
        else:
            try:
                _featurize(corpus)
            except Exception as exc:  # noqa: BLE001 - a corpus that loads must featurize
                bad.append(f"case {case} {kind} {where}: featurizing raised "
                           f"{type(exc).__name__}: {exc}")
        finally:
            paths[f].write_text("\n".join(originals[f]) + "\n", encoding="utf-8")
    assert not bad, "\n".join(bad)


def _valid_model_record() -> dict:
    X = np.zeros((4, N_FEATURES))
    X[:2, 0] = 1.0
    X[::2, 5] = 2.0
    scaling = fit_scaling(X)
    model = train(apply_scaling(X, scaling), [1, 1, 0, 0], selected=(1, 6), scaling=scaling)
    return json.loads(model_to_json(model))


def test_model_field_mutations_load_or_name_the_field():
    original = _valid_model_record()
    fields = list(original) + [
        f"{outer}.{name}" for outer in ("scaling", "hyper") for name in original[outer]
    ]
    model_from_json(json.dumps(original))

    rng = random.Random(6)
    bad = []
    for case in range(MODEL_CASES):
        record = json.loads(json.dumps(original))
        field = rng.choice(fields)
        *outer, name = field.split(".")
        target = record[outer[0]] if outer else record
        kind = rng.choice(MUTATIONS)
        if kind == "drop":
            del target[name]
        else:
            target[name] = _mutated(target[name], kind, rng)
        try:
            model_from_json(json.dumps(record))
        except LearnerError as exc:
            if f"'{field}" not in str(exc):
                bad.append(f"case {case} {kind} {field}: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other type is the failure
            bad.append(f"case {case} {kind} {field}: {type(exc).__name__}: {exc}")
    assert not bad, "\n".join(bad)


# ---------------------------------------------------------------------------
# The per-line loader the block loader replaced, kept as an oracle: it reads
# one line, then one field, at a time. Each mutated corpus below must load
# through both loaders to the same corpus, or fail with the same exception.


class _OracleBadValue(ValueError):
    pass


_ORACLE_REQUIRED = object()


class _OracleMemo:
    def __init__(self):
        self.ids = {}
        self.counts = {}


_ORACLE_INT64 = range(-(2**63), 2**63)
_ORACLE_FLOAT_COUNTS = range(2**63)


def _o_id(value, memo):
    if type(value) is int and value in _ORACLE_INT64:
        return value
    raise _OracleBadValue("must be a 64-bit integer")


def _o_count(value, memo):
    if type(value) is int and value in _ORACLE_FLOAT_COUNTS:
        return value
    raise _OracleBadValue("must be an integer >= 0 that fits in 64 bits")


def _o_flag(value, memo):
    if type(value) is int and (value == 0 or value == 1):
        return value == 1
    raise _OracleBadValue("must be 0 or 1")


def _o_number(value, memo):
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise _OracleBadValue("must be a finite number")


def _o_id_list(value, memo):
    if type(value) is list and {int}.issuperset(map(type, value)):
        ids = memo.ids
        key = tuple(value)
        shared = ids.get(key)
        if shared is None:
            shared = tuple(map(ids.setdefault, value, value))
            ids[shared] = shared
        return shared
    raise _OracleBadValue("must be a list of integers")


def _o_id_set(value, memo):
    return frozenset(_o_id_list(value, memo))


def _o_action(value, memo):
    if value in ACTIONS:
        return ACTIONS[ACTIONS.index(value)]
    raise _OracleBadValue(f"must be one of {', '.join(ACTIONS)}, not {value!r}")


def _o_user_or_null(value, memo):
    if value is None or type(value) is int and value in _ORACLE_INT64:
        return value
    raise _OracleBadValue("must be a 64-bit integer or null")


_ORACLE_POS_NAMES = {name: name for name in
                     ("nouns_verbs", "definite_articles", "indefinite_articles")}


def _o_pos_counts(value, memo):
    if value is None:
        return None
    if type(value) is not dict or not {int}.issuperset(map(type, value.values())):
        raise _OracleBadValue("must map names to integers")
    for name in value:
        if name not in _ORACLE_POS_NAMES:
            raise _OracleBadValue(
                f"has unknown name {name!r}, not one of {', '.join(_ORACLE_POS_NAMES)}")
    if not all(n in _ORACLE_FLOAT_COUNTS for n in value.values()):
        raise _OracleBadValue("must map names to integers >= 0 that fit in 64 bits")
    key = tuple(value.items())
    shared = memo.counts.get(key)
    if shared is None:
        shared = memo.counts[key] = {_ORACLE_POS_NAMES[k]: n for k, n in key}
    return shared


_R = _ORACLE_REQUIRED
_ORACLE_PROFILE_FIELDS = (
    ("user_id", _o_id, _R), ("followers", _o_count, _R), ("following", _o_count, _R),
    ("statuses", _o_count, _R), ("listed", _o_count, _R), ("verified", _o_flag, _R),
    ("account_age_days", _o_count, _R), ("has_profile_url", _o_flag, _R),
    ("klout", _o_number, 0.0), ("klout_delta_1d", _o_number, 0.0),
    ("klout_delta_7d", _o_number, 0.0), ("klout_delta_30d", _o_number, 0.0),
    ("neighbours", _o_id_set, _R),
)
_ORACLE_EVENT_FIELDS = (
    ("user_id", _o_id, _R), ("tweet_id", _o_id, _R), ("action", _o_action, _R),
    ("timestamp", _o_id, _R), ("tokens", _o_id_list, _R), ("mentions_user", _o_user_or_null, None),
)
_ORACLE_INSTANCE_FIELDS = (
    ("instance_id", _o_id, _R), ("tweet_id", _o_id, _R), ("author_id", _o_id, _R),
    ("sender_id", _o_id, _R), ("recipient_id", _o_id, _R), ("timestamp", _o_id, _R),
    ("label", _o_flag, _R), ("tokens", _o_id_list, _R), ("char_length", _o_count, _R),
    ("has_url", _o_flag, False), ("has_photo", _o_flag, False),
    ("has_hashtag", _o_flag, False), ("has_exclamation", _o_flag, False),
    ("mentions", _o_id_list, ()), ("global_retweet_count", _o_count, 0),
    ("global_favourite_count", _o_count, 0), ("pos_counts", _o_pos_counts, None),
)


def _oracle_read_records(path, table, memo):
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
                    raw = record.get(name, _ORACLE_REQUIRED)
                    if raw is not _ORACLE_REQUIRED:
                        values.append(load(raw, memo))
                    elif absent is not _ORACLE_REQUIRED:
                        values.append(absent)
                    else:
                        raise _OracleBadValue("is missing")
            except _OracleBadValue as exc:
                raise CorpusFormatError(f"{path}:{lineno}: field {name!r} {exc}") from None
            for key in record:
                if key not in [name for name, _, _ in table]:
                    raise CorpusFormatError(f"{path}:{lineno}: unknown field {key!r}")
            yield lineno, values


def _oracle_unknown(uid, where):
    return f"unknown user_id {uid} referenced by {where}"


def _oracle_profile_problem(profile, known):
    uid = profile.user_id
    if uid in profile.neighbours:
        return "neighbours", f"user {uid} lists itself as a neighbour"
    for n in sorted(profile.neighbours):
        if n not in known:
            return "neighbours", _oracle_unknown(n, f"neighbours of user {uid}")
    return None


def _oracle_event_problem(e, known):
    if e.user_id not in known:
        return "user_id", _oracle_unknown(e.user_id, f"history event on tweet {e.tweet_id}")
    if e.mentions_user is not None and e.mentions_user not in known:
        return "mentions_user", _oracle_unknown(
            e.mentions_user, f"mention in history event on tweet {e.tweet_id}")
    return None


def _oracle_instance_problem(inst, known):
    where = f"instance {inst.instance_id}"
    for field, role in (("sender_id", "sender"), ("recipient_id", "recipient"),
                        ("author_id", "author")):
        uid = getattr(inst, field)
        if uid not in known:
            return field, _oracle_unknown(uid, f"{role} of {where}")
    for m in inst.mentions:
        if m not in known:
            return "mentions", _oracle_unknown(m, f"mention in {where}")
    if inst.sender_id == inst.recipient_id:
        return "recipient_id", f"{where} has sender == recipient ({inst.sender_id})"
    return None


def _oracle_check_reference(problem, path, lineno):
    if problem is not None:
        field, message = problem
        raise CorpusIntegrityError(f"{path}:{lineno}: field {field!r}: {message}")


def _oracle_read_corpus(profiles_path, history_path, instances_path):
    memo = _OracleMemo()
    profiles = {}
    profile_lines = {}
    for lineno, values in _oracle_read_records(profiles_path, _ORACLE_PROFILE_FIELDS, memo):
        profile = UserProfile(*values)
        uid = profile.user_id
        if uid in profiles:
            raise CorpusIntegrityError(
                f"{profiles_path}:{lineno}: field 'user_id': duplicate user_id {uid}")
        profile_lines[uid] = lineno
        profiles[uid] = profile
    for uid, profile in profiles.items():
        _oracle_check_reference(_oracle_profile_problem(profile, profiles), profiles_path,
                                profile_lines[uid])

    events = []
    for lineno, values in _oracle_read_records(history_path, _ORACLE_EVENT_FIELDS, memo):
        event = HistoryEvent(*values)
        _oracle_check_reference(_oracle_event_problem(event, profiles), history_path, lineno)
        events.append(event)

    instances = []
    seen_ids = set()
    for lineno, v in _oracle_read_records(instances_path, _ORACLE_INSTANCE_FIELDS, memo):
        instance = Instance(*v)
        iid = instance.instance_id
        if iid in seen_ids:
            raise CorpusIntegrityError(
                f"{instances_path}:{lineno}: field 'instance_id': duplicate instance_id {iid}")
        seen_ids.add(iid)
        _oracle_check_reference(_oracle_instance_problem(instance, profiles), instances_path,
                                lineno)
        instances.append(instance)

    return Corpus(profiles=profiles, events=events, instances=instances)


def _sharing(corpus):
    """Where each id tuple, each int inside one, each action and each
    pos_counts dict of a corpus first occurs, as an object."""
    tuples = ([e.tokens for e in corpus.events] + [i.tokens for i in corpus.instances]
              + [i.mentions for i in corpus.instances])
    ints = [n for t in tuples for n in t]
    ints += [n for p in corpus.profiles.values() for n in sorted(p.neighbours)]
    objects = (tuples + ints + [e.action for e in corpus.events]
               + [i.pos_counts for i in corpus.instances])
    first = {}
    return [first.setdefault(id(o), at) for at, o in enumerate(objects)]


def _outcome(load, paths):
    try:
        corpus = load(*paths)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return corpus


BLOCKS = (1, 3, corpus_io._RECORD_BLOCK)


def _same_outcome(paths, monkeypatch, blocks=BLOCKS):
    """The oracle's outcome, after checking that the block loader gives
    it at every block size: the same exception type and text, or an equal
    corpus whose values are shared alike."""
    expected = _outcome(_oracle_read_corpus, paths)
    for block in blocks:
        monkeypatch.setattr(corpus_io, "_RECORD_BLOCK", block)
        got = _outcome(load_corpus, paths)
        assert type(got) is type(expected) and got == expected, (block, got, expected)
        if not isinstance(expected, tuple):
            assert _sharing(got) == _sharing(expected), block
    return expected


def _write_lines(paths, files):
    """Each file's lines, joined by newlines; lone surrogates become the
    raw bytes they escape, which are not UTF-8."""
    for path, lines in zip(paths, files):
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")


def _mutate_field(line, rng):
    try:
        record = json.loads(line)
    except ValueError:
        return line
    if not isinstance(record, dict) or not record:
        return line
    field = rng.choice(sorted(record))
    kind = rng.choice(MUTATIONS)
    if kind == "drop":
        del record[field]
    else:
        record[field] = _mutated(record[field], kind, rng)
    return json.dumps(record)


def _mutate_reference(line, rng):
    """A user id of the record set to an unknown user, or to the record's
    other party (self-delivery, self-neighbour)."""
    try:
        record = json.loads(line)
    except ValueError:
        return line
    if not isinstance(record, dict):
        return line
    fields = [f for f in ("user_id", "mentions_user", "author_id", "sender_id", "recipient_id",
                          "neighbours", "mentions") if f in record]
    if not fields:
        return line
    field = rng.choice(fields)
    other = rng.choice([999, record.get("sender_id", record.get("user_id", 1))])
    record[field] = [other] + list(record[field])[1:] if isinstance(record[field], list) else other
    return json.dumps(record)


NOT_OBJECTS = ("[1]", '"x"', "null", "7", "true", "[]")


def _mutate_lines(files, rng):
    """One line-level change to a random line of a random file."""
    lines = rng.choice([lines for lines in files if lines])
    i = rng.randrange(len(lines))
    line = lines[i]
    kind = rng.randrange(16)
    if kind < 4:
        lines[i] = _mutate_field(line, rng)
    elif kind < 6:
        lines[i] = _mutate_reference(line, rng)
    elif kind == 6:
        lines.insert(rng.randrange(len(lines) + 1), line)  # repeats its ids
    elif kind == 7:
        del lines[i]
    elif kind == 8:
        lines.insert(i, rng.choice(("", "  \t ", " ", "\t")))
    elif kind == 9:
        lines[i] = line + "\r"  # a CRLF line
    elif kind == 10:
        cut = rng.randrange(len(line) + 1)
        lines[i] = line[:cut] + "\r" + line[cut:]  # a lone CR also ends a line
    elif kind == 11:
        lines[i] = "﻿" + line
    elif kind == 12:
        lines[i] = line[:rng.randrange(len(line) + 1)]
    elif kind == 13 and i + 1 < len(lines):
        lines[i:i + 2] = [line + rng.choice((",", " ", "")) + lines[i + 1]]
    elif kind == 14:
        lines[i] = rng.choice(NOT_OBJECTS)
    else:
        cut = rng.randrange(len(line) + 1)
        lines[i] = line[:cut] + "\udcff" + line[cut:]  # the byte 0xff, not UTF-8


def _small_corpus_lines(tmp_path, config, seed):
    paths = corpus_paths(tmp_path)
    write_corpus(generate_synthetic(config, seed), *paths)
    return paths, [path.read_text(encoding="utf-8").splitlines() for path in paths]


LOADER_CASES = 2000


def test_block_loader_matches_the_per_line_loader(tmp_path, monkeypatch):
    paths, originals = _small_corpus_lines(
        tmp_path, SyntheticConfig(num_recipients=3, neighbours_per_user=2, days=1), 3)
    del originals[1][24:]  # fewer events keep the cases quick, and the corpus valid
    _write_lines(paths, originals)
    assert _same_outcome(paths, monkeypatch) == load_corpus(*paths)
    rng = random.Random(26)
    outcomes = Counter()
    for case in range(LOADER_CASES):
        files = [list(lines) for lines in originals]
        for _ in range(rng.randint(1, 4)):
            _mutate_lines(files, rng)
        _write_lines(paths, files)
        try:
            expected = _same_outcome(paths, monkeypatch)
        except AssertionError as exc:
            raise AssertionError(f"case {case}: {exc}") from None
        outcomes[expected[0].__name__ if isinstance(expected, tuple) else "loaded"] += 1
    # the cases reach every outcome
    assert set(outcomes) >= {"loaded", "CorpusFormatError", "CorpusIntegrityError",
                             "UnicodeDecodeError"}, outcomes


def test_block_loader_matches_across_the_default_block(tmp_path, monkeypatch):
    """Changes to the lines at the edge of the default block of a history
    file longer than one block."""
    paths, originals = _small_corpus_lines(
        tmp_path, SyntheticConfig(num_recipients=8, neighbours_per_user=3, days=10), 5)
    block = corpus_io._RECORD_BLOCK
    assert len(originals[1]) > block + 3
    rng = random.Random(27)
    for case in range(100):
        files = [list(lines) for lines in originals]
        for _ in range(rng.randint(1, 3)):
            i = block + rng.randint(-3, 2)
            mutate = rng.choice((_mutate_field, _mutate_reference))
            files[1][i] = mutate(files[1][i], rng)
        _write_lines(paths, files)
        try:
            _same_outcome(paths, monkeypatch, blocks=(block,))
        except AssertionError as exc:
            raise AssertionError(f"case {case}: {exc}") from None


def _valid_lines(tmp_path):
    paths = corpus_paths(tmp_path)
    write_corpus(_valid_corpus(), *paths)
    return paths, [path.read_text(encoding="utf-8").splitlines() for path in paths]


def _refusal(paths, monkeypatch, files):
    _write_lines(paths, files)
    outcome = _same_outcome(paths, monkeypatch)
    assert isinstance(outcome, tuple), "the corpus loaded"
    return outcome


def test_lines_that_join_into_json_are_each_refused(tmp_path, monkeypatch):
    """Joined by ",\\n" into one array, these two lines decode to two
    objects; each alone has extra data."""
    paths, files = _valid_lines(tmp_path)
    files[1][1:3] = ['{"x":1},{"y":[{}', '{}]}']
    assert json.loads("[" + ",\n".join(files[1][1:3]) + "]") == [{"x": 1}, {"y": [{}, {}]}]
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[1]}:2: invalid JSON (Extra data)")


def test_a_byte_order_mark_keeps_the_json_loads_text(tmp_path, monkeypatch):
    paths, files = _valid_lines(tmp_path)
    files[2][1] = "﻿" + files[2][1]
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError,
        f"{paths[2]}:2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))")


def test_blank_whitespace_and_crlf_lines_keep_the_line_numbers(tmp_path, monkeypatch):
    paths, files = _valid_lines(tmp_path)
    for lines in files:
        lines[1:1] = ["", "  \t ", "\t"]
        lines[:] = [line + "\r" for line in lines]  # CRLF line ends
    files[1].append("")
    _write_lines(paths, files)
    assert _same_outcome(paths, monkeypatch) == _valid_corpus()
    files[1].append('{"user_id":1}\r')
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[1]}:9: field 'tweet_id' is missing")


def test_a_line_with_two_objects_is_refused(tmp_path, monkeypatch):
    paths, files = _valid_lines(tmp_path)
    files[0][2] = files[0][2] + " " + files[0][2]
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[0]}:3: invalid JSON (Extra data)")


def test_the_first_of_two_bad_lines_in_a_block_is_named(tmp_path, monkeypatch):
    paths, files = _valid_lines(tmp_path)
    files[2][1] = files[2][1].replace('"label":0', '"label":2')
    files[2][2] = "{"
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[2]}:2: field 'label' must be 0 or 1")
    files[2][1] = "[]"
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[2]}:2: record is not an object")


def test_a_reference_error_before_a_format_error_is_named_first(tmp_path, monkeypatch):
    paths, files = _valid_lines(tmp_path)
    files[1][0] = files[1][0].replace('"user_id":2', '"user_id":9')
    files[1][2] = files[1][2].replace('"action":"seen"', '"action":"read"')
    assert _refusal(paths, monkeypatch, files) == (
        CorpusIntegrityError, f"{paths[1]}:1: field 'user_id': unknown user_id 9 "
                              "referenced by history event on tweet 100")
    files[1][0] = files[1][2]
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[1]}:1: field 'action' must be one of authored, retweeted, "
                           "seen, not 'read'")


def test_a_duplicate_instance_id_in_a_later_block_is_refused(tmp_path, monkeypatch):
    paths, files = _valid_lines(tmp_path)
    block = corpus_io._RECORD_BLOCK
    files[2] += [""] * block + [files[2][0]]  # in a block of its own at every size
    assert _refusal(paths, monkeypatch, files) == (
        CorpusIntegrityError,
        f"{paths[2]}:{block + 4}: field 'instance_id': duplicate instance_id 1")


def test_a_bad_line_before_a_byte_that_is_not_utf8_is_named_first(tmp_path, monkeypatch):
    """The reader decodes the file in chunks of 8 KB, so the bad byte sits
    beyond the first chunk but within the first block."""
    paths, files = _valid_lines(tmp_path)
    files[1] = files[1] * 25
    assert sum(map(len, files[1])) > 8192 and len(files[1]) <= corpus_io._RECORD_BLOCK
    files[1][-1] = files[1][-1] + "\udcff"
    assert _refusal(paths, monkeypatch, files)[0] is UnicodeDecodeError
    files[1][3] = "{"
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[1]}:4: invalid JSON (Expecting property name enclosed in "
                           "double quotes)")


def test_a_key_that_the_table_does_not_declare_is_refused(tmp_path, monkeypatch):
    """An extra key is refused at its line, after the record's declared
    fields pass, and before a bad line later in the file."""
    paths, files = _valid_lines(tmp_path)
    files[0][1] = files[0][1][:-1] + ',"bogus":5}'
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[0]}:2: unknown field 'bogus'")
    files[0][2] = "{"
    assert _refusal(paths, monkeypatch, files)[1] == f"{paths[0]}:2: unknown field 'bogus'"
    # a misspelt optional key would otherwise load as the field's default
    paths, files = _valid_lines(tmp_path)
    files[0][0] = files[0][0].replace('"klout_delta_7d"', '"klout_delta_7"')
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[0]}:1: unknown field 'klout_delta_7'")
    # an extra key on the same line as a bad declared field
    paths, files = _valid_lines(tmp_path)
    files[2][2] = files[2][2].replace('"label":0', '"label":2,"label2":0')
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[2]}:3: field 'label' must be 0 or 1")
    files[2][2] = files[2][2].replace('"label":2', '"label":0')
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[2]}:3: unknown field 'label2'")
    # every event lacks its optional key and holds an extra one, so each
    # holds as many keys as its table declares
    paths, files = _valid_lines(tmp_path)
    files[1] = [line.replace('"mentions_user"', '"mention_user"') for line in files[1]]
    assert _refusal(paths, monkeypatch, files) == (
        CorpusFormatError, f"{paths[1]}:1: unknown field 'mention_user'")
