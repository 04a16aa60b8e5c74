"""Seeded fuzz of the record loaders: one field of a valid record changed.

Each case drops one field of a valid profile, event, instance or model
record, changes its type, or sets it (or one of its elements) to NaN, a
negative value, a huge value or a nested value. Loading must then either
succeed or fail with the loader's own error naming the field: a
`CorpusError` naming file:line and field, or a `LearnerError` naming the
model field. Any other exception is a failure.
"""

import json
import math
import random
import re

import numpy as np

from refilter.corpus_io import (
    CorpusError,
    CorpusFormatError,
    HistoryEvent,
    corpus_paths,
    load_corpus,
    write_corpus,
)
from refilter.features import N_FEATURES, apply_scaling, fit_scaling
from refilter.learner import LearnerError, model_from_json, model_to_json, train

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
                      tweet_overrides=dict(has_url=True, mentions=(3,))),
        make_instance(2, 102, sender=3, recipient=1, timestamp=1300,
                      pos_counts={"nouns_verbs": 2, "definite_articles": 1,
                                  "indefinite_articles": 0},
                      tweet_overrides=dict(has_photo=True, has_exclamation=True)),
        make_instance(3, 102, sender=3, recipient=2, timestamp=1300,
                      tweet_overrides=dict(has_hashtag=True)),
    ]
    return make_corpus(profiles, events, instances)


_LOCATED = re.compile(r"(\w+\.jsonl):(\d+): field '(\w+)'")


def test_corpus_field_mutations_load_or_name_the_field(tmp_path):
    paths = corpus_paths(tmp_path)
    write_corpus(_valid_corpus(), *paths)
    originals = [path.read_text(encoding="utf-8").splitlines() for path in paths]
    assert load_corpus(*paths) is not None

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
            load_corpus(*paths)
        except CorpusError as exc:
            named = _LOCATED.search(str(exc))
            # a format error is the mutated line's own; a broken reference
            # may surface at another record that points to the changed one
            if named is None or isinstance(exc, CorpusFormatError) and (
                named[1], int(named[2]), named[3]) != where:
                bad.append(f"case {case} {kind} {where}: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other type is the failure
            bad.append(f"case {case} {kind} {where}: {type(exc).__name__}: {exc}")
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
