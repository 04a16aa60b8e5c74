import dataclasses
import gc
import json
import math

import numpy as np
import pytest

from refilter import corpus_io
from refilter.corpus_io import (
    CorpusFormatError,
    CorpusIntegrityError,
    HistoryEvent,
    SyntheticConfig,
    Vocabulary,
    config_from_dict,
    config_to_dict,
    corpus_paths,
    generate_synthetic,
    load_corpus,
    load_corpus_dir,
    planted_decision_values,
    write_corpus,
    write_corpus_dir,
)
from refilter.experiments import metrics_from_predictions
from refilter.features import FeatureContext, extract_matrix
from refilter.history import UserHistoryIndex
from refilter.vectorspace import build_idf

from conftest import make_corpus, make_instance, make_profile


def small_corpus():
    profiles = [
        make_profile(1, neighbours=[2, 3]),
        make_profile(2),
        make_profile(3, klout=77.5),
    ]
    events = [
        HistoryEvent(2, 100, "authored", 1000, (10, 11), mentions_user=1),
        HistoryEvent(1, 100, "retweeted", 1100, (10, 11)),
        HistoryEvent(1, 101, "seen", 1200, (12,)),
    ]
    instances = [
        make_instance(1, 101, sender=2, recipient=1, timestamp=1200, label=True),
        make_instance(2, 102, sender=3, recipient=1, timestamp=1300,
                      pos_counts={"nouns_verbs": 2, "definite_articles": 1, "indefinite_articles": 0}),
    ]
    return make_corpus(profiles, events, instances)


def test_round_trip(tmp_path):
    corpus = small_corpus()
    write_corpus(corpus, *corpus_paths(tmp_path))
    assert load_corpus(*corpus_paths(tmp_path)) == corpus


def test_round_trip_twice_is_stable(tmp_path):
    corpus = small_corpus()
    write_corpus_dir(corpus, tmp_path / "a")
    first = load_corpus_dir(tmp_path / "a")
    write_corpus_dir(first, tmp_path / "b")
    assert load_corpus_dir(tmp_path / "b") == first


def test_empty_corpus_round_trip(tmp_path):
    corpus = make_corpus([])
    write_corpus(corpus, *corpus_paths(tmp_path))
    for path in corpus_paths(tmp_path):
        assert path.read_text(encoding="utf-8") == ""
    loaded = load_corpus(*corpus_paths(tmp_path))
    assert loaded.instances == [] and loaded.events == [] and loaded.profiles == {}


def test_events_sorted_on_construction():
    corpus = make_corpus(
        [make_profile(1), make_profile(2)],
        events=[
            HistoryEvent(1, 5, "seen", 900, (1,)),
            HistoryEvent(2, 4, "authored", 100, (2,)),
        ],
    )
    assert [e.timestamp for e in corpus.events] == [100, 900]


def test_malformed_line_names_file_and_line(tmp_path):
    corpus = small_corpus()
    write_corpus(corpus, *corpus_paths(tmp_path))
    profile_path = corpus_paths(tmp_path)[0]
    text = profile_path.read_text(encoding="utf-8").splitlines()
    text.insert(1, "{not json")
    profile_path.write_text("\n".join(text) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"profiles\.jsonl:2"):
        load_corpus(*corpus_paths(tmp_path))


def test_missing_field_is_format_error(tmp_path):
    write_corpus(small_corpus(), *corpus_paths(tmp_path))
    history_path = corpus_paths(tmp_path)[1]
    lines = history_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    del record["timestamp"]
    lines[0] = json.dumps(record)
    history_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="timestamp"):
        load_corpus(*corpus_paths(tmp_path))


def test_dangling_sender_names_id(tmp_path):
    corpus = small_corpus()
    write_corpus(corpus, *corpus_paths(tmp_path))
    inst_path = corpus_paths(tmp_path)[2]
    lines = inst_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["sender_id"] = 999
    lines[0] = json.dumps(record)
    inst_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusIntegrityError,
                       match=r"instances\.jsonl:1: field 'sender_id': unknown user_id 999"):
        load_corpus(*corpus_paths(tmp_path))


def test_duplicate_instance_id_rejected(tmp_path):
    write_corpus(small_corpus(), *corpus_paths(tmp_path))
    inst_path = corpus_paths(tmp_path)[2]
    lines = inst_path.read_text(encoding="utf-8").splitlines()
    inst_path.write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusIntegrityError,
                       match=r"instances\.jsonl:3: field 'instance_id': duplicate instance_id"):
        load_corpus(*corpus_paths(tmp_path))


def test_unknown_action_rejected(tmp_path):
    write_corpus(small_corpus(), *corpus_paths(tmp_path))
    history_path = corpus_paths(tmp_path)[1]
    lines = history_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["action"] = "liked"
    lines[0] = json.dumps(record)
    history_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="liked"):
        load_corpus(*corpus_paths(tmp_path))


@pytest.mark.parametrize("file_index,tokens", [(1, [10, 11.5]), (2, [10, "11"]), (2, 12)])
def test_non_integer_token_id_rejected(tmp_path, file_index, tokens):
    write_corpus(small_corpus(), *corpus_paths(tmp_path))
    path = corpus_paths(tmp_path)[file_index]
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["tokens"] = tokens
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=rf"{path.name}:2: field 'tokens'"):
        load_corpus(*corpus_paths(tmp_path))


def test_load_restores_collector_state(tmp_path):
    write_corpus(small_corpus(), *corpus_paths(tmp_path))
    assert gc.isenabled()
    load_corpus(*corpus_paths(tmp_path))
    assert gc.isenabled()
    corpus_paths(tmp_path)[2].write_text("{not json\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_corpus(*corpus_paths(tmp_path))
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(CorpusFormatError):
            load_corpus(*corpus_paths(tmp_path))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_self_delivery_rejected(tmp_path):
    # integrity is checked on load, not construction
    corpus = make_corpus(
        [make_profile(1), make_profile(2)],
        instances=[make_instance(1, 10, sender=1, recipient=1, timestamp=5)],
    )
    write_corpus(corpus, *corpus_paths(tmp_path))
    with pytest.raises(CorpusIntegrityError,
                       match=r"instances\.jsonl:1: field 'recipient_id': .*sender == recipient"):
        load_corpus(*corpus_paths(tmp_path))


def test_unwritable_path_errors(tmp_path):
    with pytest.raises(OSError):
        write_corpus(small_corpus(), tmp_path / "nope" / "p.jsonl",
                     tmp_path / "h.jsonl", tmp_path / "i.jsonl")


def test_vocabulary_reserved_ids():
    vocab = Vocabulary()
    ids = vocab.encode(["_url_", "_num_", "hello", "_pos_", "hello"])
    assert ids[0] == 0 and ids[1] == 1 and ids[3] == 3
    assert ids[2] == ids[4] >= corpus_io.FIRST_WORD_ID
    id_to_token = vocab.id_to_token()
    assert [id_to_token[i] for i in ids] == ["_url_", "_num_", "hello", "_pos_", "hello"]


# ---------------------------------------------------------------------------
# synthetic generation


CFG = SyntheticConfig(
    num_recipients=10, neighbours_per_user=6, days=20,
    retweet_rate=0.35, signal_strength=8.0, posts_per_day=2.0,
)


def test_same_seed_identical_corpora_and_bytes(tmp_path, small_signal_corpus):
    config, first = small_signal_corpus
    second = generate_synthetic(config, seed=404)
    assert first == second
    write_corpus_dir(first, tmp_path / "a")
    write_corpus_dir(second, tmp_path / "b")
    for name in ("profiles.jsonl", "history.jsonl", "instances.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seed_differs(small_signal_corpus):
    config, first = small_signal_corpus
    assert generate_synthetic(config, seed=405) != first


def test_generated_corpus_round_trips(tmp_path, small_signal_corpus):
    _, corpus = small_signal_corpus
    write_corpus_dir(corpus, tmp_path)
    assert load_corpus_dir(tmp_path) == corpus


def test_zero_signal_rate_matches_target():
    config = SyntheticConfig(num_recipients=10, neighbours_per_user=6, days=20,
                             retweet_rate=0.35, signal_strength=0.0, posts_per_day=2.0)
    corpus = generate_synthetic(config, seed=11)
    labels = np.array([i.label for i in corpus.instances])
    assert abs(labels.mean() - 0.35) < 0.04


def test_zero_signal_decision_value_is_constant():
    config = SyntheticConfig(num_recipients=6, neighbours_per_user=4, days=10,
                             retweet_rate=0.4, signal_strength=0.0, posts_per_day=2.0)
    corpus = generate_synthetic(config, seed=3)
    z = planted_decision_values(corpus, config)
    assert np.allclose(z, z[0])


def test_plant_and_recover_balanced_f1(small_signal_corpus):
    config, corpus = small_signal_corpus
    labels = np.array([i.label for i in corpus.instances])
    z = planted_decision_values(corpus, config)
    rng = np.random.default_rng(0)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    take = min(len(pos), len(neg))
    sel = np.concatenate([pos[:take], rng.choice(neg, take, replace=False)])
    metrics = metrics_from_predictions(z[sel] >= 0, labels[sel])
    assert metrics.f1 >= 0.95


def test_planted_f1_monotone_in_signal_strength():
    f1s = []
    for strength in (0.0, 2.0, 8.0):
        config = SyntheticConfig(num_recipients=10, neighbours_per_user=6, days=20,
                                 retweet_rate=0.35, signal_strength=strength,
                                 posts_per_day=2.0)
        corpus = generate_synthetic(config, seed=404)
        labels = np.array([i.label for i in corpus.instances])
        z = planted_decision_values(corpus, config)
        f1s.append(metrics_from_predictions(z >= 0, labels).f1)
    assert f1s[0] <= f1s[1] <= f1s[2]


def test_timeline_shared_across_signal_strengths():
    base = dict(num_recipients=8, neighbours_per_user=5, days=10,
                retweet_rate=0.4, posts_per_day=2.0)
    weak = generate_synthetic(SyntheticConfig(signal_strength=0.0, **base), seed=21)
    strong = generate_synthetic(SyntheticConfig(signal_strength=8.0, **base), seed=21)
    weak_ids = [(i.tweet_id, i.sender_id, i.recipient_id, i.timestamp) for i in weak.instances]
    strong_ids = [(i.tweet_id, i.sender_id, i.recipient_id, i.timestamp) for i in strong.instances]
    assert weak_ids == strong_ids


def test_config_round_trip():
    config = SyntheticConfig(num_recipients=7, days=9, retweet_rate=0.21)
    assert config_from_dict(config_to_dict(config)) == config
    assert config_from_dict({**config_to_dict(config), "junk": 1}) == config


def test_config_validation():
    with pytest.raises(ValueError, match=r"'config.retweet_rate' \(--retweet-rate\)"):
        SyntheticConfig(retweet_rate=0.0)
    with pytest.raises(ValueError, match=r"'config.num_recipients' \(--num-recipients\)"):
        SyntheticConfig(num_recipients=0)
    for strength in (-1.0, 10**400):  # an int beyond the float range, too
        with pytest.raises(ValueError, match=r"'config.signal_strength' \(--signal-strength\)"):
            SyntheticConfig(signal_strength=strength)


def test_planted_pos_counts_deterministic(small_signal_corpus):
    _, corpus = small_signal_corpus
    inst = corpus.instances[0]
    assert inst.pos_counts == corpus_io._planted_pos_counts(inst.tweet.tokens)


def test_referential_integrity_of_generated(small_signal_corpus):
    _, corpus = small_signal_corpus
    users = corpus.profiles.keys()
    for inst in corpus.instances:
        assert inst.sender_id in users
        assert inst.recipient_id in users
        assert inst.author_id in users
        assert inst.sender_id != inst.recipient_id
    for e in corpus.events:
        assert e.user_id in users


# one case per kind of integer field: a scalar id or timestamp, a count
# that must be >= 0, an optional id, a list of ids, and a map of counts;
# then the 0/1 flags, which take JSON 0 or 1 only, and the klout numbers,
# which must be finite
@pytest.mark.parametrize("file_index,field,value", [
    (0, "user_id", True),
    (0, "followers", -3),
    (0, "listed", 2.0),
    (0, "account_age_days", "500"),
    (0, "neighbours", [1.5]),
    (1, "timestamp", 1100.5),
    (1, "tweet_id", "100"),
    (1, "mentions_user", 2.9),
    (1, "tokens", [True, 11]),
    (2, "timestamp", 1200.7),
    (2, "sender_id", "3"),
    (2, "instance_id", False),
    (2, "char_length", -1),
    (2, "global_retweet_count", 1.5),
    (2, "mentions", [2.9]),
    (2, "tokens", [True]),
    (2, "pos_counts", {"nouns_verbs": 2.0, "definite_articles": 1, "indefinite_articles": 0}),
    (0, "verified", "0"),
    (0, "verified", "no"),
    (0, "has_profile_url", True),
    (0, "has_profile_url", 2),
    (2, "label", 1.0),
    (2, "label", True),
    (2, "label", "1"),
    (2, "has_url", "0"),
    (2, "has_photo", -1),
    (2, "has_hashtag", None),
    (2, "has_exclamation", [1]),
    (0, "klout", math.nan),
    (0, "klout", math.inf),
    (0, "klout_delta_1d", -math.inf),
    (0, "klout_delta_7d", "0.5"),
    (0, "klout_delta_30d", True),
    (0, "klout", 10**400),
    (0, "klout", None),
    pytest.param(0, "followers", 10**400, id="0-followers-10**400"),
    pytest.param(2, "global_favourite_count", 10**400, id="2-global_favourite_count-10**400"),
    (2, "instance_id", 2**63),
    (1, "timestamp", -(2**63) - 1),
    pytest.param(2, "pos_counts", {"nouns_verbs": 10**400}, id="2-pos_counts-10**400"),
    pytest.param(2, "pos_counts", {"nouns_verbs": -5}, id="2-pos_counts--5"),
])
def test_non_integer_value_rejected(tmp_path, file_index, field, value):
    path = _set_second_record_field(tmp_path, file_index, field, value)
    with pytest.raises(CorpusFormatError, match=rf"{path.name}:2: field '{field}'"):
        load_corpus(*corpus_paths(tmp_path))


def _set_second_record_field(tmp_path, file_index, field, value):
    """Write small_corpus() with `field` of the second record of one file
    set to `value`; the path of that file."""
    write_corpus(small_corpus(), *corpus_paths(tmp_path))
    path = corpus_paths(tmp_path)[file_index]
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("counts,name", [
    ({"nouns": 7}, "nouns"),
    ({"nouns_verbs": 1, "articles": 2, "definite_articles": 0}, "articles"),
])
def test_unknown_pos_counts_name_rejected(tmp_path, counts, name):
    path = _set_second_record_field(tmp_path, 2, "pos_counts", counts)
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(*corpus_paths(tmp_path))
    assert str(exc.value) == (
        f"{path}:2: field 'pos_counts' has unknown name {name!r}, "
        "not one of nouns_verbs, definite_articles, indefinite_articles"
    )


def test_pos_counts_subset_loads_and_a_missing_name_reads_zero(tmp_path):
    _set_second_record_field(tmp_path, 2, "pos_counts", {"definite_articles": 3})
    corpus = load_corpus(*corpus_paths(tmp_path))
    assert corpus.instances[1].pos_counts == {"definite_articles": 3}
    ctx = FeatureContext(corpus, UserHistoryIndex(corpus),
                         build_idf(e.tokens for e in corpus.events))
    _, X, _ = extract_matrix(ctx, corpus.instances)
    assert X[1, 46:49].tolist() == [0.0, 3.0, 0.0]


def test_integer_klout_round_trip_is_byte_stable(tmp_path):
    corpus = make_corpus([make_profile(1, klout=40)])
    write_corpus_dir(corpus, tmp_path / "a")
    write_corpus_dir(load_corpus_dir(tmp_path / "a"), tmp_path / "b")
    for a, b in zip(corpus_paths(tmp_path / "a"), corpus_paths(tmp_path / "b")):
        assert a.read_bytes() == b.read_bytes()
    assert '"klout":40.0,' in corpus_paths(tmp_path / "a")[0].read_text(encoding="utf-8")


# A loaded corpus keeps one object per distinct value of its repeated
# fields, as a generated one does.


def _id_tuples(corpus):
    """Every id tuple of a corpus: tokens and mentions."""
    return ([e.tokens for e in corpus.events]
            + [i.tweet.tokens for i in corpus.instances]
            + [i.tweet.mentions for i in corpus.instances])


def _assert_shared(corpus):
    rows = _id_tuples(corpus)
    for part in ([e.tokens for e in corpus.events], [i.tweet.tokens for i in corpus.instances],
                 rows):
        assert len({id(t) for t in part}) == len(set(part))
    ints = [n for row in rows for n in row]
    ints += [n for p in corpus.profiles.values() for n in p.neighbours]
    assert len({id(n) for n in ints}) == len(set(ints))
    assert all(any(e.action is a for a in corpus_io.ACTIONS) for e in corpus.events)
    counts = [i.pos_counts for i in corpus.instances if i.pos_counts is not None]
    assert len({id(c) for c in counts}) == len({tuple(c.items()) for c in counts})
    assert len({id(name) for c in counts for name in c}) == len({name for c in counts for name in c})


def test_loaded_corpus_shares_equal_values(tmp_path, small_signal_corpus):
    _, generated = small_signal_corpus
    write_corpus_dir(generated, tmp_path)
    corpus = load_corpus_dir(tmp_path)
    assert corpus == generated
    assert len(set(_id_tuples(corpus))) < len(_id_tuples(corpus)) // 4
    assert sum(i.pos_counts is not None for i in corpus.instances) > 100
    _assert_shared(corpus)


def test_two_loads_share_no_id_tuple(tmp_path, small_signal_corpus):
    _, generated = small_signal_corpus
    write_corpus_dir(generated, tmp_path)
    first, second = load_corpus_dir(tmp_path), load_corpus_dir(tmp_path)
    # the empty tuple is one object in the interpreter itself
    first_ids = {id(t) for t in _id_tuples(first) if t}
    assert first_ids and not first_ids & {id(t) for t in _id_tuples(second) if t}


def test_failed_load_leaves_the_next_load_correct(tmp_path, small_signal_corpus):
    _, generated = small_signal_corpus
    write_corpus_dir(generated, tmp_path / "good")
    write_corpus_dir(generated, tmp_path / "bad")
    path = corpus_paths(tmp_path / "bad")[2]
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1] + ["{not json"]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=rf"{path.name}:{len(lines)}: invalid JSON"):
        load_corpus_dir(tmp_path / "bad")
    corpus = load_corpus_dir(tmp_path / "good")
    assert corpus == generated
    _assert_shared(corpus)


def every_field_corpus():
    """Three records of each kind. The second of each sets every optional
    field to a value other than its default; the first instance and the
    first profile hold the defaults."""
    profiles = [
        make_profile(1, neighbours=[3], klout=0.0, klout_delta_1d=0.0, klout_delta_7d=0.0,
                     klout_delta_30d=0.0),
        make_profile(2, neighbours=[3, 1], verified=True, has_profile_url=True, klout=61.5,
                     klout_delta_1d=0.25, klout_delta_7d=-1.5, klout_delta_30d=2.0),
        make_profile(3),
    ]
    events = [
        HistoryEvent(3, 100, "authored", 1000, (10, 11)),
        HistoryEvent(1, 100, "retweeted", 1100, (10, 11), mentions_user=2),
        HistoryEvent(2, 100, "seen", 1100, (10, 11)),
    ]
    instances = [
        make_instance(1, 100, sender=3, recipient=1, timestamp=1000),
        make_instance(2, 101, sender=3, recipient=2, timestamp=1300, label=True, author=1,
                      tokens=(12, 0), global_retweet_count=4, global_favourite_count=9,
                      pos_counts={"nouns_verbs": 2, "definite_articles": 1,
                                  "indefinite_articles": 0},
                      tweet_overrides=dict(char_length=31, has_url=True, has_photo=True,
                                           has_hashtag=True, has_exclamation=True,
                                           mentions=(2, 1))),
        make_instance(3, 101, sender=1, recipient=3, timestamp=1400, author=1),
    ]
    return make_corpus(profiles, events, instances)


EVERY_FIELD_LINES = (
    [
        '{"user_id":1,"followers":100,"following":50,"statuses":200,"listed":3,"verified":0,'
        '"account_age_days":500,"has_profile_url":0,"klout":0.0,"klout_delta_1d":0.0,'
        '"klout_delta_7d":0.0,"klout_delta_30d":0.0,"neighbours":[3]}',
        '{"user_id":2,"followers":100,"following":50,"statuses":200,"listed":3,"verified":1,'
        '"account_age_days":500,"has_profile_url":1,"klout":61.5,"klout_delta_1d":0.25,'
        '"klout_delta_7d":-1.5,"klout_delta_30d":2.0,"neighbours":[1,3]}',
        '{"user_id":3,"followers":100,"following":50,"statuses":200,"listed":3,"verified":0,'
        '"account_age_days":500,"has_profile_url":0,"klout":40.0,"klout_delta_1d":0.1,'
        '"klout_delta_7d":-0.2,"klout_delta_30d":0.5,"neighbours":[]}',
    ],
    [
        '{"user_id":3,"tweet_id":100,"action":"authored","timestamp":1000,"tokens":[10,11],'
        '"mentions_user":null}',
        '{"user_id":1,"tweet_id":100,"action":"retweeted","timestamp":1100,"tokens":[10,11],'
        '"mentions_user":2}',
        '{"user_id":2,"tweet_id":100,"action":"seen","timestamp":1100,"tokens":[10,11],'
        '"mentions_user":null}',
    ],
    [
        '{"instance_id":1,"tweet_id":100,"author_id":3,"sender_id":3,"recipient_id":1,'
        '"timestamp":1000,"label":0,"tokens":[10,11,12],"char_length":18,"has_url":0,'
        '"has_photo":0,"has_hashtag":0,"has_exclamation":0,"mentions":[],'
        '"global_retweet_count":0,"global_favourite_count":0,"pos_counts":null}',
        '{"instance_id":2,"tweet_id":101,"author_id":1,"sender_id":3,"recipient_id":2,'
        '"timestamp":1300,"label":1,"tokens":[12,0],"char_length":31,"has_url":1,'
        '"has_photo":1,"has_hashtag":1,"has_exclamation":1,"mentions":[2,1],'
        '"global_retweet_count":4,"global_favourite_count":9,'
        '"pos_counts":{"nouns_verbs":2,"definite_articles":1,"indefinite_articles":0}}',
        '{"instance_id":3,"tweet_id":101,"author_id":1,"sender_id":1,"recipient_id":3,'
        '"timestamp":1400,"label":0,"tokens":[10,11,12],"char_length":18,"has_url":0,'
        '"has_photo":0,"has_hashtag":0,"has_exclamation":0,"mentions":[],'
        '"global_retweet_count":0,"global_favourite_count":0,"pos_counts":null}',
    ],
)


def test_writer_sets_every_field_in_its_documented_order(tmp_path):
    paths = corpus_paths(tmp_path)
    write_corpus(every_field_corpus(), *paths)
    for path, lines in zip(paths, EVERY_FIELD_LINES):
        assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
    assert load_corpus(*paths) == every_field_corpus()


# the optional fields of docs/FORMATS.md and the value each loads as when
# absent; every other field is required
OPTIONAL_DEFAULTS = (
    {"klout": 0.0, "klout_delta_1d": 0.0, "klout_delta_7d": 0.0, "klout_delta_30d": 0.0},
    {"mentions_user": None},
    {"has_url": False, "has_photo": False, "has_hashtag": False, "has_exclamation": False,
     "mentions": (), "global_retweet_count": 0, "global_favourite_count": 0,
     "pos_counts": None},
)


def _with_default(corpus, file_index, field, default):
    """`corpus` with `field` of the second record of its file at `default`."""
    if file_index == 0:
        profile = corpus.profiles[2]
        corpus.profiles[2] = dataclasses.replace(profile, **{field: default})
    elif file_index == 1:
        corpus.events[1] = dataclasses.replace(corpus.events[1], **{field: default})
    else:
        inst = corpus.instances[1]
        if field in {f.name for f in dataclasses.fields(inst.tweet)}:
            inst = dataclasses.replace(inst, tweet=dataclasses.replace(inst.tweet,
                                                                       **{field: default}))
        else:
            inst = dataclasses.replace(inst, **{field: default})
        corpus.instances[1] = inst
    return make_corpus(corpus.profiles.values(), corpus.events, corpus.instances)


@pytest.mark.parametrize("file_index", [0, 1, 2])
def test_each_dropped_field_is_missing_or_its_default(tmp_path, file_index):
    paths = corpus_paths(tmp_path)
    write_corpus(every_field_corpus(), *paths)
    path = paths[file_index]
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    optional = OPTIONAL_DEFAULTS[file_index]
    assert set(optional) < set(record)
    for field in record:
        dropped = dict(record)
        del dropped[field]
        path.write_text("\n".join([lines[0], json.dumps(dropped), *lines[2:]]) + "\n",
                        encoding="utf-8")
        if field in optional:
            expected = _with_default(every_field_corpus(), file_index, field, optional[field])
            assert load_corpus(*paths) == expected, field
        else:
            with pytest.raises(CorpusFormatError) as exc:
                load_corpus(*paths)
            assert str(exc.value) == f"{path}:2: field {field!r} is missing"
