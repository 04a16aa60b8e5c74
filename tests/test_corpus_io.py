import dataclasses
import gc
import hashlib
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from refilter import corpus_io
from refilter.corpus_io import (
    Corpus,
    CorpusFormatError,
    CorpusIntegrityError,
    HistoryEvent,
    Instance,
    SyntheticConfig,
    Vocabulary,
    config_from_dict,
    corpus_paths,
    generate_synthetic,
    load_corpus,
    load_corpus_dir,
    planted_decision_values,
    planted_features,
    write_corpus,
    write_corpus_dir,
)
from refilter.experiments import metrics_from_predictions
from refilter.features import FeatureContext, extract_matrix
from refilter.history import UserHistoryIndex
from refilter.vectorspace import RollingCentroid, build_idf

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


def _with_second_record(file_index, change):
    """small_corpus() with `change` made to the second record of one kind
    (profiles, events, instances)."""
    corpus = small_corpus()
    kinds = [list(corpus.profiles.values()), list(corpus.events), list(corpus.instances)]
    kinds[file_index][1] = change(kinds[file_index][1])
    return make_corpus(*kinds)


@pytest.mark.parametrize("file_index,change", [
    pytest.param(1, lambda e: dataclasses.replace(e, user_id=9), id="event-user"),
    pytest.param(1, lambda e: dataclasses.replace(e, mentions_user=9), id="event-mention"),
    pytest.param(2, lambda i: dataclasses.replace(i, sender_id=9), id="sender"),
    pytest.param(2, lambda i: dataclasses.replace(i, recipient_id=9), id="recipient"),
    pytest.param(2, lambda i: dataclasses.replace(i, author_id=9), id="author"),
    pytest.param(2, lambda i: dataclasses.replace(i, mentions=(1, 9)), id="instance-mention"),
    pytest.param(2, lambda i: dataclasses.replace(i, recipient_id=i.sender_id), id="self-delivery"),
    pytest.param(0, lambda p: dataclasses.replace(p, neighbours=frozenset({2})),
                 id="self-neighbour"),
    pytest.param(0, lambda p: dataclasses.replace(p, neighbours=frozenset({1, 9})),
                 id="unknown-neighbour"),
    pytest.param(2, lambda i: dataclasses.replace(i, instance_id=1), id="repeated-instance-id"),
])
def test_generator_check_refuses_what_the_loader_refuses(tmp_path, file_index, change):
    """`_check_integrity`, which a generated corpus passes, refuses a corpus
    in memory with the message the loader gives for it after the file,
    line and field."""
    corpus_io._check_integrity(small_corpus())
    corpus = _with_second_record(file_index, change)
    paths = corpus_paths(tmp_path)
    write_corpus(corpus, *paths)
    with pytest.raises(CorpusIntegrityError) as loaded:
        load_corpus(*paths)
    with pytest.raises(CorpusIntegrityError) as checked:
        corpus_io._check_integrity(corpus)
    prefix = rf"{re.escape(str(paths[file_index]))}:2: field '\w+': "
    assert re.fullmatch(prefix + re.escape(str(checked.value)), str(loaded.value))


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


# a low retweet rate over 24 days: the recipients' retweets often reach
# back more than a week within the history cap, so the week means differ
PINNED_CONFIG = SyntheticConfig(
    num_recipients=6, neighbours_per_user=4, days=24,
    retweet_rate=0.08, signal_strength=8.0, posts_per_day=2.0,
)
PINNED_SHA256 = {
    "profiles.jsonl": "7a21a02d5e41e60aa37005b9afbaf19e457fe6dc5d6e340fd19f5259eb09765e",
    "history.jsonl": "695810df369227356bf1227cc67c79a7979321b8b0831b1e5e6f99814c04009d",
    "instances.jsonl": "16a37e0c9f54fe200e132addca29cdec460486955f43d3e17974e95d83fc1dba",
}
# the same timeline under the null model: 872 instances, 83 positives
PINNED_NULL_CONFIG = dataclasses.replace(PINNED_CONFIG, signal_strength=0.0)
PINNED_NULL_SHA256 = {
    "profiles.jsonl": "f322eaaf861fb5125f95147deaf4711b9d42cb422d756c41380c2ee49132ad11",
    "history.jsonl": "5cf1ed2e29d0857ee8e5df010b25b4c84d8a4987dffe73f59a82469eb4e6439c",
    "instances.jsonl": "e31a564f66f737e6ed802e28e51a1374cb02f15996f0b4f6a6f0ddf3a721150e",
}


@pytest.mark.parametrize("config,pinned", [
    (PINNED_CONFIG, PINNED_SHA256), (PINNED_NULL_CONFIG, PINNED_NULL_SHA256),
], ids=["signal8", "signal0"])
def test_generated_corpus_bytes_are_pinned(tmp_path, monkeypatch, config, pinned):
    """Every random draw and every exact similarity sum of the generator:
    a planted mean one ulp off can flip a label, which `planted_features`,
    recomputing with float cosines, would not see. At signal 0 the labels
    read no mean, so only the planted corpus must reach both week cases."""
    week_queries = {"all held in the week": 0, "some held older": 0}
    means = RollingCentroid.means

    def counted(self, vec, tweet_id, now):
        got = means(self, vec, tweet_id, now)
        if self.window is not None and self.ids:
            week_queries["some held older" if self.n_old else "all held in the week"] += 1
        return got

    monkeypatch.setattr(RollingCentroid, "means", counted)
    corpus = generate_synthetic(config, seed=15)
    assert config.signal_strength == 0 or all(week_queries.values()), week_queries
    forwards = [e for e in corpus.events
                if e.action == "retweeted" and e.user_id > config.num_recipients]
    assert forwards  # publishers pass on older tweets
    write_corpus_dir(corpus, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in pinned}
    assert digests == pinned


def test_generated_profiles_agree_with_the_events_and_instances():
    """Each fact the generator stores twice agrees with itself: a profile's
    statuses are the user's posts and retweets, a recipient's neighbours
    hold every sender it receives from, and the users are the recipients
    and twice `neighbours_per_user` publishers."""
    corpus = generate_synthetic(PINNED_CONFIG, seed=15)
    statuses = Counter(e.user_id for e in corpus.events if e.action in ("authored", "retweeted"))
    assert {u: p.statuses for u, p in corpus.profiles.items()} == {
        u: statuses[u] for u in corpus.profiles}
    assert all(inst.sender_id in corpus.profiles[inst.recipient_id].neighbours
               for inst in corpus.instances)
    assert sorted(corpus.profiles) == list(
        range(1, PINNED_CONFIG.num_recipients + 2 * PINNED_CONFIG.neighbours_per_user + 1))


@pytest.mark.parametrize("config", [PINNED_CONFIG, PINNED_NULL_CONFIG],
                         ids=["signal8", "signal0"])
def test_planted_features_agree_with_the_generator(monkeypatch, config):
    """The oracle, reading the written events through the history index,
    gives the quantities each label was drawn from: similarities within
    1e-9 of the generator's fixed-point sums, the retweet count and the
    neighbour flag exactly. Forwarded deliveries, whose sender is not the
    tweet's author, count the recipient's retweets of the author. The
    generator runs the plant at every strength, the null model's too."""
    drawn = []
    probability = corpus_io.PlantedModel.probability
    monkeypatch.setattr(corpus_io.PlantedModel, "probability",
                        lambda self, planted, drift=0.0:
                        drawn.append(planted) or probability(self, planted, drift))
    corpus = generate_synthetic(config, seed=15)
    assert len(drawn) == len(corpus.instances)
    assert any(i.sender_id != i.author_id for i in corpus.instances)
    for inst, want, got in zip(corpus.instances, drawn, planted_features(corpus)):
        assert want.keys() == got.keys()
        for name in ("sender_sim", "retweet_sim", "retweet_week_sim"):
            assert abs(got[name] - want[name]) <= 1e-9, (inst.instance_id, name)
        assert (got["retweet_count"], got["author_neighbour"]) == (
            want["retweet_count"], want["author_neighbour"]), inst.instance_id


@pytest.mark.parametrize("rate", [0.08, 0.3, 0.7])
def test_null_model_draws_at_the_rate_and_keeps_no_drift(rate):
    """At signal 0 the label probability is the rate itself, not the
    sigmoid of its logit, and the drift stays 0 after either label."""
    model = corpus_io.planted_model(SyntheticConfig(retweet_rate=rate, signal_strength=0.0))
    for value in (0.0, 1.0):
        planted = dict.fromkeys(corpus_io.PLANT_WEIGHTS, value)
        for drift in (0.0, 1.5):
            assert model.probability(planted, drift) == rate
    assert model.next_drift(0.0, True) == 0.0
    assert model.next_drift(0.0, False) == 0.0


def test_planted_decision_values_of_a_subset_are_the_full_values(small_signal_corpus):
    config, corpus = small_signal_corpus
    full = planted_decision_values(corpus, config)
    picked = [4, 0, len(corpus.instances) - 1, 17, 4]
    z = planted_decision_values(corpus, config, [corpus.instances[i] for i in picked])
    assert np.array_equal(z.view(np.int64), full[picked].view(np.int64))


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
    assert config_from_dict(dataclasses.asdict(config)) == config
    assert config_from_dict({**dataclasses.asdict(config), "junk": 1}) == config


def test_config_validation():
    with pytest.raises(ValueError, match=r"'config.retweet_rate' \(--retweet-rate\)"):
        SyntheticConfig(retweet_rate=0.0)
    with pytest.raises(ValueError, match=r"'config.num_recipients' \(--num-recipients\)"):
        SyntheticConfig(num_recipients=0)
    for strength in (-1.0, 10**400):  # an int beyond the float range, too
        with pytest.raises(ValueError, match=r"'config.signal_strength' \(--signal-strength\)"):
            SyntheticConfig(signal_strength=strength)
    # a corpus too large to generate is refused before any draw, naming the
    # field furthest above its default; the generator never runs on these
    for field, value in (("num_recipients", 10**12), ("days", 10**6), ("posts_per_day", 1e6)):
        flag = "--" + field.replace("_", "-")
        with pytest.raises(ValueError, match=rf"^field 'config.{field}' \({flag}\) must be small "
                           r"enough that the expected \S+ history events are at most 10,000,000, "
                           rf"got {value!r}$"):
            SyntheticConfig(**{field: value})


def test_planted_pos_counts_deterministic(small_signal_corpus):
    _, corpus = small_signal_corpus
    inst = corpus.instances[0]
    assert inst.pos_counts == corpus_io._planted_pos_counts(inst.tokens)


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
    # a count must fit in 64 bits
    pytest.param(0, "followers", 2**63, id="0-followers-2**63"),
    pytest.param(2, "char_length", 2**63, id="2-char_length-2**63"),
    pytest.param(2, "pos_counts", {"nouns_verbs": 2**63}, id="2-pos_counts-2**63"),
    pytest.param(1, "mentions_user", 2**63, id="1-mentions_user-2**63"),
])
def test_non_integer_value_rejected(tmp_path, file_index, field, value):
    path = _set_second_record_field(tmp_path, file_index, field, value)
    with pytest.raises(CorpusFormatError, match=rf"{path.name}:2: field '{field}'"):
        load_corpus(*corpus_paths(tmp_path))


@pytest.mark.parametrize("file_index,field,value", [
    pytest.param(0, "followers", 2**63 - 1, id="0-followers-2**63-1"),
    pytest.param(2, "char_length", 2**63 - 1, id="2-char_length-2**63-1"),
    pytest.param(2, "pos_counts", {"nouns_verbs": 2**63 - 1}, id="2-pos_counts-2**63-1"),
])
def test_largest_count_loads_and_writes_back_byte_stable(tmp_path, file_index, field, value):
    _set_second_record_field(tmp_path, file_index, field, value)
    write_corpus_dir(load_corpus_dir(tmp_path), tmp_path / "b")
    text = corpus_paths(tmp_path / "b")[file_index].read_text(encoding="utf-8")
    assert json.dumps({field: value}, separators=(",", ":"))[1:-1] in text
    write_corpus_dir(load_corpus_dir(tmp_path / "b"), tmp_path / "c")
    for b, c in zip(corpus_paths(tmp_path / "b"), corpus_paths(tmp_path / "c")):
        assert b.read_bytes() == c.read_bytes()


@pytest.mark.parametrize("file_index,field,value", [
    (1, "timestamp", 2**63),
    (1, "timestamp", 1.5),
    (1, "action", "posted"),
    (2, "char_length", 2**63),
    (2, "label", 2),
])
def test_corpus_refuses_a_value_its_column_cannot_hold(file_index, field, value):
    """A record built in memory is held only if each value has a code in
    its field's column; otherwise CorpusError names the field and value."""
    with pytest.raises(corpus_io.CorpusError) as exc:
        _with_default(small_corpus(), file_index, field, value)
    assert str(exc.value) == f"field {field!r} cannot hold {value!r}"


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


# The per-record writer the column writer replaced, kept as an oracle: a
# record's line is its fields' dict, each value made encodable, dumped.
_ORACLE_DUMP = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
_KEEP, _FLAG, _NUMBER = None, int, float
_ORACLE_FIELDS = (
    [("user_id", _KEEP), ("followers", _KEEP), ("following", _KEEP), ("statuses", _KEEP),
     ("listed", _KEEP), ("verified", _FLAG), ("account_age_days", _KEEP),
     ("has_profile_url", _FLAG), ("klout", _NUMBER), ("klout_delta_1d", _NUMBER),
     ("klout_delta_7d", _NUMBER), ("klout_delta_30d", _NUMBER), ("neighbours", sorted)],
    [("user_id", _KEEP), ("tweet_id", _KEEP), ("action", _KEEP), ("timestamp", _KEEP),
     ("tokens", _KEEP), ("mentions_user", _KEEP)],
    [("instance_id", _KEEP), ("tweet_id", _KEEP), ("author_id", _KEEP), ("sender_id", _KEEP),
     ("recipient_id", _KEEP), ("timestamp", _KEEP), ("label", _FLAG), ("tokens", _KEEP),
     ("char_length", _KEEP), ("has_url", _FLAG), ("has_photo", _FLAG), ("has_hashtag", _FLAG),
     ("has_exclamation", _FLAG), ("mentions", _KEEP), ("global_retweet_count", _KEEP),
     ("global_favourite_count", _KEEP),
     ("pos_counts", lambda counts: None if counts is None else dict(counts))],
)


def _oracle_line(record, fields):
    values = {}
    for name, convert in fields:
        value = getattr(record, name)
        values[name] = value if convert is None else convert(value)
    return _ORACLE_DUMP(values) + "\n"


EDGE_INTS = (0, 1, -1, -7, 2**63 - 1, -(2**63), 2**53 + 1)
EDGE_FLOATS = (1e308, 5e-324, -0.0, 0.0, 40.0, 40, -3, 61.5, 1 / 3, 2.5e-7, math.nan, math.inf,
               -math.inf)


def _edge_corpus(rng):
    """Records of every kind with edge values; some id tuples and count
    dicts are one shared object, others equal copies."""
    def an_int():
        return rng.choice(EDGE_INTS) if rng.random() < 0.3 else rng.randrange(-10**6, 10**12)

    def ids(most=6):
        return tuple(an_int() for _ in range(rng.randrange(most + 1)))

    shared = [(), (5,), ids(), ids(20)]
    counts = [None, {}, {"nouns_verbs": 3}, {"indefinite_articles": 0, "nouns_verbs": 2**63},
              {"nouns_verbs": 2, "definite_articles": 1, "indefinite_articles": 0}]

    def tokens():
        pick = rng.random()
        return rng.choice(shared) if pick < 0.4 else tuple(rng.choice(shared)) if pick < 0.5 \
            else ids()

    profiles = [make_profile(
        uid, neighbours=ids(), followers=an_int(), statuses=an_int(), listed=an_int(),
        verified=rng.random() < 0.5, has_profile_url=rng.random() < 0.5,
        klout=rng.choice(EDGE_FLOATS), klout_delta_1d=rng.choice(EDGE_FLOATS),
        klout_delta_7d=rng.uniform(-1, 1), klout_delta_30d=rng.choice(EDGE_FLOATS))
        for uid in {an_int() for _ in range(rng.randrange(12))}]
    events = [HistoryEvent(an_int(), an_int(), rng.choice(corpus_io.ACTIONS), an_int(), tokens(),
                           rng.choice((None, an_int())))
              for _ in range(rng.randrange(40))]
    instances = [make_instance(
        an_int(), an_int(), an_int(), an_int(), an_int(), label=rng.random() < 0.5,
        tokens=tokens(), author=an_int(), global_retweet_count=an_int(),
        global_favourite_count=an_int(), pos_counts=rng.choice(counts),
        char_length=an_int(), has_url=rng.random() < 0.5, has_photo=rng.random() < 0.5,
        has_hashtag=rng.random() < 0.5, has_exclamation=rng.random() < 0.5,
        mentions=rng.choice(((), (an_int(),), ids(3), shared[2])))
        for _ in range(rng.randrange(40))]
    return make_corpus(profiles, events, instances)


@pytest.mark.parametrize("block", [1, 3, corpus_io._RECORD_BLOCK])
def test_column_writer_matches_the_per_record_writer(tmp_path, monkeypatch, block):
    monkeypatch.setattr(corpus_io, "_RECORD_BLOCK", block)
    rng = random.Random(block)
    paths = corpus_paths(tmp_path)
    for _ in range(60):
        corpus = _edge_corpus(rng)
        write_corpus(corpus, *paths)
        kinds = ([corpus.profiles[uid] for uid in sorted(corpus.profiles)], corpus.events,
                 corpus.instances)
        for path, records, fields in zip(paths, kinds, _ORACLE_FIELDS):
            expected = "".join(_oracle_line(record, fields) for record in records)
            assert path.read_text(encoding="utf-8") == expected


# A loaded corpus keeps one object per distinct value of its repeated
# fields, as a generated one does.


def _id_tuples(corpus):
    """Every id tuple of a corpus: tokens and mentions."""
    return ([e.tokens for e in corpus.events]
            + [i.tokens for i in corpus.instances]
            + [i.mentions for i in corpus.instances])


def _assert_shared(corpus):
    rows = _id_tuples(corpus)
    for part in ([e.tokens for e in corpus.events], [i.tokens for i in corpus.instances], rows):
        assert len({id(t) for t in part}) == len(set(part))
    ints = [n for row in rows for n in row]
    ints += [n for p in corpus.profiles.values() for n in p.neighbours]
    assert len({id(n) for n in ints}) == len(set(ints))
    assert all(any(e.action is a for a in corpus_io.ACTIONS) for e in corpus.events)
    counts = [i.pos_counts for i in corpus.instances if i.pos_counts is not None]
    assert len({id(c) for c in counts}) == len({tuple(c.items()) for c in counts})
    assert len({id(name) for c in counts for name in c}) == len({name for c in counts for name in c})


def test_load_and_index_make_no_event_or_instance_record(tmp_path, small_signal_corpus,
                                                          monkeypatch):
    """The loader appends each checked column to the corpus's columns, and
    the history index reads the columns: neither makes a record."""
    _, generated = small_signal_corpus
    write_corpus_dir(generated, tmp_path)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was made")

    for cls in (HistoryEvent, Instance):
        monkeypatch.setattr(cls, "__init__", refuse)
    corpus = load_corpus_dir(tmp_path)
    UserHistoryIndex(corpus)
    monkeypatch.undo()
    assert corpus == generated


def test_records_made_on_access_hold_python_values(small_signal_corpus):
    """Ids, times and counts are ints, flags are bools, id tuples hold
    ints and pos_counts map names to ints: no numpy scalar reaches a
    record, whichever way it is made."""
    _, corpus = small_signal_corpus
    events, instances = corpus.events, corpus.instances
    iid = instances[7].instance_id
    records = [events[0], events[-1], *events[10:13], *list(events)[-3:],
               instances[0], instances[-1], *instances[20:23], *list(instances)[-3:],
               corpus.instance_by_id[iid], *corpus.instance_by_id.take([iid, iid])]
    for record in records:
        for name in (field.name for field in dataclasses.fields(record)):
            value = getattr(record, name)
            if name in ("label", "has_url", "has_photo", "has_hashtag", "has_exclamation"):
                assert type(value) is bool, (name, value)
            elif name in ("tokens", "mentions"):
                assert type(value) is tuple and all(type(n) is int for n in value), name
            elif name == "pos_counts":
                assert type(value) is dict and all(type(n) is int for n in value.values())
            elif name == "action":
                assert value in corpus_io.ACTIONS
            elif name != "mentions_user" or value is not None:
                assert type(value) is int, (name, value)
    assert any(e.mentions_user is not None for e in events)


def test_generated_corpus_equals_its_round_trip_and_its_records(tmp_path, small_signal_corpus):
    """The generator's columns, the loader's and those built from records
    hold the same corpus; built from shuffled records, events take the
    order of their (timestamp, user, action, tweet id) key, ties in given
    order, and instances the order of their ids."""
    _, generated = small_signal_corpus
    write_corpus_dir(generated, tmp_path)
    assert load_corpus_dir(tmp_path) == generated
    events, instances = list(generated.events), list(generated.instances)
    assert Corpus(dict(generated.profiles), events, instances) == generated
    rng = random.Random(31)
    rng.shuffle(events)
    rng.shuffle(instances)
    shuffled = Corpus(dict(generated.profiles), events, instances)
    assert list(shuffled.events) == sorted(events, key=lambda e: (
        e.timestamp, e.user_id, corpus_io.ACTIONS.index(e.action), e.tweet_id))
    assert shuffled == generated


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
                      char_length=31, has_url=True, has_photo=True, has_hashtag=True,
                      has_exclamation=True, mentions=(2, 1)),
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
    events, instances = list(corpus.events), list(corpus.instances)
    if file_index == 0:
        profile = corpus.profiles[2]
        corpus.profiles[2] = dataclasses.replace(profile, **{field: default})
    elif file_index == 1:
        events[1] = dataclasses.replace(events[1], **{field: default})
    else:
        instances[1] = dataclasses.replace(instances[1], **{field: default})
    return make_corpus(corpus.profiles.values(), events, instances)


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
