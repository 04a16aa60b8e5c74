import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from refilter import features
from refilter.experiments import featurize
from refilter.corpus_io import HistoryEvent, generate_synthetic
from refilter.features import (
    KeywordConfig,
    FeatureContext,
    N_FEATURES,
    SCALED_FEATURE_IDS,
    apply_scaling,
    assemble,
    extract_group1,
    extract_group2,
    extract_group3,
    extract_group4,
    extract_group5,
    extract_group6,
    extract_group7,
    extract_matrix,
    fallback_pos_counts,
    fit_scaling,
    scale_columns,
)
from refilter.history import UserHistoryIndex
from refilter.vectorspace import avg_similarity, build_idf

from conftest import make_corpus, make_instance, make_profile
from test_corpus_io import PINNED_CONFIG

DAY = 86400


def context_for(profiles, events=(), instances=(), idf_docs=((1,),), **kw):
    corpus = make_corpus(profiles, events, instances)
    hist = UserHistoryIndex(corpus)
    return FeatureContext(corpus, hist, build_idf(idf_docs), **kw)


def ft(values, ft_id):
    return values[ft_id - 1]


# -- group 1 -----------------------------------------------------------------


def test_group1_surface_features():
    inst = make_instance(
        1, 10, sender=2, recipient=1, timestamp=100,
        tokens=(6, 7), global_retweet_count=17, global_favourite_count=4,
        char_length=11, has_exclamation=True, mentions=(1,),
    )
    g1 = extract_group1(inst)
    assert g1 == [11.0, 0.0, 1.0, 0.0, 17.0, 4.0, 1.0, 0.0, 1.0]


def test_group1_photo_and_hashtag_flags():
    inst = make_instance(
        1, 10, sender=2, recipient=1, timestamp=100,
        has_photo=True, has_hashtag=True, has_url=True,
    )
    g1 = extract_group1(inst)
    assert ft(g1, 2) == 1.0 and ft(g1, 4) == 1.0 and ft(g1, 8) == 1.0
    assert ft(g1, 3) == 0.0 and ft(g1, 9) == 0.0  # no mentions


# -- group 2 / 5 ---------------------------------------------------------------


def test_group2_empty_history_is_zero():
    ctx = context_for([make_profile(1), make_profile(2)])
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100)
    assert extract_group2(inst, ctx.hist, ctx.idf) == [0.0, 0.0, 0.0, 0.0]


def test_group2_identical_history_tweet_is_one():
    events = [HistoryEvent(2, 9, "authored", 50, (6, 7, 8))]
    ctx = context_for([make_profile(1), make_profile(2)], events)
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100, tokens=(6, 7, 8))
    g2 = extract_group2(inst, ctx.hist, ctx.idf)
    assert g2[0] == pytest.approx(1.0)


def test_group2_excludes_own_tweet():
    events = [HistoryEvent(2, 10, "authored", 50, (6, 7, 8))]
    ctx = context_for([make_profile(1), make_profile(2)], events)
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100, tokens=(6, 7, 8))
    assert extract_group2(inst, ctx.hist, ctx.idf)[0] == 0.0


def test_group2_matches_naive_average():
    history_docs = [(6, 7), (7, 8), (6, 9)]
    events = [
        HistoryEvent(2, 20 + i, "authored", 10 + i, tokens)
        for i, tokens in enumerate(history_docs)
    ]
    idf_docs = [(6, 7, 8, 9)]
    ctx = context_for([make_profile(1), make_profile(2)], events, idf_docs=idf_docs)
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100, tokens=(6, 7))
    want = avg_similarity((6, 7), history_docs, build_idf(idf_docs))
    assert extract_group2(inst, ctx.hist, ctx.idf)[0] == pytest.approx(want, abs=1e-12)


def test_group5_week_window():
    now = 50 * DAY
    events = [
        HistoryEvent(1, 21, "retweeted", now - 8 * DAY, (6, 7)),
        HistoryEvent(1, 22, "seen", now - 2 * DAY, (6, 7)),
    ]
    ctx = context_for([make_profile(1), make_profile(2)], events)
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=now, tokens=(6, 7))
    g5 = extract_group5(inst, ctx.hist, ctx.idf)
    assert g5[0] == pytest.approx(1.0)  # seen 2 days ago, inside the window
    assert g5[1] == 0.0  # retweet is 8 days old
    g2 = extract_group2(inst, ctx.hist, ctx.idf)
    assert g2[3] == pytest.approx(1.0)  # unwindowed retweet similarity sees it


# -- group 3 -----------------------------------------------------------------


def test_group3_field_mapping():
    sender = make_profile(2, followers=1000, following=10, statuses=500, listed=7,
                          verified=True, account_age_days=900, has_profile_url=True,
                          klout=55.0, klout_delta_1d=0.5, klout_delta_7d=1.0,
                          klout_delta_30d=-2.0)
    recipient = make_profile(1, followers=20, klout=30.0)
    g3 = extract_group3(sender, recipient)
    assert len(g3) == 22
    assert g3[0] == 1000.0 and g3[4] == 1.0 and g3[7] == 55.0 and g3[10] == -2.0
    assert g3[11] == 20.0 and g3[18] == 30.0


def test_klout_scaling_example():
    # with training range [0, 100], klout 55 scales to 0.55
    rows = np.zeros((2, N_FEATURES))
    rows[1, 20] = 100.0  # FT21 spans 0..100 in training
    params = fit_scaling(rows)
    vec = np.zeros(N_FEATURES)
    vec[20] = 55.0
    assert apply_scaling(vec, params)[20] == pytest.approx(0.55)


# -- group 4 -----------------------------------------------------------------


def test_group4_flags_and_count():
    events = [
        HistoryEvent(1, 70, "authored", 5, (6,)),  # recipient's own tweet
        HistoryEvent(2, 71, "authored", 6, (6,), mentions_user=1),
        HistoryEvent(1, 71, "retweeted", 10, (6,)),
        HistoryEvent(1, 71, "retweeted", 20, (6,)),
        HistoryEvent(1, 71, "retweeted", 30, (6,)),
    ]
    ctx = context_for([make_profile(1), make_profile(2)], events)
    inst = make_instance(
        1, 10, sender=2, recipient=1, timestamp=100,
        mentions=(1,),
    )
    g4 = extract_group4(inst, ctx.hist)
    # recipient mentioned, sender mentioned recipient, recipient never
    # mentioned sender, sender never retweeted recipient, recipient
    # retweeted sender three times
    assert g4 == [1.0, 1.0, 0.0, 0.0, 1.0, 3.0]


def test_group4_before_any_interaction():
    events = [
        HistoryEvent(2, 71, "authored", 200, (6,), mentions_user=1),
    ]
    ctx = context_for([make_profile(1), make_profile(2)], events)
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100)
    assert extract_group4(inst, ctx.hist) == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


# -- group 6 -----------------------------------------------------------------


def test_group6_neighbour_flag_and_count():
    profiles = [make_profile(1, neighbours=[2, 3]), make_profile(2), make_profile(3)]
    events = [
        HistoryEvent(2, 9, "authored", 10, (6,)),
        HistoryEvent(3, 9, "retweeted", 20, (6,)),
    ]
    ctx = context_for(profiles, events)
    inst = make_instance(1, 9, sender=2, recipient=1, timestamp=100)
    assert extract_group6(inst, ctx.hist, ctx.corpus.profiles) == [1.0, 1.0]


def test_group6_outside_neighbourhood():
    profiles = [make_profile(1), make_profile(2)]
    ctx = context_for(profiles)
    inst = make_instance(1, 9, sender=2, recipient=1, timestamp=100)
    assert extract_group6(inst, ctx.hist, ctx.corpus.profiles) == [0.0, 0.0]


# -- group 7 -----------------------------------------------------------------


def test_group7_share_keywords():
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100,
                         tokens=("please", "rt", "and", "share"))
    g7 = extract_group7(inst, KeywordConfig())
    assert g7[0] == 2.0


def test_group7_articles_from_fallback():
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100,
                         tokens=("the", "the", "a"))
    g7 = extract_group7(inst, KeywordConfig())
    assert g7[2] == 2.0 and g7[3] == 1.0


def test_group7_good_bad_difference_defaults_to_zero():
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100,
                         tokens=("great", "awful"))
    assert extract_group7(inst, KeywordConfig())[4] == 0.0
    custom = KeywordConfig(good_words=frozenset({"great"}),
                           bad_words=frozenset({"awful", "bad"}))
    inst2 = make_instance(1, 10, sender=2, recipient=1, timestamp=100,
                          tokens=("great", "awful", "bad"))
    assert extract_group7(inst2, custom)[4] == -1.0


def test_group7_pos_counts_take_precedence():
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100,
                         tokens=("the", "a"),
                         pos_counts={"nouns_verbs": 5, "definite_articles": 9,
                                     "indefinite_articles": 2})
    g7 = extract_group7(inst, KeywordConfig())
    assert g7[1:4] == [5.0, 9.0, 2.0]


def test_group7_integer_tokens_without_vocab():
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100, tokens=(6, 7))
    assert extract_group7(inst, KeywordConfig()) == [0.0, 0.0, 0.0, 0.0, 0.0]


def test_group7_integer_tokens_with_vocab():
    inst = make_instance(1, 10, sender=2, recipient=1, timestamp=100, tokens=(6, 7, 8))
    vocab = {6: "rt", 7: "share", 8: "the"}
    g7 = extract_group7(inst, KeywordConfig(), vocab=vocab)
    assert g7[0] == 2.0 and g7[2] == 1.0


def test_fallback_pos_counts_heuristic():
    counts = fallback_pos_counts(["the", "president", "visited", "a", "plant", "!"])
    assert counts["definite_articles"] == 1
    assert counts["indefinite_articles"] == 1
    assert counts["nouns_verbs"] == 3  # president, visited, plant


# -- assemble and scaling ------------------------------------------------------


def _small_world():
    profiles = [make_profile(1, neighbours=[3]), make_profile(2, neighbours=[3]),
                make_profile(3)]
    events = [
        HistoryEvent(3, 50, "authored", 10, (6, 7)),
        HistoryEvent(1, 50, "retweeted", 20, (6, 7)),
        HistoryEvent(1, 51, "seen", 30, (8, 9)),
        HistoryEvent(2, 52, "authored", 40, (6, 9)),
    ]
    instances = [
        make_instance(1, 60, sender=3, recipient=1, timestamp=100, tokens=(6, 7)),
        make_instance(2, 60, sender=3, recipient=2, timestamp=100, tokens=(6, 7)),
    ]
    return profiles, events, instances


def test_assemble_is_50_long_and_finite():
    profiles, events, instances = _small_world()
    ctx = context_for(profiles, events, instances)
    fv = assemble(instances[0], ctx)
    assert fv.values.shape == (N_FEATURES,)
    assert np.all(np.isfinite(fv.values))
    assert fv.instance_id == 1


def test_same_tweet_two_recipients_differ():
    profiles, events, instances = _small_world()
    ctx = context_for(profiles, events, instances)
    a = assemble(instances[0], ctx).values
    b = assemble(instances[1], ctx).values
    assert ft(a, 13) != ft(b, 13)  # retweet-history similarity differs
    assert ft(a, 11) != ft(b, 11)
    # tweet-only features agree
    for i in range(1, 10):
        assert ft(a, i) == ft(b, i)
    # and a model over recipient-sensitive features scores them apart
    from refilter.learner import Hyper, Model, predict_proba

    model = Model(weights=np.array([3.0, 2.0]), intercept=-1.0,
                  selected_features=(11, 13), scaling=None, hyper=Hyper(),
                  converged=True, n_iter=0)
    assert predict_proba(model, a) != predict_proba(model, b)


def test_batch_matches_per_instance(small_signal_corpus):
    _, corpus = small_signal_corpus
    hist = UserHistoryIndex(corpus)
    idf = build_idf(e.tokens for e in corpus.events)
    sample = corpus.instances[:: max(1, len(corpus.instances) // 60)]
    ids, X, y = extract_matrix(FeatureContext(corpus, hist, idf), sample)
    ctx = FeatureContext(corpus, hist, idf)
    direct = np.stack([assemble(i, ctx).values for i in sample])
    assert np.allclose(X, direct, atol=1e-9)
    assert list(ids) == [i.instance_id for i in sample]
    assert list(y) == [int(i.label) for i in sample]


SIMILARITY_COLUMNS = [ft - 1 for ft in (10, 11, 12, 13, 42, 43)]
OTHER_COLUMNS = [c for c in range(N_FEATURES) if c not in SIMILARITY_COLUMNS]


@pytest.mark.parametrize("cap", [1000, 5, 1])
def test_sweep_matches_assemble_on_every_row(small_signal_corpus, cap):
    # the column pass reproduces assemble's 44 other values exactly; the
    # similarity pass agrees up to the rounding of the fixed-point sums
    _, corpus = small_signal_corpus
    hist = UserHistoryIndex(corpus)
    idf = build_idf(e.tokens for e in corpus.events)
    _, X, _ = extract_matrix(FeatureContext(corpus, hist, idf, cap=cap), corpus.instances)
    ctx = FeatureContext(corpus, hist, idf, cap=cap)
    direct = np.stack([assemble(inst, ctx).values for inst in corpus.instances])
    assert np.array_equal(X[:, OTHER_COLUMNS], direct[:, OTHER_COLUMNS])
    assert np.abs(X[:, SIMILARITY_COLUMNS] - direct[:, SIMILARITY_COLUMNS]).max() <= 1e-9


@pytest.mark.parametrize("vocab", [None, {6: "please", 7: "rt", 8: "the", 9: "great",
                                         10: "president", 11: "awful"}])
def test_sweep_wording_columns_match_assemble(vocab, caplog):
    # string tokens (or ids resolved through a vocabulary), with and
    # without pos_counts, and a token tuple that repeats
    words = {v: k for k, v in (vocab or {}).items()}
    tokens = [("please", "rt", "the", "great", "president"), ("a", "awful", "rt"), ("x",)]
    if vocab:
        tokens = [tuple(words.get(t, 99) for t in toks) for toks in tokens]
    instances = [
        make_instance(1, 10, sender=2, recipient=1, timestamp=100, tokens=tokens[0]),
        make_instance(2, 11, sender=2, recipient=1, timestamp=101, tokens=tokens[1],
                      pos_counts={"nouns_verbs": 4}),
        make_instance(3, 12, sender=1, recipient=2, timestamp=102, tokens=tokens[0]),
        make_instance(4, 13, sender=1, recipient=2, timestamp=103, tokens=tokens[2]),
    ]
    keywords = KeywordConfig(good_words=frozenset({"great"}), bad_words=frozenset({"awful"}))
    kw = dict(keywords=keywords, vocab=vocab)
    profiles = [make_profile(1), make_profile(2)]
    with caplog.at_level("INFO", logger="refilter.features"):
        _, X, _ = extract_matrix(context_for(profiles, instances=instances, **kw), instances)
    assert [r.getMessage() for r in caplog.records] == [
        "instance 1: pos_counts missing, using fallback tagger"]
    ctx = context_for(profiles, instances=instances, **kw)
    direct = np.stack([assemble(inst, ctx).values for inst in instances])
    assert np.array_equal(X[:, OTHER_COLUMNS], direct[:, OTHER_COLUMNS])
    assert X[0, 45] == 1.0 and X[0, 49] == 1.0 and X[1, 46] == 4.0 and X[0, 47] == 1.0


def test_assemble_logs_the_first_fallback_after_instances_that_need_none(caplog):
    # integer ids without a vocabulary, and given pos_counts, use no
    # fallback; neither may silence the log for a later instance that does
    instances = [
        make_instance(1, 10, sender=2, recipient=1, timestamp=100, tokens=(6, 7)),
        make_instance(2, 11, sender=2, recipient=1, timestamp=101, tokens=("the", "news"),
                      pos_counts={"nouns_verbs": 1}),
        make_instance(3, 12, sender=2, recipient=1, timestamp=102, tokens=("the", "news")),
        make_instance(4, 13, sender=2, recipient=1, timestamp=103, tokens=("a", "vote")),
    ]
    ctx = context_for([make_profile(1), make_profile(2)], instances=instances)
    with caplog.at_level("INFO", logger="refilter.features"):
        for inst in instances:
            assemble(inst, ctx)
    assert [r.getMessage() for r in caplog.records] == [
        "instance 3: pos_counts missing, using fallback tagger"]


def test_repeated_queries_within_one_second_match_rows_alone():
    # within one second: sender 2 delivers tweet 40 to recipients 1, 3
    # and 4, sender 5 forwards tweet 40 to recipient 1, and sender 2 also
    # delivers tweet 41. Queries repeat (same stream, same second) with
    # the same tweet and with a different one; an event at that second
    # must reach the queries of the next one.
    now = 10 * DAY
    profiles = [make_profile(u, neighbours=[2, 5] if u in (1, 3, 4) else [])
                for u in (1, 2, 3, 4, 5)]
    events = [
        HistoryEvent(2, 40, "authored", now - 500, (6, 7, 8)),
        HistoryEvent(2, 30, "authored", now - 400, (6, 9)),
        HistoryEvent(5, 40, "retweeted", now - 300, (6, 7, 8)),
        HistoryEvent(5, 31, "authored", now - 200, (8, 9, 10)),
        HistoryEvent(1, 40, "seen", now - 300, (6, 7, 8)),
        HistoryEvent(1, 31, "retweeted", now - 100, (8, 9, 10)),
        HistoryEvent(3, 30, "seen", now - 400, (6, 9)),
        HistoryEvent(3, 30, "retweeted", now - 50, (6, 9)),
        HistoryEvent(4, 32, "authored", now - 30, (7, 10)),
        HistoryEvent(2, 42, "authored", now, (7, 9)),
    ]
    a, b = (6, 7, 8), (7, 9, 10)
    instances = [
        make_instance(1, 40, sender=2, recipient=1, timestamp=now, tokens=a),
        make_instance(2, 40, sender=2, recipient=3, timestamp=now, tokens=a),
        make_instance(3, 40, sender=2, recipient=4, timestamp=now, tokens=a),
        make_instance(4, 40, sender=5, recipient=1, timestamp=now, tokens=a, author=2),
        make_instance(5, 41, sender=2, recipient=3, timestamp=now, tokens=b),
        make_instance(6, 41, sender=2, recipient=1, timestamp=now + 1, tokens=b),
    ]
    idf_docs = [e.tokens for e in events]
    ctx = context_for(profiles, events, instances, idf_docs=idf_docs)
    _, X, _ = extract_matrix(ctx, instances)
    for row, inst in enumerate(instances):
        _, alone, _ = extract_matrix(
            context_for(profiles, events, instances, idf_docs=idf_docs), [inst])
        assert np.array_equal(X[row], alone[0]), inst.instance_id
    # the rows hold real evidence, and the memo told the tweets apart
    assert np.all(X[:, SIMILARITY_COLUMNS[0]] > 0.0)
    assert X[0, SIMILARITY_COLUMNS[0]] != X[4, SIMILARITY_COLUMNS[0]]
    assert X[4, SIMILARITY_COLUMNS[0]] != X[5, SIMILARITY_COLUMNS[0]]


def test_row_does_not_depend_on_other_instances_with_other_tokens():
    # tweet 50 carries other tokens in its instance than in its history
    # events. Featurized beside instance 1, instance 2 must still see user
    # 1's retweet of tweet 50 with the event's own tokens. Instances 3 and
    # 4 share a tweet id and a second but not their tokens, so the sender's
    # posts cursor must not answer instance 4 from instance 3's memo entry.
    profiles = [make_profile(u) for u in (1, 2, 3)]
    events = [
        HistoryEvent(2, 50, "authored", DAY, (20, 21, 22)),
        HistoryEvent(2, 60, "authored", DAY + 5, (10, 11, 30)),
        HistoryEvent(1, 50, "retweeted", 2 * DAY, (20, 21, 22)),
        HistoryEvent(1, 60, "retweeted", 2 * DAY + 5, (10, 11, 30)),
    ]
    instances = [
        make_instance(1, 50, sender=2, recipient=3, timestamp=3 * DAY, tokens=(10, 11, 12)),
        make_instance(2, 70, sender=2, recipient=1, timestamp=4 * DAY, tokens=(10, 11, 12)),
        make_instance(3, 80, sender=2, recipient=1, timestamp=5 * DAY, tokens=(10, 11, 30)),
        make_instance(4, 80, sender=2, recipient=3, timestamp=5 * DAY, tokens=(10, 11, 12)),
    ]
    idf_docs = [e.tokens for e in events]
    ctx = context_for(profiles, events, instances, idf_docs=idf_docs)
    _, X, _ = extract_matrix(ctx, instances)
    for row, inst in enumerate(instances):
        _, alone, _ = extract_matrix(
            context_for(profiles, events, instances, idf_docs=idf_docs), [inst])
        assert np.array_equal(X[row], alone[0]), inst.instance_id
    # every record of tweet 70 carries the same tokens: the sweep agrees
    # with assemble, and the retweets of tweets 50 and 60 both count
    direct = assemble(instances[1], ctx).values
    assert np.allclose(X[1], direct, rtol=0.0, atol=1e-12)
    assert 0.0 < X[1, 10] < 0.5 and X[1, 10] == X[1, 12] == X[1, 42]
    assert X[2, 9] != X[3, 9]


def test_one_tweet_to_many_recipients_at_once_matches_every_subset_alone():
    # sender 2 delivers tweet 40 to recipients 1, 3, 4 and 5 at one second,
    # so its posts answer the same query for three of them; instance 4
    # carries tweet 40 with other tokens, and instance 5 tweet 41 with the
    # tokens of tweet 40, and neither may take the others' answer; a second
    # later, instance 6 sees tweet 40 among the sender's posts
    now = 10 * DAY
    profiles = [make_profile(u, neighbours=[2]) for u in (1, 2, 3, 4, 5)]
    events = [
        HistoryEvent(2, 30, "authored", now - 900, (6, 7, 9)),
        HistoryEvent(2, 31, "authored", now - 600, (7, 8)),
        HistoryEvent(2, 32, "authored", now - 300, (6, 6, 10)),
        HistoryEvent(1, 30, "seen", now - 800, (6, 7, 9)),
        HistoryEvent(1, 30, "retweeted", now - 700, (6, 7, 9)),
        HistoryEvent(3, 31, "seen", now - 500, (7, 8)),
        HistoryEvent(4, 33, "authored", now - 400, (8, 9, 10)),
        HistoryEvent(5, 32, "retweeted", now - 200, (6, 6, 10)),
        HistoryEvent(2, 40, "authored", now, (6, 7, 8)),
    ]
    a, b = (6, 7, 8), (8, 9, 10, 10)
    instances = [
        make_instance(1, 40, sender=2, recipient=1, timestamp=now, tokens=a),
        make_instance(2, 40, sender=2, recipient=3, timestamp=now, tokens=a),
        make_instance(3, 40, sender=2, recipient=4, timestamp=now, tokens=a),
        make_instance(4, 40, sender=2, recipient=5, timestamp=now, tokens=b),
        make_instance(5, 41, sender=2, recipient=5, timestamp=now, tokens=a),
        make_instance(6, 42, sender=2, recipient=1, timestamp=now + 1, tokens=a),
    ]
    idf_docs = [e.tokens for e in events]
    ctx = context_for(profiles, events, instances, idf_docs=idf_docs)
    _, X, _ = extract_matrix(ctx, instances)
    for size in range(1, len(instances)):
        for rows in itertools.combinations(range(len(instances)), size):
            _, alone, _ = extract_matrix(ctx, [instances[r] for r in rows])
            assert np.array_equal(alone, X[list(rows)]), rows
    direct = np.array([assemble(inst, ctx).values for inst in instances])
    assert np.allclose(X, direct, rtol=0.0, atol=1e-12)
    sender_posts = X[:, SIMILARITY_COLUMNS[0]]
    assert sender_posts[0] == sender_posts[1] == sender_posts[2] == sender_posts[4] > 0.0
    assert sender_posts[3] not in (0.0, sender_posts[0])
    assert sender_posts[5] != sender_posts[0]


@pytest.mark.parametrize("count", [0, 1])
def test_empty_and_one_instance_sweeps_are_assemble(small_signal_corpus, count):
    _, corpus = small_signal_corpus
    ctx = FeatureContext(corpus, UserHistoryIndex(corpus), build_idf(e.tokens for e in corpus.events))
    instances = corpus.instances[len(corpus.instances) // 2:][:count]
    direct = np.array([assemble(inst, ctx).values for inst in instances]).reshape(count, N_FEATURES)
    ids, X, labels = extract_matrix(ctx, instances)
    table = featurize(ctx, instances)
    for got_ids, got_X, got_labels in ((ids, X, labels), (table.ids, table.X, table.y)):
        assert got_X.shape == (count, N_FEATURES) and got_X.dtype == np.float64
        assert np.allclose(got_X, direct, rtol=0.0, atol=1e-12)
        assert got_ids.tolist() == [inst.instance_id for inst in instances]
        assert got_labels.tolist() == [int(inst.label) for inst in instances]
    assert count == 0 or np.any(X[0, SIMILARITY_COLUMNS] > 0.0)


@pytest.mark.parametrize("cap", [1000, 5, 1])
def test_subset_rows_match_full_sweep_bitwise(small_signal_corpus, cap):
    # a row is a pure function of the instance and the context: which other
    # instances share the sweep must not move even the last bit
    _, corpus = small_signal_corpus
    hist = UserHistoryIndex(corpus)
    idf = build_idf(e.tokens for e in corpus.events)
    _, X_full, _ = extract_matrix(FeatureContext(corpus, hist, idf, cap=cap), corpus.instances)
    row_of = {inst.instance_id: r for r, inst in enumerate(corpus.instances)}
    rng = random.Random(cap)
    for _ in range(3):
        subset = rng.sample(corpus.instances, 200)
        _, X_sub, _ = extract_matrix(FeatureContext(corpus, hist, idf, cap=cap), subset)
        rows = [row_of[inst.instance_id] for inst in subset]
        assert np.array_equal(X_sub, X_full[rows])


# sha256 of the sweep's X over the pinned generator corpus (seed 15), with
# its instances in corpus order, per history cap
SWEEP_SHA256 = {
    1000: "d4f4b1037a707c179614433823a5ffb88e926f4b9028718158eba75c11d1db18",
    5: "e1919c90933701b88800f9f1edd080a09d3dcac51ea8e7efd305537f814be73e",
    1: "3b0bdcba8dd6b90798b0bb3006152760d9bab6403736d688d5e04078bca15841",
}


def test_sweep_bytes_are_pinned():
    """Every bit of the sweep, the six similarity columns included: one ulp
    moved in any row, at a cap that binds or one that does not, shows here."""
    corpus = generate_synthetic(PINNED_CONFIG, seed=15)
    hist = UserHistoryIndex(corpus)
    idf = build_idf(e.tokens for e in corpus.events)
    digests = {}
    for cap in SWEEP_SHA256:
        _, X, _ = extract_matrix(FeatureContext(corpus, hist, idf, cap=cap), corpus.instances)
        digests[cap] = hashlib.sha256(X.tobytes()).hexdigest()
    assert digests == SWEEP_SHA256


# Sweeps a 10-day corpus shaped like the README's and prints the sha256
# of X, instances in corpus order.
_SWEEP_PROBE = """
import hashlib
from refilter.corpus_io import SyntheticConfig, generate_synthetic
from refilter.features import FeatureContext, extract_matrix
from refilter.history import UserHistoryIndex
from refilter.vectorspace import build_idf

config = SyntheticConfig(num_recipients=25, neighbours_per_user=12, days=10,
                         retweet_rate=0.3, signal_strength=8.0)
corpus = generate_synthetic(config, 3)
ctx = FeatureContext(corpus, UserHistoryIndex(corpus), build_idf(e.tokens for e in corpus.events))
print(hashlib.sha256(extract_matrix(ctx, corpus.instances)[1].tobytes()).hexdigest())
"""
# numpy's dispatch levels whose float64 kernels might move the sweep's
# float steps (the pack's norms and roundings, the division's conversion)
_AVX512_LEVELS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.skipif(not all(_cpu_features().get(f) for f in _AVX512_LEVELS),
                    reason="numpy reports no AVX-512 dispatch level to turn off")
def test_sweep_is_the_same_bits_without_numpy_avx512_kernels():
    src = str(Path(features.__file__).resolve().parents[1])
    digests = []
    for disabled in (None, " ".join(_AVX512_LEVELS)):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        done = subprocess.run([sys.executable, "-c", _SWEEP_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(done.stdout)
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


@pytest.mark.parametrize("cap", [0, -1, 2.0, True, "5"])
def test_context_rejects_bad_cap(cap):
    with pytest.raises(ValueError, match="cap"):
        context_for([make_profile(1)], cap=cap)


def test_no_leak_from_future_events(small_signal_corpus):
    _, corpus = small_signal_corpus
    idf = build_idf(e.tokens for e in corpus.events)
    inst = corpus.instances[len(corpus.instances) // 2]
    full_ctx = FeatureContext(corpus, UserHistoryIndex(corpus), idf)
    full = assemble(inst, full_ctx).values
    truncated = make_corpus(
        corpus.profiles.values(),
        [e for e in corpus.events if e.timestamp < inst.timestamp],
        [inst],
    )
    cut_ctx = FeatureContext(truncated, UserHistoryIndex(truncated), idf)
    cut = assemble(inst, cut_ctx).values
    assert np.array_equal(full, cut)


def test_fit_apply_scaling_basic():
    rows = np.zeros((3, N_FEATURES))
    rows[:, 0] = [0.0, 500.0, 1000.0]  # FT1
    params = fit_scaling(rows)
    vec = np.zeros(N_FEATURES)
    vec[0] = 500.0
    assert apply_scaling(vec, params)[0] == pytest.approx(0.5)
    vec[0] = 2000.0
    assert apply_scaling(vec, params)[0] == 1.0  # clamped
    vec[0] = -10.0
    assert apply_scaling(vec, params)[0] == 0.0


def test_constant_feature_scales_to_zero():
    rows = np.full((4, N_FEATURES), 3.0)
    params = fit_scaling(rows)
    out = apply_scaling(rows, params)
    for ft_id in SCALED_FEATURE_IDS:
        assert np.all(out[:, ft_id - 1] == 0.0)


def test_unscaled_features_pass_through():
    rows = np.zeros((2, N_FEATURES))
    rows[:, 9] = [0.25, 0.75]  # FT10 similarity, not in the scaled set
    params = fit_scaling(rows)
    out = apply_scaling(rows, params)
    assert out[0, 9] == 0.25 and out[1, 9] == 0.75


def test_nan_span_passes_through_and_rows_scale_alone():
    rng = np.random.default_rng(3)
    rows = rng.uniform(0, 100, size=(40, N_FEATURES))
    rows[7, 0] = np.nan  # FT1 is scaled; its span is NaN
    params = fit_scaling(rows)
    out = apply_scaling(rows, params)
    assert np.array_equal(out[:, 0], rows[:, 0], equal_nan=True)
    # scaling any rows of a column alone gives the bits of the whole
    cols = np.array(sorted(SCALED_FEATURE_IDS)) - 1
    part = scale_columns(rows[10:25][:, cols], params.mins[cols], params.maxs[cols])
    assert np.array_equal(part.view(np.int64), out[10:25][:, cols].view(np.int64))


def test_negative_feature_shifted_into_unit_interval():
    rows = np.zeros((2, N_FEATURES))
    rows[:, 49] = [-3.0, 2.0]  # FT50 may be negative
    params = fit_scaling(rows)
    out = apply_scaling(rows, params)
    assert out[0, 49] == 0.0 and out[1, 49] == 1.0


def test_everything_in_unit_interval_after_scaling(small_signal_corpus):
    _, corpus = small_signal_corpus
    hist = UserHistoryIndex(corpus)
    idf = build_idf(e.tokens for e in corpus.events)
    sample = corpus.instances[::7]
    _, X, _ = extract_matrix(FeatureContext(corpus, hist, idf), sample)
    out = apply_scaling(X, fit_scaling(X))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
