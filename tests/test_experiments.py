import dataclasses
import hashlib
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from refilter import cli, experiments
from refilter.corpus_io import HistoryEvent, generate_synthetic
from refilter.experiments import (
    EVAL_SETS,
    CURVE_CSV,
    METRICS_CSV,
    RANKING_CSV,
    SCATTER_CSV,
    SCORES_CSV,
    CurvePoint,
    DatasetError,
    FeatureTable,
    Metrics,
    SplitIds,
    SplitSpec,
    build_dataset,
    evaluate,
    featurize,
    featurize_splits,
    incremental_eval,
    metrics_from_predictions,
    pearson,
    rank_features,
    read_curve,
    read_ranking,
    scatter_export,
    train_on_batches,
    write_csv,
)
from refilter.features import (
    N_FEATURES,
    SCALED_FEATURE_IDS,
    FeatureContext,
    apply_scaling,
    fit_scaling,
)
from refilter.history import UserHistoryIndex
from refilter.learner import (
    Hyper,
    LearnerError,
    Model,
    design_matrix,
    predict_proba_matrix,
    train,
)
from refilter.vectorspace import build_idf

from conftest import make_corpus, make_instance, make_profile
from test_corpus_io import PINNED_CONFIG
from test_learner import meets_stopping_rule

DAY = 86400


# ---------------------------------------------------------------------------
# pearson


def naive_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x)
    dy = sum((b - my) ** 2 for b in y)
    if dx == 0 or dy == 0:
        return 0.0
    return num / math.sqrt(dx * dy)


def test_pearson_perfect_correlation():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)


def test_pearson_constant_input_is_zero():
    assert pearson([5, 5, 5], [1, 2, 3]) == 0.0
    assert pearson([1, 2, 3], [7, 7, 7]) == 0.0


def test_pearson_hand_case():
    assert pearson([0, 1, 0, 1], [0, 1, 1, 0]) == pytest.approx(0.0)


def test_pearson_anticorrelation():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_validation():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])


def test_pearson_matches_definition_randomized():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(2, 60)
        x = [rng.uniform(-5, 5) for _ in range(n)]
        y = [rng.uniform(-5, 5) for _ in range(n)]
        if rng.random() < 0.1:
            x = [1.0] * n  # degenerate case
        assert pearson(x, y) == pytest.approx(naive_pearson(x, y), abs=1e-12)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_perfect():
    m = metrics_from_predictions([True, True, False], [1, 1, 0])
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_metrics_nine_one_one():
    preds = [True] * 10 + [False] * 1
    labels = [1] * 9 + [0] + [1]
    m = metrics_from_predictions(preds, labels)
    assert m.tp == 9 and m.fp == 1 and m.fn == 1
    assert m.precision == pytest.approx(0.9)
    assert m.recall == pytest.approx(0.9)
    assert m.f1 == pytest.approx(0.9)


def test_metrics_all_negative_predictions():
    m = metrics_from_predictions([False, False], [1, 0])
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(9)
    preds = rng.random(50) < 0.5
    labels = (rng.random(50) < 0.5).astype(int)
    base = metrics_from_predictions(preds, labels)
    perm = rng.permutation(50)
    assert metrics_from_predictions(preds[perm], labels[perm]) == base


def test_metrics_f1_is_harmonic_mean():
    m = Metrics.from_counts(tp=30, fp=20, fn=10, tn=40)
    assert m.f1 == pytest.approx(2 * m.precision * m.recall / (m.precision + m.recall))


def test_evaluate_with_perfect_model():
    X = np.zeros((20, 1))
    X[:10, 0] = 1.0
    y = np.array([1] * 10 + [0] * 10)
    model = Model(weights=np.array([10.0]), intercept=-5.0, selected_features=(1,),
                  scaling=None, hyper=Hyper(), converged=True, n_iter=0)
    m = evaluate(model, X, y)
    assert m.f1 == 1.0 and m.tp == 10 and m.tn == 10


# ---------------------------------------------------------------------------
# dataset construction


def _flowing_corpus(n_pos=8, n_neg=8, spec=None):
    """Recipient 1 receives from senders 2 (established) and 3 (never
    retweeted); both post regularly so the activity filter passes."""
    profiles = [make_profile(1, neighbours=[2, 3]), make_profile(2), make_profile(3)]
    events = [HistoryEvent(2, 1, "authored", 0, (6,)),
              HistoryEvent(1, 1, "retweeted", 10, (6,))]  # unlock pair (1, 2)
    for day in range(60):
        events.append(HistoryEvent(2, 100 + day, "authored", day * DAY + 20, (6,)))
        events.append(HistoryEvent(3, 200 + day, "authored", day * DAY + 30, (6,)))
    instances = []
    iid = 1
    for i in range(n_pos):
        instances.append(make_instance(iid, 1000 + iid, sender=2, recipient=1,
                                       timestamp=(i + 7) * DAY, label=True))
        iid += 1
    for i in range(n_neg):
        instances.append(make_instance(iid, 1000 + iid, sender=2, recipient=1,
                                       timestamp=(i + 7) * DAY + 500, label=False))
        iid += 1
    return make_corpus(profiles, events, instances), iid


def small_spec(**overrides):
    defaults = dict(batch_pos=2, batch_neg=2, train_batches=2, dev_batches=1,
                    test_batches=1, unbalanced_pos_per_batch=1,
                    unbalanced_neg_per_batch=2, seed=0)
    defaults.update(overrides)
    return SplitSpec(**defaults)


def test_build_dataset_counts_and_order():
    corpus, _ = _flowing_corpus()
    splits = build_dataset(corpus, small_spec())
    assert len(splits.train_batches) == 2
    assert len(splits.train_instances) == 8
    assert len(splits.dev_balanced) == 4
    assert len(splits.test_balanced) == 4
    assert len(splits.dev_unbalanced) == 3  # 1 positive + 2 negatives
    # temporal order between splits, per class stream
    for label in (True, False):
        train_ts = [i.timestamp for i in splits.train_instances if i.label == label]
        dev_ts = [i.timestamp for i in splits.dev_balanced if i.label == label]
        test_ts = [i.timestamp for i in splits.test_balanced if i.label == label]
        assert max(train_ts) <= min(dev_ts) <= max(dev_ts) <= min(test_ts)


def test_easy_negatives_dropped():
    corpus, iid = _flowing_corpus()
    # negatives from sender 3, never retweeted by recipient 1: all dropped,
    # leaving too few negatives only if sender-2 negatives are removed too
    extra = [make_instance(iid + i, 5000 + i, sender=3, recipient=1,
                           timestamp=(i + 7) * DAY + 600, label=False)
             for i in range(8)]
    corpus2 = make_corpus(corpus.profiles.values(), corpus.events,
                          list(corpus.instances) + extra)
    splits = build_dataset(corpus2, small_spec())
    all_kept = (splits.train_instances + splits.dev_balanced + splits.test_balanced)
    assert all(i.sender_id != 3 for i in all_kept if not i.label)


def test_inactive_sender_negatives_dropped():
    profiles = [make_profile(1, neighbours=[2]), make_profile(2)]
    events = [HistoryEvent(2, 1, "authored", 0, (6,)),
              HistoryEvent(1, 1, "retweeted", 10, (6,))]
    # sender 2 has no posts within a week of the instance at day 30
    neg = make_instance(1, 50, sender=2, recipient=1, timestamp=30 * DAY, label=False)
    pos = make_instance(2, 51, sender=2, recipient=1, timestamp=30 * DAY + 1, label=True)
    corpus = make_corpus(profiles, events, [neg, pos])
    spec = small_spec(batch_pos=1, batch_neg=1, train_batches=1,
                      unbalanced_neg_per_batch=1)
    with pytest.raises(DatasetError):
        build_dataset(corpus, spec)  # the only negative was filtered out


def test_duplicate_arrival_keeps_earliest():
    corpus, iid = _flowing_corpus()
    # tweet 1001 (instance 1, positive at day 7) arrives again much later
    dup = make_instance(iid, 1001, sender=2, recipient=1,
                        timestamp=40 * DAY, label=True)
    corpus2 = make_corpus(corpus.profiles.values(), corpus.events,
                          list(corpus.instances) + [dup])
    splits = build_dataset(corpus2, small_spec())
    kept = [i for i in splits.train_instances + splits.dev_balanced + splits.test_balanced
            if i.tweet_id == 1001]
    assert len(kept) == 1 and kept[0].instance_id == 1


def test_downsampling_matches_positives_per_recipient():
    corpus, _ = _flowing_corpus(n_pos=4, n_neg=8)
    spec = small_spec(train_batches=1, dev_batches=1, test_batches=1,
                      batch_pos=1, batch_neg=1, unbalanced_neg_per_batch=1)
    splits = build_dataset(corpus, spec)
    # there were 8 eligible negatives but only 4 positives for recipient 1
    # so construction can fill at most 4 batches of each class
    total = splits.train_instances + splits.dev_balanced + splits.test_balanced
    assert sum(1 for i in total if not i.label) <= 4


def test_insufficient_batches_reports_achievable():
    corpus, _ = _flowing_corpus(n_pos=4, n_neg=4)
    with pytest.raises(DatasetError, match="supports only 2 batches"):
        build_dataset(corpus, small_spec(train_batches=10))


def test_funnel_counts_what_each_rule_drops():
    """Hand-counted: of 26 instances, 3 negatives come from a sender the
    recipient never retweeted, 2 from a sender silent in the prior week,
    3 of the 12 others exceed the recipient's 9 positives, and 1 positive
    is a later arrival of a tweet. The error of a build that asks for too
    many batches carries the same funnel."""
    corpus, iid = _flowing_corpus(n_pos=8, n_neg=12)
    profiles = [make_profile(1, neighbours=[2, 3, 4]), make_profile(2), make_profile(3),
                make_profile(4)]
    # recipient 1 retweeted sender 4 once, and 4 posts nothing after day 0
    events = list(corpus.events) + [HistoryEvent(4, 900, "authored", 0, (6,)),
                              HistoryEvent(1, 900, "retweeted", 10, (6,))]
    extra = [make_instance(iid + i, 5000 + i, sender=3, recipient=1,
                           timestamp=(i + 7) * DAY + 600, label=False) for i in range(3)]
    extra += [make_instance(iid + 3 + i, 6000 + i, sender=4, recipient=1,
                            timestamp=(i + 20) * DAY, label=False) for i in range(2)]
    extra.append(make_instance(iid + 5, 1001, sender=2, recipient=1,
                               timestamp=40 * DAY, label=True))
    corpus = make_corpus(profiles, events, list(corpus.instances) + extra)
    expect = experiments.DatasetFunnel(
        instances=26, positives=9, negatives=17, negatives_never_retweeted=3,
        negatives_sender_inactive=2, negatives_downsampled=3, duplicates=1,
        positives_kept=8, negatives_kept=9, batches_achievable=4, batches_requested=4)
    assert build_dataset(corpus, small_spec()).funnel == expect
    with pytest.raises(DatasetError) as failed:
        build_dataset(corpus, small_spec(train_batches=10))
    assert failed.value.funnel == dataclasses.replace(expect, batches_requested=12)


def test_positives_preserved_and_unbalanced_subsets():
    corpus, _ = _flowing_corpus()
    spec = small_spec()
    splits = build_dataset(corpus, spec)
    dev_pos = {i.instance_id for i in splits.dev_balanced if i.label}
    unbal_pos = {i.instance_id for i in splits.dev_unbalanced if i.label}
    assert unbal_pos <= dev_pos and len(unbal_pos) == spec.unbalanced_pos_per_batch
    dev_neg = sorted(i.instance_id for i in splits.dev_balanced if not i.label)
    unbal_neg = sorted(i.instance_id for i in splits.dev_unbalanced if not i.label)
    assert dev_neg == unbal_neg  # negative side untouched


def test_build_dataset_deterministic():
    corpus, _ = _flowing_corpus(n_pos=12, n_neg=16)
    spec = small_spec()
    a = build_dataset(corpus, spec)
    b = build_dataset(corpus, spec)
    assert [i.instance_id for i in a.train_instances] == [
        i.instance_id for i in b.train_instances]
    assert [i.instance_id for i in a.dev_unbalanced] == [
        i.instance_id for i in b.dev_unbalanced]


def test_spec_validation():
    with pytest.raises(ValueError, match=re.escape(
            "field 'spec.batch_pos' (--batch-pos) must be an integer >= 1, got 0")):
        small_spec(batch_pos=0)
    with pytest.raises(ValueError, match=re.escape(  # exceeds batch_pos
            "field 'spec.unbalanced_pos_per_batch' (--unbalanced-pos-per-batch) must be an "
            "integer in 1..spec.batch_pos (2), got 5")):
        small_spec(unbalanced_pos_per_batch=5)
    with pytest.raises(ValueError, match=re.escape(
            "field 'spec.unbalanced_neg_per_batch' (--unbalanced-neg-per-batch) must be an "
            "integer in 1..spec.batch_neg (475), got 500")):
        SplitSpec(unbalanced_neg_per_batch=500)


@pytest.mark.parametrize("field,value,bound", [
    ("batch_pos", 1.5, "an integer >= 1"),
    ("batch_pos", True, "an integer >= 1"),
    ("batch_pos", float("nan"), "an integer >= 1"),
    ("test_batches", "4", "an integer >= 1"),
    ("seed", -1, "an integer >= 0"),
    ("seed", "x", "an integer >= 0"),
    ("unbalanced_neg_per_batch", 0, "an integer in 1..spec.batch_neg (475)"),
    ("unbalanced_pos_per_batch", 2.0, "an integer in 1..spec.batch_pos (475)"),
], ids=["fraction", "bool", "nan", "string", "negative-seed", "string-seed",
        "zero-unbalanced-neg", "float-unbalanced-pos"])
def test_spec_refuses_a_bad_field_by_its_name_and_flag(field, value, bound):
    """Each field is checked for its type and range before any default is
    derived from it, and the error names that field, not another."""
    flag = "--" + field.replace("_", "-")
    with pytest.raises(ValueError, match=re.escape(
            f"field 'spec.{field}' ({flag}) must be {bound}, got {value!r}")):
        SplitSpec(**{field: value})


def test_spec_defaults_to_five_percent_unbalanced_positives():
    spec = SplitSpec(batch_pos=50, batch_neg=50)
    assert (spec.unbalanced_pos_per_batch, spec.unbalanced_neg_per_batch) == (3, 50)
    default = SplitSpec()
    assert (default.unbalanced_pos_per_batch, default.unbalanced_neg_per_batch) == (25, 475)
    assert SplitSpec(batch_pos=1, batch_neg=100).unbalanced_pos_per_batch == 1
    assert SplitSpec(unbalanced_neg_per_batch=38).unbalanced_pos_per_batch == 2


# five split files from tier-1's pinned generator corpus; unbalanced batches
# sample both classes, recorded before the downsampling stopped re-sorting
PINNED_SPLIT_SHA256 = {
    "train_ids.csv": "7e0cf3d3a1fc43278a840fc60a507b40c7c606e2e903f2e0bcdc5762620b9b1b",
    "dev_balanced_ids.csv": "312c137ebb1d05fadee773df28b368a76f98f067fcc9663acb994bdf99d1ea17",
    "dev_unbalanced_ids.csv": "fcf4467397f9ab9c319a7ce7ae8b9ea0413e366bbca0acfaf13ffdbb6a9789fa",
    "test_balanced_ids.csv": "2cba4d13459c085ff367342bb45e3d8005c6ec50a52822c4babf4a8545c80ed8",
    "test_unbalanced_ids.csv": "f693c785478c289cf97bd71f812997e22e3c339fccda257b7dcd83364149c79f",
}


def test_split_file_bytes_are_pinned(tmp_path):
    spec = SplitSpec(batch_pos=10, batch_neg=10, train_batches=6, dev_batches=2,
                     test_batches=2, unbalanced_pos_per_batch=2, unbalanced_neg_per_batch=7,
                     seed=3)
    splits = build_dataset(generate_synthetic(PINNED_CONFIG, seed=15), spec)
    cli._write_split_ids(splits, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_SPLIT_SHA256}
    assert digests == PINNED_SPLIT_SHA256


def test_eval_set_name_validation():
    corpus, _ = _flowing_corpus()
    splits = build_dataset(corpus, small_spec())
    with pytest.raises(ValueError, match="unknown eval set"):
        splits.eval_set("dev")


# ---------------------------------------------------------------------------
# ranking


def test_feature_equal_to_label_ranks_first():
    rng = np.random.default_rng(1)
    n = 300
    y = (rng.random(n) < 0.5).astype(float)
    X = rng.normal(0, 1, size=(n, 5))
    X[:, 2] = y
    ranking = rank_features(X, y, folds=10)
    assert ranking[0].ft_id == 3
    assert ranking[0].pearson_r == pytest.approx(1.0)
    assert ranking[0].rank == 1
    assert [rf.rank for rf in ranking] == list(range(1, 6))


def test_noise_feature_has_low_score():
    rng = np.random.default_rng(2)
    n = 5000
    y = (rng.random(n) < 0.5).astype(float)
    X = rng.normal(0, 1, size=(n, 3))
    ranking = rank_features(X, y, folds=10)
    assert all(rf.pearson_r < 0.1 for rf in ranking)


def test_single_fold_rejected():
    X = np.zeros((10, 2))
    y = np.array([0, 1] * 5)
    with pytest.raises(ValueError, match="folds"):
        rank_features(X, y, folds=1)


def test_tie_break_by_ascending_id():
    y = np.array([0.0, 1.0] * 10)
    X = np.stack([y, y, y], axis=1)  # three identical perfect features
    ranking = rank_features(X, y, folds=2)
    assert [rf.ft_id for rf in ranking] == [1, 2, 3]


def test_ranking_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, size=(200, 8))
    y = (rng.random(200) < 0.5).astype(float)
    assert rank_features(X, y) == rank_features(X, y)


def test_ranking_matches_per_column_pearson():
    """`rank_features` scores every column of a fold at once; `pearson` on
    each column of the same folds is its oracle. Column 3 is constant, and
    the first fold holds the only positives, so the training portion of that
    fold is all one class: both score 0."""
    rng = np.random.default_rng(12)
    n, folds = 400, 10
    y = np.zeros(n)
    y[:40] = 1.0  # exactly the first fold's rows
    X = rng.normal(0, 1, size=(n, 7)) + 0.5 * y[:, None] * np.arange(7)
    X[:, 2] = 4.25
    X[:, 5] = np.exp(X[:, 5])
    expected = np.zeros(X.shape[1])
    for fold in np.array_split(np.arange(n), folds):
        keep = np.ones(n, dtype=bool)
        keep[fold] = False
        scores = [abs(pearson(X[keep, j], y[keep])) for j in range(X.shape[1])]
        if fold[0] == 0:
            assert np.all(y[keep] == 0.0) and scores == [0.0] * X.shape[1]
        expected += scores
    expected /= folds
    ranking = rank_features(X, y, folds=folds)
    oracle = sorted(range(X.shape[1]), key=lambda j: (-expected[j], j))
    assert [rf.ft_id for rf in ranking] == [j + 1 for j in oracle]
    for rf in ranking:
        assert abs(rf.pearson_r - expected[rf.ft_id - 1]) <= 1e-12
    assert ranking[-1].ft_id == 3 and ranking[-1].pearson_r == 0.0


# Ranks 12,000 rows and fits a 50-feature model on them through
# train_on_batches; prints the ranking and the model record.
_THREAD_PROBE = """
import numpy as np
from refilter.experiments import (EVAL_SETS, FeatureTable, SplitIds, rank_features,
                                  train_on_batches)
from refilter.learner import model_to_json

rng = np.random.default_rng(3)
n, batches = 12000, 240
y = rng.integers(0, 2, n)
X = rng.normal(size=(n, 50)) + 0.3 * y[:, None] * rng.normal(size=50)
X[:, :20] = np.exp(X[:, :20])
ids = np.arange(1, n + 1, dtype=np.int64)
per = n // batches
splits = SplitIds([ids[i * per:(i + 1) * per].tolist() for i in range(batches)],
                  {name: ids[:10].tolist() for name in EVAL_SETS})
ranking = rank_features(X, y)
print([(rf.ft_id, rf.pearson_r.hex()) for rf in ranking])
table = FeatureTable(ids=ids, X=X, y=y.astype(np.int64))
print(model_to_json(train_on_batches(splits, table, [rf.ft_id for rf in ranking])))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="needs 2 CPUs for OpenBLAS to run a second thread")
def test_ranking_and_fit_are_the_same_bits_on_1_and_2_blas_threads():
    src = str(Path(experiments.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# incremental evaluation and scatter, on a synthetic corpus


@pytest.fixture(scope="module")
def signal_pipeline(request):
    config_corpus = request.getfixturevalue("small_signal_corpus")
    config, corpus = config_corpus
    hist = UserHistoryIndex(corpus)
    spec = SplitSpec(batch_pos=30, batch_neg=30, train_batches=10, dev_batches=2,
                     test_batches=2, unbalanced_pos_per_batch=3,
                     unbalanced_neg_per_batch=30, seed=0)
    splits = build_dataset(corpus, spec, hist)
    idf = build_idf(e.tokens for e in corpus.events)
    ctx = FeatureContext(corpus, hist, idf)
    table = featurize_splits(ctx, splits)
    return splits, table


def test_incremental_eval_shape_and_nonregression(signal_pipeline):
    splits, table = signal_pipeline
    points = incremental_eval(splits, table, top_m=10, eval_set="dev_balanced")
    assert len(points) == len(splits.train_batches)
    assert [p.k for p in points] == list(range(1, len(points) + 1))
    assert points[-1].eval_f1 >= points[0].eval_f1 - 0.02
    assert all(0.0 <= p.train_f1 <= 1.0 and 0.0 <= p.eval_f1 <= 1.0 for p in points)


def test_incremental_eval_rejects_bad_top_m(signal_pipeline):
    splits, table = signal_pipeline
    with pytest.raises(ValueError):
        incremental_eval(splits, table, top_m=0)
    with pytest.raises(ValueError):
        incremental_eval(splits, table, top_m=N_FEATURES + 1)


def test_incremental_eval_rejects_a_ranking_shorter_than_top_m(signal_pipeline):
    splits, table = signal_pipeline
    ranking = [experiments.RankedFeature(10, 0.5, 1)]
    with pytest.raises(ValueError, match="top_m=10 exceeds the 1 features the ranking lists"):
        incremental_eval(splits, table, top_m=10, ranking=ranking)


def per_k_oracle(splits, table, top_m, ranking=None):
    """The learning curve computed the direct way: for every k, gather the
    first k batches' rows, refit the scaling on them and scale them anew.
    Returns the curve and the model of each k."""
    if ranking is None:
        ranking = rank_features(*table.rows(splits.train_instances))
    selected = [rf.ft_id for rf in ranking[:top_m]]
    eval_X, eval_y = table.rows(splits.dev_unbalanced)
    points, models = [], []
    for k in range(1, len(splits.train_batches) + 1):
        X_raw, y = table.rows([inst for batch in splits.train_batches[:k] for inst in batch])
        scaling = fit_scaling(X_raw)
        model = train(apply_scaling(X_raw, scaling), y, selected, Hyper(), scaling)
        points.append(CurvePoint(k, evaluate(model, X_raw, y).f1,
                                 evaluate(model, eval_X, eval_y).f1))
        models.append(model)
    return points, models


def assert_same_model(a, b):
    assert np.array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept
    assert a.n_iter == b.n_iter and a.converged == b.converged
    assert a.selected_features == b.selected_features
    assert np.array_equal(a.scaling.mins, b.scaling.mins)
    assert np.array_equal(a.scaling.maxs, b.scaling.maxs)


@pytest.mark.parametrize("top_m", [3, 50])
@pytest.mark.parametrize("explicit_ranking", [False, True])
def test_incremental_eval_matches_per_k_oracle(signal_pipeline, top_m, explicit_ranking):
    splits, table = signal_pipeline
    ranking = None
    if explicit_ranking:  # a ranking the curve would not compute itself
        ranking = rank_features(*table.rows(splits.train_instances))[::-1]
    expected, _ = per_k_oracle(splits, table, top_m, ranking)
    assert incremental_eval(splits, table, top_m=top_m, ranking=ranking) == expected


def record_curve_fits(monkeypatch, *args, **kwargs):
    """Run `incremental_eval` and return it with the model of every k."""
    fitted = []

    def recording_train(*args, **kwargs):
        fitted.append(train(*args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(experiments, "train", recording_train)
    points = incremental_eval(*args, **kwargs)
    monkeypatch.undo()
    return points, fitted


# Curve fits start from the optimum at k-1 and train_on_batches fits cold;
# both run Newton to the optimum, so their probabilities agree to this bound
CURVE_PROBABILITY_BOUND = 1e-4


def test_curve_model_at_every_k_matches_train_on_batches(signal_pipeline, monkeypatch):
    splits, table = signal_pipeline
    _, fitted = record_curve_fits(monkeypatch, splits, table, top_m=10)
    _, oracle_models = per_k_oracle(splits, table, top_m=10)
    assert len(fitted) == len(oracle_models) == len(splits.train_batches)
    # the first fit has no earlier optimum to start from
    assert_same_model(fitted[0], oracle_models[0])
    worst = 0.0
    for k, (model, oracle) in enumerate(zip(fitted, oracle_models), start=1):
        cold = train_on_batches(splits, table, model.selected_features, k=k)
        assert_same_model(cold, oracle)
        X_train, y_train = table.rows([i for batch in splits.train_batches[:k] for i in batch])
        for X in (X_train, table.X):  # the first k batches, then every train and eval row
            warm_p, cold_p = predict_proba_matrix(model, X), predict_proba_matrix(cold, X)
            assert np.array_equal(warm_p >= 0.5, cold_p >= 0.5)
            worst = max(worst, float(np.max(np.abs(warm_p - cold_p))))
        cols = [ft - 1 for ft in model.selected_features]
        S = apply_scaling(X_train, model.scaling)[:, cols]
        assert model.converged and meets_stopping_rule(model, S, y_train)
        assert cold.converged and meets_stopping_rule(cold, S, y_train)
    assert worst <= CURVE_PROBABILITY_BOUND, worst


def nearly_separable_curve(batches=40, per_batch=10, eval_rows=200, seed=0):
    """Hand-built splits and feature table whose first few batches are
    linearly separable: five informative columns, three of them min-max
    scaled and two passed through, the rest constant."""
    rng = np.random.default_rng(seed)
    n = batches * per_batch + eval_rows
    y = np.tile([0, 1], n // 2)
    X = np.zeros((n, N_FEATURES))
    for j, ft in enumerate(sorted(SCALED_FEATURE_IDS)[:3] + [2, 3]):
        signal = rng.normal(0, 1, n) + 0.3 * (j + 1) * (2 * y - 1)
        X[:, ft - 1] = np.exp(signal) if ft in SCALED_FEATURE_IDS else 1 / (1 + np.exp(-signal))
    ids = np.arange(1, n + 1, dtype=np.int64)
    splits = SplitIds(
        train_batches=[ids[i * per_batch:(i + 1) * per_batch].tolist() for i in range(batches)],
        eval_sets={name: ids[batches * per_batch:].tolist() for name in EVAL_SETS},
    )
    return splits, FeatureTable(ids=ids, X=X, y=y.astype(np.int64))


def _objective(theta, A, y, lam):
    z = A @ theta
    w = theta[:-1]
    return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * lam * w @ w)


def _objective_gradient(theta, A, y, lam):
    g = A.T @ ((expit(A @ theta) - y) / len(y))
    g[:-1] += lam * theta[:-1]
    return g


def _objective_hessian(theta, A, y, lam):
    p = expit(A @ theta)
    H = A.T @ (A * (p * (1 - p) / len(y))[:, None])
    H[:-1, :-1] += lam * np.eye(len(theta) - 1)
    return H


def test_small_k_curve_points_reach_the_optimum(monkeypatch):
    """At lambda = 1e-8 on nearly separable data, each curve fit is within
    1e-12 of the loss scipy's exact-Hessian trust region reaches (gtol
    1e-10), and its probabilities within 1e-3 of scipy's on every train
    and eval row."""
    splits, table = nearly_separable_curve()
    _, fitted = record_curve_fits(monkeypatch, splits, table, top_m=5)
    eval_X, _ = table.rows_by_id(splits.eval_set("dev_unbalanced"))
    for k in (1, 2, 3, 5, 8, 13, 21, 34):
        model = fitted[k - 1]
        assert model.hyper.lam == 1e-8
        X_train, y_train = table.rows_by_id(
            [iid for batch in splits.train_batches[:k] for iid in batch])
        cols = [ft - 1 for ft in model.selected_features]

        def design(X):
            S = apply_scaling(X, model.scaling)[:, cols]
            return np.hstack([S, np.ones((len(S), 1))])

        A = design(X_train)
        res = minimize(_objective, np.zeros(A.shape[1]), args=(A, y_train, 1e-8),
                       jac=_objective_gradient, hess=_objective_hessian, method="trust-exact",
                       options={"gtol": 1e-10, "maxiter": 10000})
        assert res.success, res.message
        theta = np.concatenate([model.weights, [model.intercept]])
        assert _objective(theta, A, y_train, 1e-8) <= res.fun + 1e-12, k
        for rows in (A, design(eval_X)):
            assert np.max(np.abs(expit(rows @ theta) - expit(rows @ res.x))) <= 1e-3, k


def test_empty_batch_mid_curve_takes_no_step(monkeypatch):
    splits, table = nearly_separable_curve(batches=6)
    batches = splits.train_batches
    gapped = dataclasses.replace(splits, train_batches=[*batches[:3], [], *batches[3:]])
    points, fitted = record_curve_fits(monkeypatch, gapped, table, top_m=5)
    before, after = fitted[2], fitted[3]  # k = 3, and k = 4 on the same rows
    assert after.converged and after.n_iter == 0
    assert np.array_equal(after.weights, before.weights)
    assert after.intercept == before.intercept
    assert points[3].train_f1 == points[2].train_f1 and points[3].eval_f1 == points[2].eval_f1


def test_train_on_batches_skips_empty_batch(signal_pipeline):
    splits, table = signal_pipeline
    first, *rest = splits.train_batches[:3]
    gapped = dataclasses.replace(splits, train_batches=[first, [], *rest])
    _, oracle_models = per_k_oracle(gapped, table, top_m=50)
    for k, oracle in enumerate(oracle_models, start=1):
        assert_same_model(train_on_batches(gapped, table, oracle.selected_features, k=k), oracle)
    empty_first = dataclasses.replace(splits, train_batches=[[], first])
    with pytest.raises(LearnerError, match="degenerate labels"):
        train_on_batches(empty_first, table, [13], k=1)


def late_extremes_curve(nonfinite=False):
    """`nearly_separable_curve` with scaled columns whose extremes move
    late: FT9 is constant for the first three batches and then carries
    signal. With `nonfinite`, FT14 gains a NaN in batch 6 and FT15 an inf
    in batch 8, so their spans turn NaN and inf."""
    splits, table = nearly_separable_curve(batches=12)
    X = table.X.copy()
    rng = np.random.default_rng(5)
    X[:, 8] = np.exp(rng.normal(0, 1, len(X)) + 0.5 * (2 * table.y - 1))
    X[:30, 8] = 3.0
    if nonfinite:
        X[:, [13, 14]] = rng.uniform(0, 10, size=(len(X), 2))
        X[55, 13] = np.nan
        X[73, 14] = np.inf
    return splits, FeatureTable(ids=table.ids, X=X, y=table.y)


def prefix_rows(splits, table, k):
    """The raw rows and labels of the first k train batches, gathered anew."""
    return table.rows_by_id([iid for batch in splits.train_batches[:k] for iid in batch])


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("pipeline", ["signal", "late"])
def test_scaled_prefix_is_a_fresh_scaling_bit_for_bit(request, order, pipeline):
    if pipeline == "signal":
        splits, table = request.getfixturevalue("signal_pipeline")
        splits = splits.ids()
    else:
        splits, table = late_extremes_curve(nonfinite=True)
    ks = list(range(1, len(splits.train_batches) + 1))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        random.Random(0).shuffle(ks)
    # every feature, in an order other than the table's
    selected = list(range(1, N_FEATURES + 1))
    random.Random(1).shuffle(selected)
    prefixes = experiments._BatchPrefixes(splits, *prefix_rows(splits, table, len(ks)), selected)
    for k in ks:
        design, y, scaling = prefixes.scaled(k)
        X, expected_y = prefix_rows(splits, table, k)
        fresh = fit_scaling(X)
        assert np.array_equal(bits(scaling.mins), bits(fresh.mins))
        assert np.array_equal(bits(scaling.maxs), bits(fresh.maxs))
        expected = design_matrix(apply_scaling(X, fresh), selected)
        assert np.array_equal(bits(design.A), bits(expected)), k
        assert np.array_equal(y, expected_y)
        assert design.A.strides[0] == design.A.itemsize  # column-major


@pytest.mark.parametrize("pipeline", ["signal", "late"])
def test_each_curve_model_is_the_direct_warm_fit(request, monkeypatch, pipeline):
    """Every curve model is bitwise the fit on the prefix scaled anew,
    started from the model of k-1 mapped into the scaling at k."""
    if pipeline == "signal":
        splits, table = request.getfixturevalue("signal_pipeline")
        kwargs = dict(top_m=50)
    else:
        splits, table = late_extremes_curve()
        ranking = [experiments.RankedFeature(ft, 0.0, rank)
                   for rank, ft in enumerate([9, 1, 5, 6, 2, 3], start=1)]
        kwargs = dict(top_m=6, ranking=ranking)
    _, fitted = record_curve_fits(monkeypatch, splits, table, **kwargs)
    assert 9 in fitted[-1].selected_features and fitted[-1].weights[0] != 0.0
    for k, model in enumerate(fitted, start=1):
        X, y = prefix_rows(experiments._split_ids(splits), table, k)
        scaling = fit_scaling(X)
        start = None if k == 1 else experiments._rescaled_start(fitted[k - 2], scaling)
        expected = train(apply_scaling(X, scaling), y, model.selected_features, Hyper(),
                         scaling, start)
        assert_same_model(model, expected)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("ft,value,row", [
    (1, math.nan, 24),  # scaled: a NaN span passes the column through
    (1, math.inf, 24),  # scaled: inf / inf is NaN at the row itself
    (1, -math.inf, 0),  # scaled: the -inf minimum makes every row NaN
    (2, math.nan, 24),  # passed through
    (3, math.inf, 24),  # passed through
])
def test_nonfinite_value_in_batch_3_fails_the_curve_at_k_3(monkeypatch, ft, value, row):
    splits, table = nearly_separable_curve(batches=6)
    X = table.X.copy()
    X[24, ft - 1] = value  # the fifth row of the third batch
    bad = FeatureTable(ids=table.ids, X=X, y=table.y)
    ranking = [experiments.RankedFeature(f, 0.0, rank)
               for rank, f in enumerate([1, 2, 3, 5, 6], start=1)]
    fits = []
    monkeypatch.setattr(experiments, "train", lambda *a: fits.append(a) or train(*a))
    message = f"non-finite feature value at instance row {row}, FT{ft}"
    with pytest.raises(LearnerError) as raised:
        incremental_eval(splits, bad, top_m=5, ranking=ranking)
    assert str(raised.value) == message and len(fits) == 3
    # the same error as a fit on the third prefix, scaled anew
    X3, y3 = prefix_rows(splits, bad, 3)
    with pytest.raises(LearnerError) as direct:
        train(apply_scaling(X3, fit_scaling(X3)), y3, (1, 2, 3, 5, 6))
    assert str(direct.value) == message


@pytest.mark.parametrize("selected,message", [
    ((13, 13), "feature FT13 is selected twice"),
    ((2, 0), "selected feature FT0 outside vector width 50"),
    ((51,), "selected feature FT51 outside vector width 50"),
])
def test_bad_selection_fails_every_fit_path_as_train_does(selected, message):
    """The curve and train_on_batches gather the selected columns
    themselves; they reject a bad selection with `train`'s own text."""
    splits, table = nearly_separable_curve(batches=4)
    ranking = [experiments.RankedFeature(ft, 0.0, rank)
               for rank, ft in enumerate(selected, start=1)]
    calls = [lambda: train(table.X, table.y, selected),
             lambda: train_on_batches(splits, table, selected),
             lambda: incremental_eval(splits, table, top_m=len(selected), ranking=ranking)]
    for call in calls:
        with pytest.raises(LearnerError) as raised:
            call()
        assert str(raised.value) == message


def test_curve_with_empty_first_batch_has_degenerate_labels(signal_pipeline):
    splits, table = signal_pipeline
    empty_first = dataclasses.replace(splits.ids(), train_batches=[[], *splits.ids().train_batches])
    with pytest.raises(LearnerError, match="degenerate labels"):
        incremental_eval(empty_first, table, top_m=10)


@pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0, math.nan])
def test_threshold_outside_unit_interval_rejected(signal_pipeline, threshold, monkeypatch):
    splits, table = signal_pipeline
    X, y = table.rows(splits.dev_unbalanced)
    model = train(X, y, selected=(10, 43))
    with pytest.raises(LearnerError, match="threshold"):
        evaluate(model, X, y, threshold=threshold)
    with pytest.raises(LearnerError, match="threshold"):
        scatter_export(X, y, 10, 43, model, threshold=threshold)
    # rejected before the first fit
    monkeypatch.setattr(experiments, "train", None)
    with pytest.raises(LearnerError, match="threshold"):
        incremental_eval(splits, table, top_m=3, threshold=threshold)


def test_train_on_batches_k_validation(signal_pipeline):
    splits, table = signal_pipeline
    with pytest.raises(ValueError):
        train_on_batches(splits, table, [13], k=0)
    with pytest.raises(ValueError):
        train_on_batches(splits, table, [13], k=len(splits.train_batches) + 1)


def test_null_signal_balanced_accuracy_band():
    from refilter.corpus_io import SyntheticConfig, generate_synthetic

    config = SyntheticConfig(num_recipients=15, neighbours_per_user=8, days=40,
                             retweet_rate=0.5, signal_strength=0.0, posts_per_day=2.5)
    corpus = generate_synthetic(config, seed=123)
    hist = UserHistoryIndex(corpus)
    spec = SplitSpec(batch_pos=60, batch_neg=60, train_batches=15, dev_batches=3,
                     test_batches=3, unbalanced_pos_per_batch=3,
                     unbalanced_neg_per_batch=60, seed=0)
    splits = build_dataset(corpus, spec, hist)
    idf = build_idf(e.tokens for e in corpus.events)
    table = featurize_splits(FeatureContext(corpus, hist, idf), splits)
    X_tr, y_tr = table.rows(splits.train_instances)
    selected = [rf.ft_id for rf in rank_features(X_tr, y_tr)[:10]]
    eval_X, eval_y = table.rows(splits.dev_balanced)
    for k in range(5, len(splits.train_batches) + 1):
        model = train_on_batches(splits, table, selected, k=k)
        m = evaluate(model, eval_X, eval_y)
        tpr = m.tp / max(m.tp + m.fn, 1)
        tnr = m.tn / max(m.tn + m.fp, 1)
        assert 0.45 <= (tpr + tnr) / 2 <= 0.55


def test_scatter_export(signal_pipeline):
    splits, table = signal_pipeline
    X, y = table.rows(splits.train_instances)
    from refilter.features import apply_scaling, fit_scaling

    scaling = fit_scaling(X)
    model = train(apply_scaling(X, scaling), y, selected=(10, 43), scaling=scaling)
    eval_X, eval_y = table.rows(splits.dev_unbalanced)
    data = scatter_export(eval_X, eval_y, 10, 43, model)
    assert len(data.rows) == len(splits.dev_unbalanced)
    assert data.w_a == model.weights[0] and data.w_b == model.weights[1]
    # predicted flag is consistent with the separator in scaled space
    scaled = apply_scaling(eval_X, scaling)
    for row, vec in zip(data.rows, scaled):
        side = data.w_a * vec[9] + data.w_b * vec[42] + data.intercept
        assert row[3] == (1 if side >= 0 else 0)


def test_scatter_export_refuses_one_feature_twice(signal_pipeline):
    """A one-feature model names its feature for both axes, but the
    separator's line would then count its weight twice."""
    splits, table = signal_pipeline
    X, y = table.rows(splits.train_instances)
    model = train(X, y, selected=(10,))
    with pytest.raises(ValueError) as exc:
        scatter_export(X, y, 10, 10, model)
    assert str(exc.value) == "the scatter's two features must differ, got FT10 for both"


def test_scatter_feature_mismatch(signal_pipeline):
    splits, table = signal_pipeline
    X, y = table.rows(splits.train_instances)
    model = train(X, y, selected=(10, 43))
    with pytest.raises(ValueError, match="expected"):
        scatter_export(X, y, 11, 43, model)


# ---------------------------------------------------------------------------
# file formats


def test_curve_file_round_trip(tmp_path):
    points = [CurvePoint(1, 0.5, 0.4), CurvePoint(2, 0.75, 2 / 3), CurvePoint(3, 1.0, 0.0)]
    path = tmp_path / "curve.csv"
    write_csv(path, CURVE_CSV, map(dataclasses.astuple, points))
    text = path.read_text(encoding="utf-8").splitlines()
    assert text[0] == "k,train_f1,eval_f1"
    assert len(text) == 4
    assert read_curve(path) == points


def test_metrics_file_format(tmp_path):
    path = tmp_path / "metrics.csv"
    write_csv(path, METRICS_CSV, [dataclasses.astuple(Metrics.from_counts(9, 1, 1, 9))])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "tp,fp,fn,tn,precision,recall,f1"
    assert lines[1].startswith("9,1,1,9,0.9,0.9,")


def test_ranking_file_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    X = rng.normal(0, 1, size=(50, 4))
    y = (rng.random(50) < 0.5).astype(float)
    ranking = rank_features(X, y, folds=5)
    path = tmp_path / "ranking.csv"
    write_csv(path, RANKING_CSV, map(dataclasses.astuple, ranking))
    assert read_ranking(path) == ranking
    assert path.read_text(encoding="utf-8").splitlines()[0] == "ft_id,mean_abs_pearson,rank"


@pytest.mark.parametrize("row", ["2", "2,0.6", "2,0.6,0.5,1", "2,x,0.5", "two,0.6,0.5", ""])
def test_malformed_curve_row_names_file_and_line(tmp_path, row):
    path = tmp_path / "curve.csv"
    path.write_text(f"k,train_f1,eval_f1\n1,0.5,0.4\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"curve.csv:3: expected k,train_f1,eval_f1, got {row!r}")):
        read_curve(path)


@pytest.mark.parametrize("rows,named", [
    (["1,nan,7.5", "1,-1,inf"], "curve.csv:2: train_f1 nan is not a number in [0, 1]"),
    (["1,0.5,inf"], "curve.csv:2: eval_f1 inf is not a number in [0, 1]"),
    (["1,-0.25,0.5"], "curve.csv:2: train_f1 -0.25 is not a number in [0, 1]"),
    (["1,0.5,1.5"], "curve.csv:2: eval_f1 1.5 is not a number in [0, 1]"),
    (["1,0.5,0.4", "1,0.6,0.5"], "curve.csv:3: k 1, expected 2"),
    (["2,0.5,0.4"], "curve.csv:2: k 2, expected 1"),
    (["1,0.5,0.4", "3,0.6,0.5"], "curve.csv:3: k 3, expected 2"),
], ids=["nan", "inf", "negative", "above_one", "repeated_k", "first_k", "gap"])
def test_curve_rows_are_checked(tmp_path, rows, named):
    """Row i of a curve file is the point at k = i, and each F1 is a
    finite number in [0, 1]."""
    path = tmp_path / "curve.csv"
    path.write_text("k,train_f1,eval_f1\n" + "".join(f"{r}\n" for r in rows), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(named)):
        read_curve(path)


@pytest.mark.parametrize("rows,named", [
    (["10,0.2,1", "13,0.9,2"], "ranking.csv:3: mean_abs_pearson 0.9 rises above 0.2 on line 2"),
    (["10,nan,1"], "ranking.csv:2: mean_abs_pearson nan is not a finite number >= 0"),
    (["10,0.2,1", "13,-1.0,2"], "ranking.csv:3: mean_abs_pearson -1.0 is not a finite number >= 0"),
    (["10,inf,1"], "ranking.csv:2: mean_abs_pearson inf is not a finite number >= 0"),
], ids=["rising", "nan", "negative", "inf"])
def test_ranking_scores_are_finite_and_never_rise(tmp_path, rows, named):
    """A ranking file's scores fall or tie down its rows, so the first
    `top_m` rows hold the highest scores."""
    path = tmp_path / "ranking.csv"
    path.write_text("ft_id,mean_abs_pearson,rank\n" + "".join(f"{r}\n" for r in rows),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(named)):
        read_ranking(path)


def test_ranking_scores_may_tie_and_exceed_one(tmp_path):
    """A mean |r| can round to just above 1, so no upper bound is set."""
    path = tmp_path / "ranking.csv"
    path.write_text("ft_id,mean_abs_pearson,rank\n10,1.0000000000000002,1\n13,0.5,2\n"
                    "11,0.5,3\n12,0.0,4\n", encoding="utf-8")
    assert [rf.ft_id for rf in read_ranking(path)] == [10, 13, 11, 12]


@pytest.mark.parametrize("rows,named", [
    (["13,0.2,7", "10,0.9,7"], "ranking.csv:2: rank 7, expected 1"),
    (["10,0.9,1", "13,0.2,3"], "ranking.csv:3: rank 3, expected 2"),
    (["10,0.9,2", "13,0.2,1"], "ranking.csv:2: rank 2, expected 1"),
], ids=["tied", "gap", "swapped"])
def test_ranking_rank_must_be_the_row_position(tmp_path, rows, named):
    """A ranking file lists its features in rank order, so the first
    `top_m` rows are the top `top_m` features."""
    path = tmp_path / "ranking.csv"
    path.write_text("ft_id,mean_abs_pearson,rank\n" + "".join(f"{r}\n" for r in rows),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(named)):
        read_ranking(path)


@pytest.mark.parametrize("row", ["13", "13,0.5", "13,0.5,1,4", "FT13,0.5,1", ""])
def test_malformed_ranking_row_names_file_and_line(tmp_path, row):
    path = tmp_path / "ranking.csv"
    path.write_text(f"ft_id,mean_abs_pearson,rank\n10,0.9,1\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"ranking.csv:3: expected ft_id,mean_abs_pearson,rank, got {row!r}")):
        read_ranking(path)


def test_scatter_file_format(tmp_path, signal_pipeline):
    splits, table = signal_pipeline
    X, y = table.rows(splits.train_instances)
    model = train(X, y, selected=(10, 43))
    data = scatter_export(X[:5], y[:5], 10, 43, model)
    path = tmp_path / "scatter.csv"
    write_csv(path, SCATTER_CSV, data.rows, head=(data.w_a, data.w_b, data.intercept))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("#separator,")
    assert len(lines[0].split(",")) == 4  # tag plus exactly 3 parameters
    assert len(lines) == 6


def test_scores_file(tmp_path):
    path = tmp_path / "scores.csv"
    write_csv(path, SCORES_CSV, zip([4, 5], [0.25, 0.75]))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["instance_id,probability", "4,0.25", "5,0.75"]
