"""Acceptance suite: every release-gating criterion, one test each, at its
stated tolerance and runtime budget. Each test prints a PASS line (visible
with `pytest -s` or on failure)."""

import random
import time
from bisect import bisect_left
from dataclasses import astuple

import numpy as np
import pytest

from refilter import corpus_io, features
from refilter.cli import main as cli_main
from refilter.corpus_io import (
    HistoryEvent,
    SyntheticConfig,
    generate_synthetic,
    planted_decision_values,
)
from refilter.experiments import (
    CURVE_CSV,
    SplitSpec,
    build_dataset,
    evaluate,
    featurize_splits,
    incremental_eval,
    metrics_from_predictions,
    pearson,
    rank_features,
    read_curve,
    train_on_batches,
    write_csv,
)
from refilter.features import FeatureContext, extract_matrix
from refilter.history import UserHistoryIndex
from refilter.learner import Hyper, train
from refilter.vectorspace import avg_similarity, build_idf

from test_learner import grad_max_norm, reference_loss, restart_oracle
from test_vectorspace import naive_avg_similarity
from test_experiments import naive_pearson


def report(criterion: int, text: str) -> None:
    print(f"PASS  criterion {criterion}: {text}")


# ---------------------------------------------------------------------------
# criterion 1: similarity oracle


def test_criterion_1_similarity_oracle():
    start = time.perf_counter()
    rng = random.Random(20240501)
    worst = 0.0
    for _ in range(1000):
        vocab = [f"w{i}" for i in range(rng.randint(2, 100))]

        def doc():
            return [rng.choice(vocab) for _ in range(rng.randint(1, 12))]

        corpus = [doc() for _ in range(rng.randint(0, 15))]
        tweet = doc()
        collection = [doc() for _ in range(rng.randint(0, 50))]
        got = avg_similarity(tweet, collection, build_idf(corpus))
        want = naive_avg_similarity(tweet, collection, corpus)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"1000 randomized avg-similarity cases within 1e-10 of the naive "
              f"double loop (worst {worst:.2e}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: trainer optimality


def test_criterion_2_trainer_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(20240502)
    solved = 0
    trial = 0
    while solved < 50:
        trial += 1
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 7))
        X = rng.normal(0, 1, size=(n, d))
        w_true = rng.normal(0, 2, size=d)
        y = (rng.random(n) < 1 / (1 + np.exp(-(X @ w_true)))).astype(float)
        if y.min() == y.max():
            continue
        lam = 10.0 ** rng.uniform(-8, -2)
        model = train(X, y, selected=tuple(range(1, d + 1)), hyper=Hyper(lam=lam))
        theta = np.concatenate([model.weights, [model.intercept]])
        mine = reference_loss(theta, X, y, lam)
        best = restart_oracle(X, y, lam, restarts=20, seed=trial)
        assert mine <= best + 1e-6
        assert grad_max_norm(model, X, y) < 1e-6
        solved += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"50 random problems: loss within 1e-6 of a 20-restart oracle and "
              f"gradient max-norm < 1e-6 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: pearson oracle


def test_criterion_3_pearson_oracle():
    rng = random.Random(20240503)
    degenerate_checked = 0
    for _ in range(1000):
        n = rng.randint(2, 80)
        x = [rng.uniform(-10, 10) for _ in range(n)]
        y = [rng.uniform(-10, 10) for _ in range(n)]
        if rng.random() < 0.05:
            x = [rng.uniform(-10, 10)] * n
        if rng.random() < 0.05:
            y = [y[0]] * n
        got = pearson(x, y)
        assert abs(got - naive_pearson(x, y)) <= 1e-12
        if len(set(x)) == 1 or len(set(y)) == 1:
            assert got == 0.0
            degenerate_checked += 1
    assert degenerate_checked > 0
    report(3, f"1000 randomized correlations within 1e-12 of the definition, "
              f"{degenerate_checked} degenerate cases returned 0")


# ---------------------------------------------------------------------------
# criterion 4: split arithmetic at the published scale


def test_criterion_4_split_arithmetic():
    start = time.perf_counter()
    config = SyntheticConfig(
        num_recipients=40, neighbours_per_user=20, days=95,
        retweet_rate=0.5, signal_strength=0.0, posts_per_day=3.0,
        recipient_posts_per_day=1.5,
    )
    corpus = generate_synthetic(config, seed=11)
    labels = np.array([i.label for i in corpus.instances])
    assert labels.sum() >= 66_500 and (1 - labels).sum() >= 66_500
    splits = build_dataset(corpus, SplitSpec())
    assert len(splits.train_batches) == 120
    assert all(len(b) == 950 for b in splits.train_batches)
    assert len(splits.train_instances) == 114_000
    assert len(splits.dev_balanced) == 9_500
    assert len(splits.test_balanced) == 9_500
    assert len(splits.dev_unbalanced) == 250 + 4_750
    assert len(splits.test_unbalanced) == 250 + 4_750
    assert sum(1 for i in splits.dev_unbalanced if i.label) == 250
    assert sum(1 for i in splits.test_unbalanced if not i.label) == 4_750
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(4, f"140 batches of 475+475: train 114000, balanced eval 9500, "
              f"unbalanced eval 250+4750, built in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# shared strong-signal pipeline for criteria 5, 6, 7


STRONG_CONFIG = SyntheticConfig(
    num_recipients=25, neighbours_per_user=12, days=60, retweet_rate=0.3,
    signal_strength=8.0, posts_per_day=2.5, recipient_posts_per_day=1.0,
    forward_rate=0.05,
)
STRONG_SPEC = SplitSpec(
    batch_pos=50, batch_neg=50, train_batches=120, dev_batches=10,
    test_batches=10, unbalanced_pos_per_batch=2, unbalanced_neg_per_batch=38,
    seed=0,
)


@pytest.fixture(scope="module")
def strong_pipeline():
    start = time.perf_counter()
    corpus = generate_synthetic(STRONG_CONFIG, seed=7)
    hist = UserHistoryIndex(corpus)
    splits = build_dataset(corpus, STRONG_SPEC, hist)
    idf = build_idf(e.tokens for e in corpus.events)
    ctx = FeatureContext(corpus, hist, idf)
    table = featurize_splits(ctx, splits)
    X_tr, y_tr = table.rows(splits.train_instances)
    ranking = rank_features(X_tr, y_tr, folds=10)
    return {
        "corpus": corpus, "splits": splits, "idf": idf, "table": table,
        "ranking": ranking, "setup_seconds": time.perf_counter() - start,
    }


def test_criterion_5_leak_freedom(strong_pipeline):
    # Exact equality is asserted on the definitional per-instance
    # extraction; the batched sweep (exact fixed-point sums, so it differs
    # from the per-instance float means only by rounding) is pinned to it
    # within 1e-9 on the same sample.
    corpus = strong_pipeline["corpus"]
    idf = strong_pipeline["idf"]
    rng = random.Random(20240505)
    sample = rng.sample(corpus.instances, 100)
    hist = UserHistoryIndex(corpus)
    full_ctx = FeatureContext(corpus, hist, idf)
    full_rows = np.stack([features.assemble(inst, full_ctx).values for inst in sample])
    _, batch_rows, _ = extract_matrix(FeatureContext(corpus, hist, idf), sample)
    assert np.allclose(batch_rows, full_rows, atol=1e-9)
    # events are in time order: those before an instance are a prefix
    events, times = list(corpus.events), corpus.events.column("timestamp")
    for row, inst in zip(full_rows, sample):
        truncated_events = events[:bisect_left(times, inst.timestamp)]
        truncated = corpus_io.Corpus(
            profiles=corpus.profiles, events=truncated_events, instances=[inst]
        )
        # the idf background is configuration, held fixed while events vanish
        ctx = FeatureContext(truncated, UserHistoryIndex(truncated), idf)
        cut_row = features.assemble(inst, ctx).values
        assert np.array_equal(row, cut_row), f"instance {inst.instance_id} leaked"
    report(5, "100 sampled instances: deleting events at or after the instance "
              "timestamp left every feature vector bitwise unchanged")


def adversarial_events(inst):
    """Events that only a leak could see: at the instance's own second and
    one second later, by its sender, its recipient and its author, with
    every action, carrying its tweet id and tokens, with and without a
    mention of the recipient."""
    users = sorted({inst.sender_id, inst.recipient_id, inst.author_id})
    return [
        HistoryEvent(user, inst.tweet_id, action, inst.timestamp + delay, inst.tweet.tokens,
                     mentions)
        for delay in (0, 1)
        for user in users
        for action in corpus_io.ACTIONS
        for mentions in (None, inst.recipient_id)
    ]


def test_production_sweep_is_leak_free(strong_pipeline):
    """`extract_matrix`, the sweep every command runs, gives bitwise the
    same row from the events before the instance as from those events plus
    adversarial ones at and just after it."""
    corpus = strong_pipeline["corpus"]
    idf = strong_pipeline["idf"]
    sample = random.Random(20240512).sample(corpus.instances, 30)

    def row(events, inst):
        cut = corpus_io.Corpus(profiles=corpus.profiles, events=events, instances=[inst])
        # the idf background is configuration, held fixed while events change
        return extract_matrix(FeatureContext(cut, UserHistoryIndex(cut), idf), [inst])[1][0]

    for inst in sample:
        before = [e for e in corpus.events if e.timestamp < inst.timestamp]
        clean, attacked = row(before, inst), row(before + adversarial_events(inst), inst)
        assert np.array_equal(clean.view(np.int64), attacked.view(np.int64)), (
            f"instance {inst.instance_id} leaked")
    report(5, "30 sampled instances: the production sweep gave bitwise the same row with "
              "adversarial events at and one second after each instance")


def test_criterion_6_planted_signal_recovery(strong_pipeline):
    start = time.perf_counter()
    splits = strong_pipeline["splits"]
    table = strong_pipeline["table"]
    corpus = strong_pipeline["corpus"]
    ranking = strong_pipeline["ranking"]
    assert len(splits.train_instances) >= 5000

    top10 = [rf.ft_id for rf in ranking[:10]]
    model = train_on_batches(splits, table, top10)

    results = {}
    for name in ("dev_balanced", "dev_unbalanced"):
        insts = splits.eval_set(name)
        X, y = table.rows(insts)
        model_f1 = evaluate(model, X, y).f1
        z = planted_decision_values(corpus, STRONG_CONFIG, insts)
        bayes_f1 = metrics_from_predictions(z >= 0, y).f1
        results[name] = (model_f1, bayes_f1)

    bal_model, bal_bayes = results["dev_balanced"]
    unbal_model, unbal_bayes = results["dev_unbalanced"]
    assert bal_bayes >= 0.95, f"balanced Bayes F1 {bal_bayes:.3f}"
    assert unbal_bayes >= 0.80, f"unbalanced Bayes F1 {unbal_bayes:.3f}"
    assert bal_model >= 0.85, f"balanced model F1 {bal_model:.3f}"
    assert unbal_model >= 0.60, f"unbalanced model F1 {unbal_model:.3f}"
    elapsed = time.perf_counter() - start + strong_pipeline["setup_seconds"]
    assert elapsed < 300.0
    report(6, f"top-10 model F1 balanced {bal_model:.3f} (>=0.85) / unbalanced "
              f"{unbal_model:.3f} (>=0.60); Bayes rule {bal_bayes:.3f} (>=0.95) / "
              f"{unbal_bayes:.3f} (>=0.80); {elapsed:.0f}s")


def test_criterion_7_learning_curve_shape(strong_pipeline, tmp_path):
    splits = strong_pipeline["splits"]
    table = strong_pipeline["table"]
    ranking = strong_pipeline["ranking"]
    points = incremental_eval(
        splits, table, top_m=10, eval_set="dev_balanced", ranking=ranking
    )
    path = tmp_path / "curve.csv"
    write_csv(path, CURVE_CSV, map(astuple, points))
    rows = read_curve(path)
    assert len(rows) == len(splits.train_batches)
    assert [p.k for p in rows] == list(range(1, len(splits.train_batches) + 1))
    assert rows[-1].eval_f1 >= rows[0].eval_f1 - 0.02
    report(7, f"curve file has one row per k (k=1..{len(rows)}); "
              f"F1(k={rows[-1].k})={rows[-1].eval_f1:.3f} >= "
              f"F1(k=1)={rows[0].eval_f1:.3f} - 0.02")


# ---------------------------------------------------------------------------
# criterion 8: CLI determinism


def test_criterion_8_cli_determinism(tmp_path):
    synth_flags = ["--num-recipients", "8", "--neighbours-per-user", "5",
                   "--days", "12", "--retweet-rate", "0.4",
                   "--signal-strength", "8.0", "--posts-per-day", "2.0"]
    build_flags = ["--batch-pos", "10", "--batch-neg", "10",
                   "--train-batches", "5", "--dev-batches", "2",
                   "--test-batches", "2", "--unbalanced-pos-per-batch", "1"]

    outputs: dict[str, list[bytes]] = {}
    for run in ("one", "two"):
        base = tmp_path / run
        corpus = base / "corpus"
        splits = base / "splits"
        base.mkdir()
        assert cli_main(["synth", "--out", str(corpus), "--seed", "6", *synth_flags]) == 0
        assert cli_main(["build", "--corpus", str(corpus), "--out", str(splits),
                         "--seed", "2", *build_flags]) == 0
        ranking = base / "ranking.csv"
        assert cli_main(["rank", "--corpus", str(corpus), "--splits", str(splits),
                         "--out", str(ranking)]) == 0
        model = base / "model.json"
        assert cli_main(["train", "--corpus", str(corpus), "--splits", str(splits),
                         "--ranking", str(ranking), "--top-m", "10",
                         "--out", str(model)]) == 0
        model2 = base / "model2.json"
        assert cli_main(["train", "--corpus", str(corpus), "--splits", str(splits),
                         "--features", "10,43", "--out", str(model2)]) == 0
        metrics = base / "metrics.csv"
        assert cli_main(["eval", "--corpus", str(corpus), "--splits", str(splits),
                         "--model", str(model), "--eval-set", "dev_balanced",
                         "--out", str(metrics)]) == 0
        curve = base / "curve.csv"
        assert cli_main(["curve", "--corpus", str(corpus), "--splits", str(splits),
                         "--top-m", "5", "--eval-set", "dev_balanced",
                         "--out", str(curve)]) == 0
        scores = base / "scores.csv"
        assert cli_main(["score", "--corpus", str(corpus), "--splits", str(splits),
                         "--model", str(model), "--split", "dev_unbalanced",
                         "--out", str(scores)]) == 0
        scatter = base / "scatter.csv"
        assert cli_main(["scatter", "--corpus", str(corpus), "--splits", str(splits),
                         "--model", str(model2), "--eval-set", "dev_unbalanced",
                         "--ft-a", "10", "--ft-b", "43", "--out", str(scatter)]) == 0

        for path in [corpus / "profiles.jsonl", corpus / "history.jsonl",
                     corpus / "instances.jsonl", corpus / "manifest.json",
                     splits / "train_ids.csv", splits / "dev_balanced_ids.csv",
                     splits / "dev_unbalanced_ids.csv", splits / "test_balanced_ids.csv",
                     splits / "test_unbalanced_ids.csv", splits / "manifest.json",
                     ranking, model, model2, metrics, curve, scores, scatter]:
            outputs.setdefault(str(path.relative_to(base)), []).append(path.read_bytes())

    mismatched = [k for k, pair in outputs.items() if pair[0] != pair[1]]
    assert not mismatched, f"non-deterministic outputs: {mismatched}"
    report(8, f"all 8 subcommands byte-identical across reruns "
              f"({len(outputs)} files compared)")
