import json
import os
import re
import shutil

import numpy as np
import pytest

from refilter import corpus_io, experiments, history
from refilter.cli import build_parser, main
from refilter.corpus_io import SyntheticConfig, config_from_dict, load_corpus_dir
from refilter.experiments import read_curve, read_ranking


SYNTH_FLAGS = [
    "--num-recipients", "10", "--neighbours-per-user", "6", "--days", "20",
    "--retweet-rate", "0.35", "--signal-strength", "8.0", "--posts-per-day", "2.0",
]
BUILD_FLAGS = [
    "--batch-pos", "25", "--batch-neg", "25", "--train-batches", "8",
    "--dev-batches", "2", "--test-batches", "2", "--unbalanced-pos-per-batch", "2",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    splits = root / "splits"
    assert main(["synth", "--out", str(corpus), "--seed", "5", *SYNTH_FLAGS]) == 0
    assert main(["build", "--corpus", str(corpus), "--out", str(splits),
                 "--seed", "3", *BUILD_FLAGS]) == 0
    ranking = root / "ranking.csv"
    assert main(["rank", "--corpus", str(corpus), "--splits", str(splits),
                 "--out", str(ranking)]) == 0
    model = root / "model.json"
    assert main(["train", "--corpus", str(corpus), "--splits", str(splits),
                 "--ranking", str(ranking), "--top-m", "10", "--out", str(model)]) == 0
    return root, corpus, splits, ranking, model


def test_synth_writes_corpus_and_manifest(workspace):
    root, corpus, *_ = workspace
    loaded = load_corpus_dir(corpus)
    assert len(loaded.instances) > 0
    manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 5
    assert manifest["instances"] == len(loaded.instances)
    # the manifest round-trips into the exact config that generated the corpus
    config = config_from_dict(manifest["config"])
    assert config == SyntheticConfig(num_recipients=10, neighbours_per_user=6,
                                     days=20, retweet_rate=0.35, signal_strength=8.0,
                                     posts_per_day=2.0)


def test_build_writes_id_lists(workspace):
    root, corpus, splits, *_ = workspace
    manifest = json.loads((splits / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["spec"]["train_batches"] == 8
    train_lines = (splits / "train_ids.csv").read_text(encoding="utf-8").splitlines()
    assert train_lines[0] == "batch,instance_id"
    assert len(train_lines) - 1 == manifest["counts"]["train"] == 8 * 50
    dev_lines = (splits / "dev_unbalanced_ids.csv").read_text(encoding="utf-8").splitlines()
    assert len(dev_lines) - 1 == manifest["counts"]["dev_unbalanced"] == 2 * 27


def funnel_adds_up(funnel: dict) -> None:
    """Each instance is a positive or a negative; each negative is dropped
    by one rule or kept; dedup takes `duplicates` from what is kept."""
    assert funnel["instances"] == funnel["positives"] + funnel["negatives"]
    kept = funnel["negatives"] - funnel["negatives_never_retweeted"] \
        - funnel["negatives_sender_inactive"] - funnel["negatives_downsampled"]
    assert kept >= 0 and funnel["duplicates"] >= 0
    assert funnel["positives"] + kept - funnel["duplicates"] \
        == funnel["positives_kept"] + funnel["negatives_kept"]


def test_build_report_of_a_corpus_with_too_few_batches(workspace, tmp_path, capsys):
    """A build that fails for too few batches still writes its report,
    whose counts add up and match a recount from the corpus; stdout and
    stderr are those of the same build without --report."""
    _, corpus, *_ = workspace
    argv = ["build", "--corpus", str(corpus), "--out", str(tmp_path / "splits"),
            *BUILD_FLAGS, "--train-batches", "500"]
    assert main(argv) == 1
    plain = capsys.readouterr()
    report = tmp_path / "report.json"
    assert main([*argv, "--report", str(report)]) == 1
    assert capsys.readouterr() == plain
    assert "corpus supports only" in plain.err and plain.out == ""
    got = json.loads(report.read_text(encoding="utf-8"))
    assert sorted(got) == ["command", "error", "funnel"] and got["command"] == "build"
    assert plain.err == f"refilter: error: {got['error']}\n"
    funnel = got["funnel"]
    funnel_adds_up(funnel)
    assert funnel["batches_requested"] == 504 > funnel["batches_achievable"] > 0
    assert funnel["batches_achievable"] == min(funnel["positives_kept"] // 25,
                                               funnel["negatives_kept"] // 25)
    loaded = load_corpus_dir(corpus)
    hist = history.UserHistoryIndex(loaded)
    negatives = [i for i in loaded.instances if not i.label]
    never = [i for i in negatives if hist.retweet_count(i.recipient_id, i.sender_id, i.timestamp) == 0]
    assert (funnel["instances"], funnel["negatives"], funnel["negatives_never_retweeted"]) \
        == (len(loaded.instances), len(negatives), len(never))
    assert funnel["negatives_sender_inactive"] == sum(
        not hist.has_posts_in(i.sender_id, i.timestamp, history.WEEK_SECONDS)
        for i in negatives if i not in never)
    # each rule but the inactive-sender one drops some here
    assert min(funnel["negatives_never_retweeted"], funnel["negatives_downsampled"],
               funnel["duplicates"]) > 0


def test_rank_output_parses(workspace):
    root, *_ , ranking, _ = workspace
    ranked = read_ranking(ranking)
    assert len(ranked) == 50
    assert ranked[0].rank == 1
    assert all(0.0 <= rf.pearson_r <= 1.0 for rf in ranked)


def test_eval_metrics_file(workspace, tmp_path):
    root, corpus, splits, ranking, model = workspace
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--corpus", str(corpus), "--splits", str(splits),
                 "--model", str(model), "--eval-set", "dev_balanced",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "tp,fp,fn,tn,precision,recall,f1"
    tp, fp, fn, tn, precision, recall, f1 = lines[1].split(",")
    assert int(tp) + int(fp) + int(fn) + int(tn) == 100
    assert 0.0 <= float(f1) <= 1.0


def test_curve_rows_match_train_batches(workspace, tmp_path):
    root, corpus, splits, ranking, model = workspace
    out = tmp_path / "curve.csv"
    assert main(["curve", "--corpus", str(corpus), "--splits", str(splits),
                 "--top-m", "5", "--eval-set", "dev_balanced", "--out", str(out)]) == 0
    points = read_curve(out)
    assert [p.k for p in points] == list(range(1, 9))


def test_score_rows_match_split_size(workspace, tmp_path):
    root, corpus, splits, ranking, model = workspace
    out = tmp_path / "scores.csv"
    assert main(["score", "--corpus", str(corpus), "--splits", str(splits),
                 "--model", str(model), "--split", "dev_unbalanced",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "instance_id,probability"
    assert len(lines) - 1 == 2 * 27
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 < p < 1.0 for p in probs)


def test_scatter_two_feature_model(workspace, tmp_path):
    root, corpus, splits, ranking, model = workspace
    model2 = tmp_path / "model2.json"
    assert main(["train", "--corpus", str(corpus), "--splits", str(splits),
                 "--features", "10,43", "--out", str(model2)]) == 0
    out = tmp_path / "scatter.csv"
    assert main(["scatter", "--corpus", str(corpus), "--splits", str(splits),
                 "--model", str(model2), "--eval-set", "dev_unbalanced",
                 "--ft-a", "10", "--ft-b", "43", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines[0].split(",")) == 4
    assert len(lines) - 1 == 2 * 27


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_rank_rejects_non_finite_klout(workspace, tmp_path, capsys, value):
    root, corpus, splits, *_ = workspace
    bad_corpus, bad_splits = tmp_path / "corpus", tmp_path / "splits"
    shutil.copytree(corpus, bad_corpus)
    shutil.copytree(splits, bad_splits)
    profiles = bad_corpus / "profiles.jsonl"
    lines = profiles.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["klout"] = float(value)  # json.dumps writes the literal NaN or Infinity
    lines[0] = json.dumps(record)
    profiles.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "ranking.csv"
    rc = main(["rank", "--corpus", str(bad_corpus), "--splits", str(bad_splits),
               "--out", str(out)])
    assert rc == 1
    assert "profiles.jsonl:1: field 'klout'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_corpus_is_error(tmp_path, capsys):
    rc = main(["build", "--corpus", str(tmp_path / "absent"), "--out",
               str(tmp_path / "s")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_insufficient_corpus_reports_achievable(tmp_path, capsys):
    corpus = tmp_path / "tiny"
    assert main(["synth", "--out", str(corpus), "--seed", "1",
                 "--num-recipients", "4", "--neighbours-per-user", "3",
                 "--days", "3", "--posts-per-day", "1.0"]) == 0
    rc = main(["build", "--corpus", str(corpus), "--out", str(tmp_path / "s"),
               "--batch-pos", "400", "--batch-neg", "400"])
    assert rc == 1
    assert "supports only" in capsys.readouterr().err


def test_split_sizes_the_corpus_cannot_fill_are_named_by_flag(workspace, tmp_path, capsys):
    root, corpus, *_ = workspace
    rc = main(["build", "--corpus", str(corpus), "--out", str(tmp_path / "s"),
               *BUILD_FLAGS, "--batch-pos", "9" * 23])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("refilter: error: corpus supports only 0 batches")
    assert err.endswith(f"; the split flags ask for --batch-pos {'9' * 23} --batch-neg 25 "
                        "--train-batches 8 --dev-batches 2 --test-batches 2\n")
    assert not (tmp_path / "s").exists()


def test_a_cap_beyond_every_stream_gives_the_table_of_a_large_cap(workspace, tmp_path):
    # a cap no int64 holds reaches the sweep, which clamps it to each stream
    root, corpus, *_ = workspace
    tables = []
    for cap in ("9" * 23, "1000000"):
        out = tmp_path / cap
        assert main(["build", "--corpus", str(corpus), "--out", str(out), "--seed", "3",
                     *BUILD_FLAGS, "--cap", cap]) == 0
        with np.load(out / "feature_table.npz") as data:
            tables.append({name: data[name] for name in ("ids", "X", "y")})
    for name in ("ids", "X", "y"):
        assert np.array_equal(tables[0][name], tables[1][name]), name
    assert np.count_nonzero(tables[0]["X"][:, 9]) > len(tables[0]["X"]) // 2


def test_scatter_on_wrong_model_fails(workspace, tmp_path, capsys):
    root, corpus, splits, ranking, model = workspace
    rc = main(["scatter", "--corpus", str(corpus), "--splits", str(splits),
               "--model", str(model), "--eval-set", "dev_balanced",
               "--ft-a", "10", "--ft-b", "43", "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_scatter_refuses_one_feature_twice_before_reading_its_inputs(tmp_path, capsys):
    absent = tmp_path / "absent"
    out = tmp_path / "x.csv"
    rc = main(["scatter", "--corpus", str(absent), "--splits", str(absent),
               "--model", str(absent / "model.json"), "--eval-set", "dev_balanced",
               "--ft-a", "10", "--ft-b", "10", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "refilter: error: --ft-a and --ft-b must name two different features, got 10 for both\n")
    assert not out.exists()


# name: (an edit of the model record, or None to cut its JSON short; the
# error after the file name)
BAD_MODELS = {
    "not_json": (None, "invalid model record: "),
    "no_weights": (lambda m: m.pop("weights"), "lacks the field 'weights'"),
    "bad_lambda": (lambda m: m["hyper"].update(lam=-1),
                   "field 'hyper.lam' (--lambda) must be a finite number > 0, got -1"),
    "bad_format": (lambda m: m.update(format="v0"), "unrecognized model format: "),
    "feature_above_50": (lambda m: m["selected_features"].__setitem__(-1, 51),
                         "model field 'selected_features' selects FT51, outside 1..50\n"),
}


@pytest.mark.parametrize("command", ["eval", "score", "scatter"])
@pytest.mark.parametrize("bad", sorted(BAD_MODELS))
def test_bad_model_file_is_named(workspace, tmp_path, capsys, bad, command):
    root, corpus, splits, ranking, model = workspace
    edit, message = BAD_MODELS[bad]
    text = model.read_text(encoding="utf-8")
    if edit is None:
        text = text[:-3]
    else:
        record = json.loads(text)
        edit(record)
        text = json.dumps(record)
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    extra = ["--ft-a", "10", "--ft-b", "43"] if command == "scatter" else []
    capsys.readouterr()
    assert main([command, "--corpus", str(corpus), "--splits", str(splits),
                 "--model", str(path), *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"refilter: error: {path}: {message}")
    assert err.count("\n") == 1 and not out.exists()


def test_config_file_defaults_and_flag_override(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"num_recipients": 6, "days": 5,
                                       "neighbours_per_user": 4}), encoding="utf-8")
    out_a = tmp_path / "a"
    assert main(["synth", "--out", str(out_a), "--seed", "2",
                 "--config", str(config_file)]) == 0
    manifest = json.loads((out_a / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["num_recipients"] == 6
    out_b = tmp_path / "b"
    assert main(["synth", "--out", str(out_b), "--seed", "2",
                 "--config", str(config_file), "--num-recipients", "8"]) == 0
    manifest_b = json.loads((out_b / "manifest.json").read_text(encoding="utf-8"))
    assert manifest_b["config"]["num_recipients"] == 8  # explicit flag wins
    assert manifest_b["config"]["days"] == 5


def test_trailing_config_flag_is_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "c"), "--config"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "refilter synth: error: argument --config: expected one argument\n")


@pytest.mark.parametrize("threshold", ["2", "nan", "0"])
def test_threshold_outside_unit_interval_is_error(workspace, tmp_path, capsys, threshold):
    root, corpus, splits, ranking, model = workspace
    out = tmp_path / "metrics.csv"
    rc = main(["eval", "--corpus", str(corpus), "--splits", str(splits),
               "--model", str(model), "--threshold", threshold, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("refilter: error:") and "threshold" in err
    assert not out.exists()


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("REFILTER_SEED", "9")
    out = tmp_path / "env"
    assert main(["synth", "--out", str(out), "--num-recipients", "4",
                 "--neighbours-per-user", "3", "--days", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 9


def test_synth_determinism_bytes(tmp_path):
    flags = ["--num-recipients", "5", "--neighbours-per-user", "3", "--days", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a), "--seed", "4", *flags]) == 0
    assert main(["synth", "--out", str(b), "--seed", "4", *flags]) == 0
    for name in ("profiles.jsonl", "history.jsonl", "instances.jsonl", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_bad_feature_list(workspace, tmp_path, capsys):
    root, corpus, splits, *_ = workspace
    rc = main(["train", "--corpus", str(corpus), "--splits", str(splits),
               "--features", "ten,43", "--out", str(tmp_path / "m.json")])
    assert rc == 1


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_nonpositive_cap_is_error(workspace, tmp_path, capsys, cap):
    root, corpus, splits, *_ = workspace
    rc = main(["rank", "--corpus", str(corpus), "--splits", str(splits),
               "--cap", cap, "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("refilter: error:")
    assert f"cap={cap}" in err


@pytest.mark.parametrize("flag,value,named", [
    ("--cap", "0", "cap=0"),
])
def test_bad_pipeline_flag_fails_build_before_the_parse(workspace, tmp_path, capsys, monkeypatch,
                                                        flag, value, named):
    root, corpus, *_ = workspace
    parses = []
    monkeypatch.setattr(corpus_io, "load_corpus", lambda *paths: parses.append(paths))
    out = tmp_path / "splits"
    rc = main(["build", "--corpus", str(corpus), "--out", str(out), "--seed", "3",
               *BUILD_FLAGS, flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("refilter: error:") and named in err
    assert parses == [] and not out.exists()


@pytest.mark.parametrize("flag,value,named", [
    ("--train-batches", "0", "train_batches"),
    ("--batch-neg", "-1", "batch_neg"),
    ("--unbalanced-pos-per-batch", "26", "unbalanced_pos_per_batch"),
])
def test_bad_split_size_fails_build_before_the_parse(workspace, tmp_path, capsys, monkeypatch,
                                                     flag, value, named):
    root, corpus, *_ = workspace
    parses = []
    monkeypatch.setattr(corpus_io, "load_corpus", lambda *paths: parses.append(paths))
    out = tmp_path / "splits"
    rc = main(["build", "--corpus", str(corpus), "--out", str(out), "--seed", "3",
               *BUILD_FLAGS, flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("refilter: error:") and named in err
    assert parses == [] and not out.exists()


@pytest.mark.parametrize("command", ["train", "curve"])
@pytest.mark.parametrize("top_m", ["-1", "0", "51", "60"])
def test_top_m_outside_the_features_fails_before_the_table(workspace, tmp_path, capsys,
                                                           monkeypatch, command, top_m):
    root, corpus, splits, ranking, _ = workspace
    reads = []
    monkeypatch.setattr(experiments, "read_table", lambda *args: reads.append(args))
    monkeypatch.setattr(corpus_io, "load_corpus", lambda *paths: reads.append(paths))
    out = tmp_path / "out"
    rc = main([command, "--corpus", str(corpus), "--splits", str(splits),
               "--ranking", str(ranking), "--top-m", top_m, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"refilter: error: --top-m must be in 1..50, got {top_m}\n"
    assert reads == [] and not out.exists()


@pytest.mark.parametrize("command,ranked,flags,named", [
    ("train", None, ["--features", "13,13"], "feature FT13 is selected twice"),
    ("train", (13, 13), ["--top-m", "2"], "ranking.csv:3: ft_id 13 is listed twice, first on line 2"),
    ("curve", (13, 13), ["--top-m", "2"], "ranking.csv:3: ft_id 13 is listed twice, first on line 2"),
    ("train", (13,), ["--top-m", "10"], "top_m=10 exceeds the 1 features the ranking lists"),
    ("curve", (13,), ["--top-m", "10"], "top_m=10 exceeds the 1 features the ranking lists"),
    ("train", (99, 13), ["--top-m", "2"], "ranking.csv:2: ft_id 99 is outside 1..50"),
    ("curve", (13, 99), ["--top-m", "2"], "ranking.csv:3: ft_id 99 is outside 1..50"),
    ("train", (13, 0), ["--top-m", "1"], "ranking.csv:3: ft_id 0 is outside 1..50"),
    ("curve", (10, 13, 10), ["--top-m", "2"],
     "ranking.csv:4: ft_id 10 is listed twice, first on line 2"),
])
def test_repeated_or_missing_feature_selection_is_error(workspace, tmp_path, capsys, monkeypatch,
                                                        command, ranked, flags, named):
    """A ranking file's ids are checked as it is read, past the first
    `--top-m` too; the file is named as given, here relative."""
    root, corpus, splits, *_ = workspace
    if ranked is not None:  # the feature ids of a ranking file, in rank order
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ranking.csv").write_text("ft_id,mean_abs_pearson,rank\n" + "".join(
            f"{ft},0.5,{r}\n" for r, ft in enumerate(ranked, start=1)), encoding="utf-8")
        flags = ["--ranking", "ranking.csv", *flags]
    out = tmp_path / "out"
    rc = main([command, "--corpus", str(corpus), "--splits", str(splits), *flags,
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"refilter: error: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "curve"])
def test_ranking_rows_out_of_rank_order_are_error(workspace, tmp_path, capsys, monkeypatch,
                                                  command):
    """Row order is rank order: a file whose `rank` column says otherwise
    is refused by file and line, not read by row order."""
    root, corpus, splits, *_ = workspace
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ranking.csv").write_text("ft_id,mean_abs_pearson,rank\n13,0.2,7\n10,0.9,7\n",
                                          encoding="utf-8")
    out = tmp_path / "out"
    rc = main([command, "--corpus", str(corpus), "--splits", str(splits),
               "--ranking", "ranking.csv", "--top-m", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "refilter: error: ranking.csv:2: rank 7, expected 1\n"
    assert not out.exists()


@pytest.mark.parametrize("rows,named", [
    ("10,0.2,1\n13,0.9,2\n", "ranking.csv:3: mean_abs_pearson 0.9 rises above 0.2 on line 2"),
    ("10,nan,1\n", "ranking.csv:2: mean_abs_pearson nan is not a finite number >= 0"),
    ("10,-1,1\n", "ranking.csv:2: mean_abs_pearson -1.0 is not a finite number >= 0"),
], ids=["rising", "nan", "negative"])
def test_ranking_scores_are_checked_by_train(workspace, tmp_path, capsys, monkeypatch,
                                             rows, named):
    """`train --top-m 1` would otherwise take FT10 as the top feature."""
    root, corpus, splits, *_ = workspace
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ranking.csv").write_text("ft_id,mean_abs_pearson,rank\n" + rows,
                                          encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["train", "--corpus", str(corpus), "--splits", str(splits),
               "--ranking", "ranking.csv", "--top-m", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"refilter: error: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,name,flags", [
    ("rank", "splits/train_ids.csv", []),
    ("score", "splits/test_unbalanced_ids.csv", ["--split", "test_unbalanced"]),
    ("train", "ranking.csv", ["--top-m", "10"]),
])
def test_file_without_its_header_is_refused(workspace, tmp_path, capsys, command, name, flags):
    """Line 1 is read, not skipped: without it the first id or feature
    would be dropped unseen."""
    root, corpus, splits, ranking, model = workspace
    shutil.copytree(splits, tmp_path / "splits")
    shutil.copy(ranking, tmp_path / "ranking.csv")
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(f"{line}\n" for line in lines[1:]), encoding="utf-8")
    out = tmp_path / "out"
    inputs = {"rank": [], "score": ["--model", str(model)],
              "train": ["--ranking", str(tmp_path / "ranking.csv")]}[command]
    rc = main([command, "--corpus", str(corpus), "--splits", str(tmp_path / "splits"),
               *inputs, *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"refilter: error: {path}:1: expected header {lines[0]}, got {lines[1]!r}\n")
    assert not out.exists()


def test_ranking_with_another_header_is_refused(workspace, tmp_path, capsys, monkeypatch):
    root, corpus, splits, ranking, _ = workspace
    monkeypatch.chdir(tmp_path)
    rows = ranking.read_text(encoding="utf-8").splitlines()[1:]
    (tmp_path / "ranking.csv").write_text("".join(f"{line}\n" for line in ["nope", *rows]),
                                          encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["train", "--corpus", str(corpus), "--splits", str(splits),
               "--ranking", "ranking.csv", "--top-m", "10", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "refilter: error: ranking.csv:1: expected header ft_id,mean_abs_pearson,rank, "
        "got 'nope'\n")
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--lambda", "nan"), ("train", "--lambda", "1e400"), ("train", "--lambda", "-1"),
    ("train", "--lambda", "0"), ("curve", "--lambda", "0"),
    ("train", "--tol", "0"), ("curve", "--tol", "-1"), ("curve", "--max-iter", "-5"),
])
def test_invalid_hyper_flag_is_error(workspace, tmp_path, capsys, command, flag, value):
    root, corpus, splits, ranking, _ = workspace
    out = tmp_path / "out"
    rc = main([command, "--corpus", str(corpus), "--splits", str(splits),
               "--ranking", str(ranking), flag, value, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("refilter: error: field 'hyper.") and f"({flag})" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["batch_pos", "func", "command"])
def test_unknown_config_key_is_error(tmp_path, capsys, key):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"days": 5, key: 10}), encoding="utf-8")
    out = tmp_path / "c"
    rc = main(["synth", "--out", str(out), "--config", str(config_file)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("refilter: error:") and repr(key) in err and "synth" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value,flag", [
    ("days", 2.5, "--days"),
    ("num_recipients", 4.0, "--num-recipients"),
    ("retweet_rate", "high", "--retweet-rate"),
    ("days", True, "--days"),
    ("out", 5, "--out"),
])
def test_config_value_the_flag_refuses_is_error(tmp_path, capsys, key, value, flag):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "c"
    rc = main(["synth", "--out", str(out), "--config", str(config_file)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("refilter: error: config ")
    assert f"{key!r} ({flag})" in err
    assert not out.exists()


def test_config_key_given_twice_is_error(tmp_path, capsys):
    config_file = tmp_path / "run.json"
    config_file.write_text('{"num_recipients": 4, "neighbours_per_user": 3, '
                           '"days": 3, "days": 2}', encoding="utf-8")
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), "--config", str(config_file)]) == 1
    assert capsys.readouterr().err == (
        f"refilter: error: cannot read config {config_file}: field 'days' is given twice\n")
    assert not out.exists()


def test_config_values_parse_as_their_flags(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"signal_strength": 2, "num_recipients": "4",
                                       "neighbours_per_user": 3, "days": 3}), encoding="utf-8")
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), "--config", str(config_file)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["signal_strength"] == 2.0
    assert isinstance(manifest["config"]["signal_strength"], float)
    assert manifest["config"]["num_recipients"] == 4


@pytest.mark.parametrize("flag,value,bound,shown", [
    ("--signal-strength", "nan", "a finite number >= 0", "nan"),
    ("--posts-per-day", "-1", "a finite number >= 0", "-1.0"),
    ("--forward-rate", "1.5", "a number in [0, 1]", "1.5"),
    ("--forward-rate", "-1", "a number in [0, 1]", "-1.0"),
])
def test_bad_generator_setting_names_the_field_and_flag(tmp_path, capsys, flag, value, bound,
                                                        shown):
    out = tmp_path / "c"
    rc = main(["synth", "--out", str(out), "--num-recipients", "4",
               "--neighbours-per-user", "3", "--days", "3", flag, value])
    assert rc == 1
    field = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == (
        f"refilter: error: field 'config.{field}' ({flag}) must be {bound}, got {shown}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags,field,bound,shown", [
    (["--recipient-posts-per-day", "1e19"], "recipient_posts_per_day",
     "at most 9.22337e+18 / config.days (3), numpy's Poisson limit on a user's "
     "expected post count", "1e+19"),
    (["--days", "200000000000000", "--posts-per-day", "1e-12"], "days",
     "an integer in 1..106751991151096, so that every timestamp fits in 64 bits",
     "200000000000000"),
], ids=["poisson-mean", "timeline"])
def test_generator_setting_numpy_cannot_take_names_the_field_and_flag(
        tmp_path, capsys, flags, field, bound, shown):
    out = tmp_path / "c"
    rc = main(["synth", "--out", str(out), "--num-recipients", "4",
               "--neighbours-per-user", "3", "--days", "3", *flags])
    assert rc == 1
    flag = "--" + field.replace("_", "-")
    assert capsys.readouterr().err == (
        f"refilter: error: field 'config.{field}' ({flag}) must be {bound}, got {shown}\n")
    assert not out.exists()


def test_config_equals_form_reads_the_file(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"num_recipients": 4, "neighbours_per_user": 3,
                                       "days": 3}), encoding="utf-8")
    outs = []
    for form in (["--config", str(config_file)], [f"--config={config_file}"]):
        out = tmp_path / str(len(outs))
        assert main(["synth", "--out", str(out), "--seed", "2", *form]) == 0
        outs.append({name: (out / name).read_bytes() for name in os.listdir(out)})
    assert outs[0] == outs[1]
    assert json.loads(outs[1]["manifest.json"])["config"]["num_recipients"] == 4


def test_missing_config_file_is_error_in_either_form(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    for form in (["--config", str(absent)], [f"--config={absent}"]):
        out = tmp_path / "c"
        assert main(["synth", "--out", str(out), *form]) == 1
        assert capsys.readouterr().err.startswith(f"refilter: error: cannot read config {absent}: ")
        assert not out.exists()


def test_only_synth_and_build_take_a_seed(workspace, tmp_path, capsys):
    root, corpus, splits, *_ = workspace
    _, subparsers = build_parser()
    seeded = {name for name, p in subparsers.items()
              if any("--seed" in action.option_strings for action in p._actions)}
    assert seeded == {"synth", "build"}
    assert sum(len(_options(p)) for p in subparsers.values()) == 80
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--corpus", str(corpus), "--splits", str(splits), "--seed", "1",
              "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    assert main(["rank", "--corpus", str(corpus), "--splits", str(splits),
                 "--config", str(config_file), "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == (
        f"refilter: error: config {config_file} has keys that are not options of rank: 'seed'\n")


def test_top_m_is_checked_only_when_the_ranking_is_read(workspace, tmp_path):
    root, corpus, splits, *_ = workspace
    out = tmp_path / "m.json"
    assert main(["train", "--corpus", str(corpus), "--splits", str(splits),
                 "--features", "10,43", "--top-m", "99", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["selected_features"] == [10, 43]


@pytest.mark.parametrize("command,flags,env,message", [
    ("synth", ["--seed", "-1"], None, "--seed must be an integer >= 0, got -1"),
    ("build", ["--seed", "-1"], None, "--seed must be an integer >= 0, got -1"),
    ("synth", [], "-5", "REFILTER_SEED must be an integer >= 0, got '-5'"),
    ("synth", [], "abc", "REFILTER_SEED must be an integer >= 0, got 'abc'"),
    ("build", [], "abc", "REFILTER_SEED must be an integer >= 0, got 'abc'"),
], ids=["synth-flag", "build-flag", "synth-env-negative", "synth-env-text", "build-env-text"])
def test_bad_seed_names_its_channel(workspace, tmp_path, capsys, monkeypatch, command, flags,
                                    env, message):
    root, corpus, *_ = workspace
    if env is not None:
        monkeypatch.setenv("REFILTER_SEED", env)
    out = tmp_path / "out"
    inputs = ["--num-recipients", "4"] if command == "synth" else ["--corpus", str(corpus)]
    assert main([command, *inputs, "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"refilter: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,field,users", [
    (["--num-recipients", "9" * 23], "num_recipients", 10**23 + 5),
    (["--neighbours-per-user", "9" * 23], "neighbours_per_user", 2 * (10**23 - 1) + 4),
], ids=["recipients", "neighbours"])
def test_user_ids_beyond_64_bits_name_the_field_and_flag(tmp_path, capsys, flags, field, users):
    out = tmp_path / "c"
    rc = main(["synth", "--out", str(out), "--num-recipients", "4",
               "--neighbours-per-user", "3", *flags])
    assert rc == 1
    flag = "--" + field.replace("_", "-")
    assert capsys.readouterr().err == (
        f"refilter: error: field 'config.{field}' ({flag}) must be small enough that the "
        f"{users} user ids fit in 64 bits, got {'9' * 23}\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# every option of every subcommand, fed values it must refuse

HOSTILE = ("nan", "inf", "-1", "0", "1e400", "9" * 23)
# options that name a file or directory, where any string is a name
PATH_OPTIONS = {"config", "out", "corpus", "splits", "model", "ranking", "report"}
# the hostile values an option accepts; it must refuse the others. A huge
# split size passes its own check, and the corpus refuses it by its flag.
ACCEPTED = {
    "seed": {"0", "9" * 23},
    "signal_strength": {"0", "9" * 23},
    **dict.fromkeys(["posts_per_day", "recipient_posts_per_day", "forward_rate"], {"0"}),
    **dict.fromkeys(["cap", "reg_lambda", "tol", "max_iter"], {"9" * 23}),
}


def _options(parser):
    return [action for action in parser._actions if action.option_strings and action.dest != "help"]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_every_option_refuses_hostile_values_by_name(workspace, tmp_path, capsys, monkeypatch):
    root, corpus, splits, ranking, model = workspace
    out = tmp_path / "out"
    tables = ["--corpus", str(corpus), "--splits", str(splits), "--out", str(out)]
    # valid inputs without the fed option; train reads the ranking, so --top-m
    # counts, and curve ranks the train rows itself, so --folds counts
    bases = {
        "synth": ["--out", str(out)],
        "build": ["--corpus", str(corpus), "--out", str(out)],
        "rank": tables,
        "train": [*tables, "--ranking", str(ranking)],
        "eval": [*tables, "--model", str(model)],
        "curve": tables,
        "score": [*tables, "--model", str(model)],
        "scatter": [*tables, "--model", str(model), "--ft-a", "10", "--ft-b", "43"],
    }
    _, subparsers = build_parser()
    assert set(bases) == set(subparsers)
    config_file = tmp_path / "run.json"
    fed = 0
    for command, parser in subparsers.items():
        for action in _options(parser):
            if action.dest in PATH_OPTIONS:
                continue
            flag = max(action.option_strings, key=len)
            names = [flag, "REFILTER_SEED" if action.dest == "seed" else action.dest]
            for value in set(HOSTILE) - ACCEPTED.get(action.dest, set()):
                # a config holds a number as a JSON number, and anything else
                # as a JSON string; a required option always comes from its flag
                literal = {"nan": "NaN", "inf": "Infinity"}.get(value, value)
                config_file.write_text(
                    f'{{"{action.dest}": {literal if action.type else json.dumps(value)}}}',
                    encoding="utf-8")
                channels = [([flag, value], None), ([f"{flag}={value}"], None)]
                if not action.required:
                    channels += [(["--config", str(config_file)], None),
                                 ([f"--config={config_file}"], None)]
                if action.dest == "seed":
                    channels.append(([], value))
                for args, env in channels:
                    if env is None:
                        monkeypatch.delenv("REFILTER_SEED", raising=False)
                    else:
                        monkeypatch.setenv("REFILTER_SEED", env)
                    case = f"{command} {args} REFILTER_SEED={env}"
                    assert _exit_code([command, *bases[command], *args]) in (1, 2), case
                    err = capsys.readouterr().err
                    assert "Traceback" not in err, case
                    assert any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", err)
                               for name in names), (case, err)
                    assert not out.exists(), case
                    fed += 1
    assert fed > 600
