import json
import os
import shutil

import pytest

from refilter import corpus_io, experiments
from refilter.cli import main
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


def test_scatter_on_wrong_model_fails(workspace, tmp_path, capsys):
    root, corpus, splits, ranking, model = workspace
    rc = main(["scatter", "--corpus", str(corpus), "--splits", str(splits),
               "--model", str(model), "--eval-set", "dev_balanced",
               "--ft-a", "10", "--ft-b", "43", "--out", str(tmp_path / "x.csv")])
    assert rc == 1


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
    rc = main(["synth", "--out", str(tmp_path / "c"), "--config"])
    assert rc == 1
    assert capsys.readouterr().err == "refilter: error: --config needs a file path\n"


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
    ("train", (13, 13), ["--top-m", "2"], "feature FT13 is selected twice"),
    ("curve", (13, 13), ["--top-m", "2"], "feature FT13 is selected twice"),
    ("train", (13,), ["--top-m", "10"], "top_m=10 exceeds the 1 features the ranking lists"),
    ("curve", (13,), ["--top-m", "10"], "top_m=10 exceeds the 1 features the ranking lists"),
])
def test_repeated_or_missing_feature_selection_is_error(workspace, tmp_path, capsys, command,
                                                        ranked, flags, named):
    root, corpus, splits, *_ = workspace
    if ranked is not None:  # the feature ids of a ranking file, in rank order
        ranking = tmp_path / "ranking.csv"
        ranking.write_text("ft_id,mean_abs_pearson,rank\n" + "".join(
            f"{ft},0.5,{r}\n" for r, ft in enumerate(ranked, start=1)), encoding="utf-8")
        flags = ["--ranking", str(ranking), *flags]
    out = tmp_path / "out"
    rc = main([command, "--corpus", str(corpus), "--splits", str(splits), *flags,
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"refilter: error: {named}\n"
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
    ("--publisher-pool", "-3", "an integer >= 0", "-3"),
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
