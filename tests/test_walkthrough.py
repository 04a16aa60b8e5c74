"""The README's CLI walkthrough, run as written, and every check of what
it writes.

One module-scoped run executes the commands of the README's `sh` block
through `cli.main` in a temporary directory, counting the corpus parses,
history indexes and IDF builds. Each test below then checks one thing
about that run. Only files that no BLAS kernel or SIMD level changes are
pinned: the corpus and the split files. The model-dependent outputs
(`model.json`, `two.json`, `scores.csv`, `scatter.csv`) change with the
CPU, so they take part only in the same-machine comparison across BLAS
thread counts.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from refilter import cli, corpus_io, experiments, history, vectorspace
from test_cli import funnel_adds_up
from test_readme import _block

SRC = Path(cli.__file__).resolve().parents[1]

# the generator's own bytes: every random draw and exact similarity sum;
# and the split files, from string-seeded random.Random and sorts, so no
# BLAS kernel or SIMD level changes them
PINNED_SHA256 = {
    "corpus/profiles.jsonl": "86522a3e0a64da999582ab13ed65e1e4f618ea1b25b5e1f133fa9845f841bd61",
    "corpus/history.jsonl": "5956c7a42ddb19621b595cea3336c90a9016387e4d5576534c3f3b8344fac929",
    "corpus/instances.jsonl": "68684c7abd9fd1b778babe95b298f8caa2a0a1b483eb77cbfc6716043746b73f",
    "splits/train_ids.csv": "2f6dc2b7762a517a5f4a7266cd2c9d7a51ac39a4669657450a071e57f7e7987b",
    "splits/dev_balanced_ids.csv":
        "8800ffd4fc727e0b89ff508138725087ebcc96cd0eeb519f3543fa77ae1cabae",
    "splits/dev_unbalanced_ids.csv":
        "ad4a837e8553cb1d23c08f73f85cf3a909833ce3ea9f67fe0e0c8cf51e20524c",
    "splits/test_balanced_ids.csv":
        "01a308de55ea0265ac3c4a4cde004fc74f86daabcf0c6150c7a42ba70ef0314a",
    "splits/test_unbalanced_ids.csv":
        "9b774a583b0c1b6838f6d26071b0edb32a2bb0b9ca303b1d7bf9639ea2db77c6",
}
BAYES_F1_BAR = 0.90


def _commands() -> list[list[str]]:
    """The argv of each command in the README's sh block."""
    lines = _block("CLI walkthrough", "sh").replace("\\\n", " ").splitlines()
    return [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]


def _files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The directory the walkthrough wrote, and how often it called each
    of the three one-per-walkthrough builders."""
    root = tmp_path_factory.mktemp("walkthrough")
    commands = _commands()
    assert [argv[0] for argv in commands] == ["refilter"] * 9
    counts = {"load_corpus": 0, "UserHistoryIndex": 0, "build_idf": 0}

    def counting(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REFILTER_SEED", raising=False)  # `build` takes its seed from it
        mp.chdir(root)
        mp.setattr(corpus_io, "load_corpus", counting("load_corpus", corpus_io.load_corpus))
        mp.setattr(history.UserHistoryIndex, "__init__",
                   counting("UserHistoryIndex", history.UserHistoryIndex.__init__))
        mp.setattr(vectorspace, "build_idf", counting("build_idf", vectorspace.build_idf))
        for argv in commands:
            assert cli.main(argv[1:]) == 0, argv
    return root, counts


@pytest.fixture(scope="module")
def corpus(walkthrough):
    root, _ = walkthrough
    return corpus_io.load_corpus_dir(root / "corpus")


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_walkthrough_file_bytes_are_pinned(walkthrough, name):
    root, _ = walkthrough
    assert hashlib.sha256((root / name).read_bytes()).hexdigest() == PINNED_SHA256[name]


def test_walkthrough_parses_indexes_and_builds_the_idf_once(walkthrough):
    _, counts = walkthrough
    assert counts == {"load_corpus": 1, "UserHistoryIndex": 1, "build_idf": 1}


def test_generator_bayes_rule_clears_its_bar_on_dev_unbalanced(walkthrough, corpus):
    """The generator's own Bayes rule, from the planted quantities the
    oracle recomputes from the written corpus."""
    root, _ = walkthrough
    manifest = json.loads((root / "corpus" / corpus_io.MANIFEST_FILE).read_text(encoding="utf-8"))
    rows = (root / "splits" / cli.SPLIT_FILES["dev_unbalanced"]).read_text(encoding="utf-8")
    dev = [corpus.instance_by_id[int(row)] for row in rows.splitlines()[1:]]
    config = corpus_io.config_from_dict(manifest["config"])
    z = corpus_io.planted_decision_values(corpus, config, dev)
    f1 = experiments.metrics_from_predictions(z >= 0, [i.label for i in dev]).f1
    assert f1 >= BAYES_F1_BAR, f"Bayes-rule F1 {f1:.4f} on {len(dev)} dev_unbalanced instances"


def test_loaded_corpus_writes_back_its_own_bytes(walkthrough, corpus, tmp_path):
    root, _ = walkthrough
    corpus_io.write_corpus(corpus, *corpus_io.corpus_paths(tmp_path))
    for source, back in zip(corpus_io.corpus_paths(root / "corpus"),
                            corpus_io.corpus_paths(tmp_path)):
        assert back.read_bytes() == source.read_bytes(), source.name


def test_config_file_form_repeats_the_curve(walkthrough, tmp_path, monkeypatch):
    """The walkthrough's curve with a --top-m and --eval-set other than the
    defaults, from a `--config=FILE`, writes the bytes the same values
    give as flags, and not the default curve's; a missing file in that
    form is refused."""
    root, _ = walkthrough
    monkeypatch.chdir(root)
    config = tmp_path / "curve.json"
    config.write_text('{"top_m": 7, "eval_set": "dev_balanced"}\n', encoding="utf-8")
    curve = ["curve", "--corpus", "corpus", "--splits", "splits"]
    out = tmp_path / "curve-config.csv"
    assert cli.main([*curve, f"--config={config}", "--out", str(out)]) == 0
    flags = tmp_path / "curve-flags.csv"
    assert cli.main([*curve, "--top-m", "7", "--eval-set", "dev_balanced",
                     "--out", str(flags)]) == 0
    assert out.read_bytes() == flags.read_bytes()
    assert out.read_bytes() != (root / "curve.csv").read_bytes()
    absent = tmp_path / "absent.csv"
    assert cli.main(["curve", "--corpus", "corpus", "--splits", "splits",
                     f"--config={tmp_path / 'absent.json'}", "--out", str(absent)]) == 1
    assert not absent.exists()


def test_walkthrough_bytes_do_not_depend_on_the_blas_thread_count(walkthrough, tmp_path):
    """The sh block, verbatim, under bash in a fresh process on another
    OpenBLAS thread count: all 18 files equal the in-process run's."""
    root, _ = walkthrough
    shim = tmp_path / "bin"
    shim.mkdir()
    (shim / "refilter").write_text(f'#!/bin/sh\nexec "{sys.executable}" -m refilter.cli "$@"\n',
                                   encoding="utf-8")
    (shim / "refilter").chmod(0o755)
    script = tmp_path / "walkthrough.sh"
    script.write_text(_block("CLI walkthrough", "sh"), encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ,
               PATH=f"{shim}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=str(SRC),
               OPENBLAS_NUM_THREADS="2" if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else "1")
    env.pop("REFILTER_SEED", None)
    run = subprocess.run(["bash", "-euo", "pipefail", str(script)], cwd=work, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    expected = _files(root)
    assert len(expected) == 18
    got = _files(work)
    assert sorted(got) == sorted(expected)
    assert [name for name in expected if got[name] != expected[name]] == []


def test_build_report_counts_the_funnel_and_changes_no_output(walkthrough, tmp_path,
                                                             monkeypatch, capsys):
    """The README's build again with --report: its stdout names only the
    new directory, the split directory's bytes are the walkthrough's, and
    the report's funnel adds up to the counts the README corpus is known
    by (30,768 instances; 11,710 positives and 11,379 negatives kept)."""
    root, _ = walkthrough
    monkeypatch.chdir(root)
    build = next(argv[1:] for argv in _commands() if argv[1] == "build")
    out = tmp_path / "splits"
    build[build.index("--out") + 1] = str(out)
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main([*build, "--report", str(report)]) == 0
    assert capsys.readouterr() == (f"wrote 140 batches to {out}\n", "")
    assert _files(out) == _files(root / "splits")
    got = json.loads(report.read_text(encoding="utf-8"))
    assert got["command"] == "build" and got["error"] is None
    funnel = got["funnel"]
    funnel_adds_up(funnel)
    assert (funnel["instances"], funnel["positives_kept"], funnel["negatives_kept"]) \
        == (30768, 11710, 11379)
    assert (funnel["batches_achievable"], funnel["batches_requested"]) == (227, 140)
