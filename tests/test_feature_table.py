"""The feature table the CLI saves in a splits directory: every featurizing
command writes the same bytes whether the table is computed or read, and
any change to an input the table depends on forces a recompute."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tracemalloc
import zipfile

import numpy as np
import pytest

from refilter import corpus_io, experiments
from refilter.cli import TABLE_FILE, main
from refilter.experiments import FeatureTable, read_table, write_table

SYNTH_FLAGS = [
    "--num-recipients", "10", "--neighbours-per-user", "6", "--days", "20",
    "--retweet-rate", "0.35", "--signal-strength", "8.0", "--posts-per-day", "2.0",
]
BUILD_FLAGS = [
    "--batch-pos", "25", "--batch-neg", "25", "--train-batches", "8",
    "--dev-batches", "2", "--test-batches", "2", "--unbalanced-pos-per-batch", "2",
]
# the README walkthrough after `build`, on relative paths
COMMANDS = (
    ("rank", ["rank", "--out", "ranking.csv"]),
    ("train", ["train", "--ranking", "ranking.csv", "--top-m", "10", "--out", "model.json"]),
    ("eval", ["eval", "--model", "model.json", "--eval-set", "dev_balanced",
              "--out", "metrics.csv"]),
    ("curve", ["curve", "--top-m", "5", "--eval-set", "dev_balanced", "--out", "curve.csv"]),
    ("score", ["score", "--model", "model.json", "--split", "dev_unbalanced",
               "--out", "scores.csv"]),
    ("train_pair", ["train", "--features", "10,43", "--out", "two.json"]),
    ("scatter", ["scatter", "--model", "two.json", "--eval-set", "dev_unbalanced",
                 "--ft-a", "10", "--ft-b", "43", "--out", "scatter.csv"]),
)
OUTPUTS = ("ranking.csv", "model.json", "metrics.csv", "curve.csv", "scores.csv",
           "two.json", "scatter.csv")


def _build(root, *extra):
    """`build` in `root`, on relative paths."""
    home = os.getcwd()
    os.chdir(root)
    try:
        return main(["build", "--corpus", "corpus", "--out", "splits", "--seed", "3",
                     *BUILD_FLAGS, *extra])
    finally:
        os.chdir(home)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A corpus and its splits, with no feature table."""
    root = tmp_path_factory.mktemp("inputs")
    assert main(["synth", "--out", str(root / "corpus"), "--seed", "5", *SYNTH_FLAGS]) == 0
    assert _build(root) == 0
    (root / "splits" / TABLE_FILE).unlink()  # the table `build` saved
    return root


def _copy(inputs, dest):
    shutil.copytree(inputs, dest)
    return dest


@pytest.fixture
def loads(monkeypatch):
    """Counts corpus parses; `loads.forbid()` makes any parse fail."""

    class Loads:
        count = 0
        allowed = True

        def forbid(self):
            self.allowed = False

    counter = Loads()
    original = corpus_io.load_corpus

    def counting(*paths):
        assert counter.allowed, "the corpus was parsed although the table was saved"
        counter.count += 1
        return original(*paths)

    monkeypatch.setattr(corpus_io, "load_corpus", counting)
    return counter


def _walk(root, extra=(), cold=False):
    """Run the walkthrough commands in `root`; with `cold`, delete the
    table before each. Returns every output file's bytes and every stdout."""
    seen = {}
    home = os.getcwd()
    os.chdir(root)
    try:
        for name, argv in COMMANDS:
            if cold:
                (root / "splits" / TABLE_FILE).unlink(missing_ok=True)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([*argv, "--corpus", "corpus", "--splits", "splits", *extra])
            assert code == 0, name
            seen[f"stdout:{name}"] = out.getvalue()
    finally:
        os.chdir(home)
    for name in OUTPUTS:
        seen[name] = (root / name).read_bytes()
    return seen


def _run(root, *argv):
    home = os.getcwd()
    os.chdir(root)
    try:
        return main([*argv, "--corpus", "corpus", "--splits", "splits"])
    finally:
        os.chdir(home)


@pytest.fixture(scope="module")
def cold_outputs(inputs, tmp_path_factory):
    """The walkthrough's outputs with the table recomputed by every command."""
    return _walk(_copy(inputs, tmp_path_factory.mktemp("cold") / "w"), cold=True)


def test_cold_and_warm_commands_write_identical_bytes(inputs, cold_outputs, tmp_path, loads):
    root = _copy(inputs, tmp_path / "warm")
    assert _run(root, "curve", "--out", "c.csv") == 0
    assert loads.count == 1 and (root / "splits" / TABLE_FILE).is_file()
    loads.forbid()
    assert _walk(root) == cold_outputs


def test_table_bytes_do_not_depend_on_the_run(inputs, tmp_path, capsys):
    a = _copy(inputs, tmp_path / "a")
    b = _copy(inputs, tmp_path / "b")
    assert _run(a, "rank", "--out", "r.csv") == 0
    # a command that fails before featurizing saves nothing
    assert _run(b, "score", "--model", "absent.json", "--out", "s.csv") == 1
    assert not (b / "splits" / TABLE_FILE).exists()
    assert _run(b, "curve", "--out", "c.csv") == 0
    assert (a / "splits" / TABLE_FILE).read_bytes() == (b / "splits" / TABLE_FILE).read_bytes()


def _corpus_only(inputs, dest):
    dest.mkdir()
    shutil.copytree(inputs / "corpus", dest / "corpus")
    return dest


def test_build_and_the_walkthrough_parse_the_corpus_once(inputs, cold_outputs, tmp_path,
                                                          loads):
    root = _corpus_only(inputs, tmp_path / "w")
    assert _build(root) == 0
    assert loads.count == 1
    assert _walk(root) == cold_outputs
    assert loads.count == 1


def test_build_saves_the_table_rank_would_compute(inputs, tmp_path, loads):
    root = _corpus_only(inputs, tmp_path / "w")
    assert _build(root) == 0
    path = root / "splits" / TABLE_FILE
    built = path.read_bytes()
    path.unlink()
    assert _run(root, "rank", "--out", "r.csv") == 0
    assert loads.count == 2
    assert path.read_bytes() == built


def test_build_table_is_keyed_by_its_pipeline_flags(inputs, tmp_path, loads):
    root = _corpus_only(inputs, tmp_path / "w")
    assert _build(root, "--cap", "50") == 0
    assert _run(root, "rank", "--cap", "50", "--out", "r.csv") == 0
    assert loads.count == 1  # same flags: a hit
    assert _run(root, "rank", "--out", "r.csv") == 0
    assert loads.count == 2  # the default cap: a miss, recomputed and saved
    fresh = _corpus_only(inputs, tmp_path / "fresh")
    assert _build(fresh) == 0
    table = (root / "splits" / TABLE_FILE).read_bytes()
    assert table == (fresh / "splits" / TABLE_FILE).read_bytes()


def _flip_first_train_label(root):
    first = int((root / "splits" / "train_ids.csv").read_text().splitlines()[1].split(",")[1])
    path = root / "corpus" / "instances.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["instance_id"] == first:
            record["label"] = 1 - record["label"]
            lines[i] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _swap_one_split_id(root):
    """Replace the first dev_unbalanced id with a dev_balanced id it lacks."""
    splits = root / "splits"
    balanced = splits.joinpath("dev_balanced_ids.csv").read_text().splitlines()[1:]
    path = splits / "dev_unbalanced_ids.csv"
    lines = path.read_text().splitlines()
    lines[1] = next(iid for iid in balanced if iid not in lines)
    path.write_text("\n".join(lines) + "\n")


CHANGES = {
    "label": (_flip_first_train_label, ()),
    "split_id": (_swap_one_split_id, ()),
    "cap": (None, ("--cap", "5")),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_changed_input_recomputes_the_table(inputs, tmp_path, loads, change):
    edit, flags = CHANGES[change]
    warm = _copy(inputs, tmp_path / "warm")
    _walk(warm)
    assert loads.count == 1
    fresh = _copy(inputs, tmp_path / "fresh")
    if edit is not None:
        edit(warm)
        edit(fresh)
    changed = _walk(warm, extra=flags)
    assert loads.count == 2  # the first command recomputed, the rest reused
    assert changed == _walk(fresh, extra=flags)
    table = (warm / "splits" / TABLE_FILE).read_bytes()
    assert table == (fresh / "splits" / TABLE_FILE).read_bytes()


@pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "other_key"])
def test_damaged_table_is_recomputed(inputs, cold_outputs, tmp_path, loads, damage):
    root = _copy(inputs, tmp_path / "w")
    assert _run(root, "rank", "--out", "r.csv") == 0
    path = root / "splits" / TABLE_FILE
    good = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(good[: len(good) // 2])
    elif damage == "garbage":
        path.write_bytes(bytes(range(256)) * 64)
    elif damage == "empty":
        path.write_bytes(b"")
    else:
        with np.load(path) as data:
            table = FeatureTable(ids=data["ids"], X=data["X"], y=data["y"])
        write_table(path, table, "0" * 64)
    assert _walk(root) == cold_outputs
    assert loads.count == 2
    assert path.read_bytes() == good


def test_unwritable_table_path_changes_nothing(inputs, cold_outputs, tmp_path, loads):
    root = _copy(inputs, tmp_path / "w")
    # a directory where the table file belongs: it can be neither read nor
    # replaced, whoever runs the test
    (root / "splits" / TABLE_FILE).mkdir()
    before = sorted(p.name for p in (root / "splits").iterdir())
    assert _walk(root) == cold_outputs
    assert loads.count == len(COMMANDS)
    assert sorted(p.name for p in (root / "splits").iterdir()) == before


@pytest.mark.parametrize("command", ["rank", "eval"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_bad_cap_fails_with_a_saved_table(inputs, tmp_path, capsys, loads, command, cap):
    root = _copy(inputs, tmp_path / "w")
    _walk(root)
    loads.forbid()
    capsys.readouterr()
    assert _run(root, *dict(COMMANDS)[command], "--cap", cap) == 1
    err = capsys.readouterr().err
    assert err == f"refilter: error: history cap must be an integer >= 1, got cap={cap}\n"


def test_malformed_split_file_fails_with_a_saved_table(inputs, tmp_path, capsys, loads):
    root = _copy(inputs, tmp_path / "w")
    _walk(root)
    loads.forbid()
    path = root / "splits" / "train_ids.csv"
    lines = path.read_text().splitlines()
    lines[3] = "99," + lines[3].split(",")[1]
    path.write_text("\n".join(lines) + "\n")
    assert _run(root, "rank", "--out", "r.csv") == 1
    assert capsys.readouterr().err.endswith("train_ids.csv:4: batch 99 outside 0..7\n")


def _split_lines(root, name):
    return (root / "splits" / f"{name}_ids.csv").read_text().splitlines()


def _write_split_lines(root, name, lines):
    (root / "splits" / f"{name}_ids.csv").write_text("\n".join(lines) + "\n")


def _append_row(root, name, row):
    """Append `row` to a split file; returns its line number."""
    lines = _split_lines(root, name)
    _write_split_lines(root, name, [*lines, row])
    return len(lines) + 1


def _train_id_twice(root):
    row = _split_lines(root, "train")[1]
    line = _append_row(root, "train", row)
    iid = row.split(",")[1]
    return f"train_ids.csv:{line}: instance_id {iid} is listed twice, first on line 2"


def _dev_balanced_id_in_train(root):
    iid = _split_lines(root, "dev_balanced")[1]
    line = _append_row(root, "train", f"0,{iid}")
    return (f"dev_balanced_ids.csv:2: instance_id {iid} is listed twice, "
            f"first on {os.path.join('splits', 'train_ids.csv')}:{line}")


def _test_balanced_id_in_dev_balanced(root):
    iid = _split_lines(root, "test_balanced")[1]
    line = _append_row(root, "dev_balanced", iid)
    return (f"test_balanced_ids.csv:2: instance_id {iid} is listed twice, "
            f"first on {os.path.join('splits', 'dev_balanced_ids.csv')}:{line}")


def _dev_unbalanced_id_twice(root):
    iid = _split_lines(root, "dev_unbalanced")[1]
    line = _append_row(root, "dev_unbalanced", iid)
    return f"dev_unbalanced_ids.csv:{line}: instance_id {iid} is listed twice, first on line 2"


def _unbalanced_id_not_in_its_balanced_set(root):
    # a test_balanced id in place of the first dev_unbalanced id
    iid = _split_lines(root, "test_balanced")[1]
    lines = _split_lines(root, "dev_unbalanced")
    lines[1] = iid
    _write_split_lines(root, "dev_unbalanced", lines)
    return (f"dev_unbalanced_ids.csv:2: instance_id {iid} is not in "
            f"{os.path.join('splits', 'dev_balanced_ids.csv')}")


# what `build` never writes: an edit of the split files, returning the end
# of the error after the splits directory
UNWRITTEN_SPLITS = {
    "train_id_twice": _train_id_twice,
    "dev_balanced_id_in_train": _dev_balanced_id_in_train,
    "test_balanced_id_in_dev_balanced": _test_balanced_id_in_dev_balanced,
    "dev_unbalanced_id_twice": _dev_unbalanced_id_twice,
    "unbalanced_id_not_in_its_balanced_set": _unbalanced_id_not_in_its_balanced_set,
}


@pytest.mark.parametrize("saved", [True, False], ids=["saved_table", "no_table"])
@pytest.mark.parametrize("case", sorted(UNWRITTEN_SPLITS))
def test_split_ids_build_never_writes_are_refused(inputs, tmp_path, capsys, loads, case,
                                                  saved):
    root = _copy(inputs, tmp_path / "w")
    if saved:
        _walk(root)
    loads.forbid()
    message = UNWRITTEN_SPLITS[case](root)
    capsys.readouterr()
    assert _run(root, "rank", "--out", "r.csv") == 1
    assert capsys.readouterr().err == f"refilter: error: {os.path.join('splits', message)}\n"
    assert not (root / "r.csv").exists()


def test_train_batch_without_rows_fails_with_a_saved_table(inputs, tmp_path, capsys, loads):
    # a manifest that promises more train batches than train_ids.csv holds
    # would give curve points over empty batches, each repeating the last k
    root = _copy(inputs, tmp_path / "w")
    _walk(root)
    path = root / "splits" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["spec"]["train_batches"] = 12
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert _run(root, "curve", "--top-m", "5", "--out", "c.csv") == 1
    named = os.path.join("splits", "train_ids.csv")
    assert capsys.readouterr().err == f"refilter: error: {named}: train batch 8 has no rows\n"
    assert loads.count == 1 and not (root / "c.csv").exists()


# name: (an edit of the parsed manifest, or None to cut its JSON short;
# the start of the error after the file name)
BAD_MANIFESTS = {
    "not_json": (None, "not valid JSON: "),
    "no_spec": (lambda m: m.pop("spec"), "lacks the field 'spec'\n"),
    "missing_key": (lambda m: m["spec"].pop("seed"), "lacks the field 'spec.seed'\n"),
    "null_count": (lambda m: m["spec"].update(unbalanced_pos_per_batch=None),
                   "lacks the field 'spec.unbalanced_pos_per_batch'\n"),
    "extra_key": (lambda m: m["spec"].update(extra=1), "unknown field(s) 'spec.extra'\n"),
    "string_count": (lambda m: m["spec"].update(train_batches="4"),
                     "field 'spec.train_batches' (--train-batches) must be an integer >= 1, "
                     "got '4'\n"),
    "bool_count": (lambda m: m["spec"].update(dev_batches=True),
                   "field 'spec.dev_batches' (--dev-batches) must be an integer >= 1, "
                   "got True\n"),
    "zero_batches": (lambda m: m["spec"].update(train_batches=0),
                     "field 'spec.train_batches' (--train-batches) must be an integer >= 1, "
                     "got 0\n"),
}


@pytest.mark.parametrize("bad", sorted(BAD_MANIFESTS))
def test_bad_manifest_names_the_file_and_field(inputs, tmp_path, capsys, loads, bad):
    root = _copy(inputs, tmp_path / "w")
    _walk(root)
    loads.forbid()
    edit, message = BAD_MANIFESTS[bad]
    path = root / "splits" / "manifest.json"
    text = path.read_text(encoding="utf-8")
    if edit is None:
        text = text[:-3]
    else:
        manifest = json.loads(text)
        edit(manifest)
        text = json.dumps(manifest)
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert _run(root, "rank", "--out", "r.csv") == 1
    err = capsys.readouterr().err
    named = os.path.join("splits", "manifest.json")
    assert err.startswith(f"refilter: error: {named}: {message}")
    assert err.count("\n") == 1


def test_split_naming_an_unknown_instance_fails_on_recompute(inputs, tmp_path, capsys, loads):
    root = _copy(inputs, tmp_path / "w")
    _walk(root)
    table = (root / "splits" / TABLE_FILE).read_bytes()
    known = [json.loads(line)["instance_id"]
             for line in (root / "corpus" / "instances.jsonl").read_text().splitlines()]
    unknown = max(known) + 1
    path = root / "splits" / "train_ids.csv"
    lines = path.read_text().splitlines()
    lines[5] = f"{lines[5].split(',')[0]},{unknown}"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _run(root, "rank", "--out", "r.csv") == 1
    assert loads.count == 2  # the edit changed the table key: recomputed
    err = capsys.readouterr().err
    named = os.path.join("splits", "train_ids.csv")
    assert err == f"refilter: error: {named}: instance_id {unknown} is not in the corpus\n"
    assert (root / "splits" / TABLE_FILE).read_bytes() == table


def test_bad_idf_source_in_config_fails_with_a_saved_table(inputs, tmp_path, capsys, loads):
    root = _copy(inputs, tmp_path / "w")
    _walk(root)
    loads.forbid()
    # the IDF is always built from the history events: no option names it
    (root / "run.json").write_text(json.dumps({"idf_source": "history"}), encoding="utf-8")
    capsys.readouterr()
    assert _run(root, "rank", "--out", "r.csv", "--config", "run.json") == 1
    assert capsys.readouterr().err == (
        "refilter: error: config run.json has keys that are not options of rank: 'idf_source'\n")


def test_table_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ids = np.array([7, 3, 11], dtype=np.int64)
    table = FeatureTable(ids=ids, X=rng.normal(size=(3, 50)), y=np.array([1, 0, 1]))
    path = tmp_path / TABLE_FILE
    write_table(path, table, "k" * 64)
    first = path.read_bytes()
    back = read_table(path, "k" * 64, [3, 7, 11])
    assert np.array_equal(back.ids, ids)
    assert np.array_equal(back.X, table.X) and np.array_equal(back.y, table.y)
    # the file is a plain .npz, stamped with no clock
    with np.load(path) as data:
        assert sorted(data.files) == ["X", "ids", "key", "y"]
    with zipfile.ZipFile(path) as zf:
        assert {member.date_time for member in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    # a key or an id set that differs is a miss
    assert read_table(path, "j" * 64, [3, 7, 11]) is None
    assert read_table(path, "k" * 64, [3, 7]) is None
    assert read_table(path, "k" * 64, [3, 7, 12]) is None
    write_table(path, table, "k" * 64)
    assert path.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == [TABLE_FILE]


def test_table_file_bytes_are_pinned(tmp_path):
    """The archive's bytes for a fixed table, as the in-memory writer of
    earlier versions produced them; the streamed writer must match."""
    ids = np.array([7, 3, 11], dtype=np.int64)
    X = np.arange(3 * 50, dtype=np.float64).reshape(3, 50) / 8.0
    X[1, 4] = -0.0
    y = np.array([1, 0, 1], dtype=np.int64)
    path = tmp_path / TABLE_FILE
    write_table(path, FeatureTable(ids=ids, X=X, y=y), "a fixed key")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cca82f5110256cbffd5130106c19a51d138e4229f73c2c9adefe50368163f778"
    )


def _member_arrays():
    rng = np.random.default_rng(8)
    big = rng.normal(size=(300, 500))  # 1.2 MB: more than one slice
    return {
        "C-order": big,
        "F-order": np.asfortranarray(big[:40, :30]),
        "strided": big[::3, 1::2],
        "0-d string": np.array("a fixed key"),
        "0-d float": np.array(-0.0),
        "int64": np.arange(-5, 1000, dtype=np.int64),
        "empty": np.empty((0, 50)),
        "bool": rng.random(77) < 0.5,
    }


@pytest.mark.parametrize("name", list(_member_arrays()))
def test_each_member_holds_the_bytes_numpy_writes(name):
    array = _member_arrays()[name]
    expected, got = io.BytesIO(), io.BytesIO()
    np.lib.format.write_array(expected, array, allow_pickle=False)
    experiments._write_member(got, array)
    assert got.getvalue() == expected.getvalue()


def test_an_object_array_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError, match="allow_pickle=False"):
        experiments._write_member(io.BytesIO(), np.array([1, "a"], dtype=object))


def test_writing_a_table_copies_none_of_its_arrays(tmp_path):
    """The archive is written from the arrays' own memory: the traced peak
    stays below a quarter of X's bytes, where a `tobytes()` copy of X
    alone would be all of them."""
    rng = np.random.default_rng(9)
    n = 8000  # X is 3.2 MB
    table = FeatureTable(ids=np.arange(n, dtype=np.int64), X=rng.normal(size=(n, 50)),
                         y=rng.integers(0, 2, n))
    tracemalloc.start()
    try:
        write_table(tmp_path / TABLE_FILE, table, "k" * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.X.nbytes / 4, peak
    assert read_table(tmp_path / TABLE_FILE, "k" * 64, table.ids.tolist()) is not None


def test_corrupted_table_file_reads_as_a_miss(tmp_path):
    """Seeded single-byte damage anywhere in the file: the read either
    fails cleanly (None) or returns the saved arrays unchanged."""
    rng = np.random.default_rng(5)
    ids = np.arange(4, dtype=np.int64)
    table = FeatureTable(ids=ids, X=rng.normal(size=(4, 50)), y=np.array([1, 0, 1, 0]))
    path = tmp_path / TABLE_FILE
    write_table(path, table, "k" * 64)
    good = path.read_bytes()
    damage = np.random.default_rng(6)
    for _ in range(300):
        data = bytearray(good)
        at = int(damage.integers(len(data)))
        data[at] ^= int(damage.integers(1, 256))
        path.write_bytes(bytes(data))
        back = read_table(path, "k" * 64, ids.tolist())
        if back is not None:
            assert np.array_equal(back.X, table.X) and np.array_equal(back.y, table.y)


def test_rows_by_id_finds_rows_in_the_order_asked_and_names_an_unknown_id():
    ids = np.array([7, 3, 11, 3], dtype=np.int64)
    X = np.arange(4 * 50, dtype=np.float64).reshape(4, 50)
    table = FeatureTable(ids=ids, X=X, y=np.array([1, 0, 1, 0]))
    got_X, got_y = table.rows_by_id([11, 7, 11])
    assert np.array_equal(got_X, X[[2, 0, 2]]) and got_y.tolist() == [1, 1, 1]
    # an id held twice addresses its last row
    assert np.array_equal(table.rows_by_id(np.array([3]))[0], X[[3]])
    assert table.rows_by_id([])[0].shape == (0, 50)
    for unknown in (2, 5, 12, 2**63, -(2**63) - 1, 1.5, True):
        with pytest.raises(KeyError) as caught:
            table.rows_by_id([3, unknown, 11])
        assert caught.value.args == (unknown,)
    empty = FeatureTable(ids=np.zeros(0, dtype=np.int64), X=np.zeros((0, 50)),
                         y=np.zeros(0, dtype=np.int64))
    with pytest.raises(KeyError, match="^7$"):
        empty.rows_by_id([7])
