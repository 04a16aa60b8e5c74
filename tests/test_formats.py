"""The files the CLI writes, checked against their declarations.

docs/FORMATS.md must give each CSV format's declared header, and the
fields of each JSON record the CLI reads back. Each file of
a small run is then read back under a fixed catalogue of mutations: the
reader must refuse a mutant, naming the file and the line or field, or
writing back what it read must give the mutant's exact bytes.
"""

import dataclasses
import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from refilter import cli, corpus_io, learner
from refilter.experiments import (
    CURVE_CSV,
    METRICS_CSV,
    RANKING_CSV,
    SCATTER_CSV,
    SCORES_CSV,
    SET_IDS_CSV,
    TRAIN_IDS_CSV,
    _fmt,
    read_csv,
    write_csv,
)

from test_cli import BUILD_FLAGS, SYNTH_FLAGS

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"

# what docs/FORMATS.md calls each CSV file: its declaration
DOCUMENTED = {
    "train_ids.csv": TRAIN_IDS_CSV,
    **{name: SET_IDS_CSV for name in ("dev_balanced_ids.csv", "dev_unbalanced_ids.csv",
                                      "test_balanced_ids.csv", "test_unbalanced_ids.csv")},
    "metrics": METRICS_CSV,
    "curve": CURVE_CSV,
    "ranking": RANKING_CSV,
    "scores": SCORES_CSV,
    "scatter": SCATTER_CSV,
}


def _section(heading: str) -> str:
    return next(section for section in FORMATS.read_text(encoding="utf-8").split("\n## ")
                if section.startswith(heading))


def test_formats_doc_gives_each_declared_header():
    documented = {}
    for heading in ("Split directory", "Analysis outputs"):
        for bullet in _section(heading).split("\n- ")[1:]:
            header = re.search(r"(?:header|first line)\s+`([^`]+)`", bullet)
            if header is None:
                continue
            # a bullet names its files in backticks before a dash, or its
            # output before the command in parentheses
            subject = bullet.split(" — ")[0] if " — " in bullet else bullet.split(" (")[0]
            for name in re.findall(r"`([\w.]+\.csv)`", subject) or [subject]:
                documented[name] = header[1]
    assert documented == {name: fmt.header for name, fmt in DOCUMENTED.items()}
    rows = re.search(r"then\s+`([^`]+)`\s+rows", _section("Analysis outputs"))
    assert rows[1] == SCATTER_CSV.names
    assert re.search(r"every reader refuses\s+a file whose first line is not its\s+header",
                     _section("Analysis outputs"))


def test_formats_doc_gives_each_json_record_field():
    """The model file's table and the manifest's `spec` list the names the
    record reader is given, in its order."""
    table = re.findall(r"^\| `([\w.]+)` ", _section("Model file"), flags=re.M)
    fields = learner.MODEL_FIELDS
    # each object's fields follow its own row
    assert table == [field for name in fields[""]
                     for field in (name, *(f"{name}.{inner}" for inner in fields.get(name, ())))]
    spec = re.search(r"`spec`: it must hold exactly the fields(.*?), each a JSON integer",
                     _section("Split directory"), flags=re.S)
    assert re.findall(r"`(\w+)`", spec[1]) == list(cli.SPEC_FIELDS)


@pytest.mark.parametrize("heading,table,cls", [
    ("profiles.jsonl", corpus_io._PROFILE_FIELDS, corpus_io.UserProfile),
    ("history.jsonl", corpus_io._EVENT_FIELDS, corpus_io.HistoryEvent),
    ("instances.jsonl", corpus_io._INSTANCE_FIELDS, corpus_io.Instance),
])
def test_formats_doc_and_record_class_give_each_corpus_field(heading, table, cls):
    """A corpus file's table lists the fields its loader declares, in
    order, and marks "optional" exactly those with a value when absent.
    The record class holds the same fields in the same order, which is
    the order in which a record is made from its columns."""
    section = next(part for part in _section("Corpus directory").split("\n### ")
                   if part.startswith(heading))
    rows = re.findall(r"^\| `(\w+)`\s*\|[^|]*\|(.*)\|$", section, flags=re.M)
    names = [name for name, _, _ in table]
    assert [name for name, _ in rows] == names
    assert [re.search(r"\boptional\b", notes) is not None for _, notes in rows] == [
        absent is not corpus_io._REQUIRED for _, _, absent in table]
    assert [field.name for field in dataclasses.fields(cls)] == names


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A small run's outputs, the corpus of tests/test_cli.py."""
    root = tmp_path_factory.mktemp("formats")
    paths = ["--corpus", str(root / "corpus"), "--splits", str(root / "splits")]
    for argv in (
        ["synth", "--out", str(root / "corpus"), "--seed", "5", *SYNTH_FLAGS],
        ["build", *paths[:2], "--out", str(root / "splits"), "--seed", "3", *BUILD_FLAGS],
        ["rank", *paths, "--out", str(root / "ranking.csv")],
        ["train", *paths, "--ranking", str(root / "ranking.csv"), "--out", str(root / "model.json")],
        ["train", *paths, "--features", "10,43", "--out", str(root / "two.json")],
        ["eval", *paths, "--model", str(root / "model.json"), "--out", str(root / "metrics.csv")],
        ["curve", *paths, "--ranking", str(root / "ranking.csv"), "--top-m", "5",
         "--out", str(root / "curve.csv")],
        ["score", *paths, "--model", str(root / "model.json"), "--out", str(root / "scores.csv")],
        ["scatter", *paths, "--model", str(root / "two.json"), "--ft-a", "10", "--ft-b", "43",
         "--out", str(root / "scatter.csv")],
    ):
        assert cli.main(argv) == 0
    return root


# values written into one field as the writer writes the field's kind
VALUES = {"nan": math.nan, "inf": math.inf, "-1": -1, "out_of_range": 2**63}


def _csv_mutants(lines: list[str], fmt) -> dict[str, list[str]]:
    """The catalogue's mutants of a CSV file's lines."""
    mutants = {}
    # each field of the first row, and each float that line 1 carries
    fields = [(1, name, kind) for name, kind in zip(fmt.names.split(","), fmt.kinds)]
    fields += [(0, name, float) for name in fmt.header.split(",") if name[0] == "<"]
    for line, name, kind in fields:
        c = (fmt.names if line else fmt.header).split(",").index(name)
        for label, value in VALUES.items():
            changed = lines[line].split(",")
            changed[c] = (_fmt if kind is float else str)(value)
            mutants[f"{label}_{name}"] = [*lines[:line], ",".join(changed), *lines[line + 1:]]
    mutants["repeated_key"] = [*lines, lines[1]]
    if len(lines) >= 3:
        mutants["rows_swapped"] = [lines[0], lines[2], lines[1], *lines[3:]]
    mutants["column_dropped"] = [line.rpartition(",")[0] for line in lines]
    mutants["column_added"] = [f"{line},0" for line in lines]
    mutants["row_column_dropped"] = [lines[0], lines[1].rpartition(",")[0], *lines[2:]]
    mutants["row_column_added"] = [lines[0], f"{lines[1]},0", *lines[2:]]
    mutants["empty"] = []
    mutants["header_alone"] = lines[:1]
    return mutants


# the run's CSV files: their declarations
WRITTEN = {
    "ranking.csv": RANKING_CSV,
    "curve.csv": CURVE_CSV,
    "metrics.csv": METRICS_CSV,
    "scores.csv": SCORES_CSV,
    "scatter.csv": SCATTER_CSV,
    "splits/train_ids.csv": TRAIN_IDS_CSV,
    "splits/dev_unbalanced_ids.csv": SET_IDS_CSV,
}


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_csv_mutants_are_refused_or_written_back_as_they_are(run, tmp_path, name):
    fmt = WRITTEN[name]
    spec = json.loads((run / "splits" / "manifest.json").read_text(encoding="utf-8"))["spec"]
    hi = spec["train_batches"] - 1
    lines = (run / name).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 if fmt is METRICS_CSV else lines[1] != lines[2]
    path, back = tmp_path / Path(name).name, tmp_path / "back.csv"
    bad = []
    for label, mutant in _csv_mutants(lines, fmt).items():
        path.write_text("".join(f"{line}\n" for line in mutant), encoding="utf-8")
        try:
            columns, head = read_csv(path, fmt, hi=hi)
        except ValueError as exc:
            named = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
            if named is None or not 1 <= int(named[1]) <= max(len(mutant), 1):
                bad.append(f"{label}: {exc}")
            continue
        write_csv(back, fmt, zip(*columns), head)
        if back.read_bytes() != path.read_bytes():
            bad.append(f"{label}: read, and written back as other bytes")
    assert not bad, "\n".join(bad)


def _leaves(record: dict, where: str = ""):
    """(dotted field, value) of each value of a JSON record that is not an
    object."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{where}{key}.")
        else:
            yield f"{where}{key}", value


def _objects(record: dict, where: str = ""):
    """(dotted prefix, object) of a JSON record and each object in it."""
    yield where, record
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _objects(value, f"{where}{key}.")


def _at(record: dict, where: str):
    for key in filter(None, where.split(".")):
        record = record[key]
    return record


def _set(record: dict, field: str, value) -> None:
    """Set a field of `record`, or the first element of a list field."""
    *outer, key = field.split(".")
    holder = _at(record, ".".join(outer))
    if isinstance(holder[key], list):
        holder[key][0] = value
    else:
        holder[key] = value


def _swap(holder, a, b) -> None:
    holder[a], holder[b] = holder[b], holder[a]


def _json_mutants(text: str, dump, read_part: str) -> dict[str, str]:
    """The catalogue's mutants of a JSON file that `dump` wrote, changed
    only under the field `read_part` (the whole record when empty)."""
    assert dump(json.loads(text)) == text
    read = _at(json.loads(text), read_part)
    colon = re.search(r'"k"(\s*:\s*)0', dump({"k": 0}))[1]  # as `dump` writes it
    mutants = {"empty": "", "no_fields": "{}"}

    def mutant(label, change):
        record = json.loads(text)
        change(_at(record, read_part))
        mutants[label] = dump(record)

    for field, value in _leaves(read):
        first = value[0] if isinstance(value, list) else value
        for label, new in VALUES.items():
            new = float(new) if type(first) is float else new
            mutant(f"{label}_{field}", lambda r, f=field, v=new: _set(r, f, v))
        if isinstance(value, list) and len(value) >= 2:
            mutant(f"rows_swapped_{field}", lambda r, f=field: _swap(_at(r, f), 0, 1))
        elif not isinstance(value, list):
            member = f"{json.dumps(field.split('.')[-1])}{colon}{json.dumps(value)}"
            if text.count(member) == 1:
                mutants[f"repeated_key_{field}"] = text.replace(member, f"{member},{member}")
    for where, obj in _objects(read):
        mutant(f"field_added_{where}", lambda r, w=where: _at(r, w).update(extra=0))
        for key in obj:
            mutant(f"field_dropped_{where}{key}", lambda r, w=where, k=key: _at(r, w).pop(k))
        mutant(f"fields_swapped_{where}", lambda r, w=where: _swap(_at(r, w), *list(_at(r, w))[:2]))
    return mutants


def _model_written_back(path: Path) -> str:
    return learner.model_to_json(cli._load_model(str(path))) + "\n"


def _manifest_written_back(path: Path) -> str:
    spec = cli._read_split_spec(path)
    # no command reads the counts: they are written back as the file holds them
    record = {**json.loads(path.read_text(encoding="utf-8")), "spec": asdict(spec)}
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


JSON_FILES = {
    "model.json": (lambda r: json.dumps(r, separators=(",", ":")) + "\n", "", _model_written_back),
    "splits/manifest.json": (lambda r: json.dumps(r, indent=2, sort_keys=True) + "\n", "spec",
                             _manifest_written_back),
}


@pytest.mark.parametrize("name", sorted(JSON_FILES))
def test_json_mutants_are_refused_or_written_back_as_they_are(run, tmp_path, name):
    dump, read_part, written_back = JSON_FILES[name]
    text = (run / name).read_text(encoding="utf-8")
    path = tmp_path / Path(name).name
    bad = []
    for label, mutant in _json_mutants(text, dump, read_part).items():
        path.write_text(mutant, encoding="utf-8")
        try:
            back = written_back(path)
        except ValueError as exc:
            rest = str(exc).removeprefix(f"{path}: ")
            if rest == str(exc) or not re.search(r"'[\w.]+'|line \d+", rest):
                bad.append(f"{label}: {exc}")
            continue
        if back != mutant:
            bad.append(f"{label}: read, and written back as other bytes")
    assert not bad, "\n".join(bad)
