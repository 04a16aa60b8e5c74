"""Command-line surface: synth, build, rank, train, eval, curve, score,
scatter.

Every subcommand reads/writes plain data files, takes all configuration
via flags, and honours `--config FILE` or `--config=FILE` (JSON flag
defaults; explicit flags win; a key given twice is refused). Only `synth`
and `build` take --seed, else the REFILTER_SEED environment variable.
Exit status is nonzero exactly on error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, astuple, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import corpus_io, experiments, features, history, learner, vectorspace
from .corpus_io import SyntheticConfig
from .experiments import EVAL_SETS, SplitSpec

SPLIT_FILES = {name: f"{name}_ids.csv" for name in ("train", *EVAL_SETS)}
SPLIT_MANIFEST = "manifest.json"
# the fields of the split manifest's `spec`
SPEC_FIELDS = tuple(f.name for f in fields(SplitSpec))
# the raw features of every split instance, saved by `build` and by any
# later command whose inputs changed the table key (docs/FORMATS.md)
TABLE_FILE = "feature_table.npz"


def _resolve_seed(value: int | None) -> int:
    """--seed, else REFILTER_SEED, else 0; ValueError names the channel of
    a seed that is not an integer >= 0 in decimal digits."""
    channel, text = "--seed", value
    if value is None:
        channel, text = "REFILTER_SEED", os.environ.get("REFILTER_SEED") or "0"
    if not str(text).isdecimal():
        raise ValueError(f"{channel} must be an integer >= 0, got {text!r}")
    return int(text)


def _add_dataclass_flags(parser: argparse.ArgumentParser, cls, skip=()) -> None:
    for f in fields(cls):
        if f.name in skip:
            continue
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, type=type(f.default), default=f.default)


def _config_from_args(args, cls):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _check_within(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{flag} must be in {lo}..{hi}, got {value}")


def _check_within_features(flag: str, value: int) -> None:
    """A feature id, or a count of features, is in 1..N_FEATURES."""
    _check_within(flag, value, 1, features.N_FEATURES)


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:  # False for nan
        raise ValueError(f"--threshold must lie in (0, 1), got {threshold}")


def _check_folds(folds: int, ids: experiments.SplitIds) -> None:
    """--folds cuts the train rows into at least two folds of one row or more."""
    if folds < 2:
        raise ValueError(f"--folds must be at least 2, got {folds}")
    if folds > len(ids.train):
        raise ValueError(f"--folds must be at most the {len(ids.train)} train rows, got {folds}")


def _parse_feature_list(text: str) -> tuple[int, ...]:
    try:
        ids = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        ids = ()
    if not ids:
        raise ValueError(f"--features takes comma-separated feature ids, got {text!r}")
    for ft in ids:
        _check_within_features("--features", ft)
    return ids


# ---------------------------------------------------------------------------
# shared pipeline plumbing


def _table_key(args, split_dir: Path) -> str:
    """sha256 over every input the feature table depends on: the corpus
    files, the split files, the history cap, this package's sources, and
    the Python and numpy versions."""
    import hashlib  # deferred: only the table lookup hashes

    def file_digest(path: Path) -> str:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
        return digest.hexdigest()

    parts = [
        f"python {sys.version}",
        f"numpy {np.__version__}",
        f"cap {args.cap}",
    ]
    parts += [f"corpus/{p.name} {file_digest(p)}" for p in corpus_io.corpus_paths(args.corpus)]
    for name in (*SPLIT_FILES.values(), SPLIT_MANIFEST):
        parts.append(f"splits/{name} {file_digest(split_dir / name)}")
    for source in sorted(Path(__file__).parent.glob("*.py")):
        parts.append(f"refilter/{source.name} {file_digest(source)}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _feature_context(args, corpus: corpus_io.Corpus,
                     hist: history.UserHistoryIndex) -> features.FeatureContext:
    idf = vectorspace.build_idf(corpus.events.values("tokens"))
    return features.FeatureContext(corpus, hist, idf, cap=args.cap)


def _save_table(path: Path, table: experiments.FeatureTable, key: str) -> None:
    try:
        experiments.write_table(path, table, key)
    except OSError:
        pass  # an unwritable splits directory only means the next command recomputes


def _split_table(args, check=None) -> tuple[experiments.SplitIds, experiments.FeatureTable]:
    """The split ids and the raw feature table of every split instance.

    The table is read from TABLE_FILE in the `--splits` directory when it
    was saved under the current `_table_key` (as `build` saves it).
    Otherwise it is computed from the corpus and saved there, replacing
    whatever the file held. Every flag and split file is checked before
    the lookup, so a bad input fails the same way whether or not the
    table is saved: `check(ids)`, when given, refuses the flags whose
    bounds need the split ids.
    """
    features.check_cap(args.cap)
    split_dir = Path(args.splits)
    ids = _read_split_ids(split_dir)
    if check is not None:
        check(ids)
    key = _table_key(args, split_dir)
    path = split_dir / TABLE_FILE
    members = ids.train + [iid for name in EVAL_SETS for iid in ids.eval_set(name)]
    table = experiments.read_table(path, key, members)
    if table is None:
        corpus = corpus_io.load_corpus_dir(args.corpus)
        try:
            rows = corpus_io.sorted_places(corpus.instances.column("instance_id"), members)
        except KeyError as exc:
            # the first file to list it: an unbalanced id is in its balanced set
            name = next(name for name in ("train", *EVAL_SETS)
                        if exc.args[0] in (ids.train if name == "train" else ids.eval_set(name)))
            raise ValueError(
                f"{split_dir / SPLIT_FILES[name]}: instance_id {exc.args[0]} is not in the corpus"
            ) from None
        ctx = _feature_context(args, corpus, history.UserHistoryIndex(corpus))
        table = experiments.featurize(ctx, corpus.instances.take(rows))
        _save_table(path, table, key)
    return ids, table


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="corpus directory")
    parser.add_argument("--cap", type=int, default=history.DEFAULT_CAP,
                        help="history collection size cap")


def _write_split_ids(splits: experiments.DatasetSplits, out_dir: Path) -> None:
    ids = splits.ids()
    experiments.write_csv(out_dir / SPLIT_FILES["train"], experiments.TRAIN_IDS_CSV, (
        (b, iid) for b, batch in enumerate(ids.train_batches) for iid in batch))
    for name in EVAL_SETS:
        experiments.write_csv(out_dir / SPLIT_FILES[name], experiments.SET_IDS_CSV,
                              ((iid,) for iid in ids.eval_set(name)))


def _read_split_spec(path: Path) -> SplitSpec:
    """The valid split spec of a manifest; ValueError names the file and
    the field."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"),
                              object_pairs_hook=corpus_io.json_object)
        spec = manifest.get("spec") if isinstance(manifest, dict) else None
        # a null count would ask SplitSpec for a default, not the count build used
        return SplitSpec(**corpus_io.json_record(spec, SPEC_FIELDS, "spec"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    except ValueError as exc:  # the record's fields, SplitSpec's, and a key given twice
        raise ValueError(f"{path}: {exc}") from None


def _read_split_ids(split_dir: Path) -> experiments.SplitIds:
    """The ids of a split directory. Each file is read by its format; then
    what `build` never writes across files is refused by file (and line):
    a train batch without rows, an id in two of train, dev_balanced and
    test_balanced, and an unbalanced id that its balanced set lacks."""
    spec = _read_split_spec(split_dir / SPLIT_MANIFEST)
    paths = {name: split_dir / file for name, file in SPLIT_FILES.items()}
    ids: dict[str, list[int]] = {}
    (batch_of, ids["train"]), _ = experiments.read_csv(
        paths["train"], experiments.TRAIN_IDS_CSV, hi=spec.train_batches - 1)
    for name in EVAL_SETS:
        (ids[name],), _ = experiments.read_csv(paths[name], experiments.SET_IDS_CSV)
    # the rows bound the manifest's count before it sizes a list
    present = set(batch_of)
    if len(present) < spec.train_batches:
        empty = next(b for b in itertools.count() if b not in present)
        raise ValueError(f"{paths['train']}: train batch {empty} has no rows")
    batches: list[list[int]] = [[] for _ in range(spec.train_batches)]
    for b, iid in zip(batch_of, ids["train"]):
        batches[b].append(iid)
    held: set[int] = set()
    for name in ("train", "dev_balanced", "test_balanced"):
        if not held.isdisjoint(ids[name]):
            lineno, iid = next((n, iid) for n, iid in enumerate(ids[name], start=2) if iid in held)
            other = next(other for other in ("train", "dev_balanced") if iid in ids[other])
            raise ValueError(f"{paths[name]}:{lineno}: instance_id {iid} is listed twice, "
                             f"first on {paths[other]}:{ids[other].index(iid) + 2}")
        held.update(ids[name])
    for name in ("dev_unbalanced", "test_unbalanced"):
        balanced = name.replace("_unbalanced", "_balanced")
        within = set(ids[balanced])
        for lineno, iid in enumerate(ids[name], start=2):
            if iid not in within:
                raise ValueError(
                    f"{paths[name]}:{lineno}: instance_id {iid} is not in {paths[balanced]}")
    return experiments.SplitIds(train_batches=batches,
                                eval_sets={name: ids[name] for name in EVAL_SETS})


def _write_json(path: str | Path, record: dict) -> None:
    """The synth and split manifests and the build report: JSON with sorted
    keys and a two-space indent."""
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _hyper_from_args(args) -> learner.Hyper:
    return learner.Hyper(lam=args.reg_lambda, tol=args.tol, max_iter=args.max_iter)


def _add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="reg_lambda", type=float, default=learner.Hyper.lam)
    parser.add_argument("--tol", type=float, default=learner.Hyper.tol,
                        help="Newton stops at a decrement <= tol * (1 + loss)")
    parser.add_argument("--max-iter", type=int, default=learner.Hyper.max_iter)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    config = _config_from_args(args, SyntheticConfig)
    corpus = corpus_io.generate_synthetic(config, seed)
    out = Path(args.out)
    corpus_io.write_corpus_dir(corpus, out)
    _write_json(out / corpus_io.MANIFEST_FILE, {
        "seed": seed, "config": asdict(config),
        "instances": len(corpus.instances), "events": len(corpus.events),
        "users": len(corpus.profiles)})
    print(f"wrote corpus with {len(corpus.instances)} instances to {out}")
    return 0


def cmd_build(args) -> int:
    args.seed = _resolve_seed(args.seed)
    # a bad seed, split sizes and pipeline flags fail before the corpus parse
    spec = _config_from_args(args, SplitSpec)
    features.check_cap(args.cap)
    corpus = corpus_io.load_corpus_dir(args.corpus)
    hist = history.UserHistoryIndex(corpus)
    error = None
    try:
        splits = experiments.build_dataset(corpus, spec, hist)
        funnel = splits.funnel
    except experiments.DatasetError as exc:
        sizes = " ".join(f"--{name.replace('_', '-')} {getattr(spec, name)}"
                         for name in experiments.SPLIT_SIZES)
        error, funnel = f"{exc}; the split flags ask for {sizes}", exc.funnel
    if args.report is not None:  # docs/FORMATS.md "Build report"
        _write_json(args.report, {"command": "build", "error": error, "funnel": asdict(funnel)})
    if error is not None:
        raise experiments.DatasetError(error, funnel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_split_ids(splits, out)
    _write_json(out / SPLIT_MANIFEST, {"spec": asdict(spec), "counts": {
        "train": sum(map(len, splits.batch_rows)),
        **{n: len(splits.set_rows[n]) for n in EVAL_SETS}}})
    # the table under the key every later command with the same pipeline
    # flags computes, so none of them parses the corpus again
    table = experiments.featurize_splits(_feature_context(args, corpus, hist), splits)
    _save_table(out / TABLE_FILE, table, _table_key(args, out))
    print(f"wrote {spec.total_batches} batches to {out}")
    return 0


def cmd_rank(args) -> int:
    ids, table = _split_table(args, partial(_check_folds, args.folds))
    ranking = experiments.rank_features(table.X, table.y, folds=args.folds,
                                        rows=table.places(ids.train))
    experiments.write_csv(args.out, experiments.RANKING_CSV, map(astuple, ranking))
    print(f"wrote ranking of {len(ranking)} features to {args.out}")
    return 0


def _selected_features(args) -> tuple[int, ...]:
    if args.features:
        return _parse_feature_list(args.features)
    if args.ranking:
        _check_within_features("--top-m", args.top_m)
        return tuple(experiments.top_features(experiments.read_ranking(args.ranking), args.top_m))
    raise ValueError("need either --features or --ranking with --top-m")


def cmd_train(args) -> int:
    hyper = _hyper_from_args(args)
    selected = _selected_features(args)
    ids, table = _split_table(args, None if args.k is None else lambda ids: _check_within(
        "--k", args.k, 1, len(ids.train_batches)))
    model = experiments.train_on_batches(ids, table, selected, hyper, k=args.k)
    Path(args.out).write_text(learner.model_to_json(model) + "\n", encoding="utf-8")
    status = "converged" if model.converged else "hit max_iter"
    print(f"trained on features {list(selected)} ({status}, {model.n_iter} iterations)")
    return 0


def _load_model(path: str) -> learner.Model:
    """The model a file holds; a ValueError is prefixed with the path."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return learner.model_from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_eval(args) -> int:
    _check_threshold(args.threshold)
    model = _load_model(args.model)
    ids, table = _split_table(args)
    X, y = table.rows_by_id(ids.eval_set(args.eval_set))
    metrics = experiments.evaluate(model, X, y, threshold=args.threshold)
    experiments.write_csv(args.out, experiments.METRICS_CSV, [astuple(metrics)])
    print(f"{args.eval_set}: precision={metrics.precision:.4f} "
          f"recall={metrics.recall:.4f} f1={metrics.f1:.4f}")
    return 0


def cmd_curve(args) -> int:
    hyper = _hyper_from_args(args)
    _check_within_features("--top-m", args.top_m)
    _check_threshold(args.threshold)
    ranking = experiments.read_ranking(args.ranking) if args.ranking else None
    # the curve ranks the train rows only without a ranking file
    check = partial(_check_folds, args.folds) if ranking is None else None
    ids, table = _split_table(args, check)
    points = experiments.incremental_eval(
        ids,
        table,
        top_m=args.top_m,
        hyper=hyper,
        eval_set=args.eval_set,
        threshold=args.threshold,
        folds=args.folds,
        ranking=ranking,
    )
    experiments.write_csv(args.out, experiments.CURVE_CSV, map(astuple, points))
    print(f"wrote {len(points)} curve points to {args.out}")
    return 0


def cmd_score(args) -> int:
    model = _load_model(args.model)
    ids, table = _split_table(args)
    members = ids.train if args.split == "train" else ids.eval_set(args.split)
    X, _ = table.rows_by_id(members)
    probs = learner.predict_proba_matrix(model, X)
    experiments.write_csv(args.out, experiments.SCORES_CSV, zip(members, probs))
    print(f"scored {len(members)} instances to {args.out}")
    return 0


def cmd_scatter(args) -> int:
    _check_within_features("--ft-a", args.ft_a)
    _check_within_features("--ft-b", args.ft_b)
    _check_threshold(args.threshold)
    if args.ft_a == args.ft_b:
        raise ValueError("--ft-a and --ft-b must name two different features, "
                         f"got {args.ft_a} for both")
    model = _load_model(args.model)
    ids, table = _split_table(args)
    X, y = table.rows_by_id(ids.eval_set(args.eval_set))
    data = experiments.scatter_export(X, y, args.ft_a, args.ft_b, model, threshold=args.threshold)
    experiments.write_csv(args.out, experiments.SCATTER_CSV, data.rows,
                          head=(data.w_a, data.w_b, data.intercept))
    print(f"wrote {len(data.rows)} scatter rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="refilter",
        description="personalized global retweet filter: data, training, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, func, help_text: str, seeded: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON file with flag defaults (explicit flags win)")
        if seeded:  # only these draw random numbers
            p.add_argument("--seed", type=int, default=None,
                           help="randomness seed, an integer >= 0 (default: REFILTER_SEED or 0)")
        p.set_defaults(func=func)
        subparsers[name] = p
        return p

    p = add("synth", cmd_synth, "generate a synthetic corpus", seeded=True)
    p.add_argument("--out", required=True, help="output corpus directory")
    _add_dataclass_flags(p, SyntheticConfig)

    p = add("build", cmd_build, "construct batched train/dev/test splits and their feature table",
            seeded=True)
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True, help="output split directory")
    _add_dataclass_flags(
        p, SplitSpec, skip=("seed", "unbalanced_pos_per_batch", "unbalanced_neg_per_batch")
    )
    p.add_argument("--unbalanced-pos-per-batch", dest="unbalanced_pos_per_batch",
                   type=int, default=None, help="default: 5%% positives for the batch size")
    p.add_argument("--unbalanced-neg-per-batch", dest="unbalanced_neg_per_batch",
                   type=int, default=None, help="default: batch-neg")
    p.add_argument("--report", default=None,
                   help="write how many instances each dataset rule dropped, as JSON")

    p = add("rank", cmd_rank, "rank features by mean |pearson| to the label")
    _add_pipeline_flags(p)
    p.add_argument("--splits", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=int, default=10)

    p = add("train", cmd_train, "train the shared logistic-regression model")
    _add_pipeline_flags(p)
    p.add_argument("--splits", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--features", default=None, help="explicit feature ids, e.g. 10,43")
    p.add_argument("--ranking", default=None, help="ranking file for --top-m selection")
    p.add_argument("--top-m", type=int, default=10)
    p.add_argument("--k", type=int, default=None, help="train on first k batches only")
    _add_hyper_flags(p)

    p = add("eval", cmd_eval, "evaluate a model on one split")
    _add_pipeline_flags(p)
    p.add_argument("--splits", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--eval-set", choices=EVAL_SETS, default="dev_unbalanced")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)

    p = add("curve", cmd_curve, "incremental learning curve over train batches")
    _add_pipeline_flags(p)
    p.add_argument("--splits", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-m", type=int, default=10)
    p.add_argument("--ranking", default=None)
    p.add_argument("--eval-set", choices=EVAL_SETS, default="dev_unbalanced")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--folds", type=int, default=10)
    _add_hyper_flags(p)

    p = add("score", cmd_score, "per-instance retweet probabilities")
    _add_pipeline_flags(p)
    p.add_argument("--splits", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=("train",) + EVAL_SETS, default="dev_unbalanced")
    p.add_argument("--out", required=True)

    p = add("scatter", cmd_scatter, "two-feature scatter plus the learned separator")
    _add_pipeline_flags(p)
    p.add_argument("--splits", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--eval-set", choices=EVAL_SETS, default="dev_unbalanced")
    p.add_argument("--ft-a", type=int, required=True)
    p.add_argument("--ft-b", type=int, required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)

    return parser, subparsers


def _config_default(action: argparse.Action, value):
    """A --config value as its flag would parse it from the command line;
    ValueError names the key and the flag when the flag would refuse it."""
    if value is None and action.default is None:
        return None
    kind = action.type or str
    flag = max(action.option_strings, key=len)
    takes = f"one of {', '.join(action.choices)}" if action.choices else f"{kind.__name__} values"
    # the command line hands the type a string: a JSON string as it is, any
    # other value as its JSON text; a flag without a type takes strings only
    try:
        if action.type is None and not isinstance(value, str):
            raise ValueError
        parsed = kind(value if isinstance(value, str) else json.dumps(value))
        if action.choices and parsed not in action.choices:
            raise ValueError
        return parsed
    except ValueError:
        raise ValueError(f"key {action.dest!r} ({flag}) takes {takes}, got {value!r}") from None


def _config_defaults(path: str, name: str, command: argparse.ArgumentParser) -> dict:
    """The flag defaults a --config file sets for subcommand `name`;
    ValueError names the file, and the key of a bad entry."""
    try:
        defaults = json.loads(Path(path).read_text(encoding="utf-8"),
                              object_pairs_hook=corpus_io.json_object)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    if not isinstance(defaults, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    actions = {action.dest: action for action in command._actions}
    unknown = ", ".join(map(repr, sorted(set(defaults) - set(actions))))
    if unknown:
        raise ValueError(f"config {path} has keys that are not options of {name}: {unknown}")
    try:
        return {key: _config_default(actions[key], value) for key, value in defaults.items()}
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # parse again over the file's defaults, so explicit flags win
            command = subparsers[args.command]
            command.set_defaults(**_config_defaults(args.config, args.command, command))
            args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:  # all operational failures map to exit 1
        print(f"refilter: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
