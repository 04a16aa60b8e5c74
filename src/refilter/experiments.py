"""Experiment harness: dataset construction, feature ranking, metrics,
incremental training curves, and the plot-ready data file formats.

Dataset construction mirrors the collection rules of the target task:
negatives from senders the recipient never retweeted before, and from
senders with no posts in the prior week, are dropped; negatives are then
downsampled per recipient to match the positives; duplicate arrivals of a
tweet keep only the earliest; both class streams are temporally ordered
and cut into fixed-size batches that feed train/dev/test splits.
"""

from __future__ import annotations

import io
import os
import random
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus_io import Corpus, Instance
from .features import (
    N_FEATURES,
    SCALED_FEATURE_IDS,
    FeatureContext,
    ScalingParams,
    extract_matrix,
    scale_columns,
)
from .history import WEEK_SECONDS, UserHistoryIndex
from .learner import (
    Design,
    Hyper,
    Model,
    check_threshold,
    checked_selection,
    design_matrix,
    predict_proba_matrix,
    train,
)


EVAL_SETS = ("dev_balanced", "dev_unbalanced", "test_balanced", "test_unbalanced")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class SplitSpec:
    """Batch sizes and counts of the splits, checked on construction.

    An unbalanced dev/test batch keeps `unbalanced_neg_per_batch`
    negatives (default: `batch_neg`) and `unbalanced_pos_per_batch`
    positives (default: 5% of the batch, at least 1 and at most
    `batch_pos`); 475+475 batches give 25+475.
    """

    batch_pos: int = 475
    batch_neg: int = 475
    train_batches: int = 120
    dev_batches: int = 10
    test_batches: int = 10
    unbalanced_pos_per_batch: int | None = None
    unbalanced_neg_per_batch: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.unbalanced_neg_per_batch is None:
            object.__setattr__(self, "unbalanced_neg_per_batch", self.batch_neg)
        if self.unbalanced_pos_per_batch is None:
            pos = max(1, min(self.batch_pos, round(self.unbalanced_neg_per_batch / 19)))
            object.__setattr__(self, "unbalanced_pos_per_batch", pos)
        for name in ("batch_pos", "batch_neg", "train_batches", "dev_batches", "test_batches"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.unbalanced_pos_per_batch <= self.batch_pos:
            raise ValueError("unbalanced_pos_per_batch must be in 1..batch_pos")
        if not 0 < self.unbalanced_neg_per_batch <= self.batch_neg:
            raise ValueError("unbalanced_neg_per_batch must be in 1..batch_neg")

    @property
    def total_batches(self) -> int:
        return self.train_batches + self.dev_batches + self.test_batches


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(tp: int, fp: int, fn: int, tn: int) -> "Metrics":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return Metrics(tp, fp, fn, tn, precision, recall, f1)


@dataclass(frozen=True)
class RankedFeature:
    ft_id: int
    pearson_r: float  # mean |r| across folds
    rank: int


def top_features(ranking: Sequence[RankedFeature], top_m: int) -> list[int]:
    """The ids of the first `top_m` features of a ranking that has that many."""
    if len(ranking) < top_m:
        raise ValueError(f"top_m={top_m} exceeds the {len(ranking)} features the ranking lists")
    return [rf.ft_id for rf in ranking[:top_m]]


@dataclass
class DatasetSplits:
    train_batches: list[list[Instance]]
    dev_balanced: list[Instance]
    dev_unbalanced: list[Instance]
    test_balanced: list[Instance]
    test_unbalanced: list[Instance]

    @property
    def train_instances(self) -> list[Instance]:
        return [inst for batch in self.train_batches for inst in batch]

    def eval_set(self, name: str) -> list[Instance]:
        if name not in EVAL_SETS:
            raise ValueError(f"unknown eval set {name!r}; one of {sorted(EVAL_SETS)}")
        return getattr(self, name)

    def ids(self) -> "SplitIds":
        return SplitIds(
            train_batches=[[inst.instance_id for inst in batch] for batch in self.train_batches],
            eval_sets={
                name: [inst.instance_id for inst in self.eval_set(name)] for name in EVAL_SETS
            },
        )


@dataclass
class SplitIds:
    """The instance ids of each split, in split order: what a split
    directory stores, and all that training and scoring need besides the
    feature table."""

    train_batches: list[list[int]]
    eval_sets: dict[str, list[int]]

    @property
    def train(self) -> list[int]:
        return [iid for batch in self.train_batches for iid in batch]

    def eval_set(self, name: str) -> list[int]:
        if name not in EVAL_SETS:
            raise ValueError(f"unknown eval set {name!r}; one of {sorted(EVAL_SETS)}")
        return self.eval_sets[name]


def _split_ids(splits: DatasetSplits | SplitIds) -> SplitIds:
    return splits.ids() if isinstance(splits, DatasetSplits) else splits


def _time_key(inst: Instance) -> tuple[int, int]:
    return (inst.timestamp, inst.instance_id)


def build_dataset(
    corpus: Corpus,
    spec: SplitSpec,
    hist: UserHistoryIndex | None = None,
) -> DatasetSplits:
    """Construct the batched train/dev/test splits from a labeled corpus."""
    if hist is None:
        hist = UserHistoryIndex(corpus)

    positives: list[Instance] = []
    negatives_by_recipient: dict[int, list[Instance]] = {}
    pos_count_by_recipient: dict[int, int] = {}
    for inst in corpus.instances:
        if inst.label:
            positives.append(inst)
            pos_count_by_recipient[inst.recipient_id] = (
                pos_count_by_recipient.get(inst.recipient_id, 0) + 1
            )
        else:
            # 'easy' negatives (sender never retweeted by the recipient
            # before this arrival) and negatives from senders with no
            # posts in the prior week are excluded
            if hist.retweet_count(inst.recipient_id, inst.sender_id, inst.timestamp) == 0:
                continue
            if not hist.has_posts_in(inst.sender_id, inst.timestamp, WEEK_SECONDS):
                continue
            negatives_by_recipient.setdefault(inst.recipient_id, []).append(inst)

    rng = random.Random(f"{spec.seed}:downsample")
    negatives: list[Instance] = []
    for recipient in sorted(negatives_by_recipient):
        negs = sorted(negatives_by_recipient[recipient], key=_time_key)
        quota = pos_count_by_recipient.get(recipient, 0)
        if len(negs) > quota:
            negs = rng.sample(negs, quota)
        negatives.extend(negs)

    def dedup(instances: Iterable[Instance]) -> list[Instance]:
        earliest: dict[tuple[int, int], Instance] = {}
        for inst in instances:
            key = (inst.recipient_id, inst.tweet_id)
            cur = earliest.get(key)
            if cur is None or _time_key(inst) < _time_key(cur):
                earliest[key] = inst
        return list(earliest.values())

    # duplicates are resolved across both classes: the earliest arrival of
    # a tweet at a recipient wins
    merged = dedup(positives + negatives)
    pos_stream = sorted((i for i in merged if i.label), key=_time_key)
    neg_stream = sorted((i for i in merged if not i.label), key=_time_key)

    wanted = spec.total_batches
    achievable = min(len(pos_stream) // spec.batch_pos, len(neg_stream) // spec.batch_neg)
    if achievable < wanted:
        raise DatasetError(
            f"corpus supports only {achievable} batches "
            f"({len(pos_stream)} positives / {len(neg_stream)} negatives after "
            f"filtering), {wanted} requested"
        )

    batches: list[list[Instance]] = []
    for i in range(wanted):
        pos_part = pos_stream[i * spec.batch_pos : (i + 1) * spec.batch_pos]
        neg_part = neg_stream[i * spec.batch_neg : (i + 1) * spec.batch_neg]
        batches.append(sorted(pos_part + neg_part, key=_time_key))

    train = batches[: spec.train_batches]
    dev = batches[spec.train_batches : spec.train_batches + spec.dev_batches]
    test = batches[spec.train_batches + spec.dev_batches :]

    def downsample(batch_list: list[list[Instance]], split: str) -> list[Instance]:
        out: list[Instance] = []
        for idx, batch in enumerate(batch_list):
            pos = sorted((i for i in batch if i.label), key=_time_key)
            neg = sorted((i for i in batch if not i.label), key=_time_key)
            brng = random.Random(f"{spec.seed}:unbalanced:{split}:{idx}")
            if len(pos) > spec.unbalanced_pos_per_batch:
                pos = brng.sample(pos, spec.unbalanced_pos_per_batch)
            if len(neg) > spec.unbalanced_neg_per_batch:
                neg = brng.sample(neg, spec.unbalanced_neg_per_batch)
            out.extend(sorted(pos + neg, key=_time_key))
        return out

    return DatasetSplits(
        train_batches=train,
        dev_balanced=[i for b in dev for i in b],
        dev_unbalanced=downsample(dev, "dev"),
        test_balanced=[i for b in test for i in b],
        test_unbalanced=downsample(test, "test"),
    )


# ---------------------------------------------------------------------------
# feature ranking


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation; 0 when either argument has no variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equally long 1-d sequences")
    if x.size < 2:
        raise ValueError("pearson needs at least 2 points")
    # exactly-constant input has no variance even when the mean rounds
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return 0.0
    return float(xc @ yc) / denom


def rank_features(
    matrix: np.ndarray, labels: np.ndarray, folds: int = 10
) -> list[RankedFeature]:
    """Rank features by mean |pearson r| to the label across contiguous
    cross-validation folds (each fold's training portion is scored).

    All columns of a fold are scored in one pass, with `pearson`'s rules
    (an exactly constant column or label vector scores 0), by reductions
    that do not go through BLAS: the scores are the same bits on any BLAS
    thread count."""
    if folds < 2:
        raise ValueError("folds must be at least 2")
    X = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = X.shape[0]
    if n < folds:
        raise ValueError(f"cannot split {n} rows into {folds} folds")

    fold_slices = np.array_split(np.arange(n), folds)
    scores = np.zeros(X.shape[1])
    for fold in fold_slices:
        keep = np.ones(n, dtype=bool)
        keep[fold] = False
        Xf, yf = X[keep], y[keep]
        if len(yf) < 2:
            raise ValueError("pearson needs at least 2 points")
        if np.all(yf == yf[0]):
            continue  # every column scores 0
        live = ~np.all(Xf == Xf[0], axis=0)
        Xf -= Xf.mean(axis=0)  # Xf is this fold's own copy
        yc = yf - yf.mean()
        denom = np.sqrt(np.einsum("ij,ij->j", Xf, Xf) * np.einsum("i,i->", yc, yc))
        live &= denom != 0.0
        r = np.zeros(X.shape[1])
        np.divide(np.einsum("ij,i->j", Xf, yc), denom, out=r, where=live)
        scores += np.abs(r)
    scores /= folds

    order = sorted(range(X.shape[1]), key=lambda j: (-scores[j], j))
    return [
        RankedFeature(ft_id=j + 1, pearson_r=float(scores[j]), rank=pos + 1)
        for pos, j in enumerate(order)
    ]


# ---------------------------------------------------------------------------
# evaluation


def metrics_from_predictions(
    predictions: Sequence[bool] | np.ndarray, labels: Sequence[int] | np.ndarray
) -> Metrics:
    preds = np.asarray(predictions, dtype=bool)
    truth = np.asarray(labels, dtype=bool)
    if preds.shape != truth.shape:
        raise ValueError("predictions and labels differ in length")
    tp = int(np.sum(preds & truth))
    fp = int(np.sum(preds & ~truth))
    fn = int(np.sum(~preds & truth))
    tn = int(np.sum(~preds & ~truth))
    return Metrics.from_counts(tp, fp, fn, tn)


def evaluate(
    model: Model,
    vectors: np.ndarray,
    labels: Sequence[int] | np.ndarray,
    threshold: float = 0.5,
) -> Metrics:
    """Score raw feature vectors with the model and count outcomes."""
    check_threshold(threshold)
    probs = predict_proba_matrix(model, vectors)
    return metrics_from_predictions(probs >= threshold, labels)


# ---------------------------------------------------------------------------
# featurization plumbing shared by the harness and the CLI


@dataclass(frozen=True)
class FeatureTable:
    """Raw feature rows for a set of instances, addressable by id."""

    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_row_of", {int(i): r for r, i in enumerate(self.ids)}
        )

    def rows(self, instances: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
        return self.rows_by_id([inst.instance_id for inst in instances])

    def rows_by_id(self, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        idx = [self._row_of[iid] for iid in ids]
        return self.X[idx], self.y[idx]


def featurize(ctx: FeatureContext, instances: Sequence[Instance]) -> FeatureTable:
    unique: dict[int, Instance] = {}
    for inst in instances:
        unique.setdefault(inst.instance_id, inst)
    ordered = list(unique.values())
    ids, X, y = extract_matrix(ctx, ordered)
    return FeatureTable(ids=ids, X=X, y=y)


def featurize_splits(ctx: FeatureContext, splits: DatasetSplits) -> FeatureTable:
    instances = (
        splits.train_instances
        + splits.dev_balanced
        + splits.test_balanced
        + splits.dev_unbalanced
        + splits.test_unbalanced
    )
    return featurize(ctx, instances)


_TABLE_ARRAYS = ("key", "ids", "X", "y")


def write_table(path: str | Path, table: FeatureTable, key: str) -> None:
    """Save the table and its key as an uncompressed `.npz` archive.

    Every member carries the same fixed timestamp, so the bytes depend on
    the arrays alone. Each array streams into its member, with no second
    copy in memory. The file appears atomically: it is written to a
    temporary file in the same directory, then renamed over `path`.
    """
    path = Path(path)
    arrays = {"key": np.array(key), "ids": table.ids, "X": table.X, "y": table.y}
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED) as zf:
            for name in _TABLE_ARRAYS:
                member = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                member.external_attr = 0o644 << 16
                with zf.open(member, "w") as fh:
                    np.lib.format.write_array(fh, arrays[name], allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_table(path: str | Path, key: str, ids: Iterable[int]) -> FeatureTable | None:
    """The table saved at `path`, or None unless the file is intact, was
    saved under `key`, and holds exactly one row for each of `ids`."""
    try:
        with zipfile.ZipFile(path) as zf:
            arrays = {
                name: np.lib.format.read_array(io.BytesIO(zf.read(f"{name}.npy")),
                                               allow_pickle=False)
                for name in _TABLE_ARRAYS
            }
    except Exception:
        # a missing file raises OSError, but a damaged archive can fail in
        # zipfile or numpy with almost any exception type; each one means
        # the table must be recomputed
        return None
    stored_key, table_ids, X, y = (arrays[name] for name in _TABLE_ARRAYS)
    wanted = set(ids)
    n = len(wanted)
    if (
        stored_key.shape != ()
        or str(stored_key) != key
        or table_ids.dtype != np.int64
        or table_ids.shape != (n,)
        or X.dtype != np.float64
        or X.shape != (n, N_FEATURES)
        or y.dtype != np.int64
        or y.shape != (n,)
        or set(table_ids.tolist()) != wanted
    ):
        return None
    return FeatureTable(ids=table_ids, X=X, y=y)


# ---------------------------------------------------------------------------
# incremental training and evaluation


@dataclass(frozen=True)
class CurvePoint:
    k: int
    train_f1: float
    eval_f1: float


class _BatchPrefixes:
    """The train rows in batch order, laid out once as the design of
    `selected`, so that the first k batches are the prefix `A[:ends[k-1]]`.

    The scaling of each prefix is the running column min/max over the
    per-batch extremes. Min and max are exact, so it equals `fit_scaling`
    on the prefix bit for bit.

    `scaled` serves every prefix from the one design matrix `A`: the
    selected columns, in selected order, then a column of ones, in
    column-major order (`learner.design_matrix`). A call brings `A[:n]` to
    the prefix's scaling: a scaled column whose extremes differ from the
    buffer's is scaled anew over the whole prefix, any other only on the
    rows the last call left out. The returned view holds the values, the
    layout and so the fit bits of a prefix scaled anew and gathered by
    `train`.
    """

    def __init__(self, splits: SplitIds, X: np.ndarray, y: np.ndarray,
                 selected: Sequence[int]) -> None:
        selected = checked_selection(selected, X.shape[1])
        self.width = X.shape[1]
        self.y = y
        sizes = np.array([len(batch) for batch in splits.train_batches])
        self.ends = np.cumsum(sizes)
        batches = [X[end - size : end] for size, end in zip(sizes, self.ends)]
        # an empty batch yields the identity of min (max), which leaves the
        # running extremes as they were
        self.mins = np.minimum.accumulate([b.min(axis=0, initial=np.inf) for b in batches])
        self.maxs = np.maximum.accumulate([b.max(axis=0, initial=-np.inf) for b in batches])
        # A holds the unscaled columns from the start; its scaled columns
        # (at positions _pos, feature columns _cols) hold X[:_rows] in the
        # scaling (_mins, _maxs), and _raw keeps their raw values
        self._A = design_matrix(X, selected)
        self._pos = np.array([j for j, ft in enumerate(selected) if ft in SCALED_FEATURE_IDS],
                             dtype=np.intp)
        self._cols = np.array([selected[j] - 1 for j in self._pos], dtype=np.intp)
        self._raw = np.asfortranarray(X[:, self._cols])
        self._rows = 0
        self._mins = self._maxs = np.zeros(X.shape[1])

    def scaled(self, k: int) -> tuple[Design, np.ndarray, ScalingParams]:
        """The design of the first k batches' rows in their own scaling,
        their labels, and that scaling. The design is a view of the
        buffer, which the next call overwrites."""
        n = self.ends[k - 1]
        mins, maxs = self.mins[k - 1], self.maxs[k - 1]
        # compared bit for bit: the scaled value is a function of the bits
        # of x, min and max, so equal bits leave a scaled row as it is
        moved = (mins.view(np.int64) != self._mins.view(np.int64)) | (
            maxs.view(np.int64) != self._maxs.view(np.int64)
        )
        moved = moved[self._cols]
        for which, rows in ((moved, slice(0, n)), (~moved, slice(self._rows, n))):
            cols = self._cols[which]
            self._A[rows, self._pos[which]] = scale_columns(
                self._raw[rows, which], mins[cols], maxs[cols]
            )
        self._rows, self._mins, self._maxs = n, mins, maxs
        return Design(self._A[:n], self.width), self.y[:n], ScalingParams(mins=mins, maxs=maxs)


def _rescaled_start(model: Model, scaling: ScalingParams) -> tuple[np.ndarray, float]:
    """The model's weights and intercept re-expressed in a wider `scaling`,
    so that every row inside the model's own scaling keeps its margin.

    A scaled column maps x to (x - min) / span. Writing x through both
    scalings gives w' = w * span' / span and b' = b + sum w (min' - min) / span.
    A column that was degenerate contributed 0 and starts at weight 0.
    Unchanged extremes give back the model's own weights and intercept.
    """
    old = model.scaling
    cols = [ft - 1 for ft in model.selected_features]
    old_span = (old.maxs - old.mins)[cols]
    new_span = (scaling.maxs - scaling.mins)[cols]
    scaled = np.array([ft in SCALED_FEATURE_IDS for ft in model.selected_features])
    live = scaled & (old_span > 0)
    w = model.weights.copy()
    w[live] = model.weights[live] * (new_span[live] / old_span[live])
    w[scaled & ~live] = 0.0
    shift = (scaling.mins - old.mins)[cols][live] / old_span[live]
    return w, model.intercept + float(model.weights[live] @ shift)


def train_on_batches(
    splits: DatasetSplits | SplitIds,
    table: FeatureTable,
    selected: Sequence[int],
    hyper: Hyper = Hyper(),
    k: int | None = None,
) -> Model:
    """Train on the first k train batches (all of them by default), with
    scaling fit on exactly those rows: the model of curve point k."""
    splits = _split_ids(splits)
    k = len(splits.train_batches) if k is None else k
    if not 1 <= k <= len(splits.train_batches):
        raise ValueError(f"k must be in 1..{len(splits.train_batches)}")
    X, y = table.rows_by_id(splits.train)
    design, y, scaling = _BatchPrefixes(splits, X, y, selected).scaled(k)
    return train(design, y, selected, hyper, scaling)


def incremental_eval(
    splits: DatasetSplits | SplitIds,
    table: FeatureTable,
    top_m: int,
    hyper: Hyper = Hyper(),
    eval_set: str = "dev_unbalanced",
    threshold: float = 0.5,
    folds: int = 10,
    ranking: Sequence[RankedFeature] | None = None,
) -> list[CurvePoint]:
    """Learning curve: for every k, train on the first k batches and score
    a fixed evaluation set.

    The feature ranking is computed once on the full training set and
    reused for all k. The scaling at k is the running min/max of the first
    k batches, which equals a refit on those rows. The train rows are
    gathered once; the design of k is a view of one column-major buffer of
    the selected columns that each k updates only where its scaling moved.
    The fit and the train F1 share that view, and the next k overwrites
    it. The fit at k starts from the optimum at k-1, mapped into the
    scaling at k; Newton runs to the optimum, so the start moves its path
    but not its result.
    """
    if not 1 <= top_m <= N_FEATURES:
        raise ValueError(f"top_m must be in 1..{N_FEATURES}")
    check_threshold(threshold)
    splits = _split_ids(splits)
    X, y = table.rows_by_id(splits.train)
    if ranking is None:
        ranking = rank_features(X, y, folds=folds)
    selected = top_features(ranking, top_m)
    prefixes = _BatchPrefixes(splits, X, y, selected)
    del X  # the prefixes keep the selected columns

    eval_X, eval_y = table.rows_by_id(splits.eval_set(eval_set))

    points: list[CurvePoint] = []
    model = None
    for k in range(1, len(splits.train_batches) + 1):
        design, yk, scaling = prefixes.scaled(k)
        start = None if model is None else _rescaled_start(model, scaling)
        model = train(design, yk, selected, hyper, scaling, start)
        # the design is already in the model's space: its margins are the
        # fit's own, with no copy of the rows
        train_f1 = evaluate(model, design, yk, threshold).f1
        eval_f1 = evaluate(model, eval_X, eval_y, threshold).f1
        points.append(CurvePoint(k=k, train_f1=train_f1, eval_f1=eval_f1))
    return points


# ---------------------------------------------------------------------------
# two-feature scatter export


@dataclass(frozen=True)
class ScatterData:
    ft_a: int
    ft_b: int
    w_a: float
    w_b: float
    intercept: float
    rows: list[tuple[float, float, int, int]]  # (x, y, label, predicted)


def scatter_export(
    eval_X: np.ndarray,
    eval_y: np.ndarray,
    ft_a: int,
    ft_b: int,
    model: Model,
    threshold: float = 0.5,
) -> ScatterData:
    """Per-instance coordinates on two features plus the model's separator.

    The model must have been trained on exactly these two features; the
    separator parameters refer to the scaled feature space the model was
    trained in.
    """
    check_threshold(threshold)
    if set(model.selected_features) != {ft_a, ft_b}:
        raise ValueError(
            f"model uses features {model.selected_features}, expected {{{ft_a}, {ft_b}}}"
        )
    w = {ft: float(wv) for ft, wv in zip(model.selected_features, model.weights)}
    probs = predict_proba_matrix(model, eval_X)
    preds = probs >= threshold
    rows = [
        (float(x[ft_a - 1]), float(x[ft_b - 1]), int(label), int(pred))
        for x, label, pred in zip(np.atleast_2d(eval_X), eval_y, preds)
    ]
    return ScatterData(
        ft_a=ft_a,
        ft_b=ft_b,
        w_a=w[ft_a],
        w_b=w[ft_b],
        intercept=float(model.intercept),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# plot-ready output files (formats are part of the artifact's contract)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_curve(path: str | Path, points: Sequence[CurvePoint]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,train_f1,eval_f1\n")
        for p in points:
            fh.write(f"{p.k},{_fmt(p.train_f1)},{_fmt(p.eval_f1)}\n")


def read_curve(path: str | Path) -> list[CurvePoint]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    out = []
    for line in lines[1:]:
        k, train_f1, eval_f1 = line.split(",")
        out.append(CurvePoint(int(k), float(train_f1), float(eval_f1)))
    return out


def write_metrics(path: str | Path, metrics: Metrics) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tp,fp,fn,tn,precision,recall,f1\n")
        fh.write(
            f"{metrics.tp},{metrics.fp},{metrics.fn},{metrics.tn},"
            f"{_fmt(metrics.precision)},{_fmt(metrics.recall)},{_fmt(metrics.f1)}\n"
        )


def write_ranking(path: str | Path, ranking: Sequence[RankedFeature]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ft_id,mean_abs_pearson,rank\n")
        for rf in ranking:
            fh.write(f"{rf.ft_id},{_fmt(rf.pearson_r)},{rf.rank}\n")


def read_ranking(path: str | Path) -> list[RankedFeature]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            ft_id, score, rank = line.split(",")
            out.append(RankedFeature(int(ft_id), float(score), int(rank)))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected ft_id,mean_abs_pearson,rank, "
                             f"got {line!r}") from None
    return out


def write_scatter(path: str | Path, data: ScatterData) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#separator,{_fmt(data.w_a)},{_fmt(data.w_b)},{_fmt(data.intercept)}\n")
        for x, yv, label, pred in data.rows:
            fh.write(f"{_fmt(x)},{_fmt(yv)},{label},{pred}\n")


def write_scores(path: str | Path, ids: Sequence[int], probabilities: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("instance_id,probability\n")
        for iid, prob in zip(ids, probabilities):
            fh.write(f"{iid},{_fmt(prob)}\n")
