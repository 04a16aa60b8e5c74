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

import logging
import os
import random
import sys
import zipfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus_io import Corpus, Instance, check_field, sorted_places
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


logger = logging.getLogger(__name__)

EVAL_SETS = ("dev_balanced", "dev_unbalanced", "test_balanced", "test_unbalanced")
SPLIT_SIZES = ("batch_pos", "batch_neg", "train_batches", "dev_batches", "test_batches")


@dataclass(frozen=True)
class DatasetFunnel:
    """How many instances `build_dataset` took in and how many each of its
    rules took out, in the order the rules apply. The negatives kept are
    the negatives less the three negative rules' drops, and dedup takes
    `duplicates` out of the positives and those negatives together."""

    instances: int
    positives: int
    negatives: int
    negatives_never_retweeted: int  # the recipient had never retweeted the sender
    negatives_sender_inactive: int  # the sender posted nothing in the prior week
    negatives_downsampled: int  # beyond the recipient's count of positives
    duplicates: int  # later arrivals of a tweet at the same recipient
    positives_kept: int
    negatives_kept: int
    batches_achievable: int
    batches_requested: int


class DatasetError(ValueError):
    """The corpus cannot give the batches asked for; `funnel` says where
    its instances went, when the funnel was run."""

    def __init__(self, message: str, funnel: DatasetFunnel | None = None) -> None:
        super().__init__(message)
        self.funnel = funnel


@dataclass(frozen=True)
class SplitSpec:
    """Batch sizes and counts of the splits, checked on construction: the
    SPLIT_SIZES are integers >= 1, `seed` an integer >= 0, and each
    unbalanced count an integer in 1..its batch size. Errors name the
    manifest field and the `build` flag.

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
        check = partial(check_field, self, "spec", kind=int)
        for name in SPLIT_SIZES:
            check(name, ok=lambda v: v >= 1, bound="an integer >= 1")
        check("seed", ok=lambda v: v >= 0, bound="an integer >= 0")
        # the defaults derive from the sizes just checked
        if self.unbalanced_neg_per_batch is None:
            object.__setattr__(self, "unbalanced_neg_per_batch", self.batch_neg)
        check("unbalanced_neg_per_batch", ok=lambda v: 1 <= v <= self.batch_neg,
              bound=f"an integer in 1..spec.batch_neg ({self.batch_neg})")
        if self.unbalanced_pos_per_batch is None:
            pos = max(1, min(self.batch_pos, round(self.unbalanced_neg_per_batch / 19)))
            object.__setattr__(self, "unbalanced_pos_per_batch", pos)
        check("unbalanced_pos_per_batch", ok=lambda v: 1 <= v <= self.batch_pos,
              bound=f"an integer in 1..spec.batch_pos ({self.batch_pos})")

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
    funnel: DatasetFunnel | None = None

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
    """Construct the batched train/dev/test splits from a labeled corpus.
    The result's `funnel`, or a `DatasetError`'s, counts what each rule
    dropped. The rules run over the corpus's instance columns, by row;
    only the instances of the batches are made as records."""
    if hist is None:
        hist = UserHistoryIndex(corpus)

    instances = corpus.instances
    # each item of a column's memoryview is made when it is read
    labels, recipients, senders, times, ids, tweet_ids = (
        memoryview(instances.column(name)) for name in
        ("label", "recipient_id", "sender_id", "timestamp", "instance_id", "tweet_id"))

    def time_key(row: int) -> tuple[int, int]:
        return (times[row], ids[row])

    positives: list[int] = []
    negatives_by_recipient: dict[int, list[int]] = {}
    pos_count_by_recipient: dict[int, int] = {}
    never_retweeted = inactive = 0
    for row, (label, recipient) in enumerate(zip(labels, recipients)):
        if label:
            positives.append(row)
            pos_count_by_recipient[recipient] = pos_count_by_recipient.get(recipient, 0) + 1
        else:
            # 'easy' negatives (sender never retweeted by the recipient
            # before this arrival) and negatives from senders with no
            # posts in the prior week are excluded
            sender, ts = senders[row], times[row]
            if hist.retweet_count(recipient, sender, ts) == 0:
                never_retweeted += 1
                continue
            if not hist.has_posts_in(sender, ts, WEEK_SECONDS):
                inactive += 1
                continue
            negatives_by_recipient.setdefault(recipient, []).append(row)

    rng = random.Random(f"{spec.seed}:downsample")
    negatives: list[int] = []
    downsampled = 0
    for recipient in sorted(negatives_by_recipient):
        negs = sorted(negatives_by_recipient[recipient], key=time_key)
        quota = pos_count_by_recipient.get(recipient, 0)
        if len(negs) > quota:
            downsampled += len(negs) - quota
            negs = rng.sample(negs, quota)
        negatives.extend(negs)

    def dedup(rows: Iterable[int]) -> list[int]:
        earliest: dict[tuple[int, int], int] = {}
        for row in rows:
            key = (recipients[row], tweet_ids[row])
            cur = earliest.get(key)
            if cur is None or time_key(row) < time_key(cur):
                earliest[key] = row
        return list(earliest.values())

    # duplicates are resolved across both classes: the earliest arrival of
    # a tweet at a recipient wins
    merged = dedup(positives + negatives)
    pos_stream = sorted((row for row in merged if labels[row]), key=time_key)
    neg_stream = sorted((row for row in merged if not labels[row]), key=time_key)

    wanted = spec.total_batches
    achievable = min(len(pos_stream) // spec.batch_pos, len(neg_stream) // spec.batch_neg)
    funnel = DatasetFunnel(
        instances=len(instances),
        positives=len(positives),
        negatives=len(instances) - len(positives),
        negatives_never_retweeted=never_retweeted,
        negatives_sender_inactive=inactive,
        negatives_downsampled=downsampled,
        duplicates=len(positives) + len(negatives) - len(merged),
        positives_kept=len(pos_stream),
        negatives_kept=len(neg_stream),
        batches_achievable=achievable,
        batches_requested=wanted,
    )
    logger.info("dataset funnel: %s", funnel)
    if achievable < wanted:
        raise DatasetError(
            f"corpus supports only {achievable} batches "
            f"({len(pos_stream)} positives / {len(neg_stream)} negatives after "
            f"filtering), {wanted} requested",
            funnel,
        )

    batches: list[list[Instance]] = []
    for i in range(wanted):
        pos_part = pos_stream[i * spec.batch_pos : (i + 1) * spec.batch_pos]
        neg_part = neg_stream[i * spec.batch_neg : (i + 1) * spec.batch_neg]
        batches.append(instances.at(sorted(pos_part + neg_part, key=time_key)))

    train = batches[: spec.train_batches]
    dev = batches[spec.train_batches : spec.train_batches + spec.dev_batches]
    test = batches[spec.train_batches + spec.dev_batches :]

    def downsample(batch_list: list[list[Instance]], split: str) -> list[Instance]:
        out: list[Instance] = []
        for idx, batch in enumerate(batch_list):
            # a batch is in _time_key order, and so is each class of it
            pos = [i for i in batch if i.label]
            neg = [i for i in batch if not i.label]
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
        funnel=funnel,
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
    """Raw feature rows for a set of instances, addressable by id through
    the ids in sorted order; an id held twice addresses its last row."""

    ids: np.ndarray
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        order = np.argsort(self.ids, kind="stable")
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_sorted_ids", self.ids[order])

    def rows(self, instances: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
        return self.rows_by_id([inst.instance_id for inst in instances])

    def rows_by_id(self, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The rows of `ids`, in that order; KeyError names an unknown id."""
        idx = self._order[sorted_places(self._sorted_ids, ids)]
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


def _read_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array of one member, streamed into place with no copy of its
    bytes; the member is then read to its end, where zipfile checks its
    CRC."""
    with zf.open(name) as fh:
        array = np.lib.format.read_array(fh, allow_pickle=False)
        fh.read()
    return array


def read_table(path: str | Path, key: str, ids: Iterable[int]) -> FeatureTable | None:
    """The table saved at `path`, or None unless the file is intact, was
    saved under `key`, and holds exactly one row for each of `ids`."""
    try:
        with zipfile.ZipFile(path) as zf:
            arrays = {name: _read_member(zf, f"{name}.npy") for name in _TABLE_ARRAYS}
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

    The model must have been trained on exactly these two features, which
    must differ: the separator `w_a * a + w_b * b + intercept = 0` has one
    weight per axis. Its parameters refer to the scaled feature space the
    model was trained in.
    """
    check_threshold(threshold)
    if ft_a == ft_b:
        raise ValueError(f"the scatter's two features must differ, got FT{ft_a} for both")
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
    return ScatterData(w_a=w[ft_a], w_b=w[ft_b], intercept=float(model.intercept), rows=rows)


# ---------------------------------------------------------------------------
# the CSV files the CLI writes (formats are part of the artifact's contract)


@dataclass(frozen=True)
class CsvFormat:
    """A CSV file: the names and kinds (int or float) of each row's fields,
    and the rules each row keeps, checked in order: ("position", column) is
    the row's number from 1; ("unique", column); ("range", column, lo, hi[,
    why]), with `hi` None when the reader is given it; ("non-rising",
    column). Line 1 is `first`, by default the names, where a `<name>`
    field stands for a float the file carries."""

    names: str
    kinds: tuple[type, ...]
    rules: tuple[tuple, ...] = ()
    first: str = ""

    @property
    def header(self) -> str:
        return self.first or self.names


RANKING_CSV = CsvFormat("ft_id,mean_abs_pearson,rank", (int, float, int), (
    ("range", "ft_id", 1, N_FEATURES, "is outside {lo}..{hi}"), ("unique", "ft_id"),
    ("position", "rank"),
    # a mean |r| may round to just above 1, so only finiteness bounds it
    ("range", "mean_abs_pearson", 0.0, sys.float_info.max, "is not a finite number >= 0"),
    ("non-rising", "mean_abs_pearson")))
CURVE_CSV = CsvFormat("k,train_f1,eval_f1", (int, float, float), (
    ("position", "k"), ("range", "train_f1", 0, 1), ("range", "eval_f1", 0, 1)))
METRICS_CSV = CsvFormat("tp,fp,fn,tn,precision,recall,f1", (int,) * 4 + (float,) * 3,
                        (("range", "f1", 0, 1),))
SCORES_CSV = CsvFormat("instance_id,probability", (int, float), (("unique", "instance_id"),))
SCATTER_CSV = CsvFormat("x,y,label,predicted", (float, float, int, int),
                        first="#separator,<w_a>,<w_b>,<b>")
TRAIN_IDS_CSV = CsvFormat("batch,instance_id", (int, int), (  # hi: the split manifest's
    ("range", "batch", 0, None, "outside {lo}..{hi}"), ("unique", "instance_id")))
SET_IDS_CSV = CsvFormat("instance_id", (int,), (("unique", "instance_id"),))


def _fmt(value: float) -> str:
    return repr(float(value))


def write_csv(path: str | Path, fmt: CsvFormat, rows: Iterable[tuple],
              head: Sequence[float] = ()) -> None:
    """`rows` (tuples in column order) below line 1 of `fmt`, whose `<name>`
    fields are the `head` values."""
    texts = [_fmt if kind is float else str for kind in fmt.kinds]
    values = map(_fmt, head)
    first = ",".join(next(values) if field[0] == "<" else field for field in fmt.header.split(","))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in [first, *(
            ",".join([text(v) for text, v in zip(texts, row, strict=True)]) for row in rows)])


def _repeats(name: str, column: list) -> Iterator[tuple[int, str]]:
    first: dict = {}
    return ((i, f"{name} {v!r} is listed twice, first on line {first[v] + 2}")
            for i, v in enumerate(column) if first.setdefault(v, i) != i)


# rule kind: (column name, column, the rule's arguments) -> (row index,
# why) of each row that breaks it
_RULES = {
    "position": lambda name, column: (
        (i, f"{name} {v!r}, expected {i + 1}") for i, v in enumerate(column) if v != i + 1),
    "unique": _repeats,
    "range": lambda name, column, lo, hi, why="is not a number in [{lo}, {hi}]": (
        (i, f"{name} {v!r} {why.format(lo=lo, hi=hi)}")
        for i, v in enumerate(column) if not lo <= v <= hi),  # False for nan
    "non-rising": lambda name, column: (
        (i, f"{name} {v!r} rises above {column[i - 1]!r} on line {i + 1}")
        for i, v in enumerate(column) if i and v > column[i - 1]),
}


def read_csv(path: str | Path, fmt: CsvFormat, hi: int | None = None
             ) -> tuple[list[list], tuple[float, ...]]:
    """The columns of a CSV file of format `fmt`, and the values of the
    `<name>` fields of line 1; `hi` is the range rule's bound that `fmt`
    leaves open. A line 1 that is not the header, a row that does not
    convert, and the first row that breaks a rule are refused by file and
    line."""
    first, *rows = Path(path).read_text(encoding="utf-8").splitlines() or [""]
    header = fmt.header.split(",")
    try:
        fields = first.split(",")
        if any(field != name for field, name in zip(fields, header, strict=True) if name[0] != "<"):
            raise ValueError
        head = tuple(float(field) for field, name in zip(fields, header) if name[0] == "<")
    except ValueError:
        raise ValueError(f"{path}:1: expected header {fmt.header}, got {first!r}") from None
    columns = [[] for _ in fmt.kinds]
    appends = [column.append for column in columns]
    for lineno, line in enumerate(rows, start=2):
        try:
            for append, kind, field in zip(appends, fmt.kinds, line.split(","), strict=True):
                append(kind(field))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected {fmt.names}, got {line!r}") from None
    named = dict(zip(fmt.names.split(","), columns))
    broken = [next(_RULES[kind](name, named[name], *[hi if a is None else a for a in args]), None)
              for kind, name, *args in fmt.rules]
    if any(broken):  # the first row, and in it the first rule
        i, why = min(filter(None, broken), key=lambda b: b[0])
        raise ValueError(f"{path}:{i + 2}: {why}")
    return columns, head


def read_curve(path: str | Path) -> list[CurvePoint]:
    """The points of a curve file (CURVE_CSV)."""
    return [CurvePoint(*row) for row in zip(*read_csv(path, CURVE_CSV)[0])]


def read_ranking(path: str | Path) -> list[RankedFeature]:
    """The rows of a ranking file (RANKING_CSV), in rank order."""
    return [RankedFeature(*row) for row in zip(*read_csv(path, RANKING_CSV)[0])]
