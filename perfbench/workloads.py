"""The benchmark workloads: walkthrough, curve-wide and featurize-long.

Each workload builds its inputs in `setup`, runs one closed-loop round of
its timed operation in `run_round` (one caller, no threads), checks the
program's outputs in `check`, and repeats its heaviest corpus-load and
featurize calls in `mem_probe`, so the traced run can take tracemalloc
peaks apart from the timed spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from refilter import cli, corpus_io, experiments, features, history, learner, vectorspace
from refilter.experiments import SplitSpec

# the README's corpus: `refilter synth --seed 7 --num-recipients 25
# --neighbours-per-user 12 --days 60 --retweet-rate 0.3 --signal-strength 8.0`
README_CONFIG = corpus_io.SyntheticConfig(
    num_recipients=25,
    neighbours_per_user=12,
    days=60,
    retweet_rate=0.3,
    signal_strength=8.0,
)
README_CORPUS_SEED = 7


@dataclasses.dataclass
class Round:
    """One round of a workload's timed operation."""

    seconds: float  # wall time of the timed operation
    attempted: int
    failed: int
    parts: dict[str, float] = dataclasses.field(default_factory=dict)  # named sub-timings, s
    notes: list[str] = dataclasses.field(default_factory=list)


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def _confusion(predicted: np.ndarray, truth: np.ndarray) -> tuple[int, int, int, int]:
    predicted = np.asarray(predicted, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    return (
        int(np.sum(predicted & truth)),
        int(np.sum(predicted & ~truth)),
        int(np.sum(~predicted & truth)),
        int(np.sum(~predicted & ~truth)),
    )


def _probe_phase(tracer):
    """Keep a round's consistency probes out of the per-layer figures."""
    return tracer.in_phase("probe") if tracer is not None else contextlib.nullcontext()


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


# ---------------------------------------------------------------------------
# walkthrough: the nine README invocations, in process


_SPLIT_FLAGS = ["--corpus", "corpus", "--splits", "splits"]
README_COMMANDS: tuple[tuple[str, list[str]], ...] = (
    ("synth", ["synth", "--out", "corpus", "--seed", str(README_CORPUS_SEED),
               "--num-recipients", "25", "--neighbours-per-user", "12", "--days", "60",
               "--retweet-rate", "0.3", "--signal-strength", "8.0"]),
    ("build", ["build", "--corpus", "corpus", "--out", "splits",
               "--batch-pos", "50", "--batch-neg", "50",
               "--train-batches", "120", "--dev-batches", "10", "--test-batches", "10"]),
    ("rank", ["rank", *_SPLIT_FLAGS, "--out", "ranking.csv"]),
    ("train", ["train", *_SPLIT_FLAGS, "--ranking", "ranking.csv", "--top-m", "10",
               "--out", "model.json"]),
    ("eval", ["eval", *_SPLIT_FLAGS, "--model", "model.json",
              "--eval-set", "dev_unbalanced", "--out", "metrics.csv"]),
    ("curve", ["curve", *_SPLIT_FLAGS, "--top-m", "10", "--eval-set", "dev_unbalanced",
               "--out", "curve.csv"]),
    ("score", ["score", *_SPLIT_FLAGS, "--model", "model.json", "--split", "dev_unbalanced",
               "--out", "scores.csv"]),
    ("train_pair", ["train", *_SPLIT_FLAGS, "--features", "10,43", "--out", "two.json"]),
    ("scatter", ["scatter", *_SPLIT_FLAGS, "--model", "two.json", "--eval-set",
                 "dev_unbalanced", "--ft-a", "10", "--ft-b", "43", "--out", "scatter.csv"]),
)
WALKTHROUGH_COUNTS = {
    "train": 12_000,
    "dev_balanced": 1_000,
    "dev_unbalanced": 530,
    "test_balanced": 1_000,
    "test_unbalanced": 530,
}
MODEL_F1_BAR = 0.60
BAYES_F1_BAR = 0.80


class Walkthrough:
    """The README walkthrough, verbatim: its inputs are fixed by the README
    (corpus seed 7, build seed 0), so `seed` does not change them. Outputs
    are compared byte for byte across rounds whenever a run makes two or
    more (the traced run always does)."""

    name = "walkthrough"
    min_rounds = 1

    def __init__(self, seed: int, work: Path, src: Path, tracer=None) -> None:
        self.work = work
        self.src = src
        self.tracer = tracer
        self.round_dirs: list[Path] = []
        self.round_stdout: list[dict[str, str]] = []

    def setup(self) -> None:
        """Start-up cost of a fresh `refilter` process: interpreter, numpy
        and the package import, which every real CLI invocation pays."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        # no timeout: with one, Popen.wait polls in 50 ms steps, which
        # would quantize the measurement
        subprocess.run([sys.executable, "-c", "import refilter.cli"], env=env, check=True)

    def run_round(self, index: int) -> Round:
        directory = self.work / f"round-{index}"
        directory.mkdir(parents=True)
        self.round_dirs.append(directory)
        stdout: dict[str, str] = {}
        parts: dict[str, float] = {}
        failed = 0
        home = Path.cwd()
        os.chdir(directory)
        try:
            for name, argv in README_COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    with self._span(f"cli.{name}"):
                        start = time.perf_counter()
                        try:
                            code = cli.main(list(argv))
                        except SystemExit as exc:  # argparse rejects the flags
                            code = exc.code if isinstance(exc.code, int) else 2
                        parts[name] = time.perf_counter() - start
                stdout[name] = out.getvalue()
                if code != 0:
                    failed += 1
        finally:
            os.chdir(home)
        self.round_stdout.append(stdout)
        notes = [f"{name}: {text.strip()}" for name, text in stdout.items()]
        return Round(sum(parts.values()), len(README_COMMANDS), failed, parts, notes)

    def _span(self, name: str):
        if self.tracer is not None and self.tracer.active:
            return self.tracer.span(name)
        return contextlib.nullcontext()

    def mem_probe(self) -> None:
        """`refilter curve` again: the walkthrough's largest corpus load
        and featurize call."""
        home = Path.cwd()
        os.chdir(self.round_dirs[0])
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["curve", *_SPLIT_FLAGS, "--top-m", "10", "--out", "curve-probe.csv"])
            Path("curve-probe.csv").unlink()
        finally:
            os.chdir(home)

    def output_digests(self, index: int) -> dict[str, str]:
        directory = self.round_dirs[index]
        digests = {
            str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*"))
            if path.is_file()
        }
        for name, text in self.round_stdout[index].items():
            digests[f"stdout:{name}"] = hashlib.sha256(text.encode()).hexdigest()
        return digests

    def check(self) -> tuple[list[str], list[str]]:
        problems: list[str] = []
        base = self.round_dirs[0]
        first = self.output_digests(0)
        for index in range(1, len(self.round_dirs)):
            digests = self.output_digests(index)
            differ = sorted(k for k in first.keys() | digests.keys()
                            if first.get(k) != digests.get(k))
            if differ:
                problems.append(f"round {index} outputs differ from round 0: {differ}")
        notes = [f"sha256 {digest} {name}" for name, digest in sorted(first.items())]
        problems += _walkthrough_problems(base)
        return problems, notes


def _walkthrough_problems(base: Path) -> list[str]:
    problems: list[str] = []

    def require(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    # synth: manifest counts equal the JSONL line counts
    corpus_dir = base / "corpus"
    manifest = json.loads((corpus_dir / corpus_io.MANIFEST_FILE).read_text(encoding="utf-8"))
    for key, filename in (("users", corpus_io.PROFILES_FILE), ("events", corpus_io.HISTORY_FILE),
                          ("instances", corpus_io.INSTANCES_FILE)):
        with open(corpus_dir / filename, "rb") as fh:
            lines = sum(1 for _ in fh)
        require(manifest[key] == lines,
                f"synth manifest {key}={manifest[key]}, {filename} has {lines} lines")

    label: dict[int, bool] = {}
    key_of: dict[int, tuple[int, int]] = {}
    with open(corpus_dir / corpus_io.INSTANCES_FILE, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            label[rec["instance_id"]] = bool(rec["label"])
            key_of[rec["instance_id"]] = (rec["timestamp"], rec["instance_id"])

    # build: split arithmetic, class balance, disjointness, time order
    split_manifest = json.loads((base / "splits" / "manifest.json").read_text(encoding="utf-8"))
    require(split_manifest["counts"] == WALKTHROUGH_COUNTS,
            f"build counts {split_manifest['counts']} != {WALKTHROUGH_COUNTS}")
    batches: dict[int, list[int]] = {}
    for b, iid in _read_csv(base / "splits" / cli.SPLIT_FILES["train"]):
        batches.setdefault(int(b), []).append(int(iid))
    ids = {name: [int(r[0]) for r in _read_csv(base / "splits" / cli.SPLIT_FILES[name])]
           for name in cli.EVAL_SETS}
    require(sorted(batches) == list(range(120)), "train batches are not 0..119")
    for b, members in sorted(batches.items()):
        pos = sum(label[i] for i in members)
        require((pos, len(members) - pos) == (50, 50),
                f"train batch {b} holds {pos} positives and {len(members) - pos} negatives")
    train = [i for b in sorted(batches) for i in batches[b]]
    groups = {"train": train, "dev": ids["dev_balanced"], "test": ids["test_balanced"]}
    seen: set[int] = set()
    for name, members in groups.items():
        require(not seen.intersection(members) and len(set(members)) == len(members),
                f"split {name} overlaps an earlier split or repeats an instance")
        seen.update(members)
    require(set(ids["dev_unbalanced"]) <= set(ids["dev_balanced"]),
            "dev_unbalanced is not drawn from dev_balanced")
    require(set(ids["test_unbalanced"]) <= set(ids["test_balanced"]),
            "test_unbalanced is not drawn from test_balanced")
    # batch i's positives (and negatives) precede batch i+1's; dev follows
    # train and test follows dev in both class streams
    ordered = [batches[b] for b in sorted(batches)] + [ids["dev_balanced"], ids["test_balanced"]]
    for cls in (True, False):
        spans = [[key_of[i] for i in group if label[i] == cls] for group in ordered]
        for a, (earlier, later) in enumerate(zip(spans, spans[1:])):
            require(max(earlier) < min(later),
                    f"{'positive' if cls else 'negative'} stream out of order after group {a}")

    # rank: a permutation of 1..50 with non-increasing scores in [0, 1]
    ranking = experiments.read_ranking(base / "ranking.csv")
    require(sorted(r.ft_id for r in ranking) == list(range(1, 51)),
            "ranking is not a permutation of 1..50")
    require([r.rank for r in ranking] == list(range(1, 51)), "ranks are not 1..50 in order")
    scores = [r.pearson_r for r in ranking]
    require(all(0.0 <= s <= 1.0 for s in scores), "ranking score outside [0, 1]")
    require(all(a >= b for a, b in zip(scores, scores[1:])), "ranking scores increase")

    # train: both models converged on the expected features
    model = learner.model_from_json((base / "model.json").read_text(encoding="utf-8"))
    pair = learner.model_from_json((base / "two.json").read_text(encoding="utf-8"))
    require(model.converged and pair.converged, "a trained model did not converge")
    require(model.selected_features == tuple(r.ft_id for r in ranking[:10]),
            f"model.json uses {model.selected_features}, not the top 10 of the ranking")
    require(pair.selected_features == (10, 43), f"two.json uses {pair.selected_features}")

    # eval: counts, recomputed rates, the acceptance bars
    (row,) = _read_csv(base / "metrics.csv")
    tp, fp, fn, tn = (int(v) for v in row[:4])
    precision, recall, f1 = (float(v) for v in row[4:])
    dev = ids["dev_unbalanced"]
    truth = np.array([label[i] for i in dev])
    require(tp + fp + fn + tn == len(dev) == 530, f"eval counts sum to {tp + fp + fn + tn}")
    require(tp + fn == int(truth.sum()),
            f"eval tp+fn={tp + fn}, corpus has {int(truth.sum())} positives")
    want = (tp / (tp + fp) if tp + fp else 0.0, tp / (tp + fn) if tp + fn else 0.0, _f1(tp, fp, fn))
    require(all(math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-15)
                for g, w in zip((precision, recall, f1), want)),
            f"eval rates {(precision, recall, f1)} do not recompute from counts {want}")
    require(f1 >= MODEL_F1_BAR, f"eval F1 {f1:.4f} < {MODEL_F1_BAR}")
    corpus = corpus_io.load_corpus_dir(corpus_dir)
    config = corpus_io.config_from_dict(manifest["config"])
    z = corpus_io.planted_decision_values(corpus, config, [corpus.instance_by_id[i] for i in dev])
    btp, bfp, bfn, _ = _confusion(z >= 0, truth)
    require(_f1(btp, bfp, bfn) >= BAYES_F1_BAR,
            f"Bayes-rule F1 {_f1(btp, bfp, bfn):.4f} < {BAYES_F1_BAR} on dev_unbalanced")

    # score: probabilities in [0, 1] that reproduce eval's confusion counts
    scored = _read_csv(base / "scores.csv")
    require([int(r[0]) for r in scored] == dev, "scores.csv does not list dev_unbalanced in order")
    probs = np.array([float(r[1]) for r in scored])
    require(bool(np.all((probs >= 0.0) & (probs <= 1.0))), "score probability outside [0, 1]")
    require(_confusion(probs >= 0.5, truth) == (tp, fp, fn, tn),
            f"scores at 0.5 give {_confusion(probs >= 0.5, truth)}, eval gave {(tp, fp, fn, tn)}")

    # curve: k = 1..120, ending at eval's F1
    curve = experiments.read_curve(base / "curve.csv")
    require([p.k for p in curve] == list(range(1, 121)), "curve rows are not k = 1..120")
    require(bool(curve) and curve[-1].eval_f1 == f1,
            f"curve eval_f1 at k=120 is {curve[-1].eval_f1 if curve else None}, eval F1 is {f1}")

    # scatter: the separator is two.json's
    lines = (base / "scatter.csv").read_text(encoding="utf-8").splitlines()
    w = dict(zip(pair.selected_features, pair.weights))
    separator = [float(v) for v in lines[0].split(",")[1:]]
    require(separator == [w[10], w[43], pair.intercept],
            f"scatter separator {separator} != two.json {[w[10], w[43], pair.intercept]}")
    require(len(lines) - 1 == len(dev), f"scatter has {len(lines) - 1} rows, not {len(dev)}")
    return problems


# ---------------------------------------------------------------------------
# curve-wide: one learning curve over 240 small batches, all 50 features


CURVE_SPEC = dict(batch_pos=25, batch_neg=25, train_batches=240, dev_batches=10,
                  test_batches=10, unbalanced_pos_per_batch=1, unbalanced_neg_per_batch=25)
CURVE_TOP_M = features.N_FEATURES
CURVE_SAMPLED_K = 3  # plus the last k
# An instance whose independently fitted probability lies within this
# margin of the 0.5 threshold may fall either way: the program stops Newton
# at gradient max-norm 1e-6, which leaves probabilities up to ~1e-3 from the
# exact optimum on the upper half of the curve.
CURVE_MARGIN = 0.01


class CurveWide:
    name = "curve-wide"
    min_rounds = 1

    def __init__(self, seed: int, work: Path, src: Path, tracer=None) -> None:
        self.seed = seed
        self.points: list[list[experiments.CurvePoint]] = []

    def setup(self) -> None:
        """Generate, index and featurize the walkthrough corpus, cut into
        240 + 10 + 10 batches of 25 + 25 with the workload seed."""
        corpus = corpus_io.generate_synthetic(README_CONFIG, README_CORPUS_SEED)
        hist = history.UserHistoryIndex(corpus)
        idf = vectorspace.build_idf(e.tokens for e in corpus.events)
        spec = SplitSpec(seed=self.seed, **CURVE_SPEC)
        self.splits = experiments.build_dataset(corpus, spec, hist)
        self.ctx = features.FeatureContext(corpus, hist, idf)
        self.table = experiments.featurize_splits(self.ctx, self.splits)

    def run_round(self, index: int) -> Round:
        start = time.perf_counter()
        points = experiments.incremental_eval(self.splits, self.table, top_m=CURVE_TOP_M)
        seconds = time.perf_counter() - start
        self.points.append(points)
        return Round(seconds, 1, 0)

    def mem_probe(self) -> None:
        ctx = features.FeatureContext(self.ctx.corpus, self.ctx.hist, self.ctx.idf)
        experiments.featurize_splits(ctx, self.splits)

    def check(self) -> tuple[list[str], list[str]]:
        problems: list[str] = []
        notes: list[str] = []
        points = self.points[0]
        K = len(self.splits.train_batches)
        if [p.k for p in points] != list(range(1, K + 1)):
            return [f"curve rows are not k = 1..{K}"], notes
        for index, other in enumerate(self.points[1:], start=1):
            if other != points:
                problems.append(f"round {index} curve differs from round 0")
        row_of = {int(i): r for r, i in enumerate(self.table.ids)}

        def gather(instances):
            rows = [row_of[inst.instance_id] for inst in instances]
            return self.table.X[rows], self.table.y[rows].astype(bool)

        eval_X, eval_y = gather(self.splits.dev_unbalanced)
        rng = random.Random(f"curve-check:{self.seed}")
        ks = sorted(rng.sample(range(K // 2, K), CURVE_SAMPLED_K)) + [K]
        for k in ks:
            train_X, train_y = gather([i for b in self.splits.train_batches[:k] for i in b])
            mins, maxs = train_X.min(axis=0), train_X.max(axis=0)
            train_S, eval_S = _min_max(train_X, mins, maxs), _min_max(eval_X, mins, maxs)
            fit = _fit_l2_logistic(train_S, train_y, learner.Hyper().lam)
            if not fit.success:
                problems.append(f"k={k}: the independent fit failed: {fit.message}")
                continue
            point = points[k - 1]
            for split, S, y, got in (("train", train_S, train_y, point.train_f1),
                                     ("eval", eval_S, eval_y, point.eval_f1)):
                p = 1.0 / (1.0 + np.exp(-(S @ fit.x[:-1] + fit.x[-1])))
                low, high, unsure = _f1_bounds(p, y, CURVE_MARGIN)
                if not low - 1e-12 <= got <= high + 1e-12:
                    problems.append(f"k={k}: curve {split}_f1 {got!r} outside the independent "
                                    f"[{low!r}, {high!r}]")
                notes.append(f"k={k} {split}: curve F1 {got:.6f}, independent [{low:.6f}, "
                             f"{high:.6f}], {unsure} within {CURVE_MARGIN} of 0.5")
        return problems, notes


def _min_max(X: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Clamped min-max scaling of the count-like columns; degenerate ones
    map to 0, flags and similarities pass through."""
    scaled = np.zeros(features.N_FEATURES, dtype=bool)
    scaled[[ft - 1 for ft in features.SCALED_FEATURE_IDS]] = True
    span = maxs - mins
    out = X.copy()
    live = scaled & (span > 0)
    out[:, live] = np.clip((X[:, live] - mins[live]) / span[live], 0.0, 1.0)
    out[:, scaled & (span <= 0)] = 0.0
    return out


def _fit_l2_logistic(X: np.ndarray, y: np.ndarray, lam: float):
    """Mean negative log-likelihood + lam/2 |w|^2, intercept unpenalized,
    minimized by scipy's trust-region solver with the exact Hessian."""
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    yf = y.astype(np.float64)
    penalty = np.r_[np.full(d, lam), 0.0]

    def objective(theta):
        z = A @ theta
        p = 1.0 / (1.0 + np.exp(-z))
        value = np.mean(np.logaddexp(0.0, z) - yf * z) + 0.5 * float(penalty @ theta**2)
        return value, A.T @ (p - yf) / n + penalty * theta

    def hessian(theta):
        p = 1.0 / (1.0 + np.exp(-(A @ theta)))
        return A.T @ (A * (p * (1.0 - p) / n)[:, None]) + np.diag(penalty)

    return minimize(objective, np.zeros(d + 1), jac=True, hess=hessian, method="trust-exact",
                    options={"gtol": 1e-10, "maxiter": 1000})


def _f1_bounds(p: np.ndarray, y: np.ndarray, margin: float) -> tuple[float, float, int]:
    """Lowest and highest F1 over every way the instances within `margin`
    of 0.5 could be classified, and how many such instances there are."""
    unsure = np.abs(p - 0.5) < margin
    sure = (p >= 0.5) & ~unsure
    tp, fp, fn, _ = _confusion(sure | (unsure & y), y)
    high = _f1(tp, fp, fn)
    tp, fp, fn, _ = _confusion(sure | (unsure & ~y), y)
    return _f1(tp, fp, fn), high, int(unsure.sum())


# ---------------------------------------------------------------------------
# featurize-long: one feature sweep over a 120-day corpus


LONG_CONFIG = dataclasses.replace(README_CONFIG, days=120)
LONG_CORPUS_SEED = 11
ASSEMBLE_SAMPLE = 50
# Subset-consistency probes: fixed subsets, the same on every seed.
SUBSETS = 1
SUBSET_SIZE = 500

FLAG_IDS = (2, 3, 4, 7, 8, 18, 20, 29, 31, 36, 37, 38, 39, 40, 44)
SIMILARITY_IDS = (10, 11, 12, 13, 42, 43)
COUNT_IDS = (1, 5, 6, 9, 14, 15, 16, 17, 19, 25, 26, 27, 28, 30, 41, 45, 46, 47, 48, 49)


class FeaturizeLong:
    name = "featurize-long"
    # a 4 s sweep sits inside one of the machine's fast or slow spells;
    # four of them span enough of the run for their median to hold still
    min_rounds = 4

    def __init__(self, seed: int, work: Path, src: Path, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.table: experiments.FeatureTable | None = None  # round 0's sweep
        self.order_problems: list[str] = []

    def setup(self) -> None:
        """Generate and index a 120-day corpus; the sweep takes its
        instances in an order drawn from the workload seed."""
        corpus = corpus_io.generate_synthetic(LONG_CONFIG, LONG_CORPUS_SEED)
        self.corpus = corpus
        self.hist = history.UserHistoryIndex(corpus)
        self.idf = vectorspace.build_idf(e.tokens for e in corpus.events)
        self.subsets = [random.Random(f"subset:{j}").sample(corpus.instances, SUBSET_SIZE)
                        for j in range(SUBSETS)]

    def _context(self) -> features.FeatureContext:
        # a fresh context per call: its vector cache is part of the sweep's work
        return features.FeatureContext(self.corpus, self.hist, self.idf)

    def run_round(self, index: int) -> Round:
        order = list(self.corpus.instances)
        random.Random(f"sweep-order:{self.seed}:{index}").shuffle(order)
        ctx = self._context()
        start = time.perf_counter()
        table = experiments.featurize(ctx, order)
        seconds = time.perf_counter() - start
        failed = 0
        notes = [f"sweep of {len(order)} rows: {seconds:.3f} s, {len(order) / seconds:.0f} rows/s"]
        with _probe_phase(self.tracer):
            if self.table is None:
                self.table = table
            elif not np.array_equal(table.rows(self.corpus.instances)[0],
                                    self.table.rows(self.corpus.instances)[0]):
                self.order_problems.append(
                    f"round {index} sweep (another input order) differs from round 0")
            for j, subset in enumerate(self.subsets):
                alone = experiments.featurize(self._context(), subset)
                swept, _ = table.rows(subset)
                differ = np.any(alone.X != swept, axis=1)
                if differ.any():
                    failed += 1
                    notes.append(f"subset {j}: {int(differ.sum())} of {len(subset)} rows differ "
                                 f"bitwise from the full sweep, max |diff| "
                                 f"{np.abs(alone.X - swept).max():.2e}")
        return Round(seconds, 1 + SUBSETS, failed, notes=notes)

    def mem_probe(self) -> None:
        experiments.featurize(self._context(), self.corpus.instances)

    def check(self) -> tuple[list[str], list[str]]:
        problems = list(self.order_problems)
        X = self.table.X

        def columns(fts):
            return X[:, [ft - 1 for ft in fts]]

        if not np.all(np.isfinite(X)):
            problems.append("non-finite feature value")
        if not np.all(np.isin(columns(FLAG_IDS), (0.0, 1.0))):
            problems.append("flag column outside {0, 1}")
        sims = columns(SIMILARITY_IDS)
        if not np.all((sims >= 0.0) & (sims <= 1.0)):
            problems.append("similarity column outside [0, 1]")
        if not np.all(columns(COUNT_IDS) >= 0.0):
            problems.append("negative count")

        rng = random.Random(f"assemble:{self.seed}")
        sample = rng.sample(self.corpus.instances, ASSEMBLE_SAMPLE)
        ctx = self._context()
        direct = np.array([features.assemble(inst, ctx).values for inst in sample])
        worst = float(np.max(np.abs(direct - self.table.rows(sample)[0])))
        if not worst <= 1e-9:
            problems.append(f"sweep and assemble differ by {worst:.3e} (> 1e-9)")
        notes = [f"assemble agrees on {ASSEMBLE_SAMPLE} sampled rows within {worst:.2e}"]
        return problems, notes


WORKLOADS = {w.name: w for w in (Walkthrough, CurveWide, FeaturizeLong)}
