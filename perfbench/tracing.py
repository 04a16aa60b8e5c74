"""Spans and counters around the public calls of each refilter layer.

The tracer wraps functions from outside the package: while installed, it
replaces each listed function (and every `from ... import` binding of it
inside `refilter`) with a wrapper that records a span. Nothing under
`src/` changes, and an uninstalled tracer leaves no wrapper behind, so
untraced runs pay nothing.

A span is (name, start, end, parent, phase). Spans are kept in memory
and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, phase]
        self.counts: Counter = Counter()  # (phase, name) -> count
        self.distinct_rows: dict[str, set[int]] = {}  # phase -> instance ids gathered
        self.peak_alloc: dict[str, int] = {}
        self.phase = "setup"
        self.active = False
        self._stack: list[int] = []
        self._mem_layers: frozenset[str] = frozenset()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.phase]
        self.spans.append(record)
        self._stack.append(index)
        own_malloc = name in self._mem_layers and not tracemalloc.is_tracing()
        if own_malloc:
            tracemalloc.start()
        try:
            yield
        finally:
            if own_malloc:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_alloc[name] = max(self.peak_alloc.get(name, 0), peak)
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def in_phase(self, phase: str):
        """Tag the spans opened inside the block with another phase."""
        outer, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = outer

    def add(self, name: str, n: int) -> None:
        self.counts[(self.phase, name)] += n

    # -- installing wrappers ---------------------------------------------------

    @contextmanager
    def installed(self, phase: str, mem_layers=()):
        """Wrap every traced call for the duration of the block; spans
        opened inside carry `phase`. Layers named in `mem_layers` also run
        under tracemalloc, which slows them several times over."""
        self.phase = phase
        self._mem_layers = frozenset(mem_layers)
        undo = _install(self)
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self._mem_layers = frozenset()

    # -- derived metrics -------------------------------------------------------

    def _durations(self, name: str, phases) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4] in phases]

    def total(self, name: str, phases=("setup", "round")) -> float:
        return sum(self._durations(name, phases))

    def calls(self, name: str, phases=("setup", "round")) -> int:
        return len(self._durations(name, phases))

    def count(self, name: str, phases=("setup", "round")) -> int:
        return sum(self.counts[(phase, name)] for phase in phases)

    def distinct(self, phases=("setup", "round")) -> int:
        return len(set().union(*(self.distinct_rows.get(phase, ()) for phase in phases)))

    def self_time(self, prefix: str, phases=("setup", "round")) -> float:
        """Time inside spans whose name starts with `prefix`, minus the time
        their direct children cover (children of one span never overlap:
        the benchmark is single-threaded)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return sum(
            (end - start) - child_time[i]
            for i, (name, start, end, _, phase) in enumerate(self.spans)
            if name.startswith(prefix) and phase in phases
        )

    def median_ms(self, name: str, phases) -> float:
        durations = self._durations(name, phases)
        return 1000.0 * statistics.median(durations) if durations else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "fields": ["name", "start", "end", "parent", "phase"],
            "spans": self.spans,
            "counts": {f"{phase}:{name}": n for (phase, name), n in self.counts.items()},
            "peak_alloc_bytes": self.peak_alloc,
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, commands) -> dict[str, float]:
    """Every per-layer metric, from the spans of setup and the traced round
    (assemble from the check, allocation peaks from the memory probe).
    `commands` names the CLI spans; workloads without them report 0."""
    t, c = tracer.total, tracer.count
    load_s = t("corpus_io.load")
    featurize_s = t("features.extract")
    bytes_parsed = c("bytes_parsed")
    rows = c("featurized_rows")
    gathered, distinct = c("rows_gathered"), tracer.distinct()
    metrics = {
        "corpus_io.load_s": load_s,
        "corpus_io.load_calls": tracer.calls("corpus_io.load"),
        "corpus_io.bytes_parsed": bytes_parsed,
        "corpus_io.load_mb_per_s": _ratio(bytes_parsed / 2**20, load_s),
        "corpus_io.generate_s": t("corpus_io.generate"),
        "corpus_io.write_s": t("corpus_io.write"),
        "corpus_io.peak_alloc_mb": tracer.peak_alloc.get("corpus_io.load", 0) / 2**20,
        "history.index_s": t("history.index"),
        "history.index_builds": tracer.calls("history.index"),
        "vectorspace.idf_s": t("vectorspace.idf"),
        "vectorspace.idf_builds": tracer.calls("vectorspace.idf"),
        "features.featurize_s": featurize_s,
        "features.rows": rows,
        "features.rows_per_s": _ratio(rows, featurize_s),
        "features.peak_alloc_mb": tracer.peak_alloc.get("features.extract", 0) / 2**20,
        "features.assemble_ms.p50": tracer.median_ms("features.assemble", ("check",)),
        "features.scaling_s": t("features.scaling"),
        "features.scaling_calls": tracer.calls("features.scaling"),
        "learner.train_s": t("learner.train"),
        "learner.fits": tracer.calls("learner.train"),
        "learner.newton_iters": c("newton_iters"),
        "learner.predict_s": t("learner.predict"),
        "learner.predict_rows": c("predicted_rows"),
        "experiments.build_s": t("experiments.build"),
        "experiments.rank_s": t("experiments.rank"),
        "experiments.curve_self_s": tracer.self_time("experiments.curve"),
        "experiments.rows_gathered": gathered,
        "experiments.rows_distinct": distinct,
        "experiments.rows_gathered_per_distinct": _ratio(gathered, distinct),
        "cli.self_s": tracer.self_time("cli."),
    }
    for name in commands:
        metrics[f"cli.cmd_s.{name}"] = t(f"cli.{name}")
    return metrics


# ---------------------------------------------------------------------------
# the wrapped calls


def _install(tracer: Tracer) -> list[tuple[object, str, object]]:
    from refilter import corpus_io, experiments, features, history, learner, vectorspace

    undo: list[tuple[object, str, object]] = []

    def patch_function(module, attr: str, span: str, after=None, before=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with tracer.span(span):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        # rebind the name wherever `refilter` imported it, so calls from
        # inside the package go through the wrapper too
        for name, mod in list(sys.modules.items()):
            if (name == "refilter" or name.startswith("refilter.")) and getattr(
                mod, attr, None
            ) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_method(cls, attr: str, span: str | None, before=None) -> None:
        original = getattr(cls, attr)

        def wrapper(self_, *args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            if span is None:
                return original(self_, *args, **kwargs)
            with tracer.span(span):
                return original(self_, *args, **kwargs)

        undo.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def count_bytes(*paths, **_):
        tracer.add("bytes_parsed", sum(os.path.getsize(p) for p in paths[:3]))

    def count_featurized(ctx, instances):
        tracer.add("featurized_rows", len(instances))

    def count_newton(model, *_, **__):
        tracer.add("newton_iters", model.n_iter)

    def count_predicted(probs, *_, **__):
        tracer.add("predicted_rows", len(probs))

    def count_gathered(instances):
        tracer.add("rows_gathered", len(instances))
        tracer.distinct_rows.setdefault(tracer.phase, set()).update(
            inst.instance_id for inst in instances
        )

    patch_function(corpus_io, "load_corpus", "corpus_io.load", before=count_bytes)
    patch_function(corpus_io, "generate_synthetic", "corpus_io.generate")
    patch_function(corpus_io, "write_corpus", "corpus_io.write")
    patch_method(history.UserHistoryIndex, "__init__", "history.index")
    patch_function(vectorspace, "build_idf", "vectorspace.idf")
    patch_function(features, "extract_matrix", "features.extract", before=count_featurized)
    patch_function(features, "assemble", "features.assemble")
    patch_function(features, "fit_scaling", "features.scaling")
    patch_function(features, "apply_scaling", "features.scaling")
    patch_function(learner, "train", "learner.train", after=count_newton)
    patch_function(learner, "predict_proba_matrix", "learner.predict", after=count_predicted)
    patch_function(experiments, "build_dataset", "experiments.build")
    patch_function(experiments, "rank_features", "experiments.rank")
    patch_function(experiments, "featurize", "experiments.featurize")
    patch_function(experiments, "incremental_eval", "experiments.curve")
    patch_method(experiments.FeatureTable, "rows", None, before=count_gathered)
    return undo
