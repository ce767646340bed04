"""Span tracing of droprec's public functions, installed from outside the package.

While a `Tracer` is patched in, every function listed in `TARGETS` is
replaced, in every ``droprec.*`` namespace that holds it, by a wrapper that
records a span (name, start, end, parent id).  Module globals are swapped,
so calls such as ``mlp.train`` -> ``forward`` and ``evaluate`` ->
``dpi_gap_probability`` are caught without touching the package.  Spans
live in flat arrays and are written out once, at the end of a run; the
per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute) pairs to wrap; "Class.method" patches the class.
# The span name is "<layer>.<short name>", the layer being the module.
TARGETS = (
    ("droprec.mlp", "train"),
    ("droprec.mlp", "build_model"),
    ("droprec.mlp", "forward"),
    ("droprec.mlp", "backward"),
    ("droprec.mlp", "sgd_step"),
    ("droprec.mlp", "predict"),
    ("droprec.mlp", "model_to_dict"),
    ("droprec.mlp", "model_from_dict"),
    ("droprec.rng", "SplitMix64.shuffle"),
    ("droprec.rng", "SplitMix64.floats"),
    ("droprec.rng", "SplitMix64.uniform_array"),
    ("droprec.hypotheses", "build_dpi_instances"),
    ("droprec.hypotheses", "build_dpg_instances"),
    ("droprec.embeddings", "load_embeddings"),
    ("droprec.embeddings", "deterministic_fallback_table"),
    ("droprec.embeddings", "context_embedding"),
    ("droprec.pipeline", "train_recovery"),
    ("droprec.pipeline", "tune_threshold"),
    ("droprec.pipeline", "dpi_gap_probability"),
    ("droprec.pipeline", "predict_dpi"),
    ("droprec.pipeline", "predict_dpg"),
    ("droprec.pipeline", "recover"),
    ("droprec.pipeline", "save_recovery_model"),
    ("droprec.pipeline", "load_recovery_model"),
    ("droprec.evaluate", "evaluate_dpi"),
    ("droprec.evaluate", "evaluate_dpg"),
    ("droprec.corpus", "load_corpus"),
    ("droprec.corpus", "save_corpus"),
    ("droprec.corpus", "split_corpus"),
    ("droprec.synth", "generate_corpus"),
    ("droprec.cli", "main"),
    ("droprec.cli", "cmd_gen"),
    ("droprec.cli", "cmd_split"),
    ("droprec.cli", "cmd_train"),
    ("droprec.cli", "cmd_recover"),
    ("droprec.cli", "cmd_eval"),
)

LAYERS = ("mlp", "rng", "hypotheses", "embeddings", "pipeline", "evaluate", "corpus", "synth",
          "cli")

# Span the benchmark opens around each CLI subprocess; its self time is
# interpreter start-up, import and exit of the child.
SUBPROCESS_SPAN = "cli.subprocess"


def _span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"


def _file_bytes(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


# Counters taken at the call boundary, after the span has closed.
def _count_dpi(counters, args, kwargs, result):
    corpus = args[0] if args else kwargs["corpus"]
    negatives = sum(len(s.tokens) + 1 - len(s.annotations) for s in corpus.sentences)
    counters["hypotheses.negatives_available"] += negatives
    counters["hypotheses.negatives_kept"] += sum(1 for inst in result if inst.label == 0)
    counters["hypotheses.instances"] += len(result)


def _count_dpg(counters, args, kwargs, result):
    counters["hypotheses.instances"] += len(result)


def _count_table(counters, args, kwargs, result):
    counters["embeddings.words"] += len(result)


def _count_recover(counters, args, kwargs, result):
    counters["pipeline.candidate_gaps"] += len(result.tokens) + 1
    counters["pipeline.detected_gaps"] += len(result.recovered)


def _count_model_save(counters, args, kwargs, result):
    counters["pipeline.model_bytes"] += _file_bytes(args[1] if len(args) > 1 else kwargs["path"])


def _count_corpus_save(counters, args, kwargs, result):
    counters["corpus.bytes"] += _file_bytes(args[1] if len(args) > 1 else kwargs["path"])


def _count_generate(counters, args, kwargs, result):
    counters["synth.sentences"] += len(result.sentences)


HOOKS = {
    "hypotheses.build_dpi_instances": _count_dpi,
    "hypotheses.build_dpg_instances": _count_dpg,
    "embeddings.load_embeddings": _count_table,
    "embeddings.deterministic_fallback_table": _count_table,
    "pipeline.recover": _count_recover,
    "pipeline.save_recovery_model": _count_model_save,
    "corpus.save_corpus": _count_corpus_save,
    "synth.generate_corpus": _count_generate,
}


class Tracer:
    """In-memory span store with the attribute patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        hook = HOOKS.get(name)
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Swap every target for its traced wrapper; restore on exit."""
        for module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "droprec" or n.startswith("droprec."))]
        undo = []
        for module_name, attr in TARGETS:
            name = _span_name(module_name, attr)
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        try:
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    # --- moving spans between processes ----------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names if self.names else [""], dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            counters=np.array([json.dumps(dict(self.counters))]),
        )

    def merge(self, path, parent_idx: int) -> None:
        """Append spans saved by a child process under one of our spans.

        perf_counter is CLOCK_MONOTONIC, shared by parent and child, so the
        child's spans sit inside the parent span that waited for it.
        """
        with np.load(path, allow_pickle=False) as data:
            names = [str(n) for n in data["names"]]
            ids = [self._intern(n) for n in names]
            offset = len(self.start)
            lo, hi = self.start[parent_idx], time.perf_counter()
            for nid, s, e, p in zip(data["name_id"].tolist(), data["start"].tolist(),
                                    data["end"].tolist(), data["parent"].tolist()):
                self.name_id.append(ids[nid])
                self.start.append(min(max(s, lo), hi))
                self.end.append(min(max(e, lo), hi))
                self.parent.append(parent_idx if p < 0 else p + offset)
            self.counters.update(json.loads(str(data["counters"][0])))


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics from the recorded spans.

    A span's self time is its duration minus that of its direct children;
    spans nest, so the self times of all spans add up to the time covered by
    the outermost spans, which cannot exceed the traced wall time.
    """
    n = len(tracer.start)
    start = np.frombuffer(tracer.start, dtype=np.float64)[:n]
    end = np.frombuffer(tracer.end, dtype=np.float64)[:n]
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)[:n]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[:n]
    dur = end - start
    child_sum = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_time = np.maximum(dur - child_sum, 0.0)

    k = len(tracer.names)
    incl_by_name = np.bincount(name_id, weights=dur, minlength=k)
    self_by_name = np.bincount(name_id, weights=self_time, minlength=k)
    calls_by_name = np.bincount(name_id, minlength=k)
    incl = {nm: float(incl_by_name[i]) for i, nm in enumerate(tracer.names)}
    calls = {nm: int(calls_by_name[i]) for i, nm in enumerate(tracer.names)}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, nm in enumerate(tracer.names):
        layer_self[nm.split(".", 1)[0]] += float(self_by_name[i])

    # Child start-up: from the parent opening the subprocess span to the
    # child's first span (its cli.main).
    startups = []
    sub_id = tracer._name_ids.get(SUBPROCESS_SPAN)
    if sub_id is not None:
        for idx in np.flatnonzero(name_id == sub_id):
            kids = np.flatnonzero(parent == idx)
            if kids.size:
                startups.append(float(start[kids].min() - start[idx]))

    c = tracer.counters

    def t(name):
        return incl.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = calls.get("mlp.backward", 0)
    table_s = t("embeddings.load_embeddings") + t("embeddings.deterministic_fallback_table")
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    metrics.update({
        "mlp.train_s": t("mlp.train"),
        "mlp.steps": steps,
        "mlp.step_us": ratio(t("mlp.train"), steps) * 1e6,
        "mlp.forward_calls": calls.get("mlp.forward", 0),
        "mlp.forward_s": t("mlp.forward"),
        "mlp.backward_s": t("mlp.backward"),
        "mlp.sgd_step_s": t("mlp.sgd_step"),
        "mlp.predict_calls": calls.get("mlp.predict", 0),
        "rng.shuffle_s": t("rng.shuffle"),
        "hypotheses.build_s": t("hypotheses.build_dpi_instances")
        + t("hypotheses.build_dpg_instances"),
        "hypotheses.instances": c["hypotheses.instances"],
        "hypotheses.negative_keep_ratio": ratio(
            c["hypotheses.negatives_kept"], c["hypotheses.negatives_available"]),
        "embeddings.context_calls": calls.get("embeddings.context_embedding", 0),
        "embeddings.context_s": t("embeddings.context_embedding"),
        "embeddings.table_s": table_s,
        "embeddings.words_per_s": ratio(c["embeddings.words"], table_s),
        "pipeline.recover_s": t("pipeline.recover"),
        "pipeline.detect_ratio": ratio(c["pipeline.detected_gaps"], c["pipeline.candidate_gaps"]),
        "pipeline.tune_threshold_s": t("pipeline.tune_threshold"),
        "pipeline.model_save_s": t("pipeline.save_recovery_model"),
        "pipeline.model_load_s": t("pipeline.load_recovery_model"),
        "pipeline.model_bytes": c["pipeline.model_bytes"],
        "evaluate.dpi_s": t("evaluate.evaluate_dpi"),
        "evaluate.dpg_s": t("evaluate.evaluate_dpg"),
        "corpus.load_s": t("corpus.load_corpus"),
        "corpus.save_s": t("corpus.save_corpus"),
        "corpus.split_s": t("corpus.split_corpus"),
        "corpus.bytes": c["corpus.bytes"],
        "synth.generate_s": t("synth.generate_corpus"),
        "synth.sentences_per_s": ratio(c["synth.sentences"], t("synth.generate_corpus")),
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.calls": len(startups),
        "trace.wall_s": wall_s,
        "trace.self_sum_s": float(self_time.sum()),
        "trace.spans": n,
    })
    return metrics
