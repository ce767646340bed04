"""The benchmark's two workloads and the run loop they share.

Each workload is a closed loop with one caller: the next unit of work
starts when the previous one, and its output checks, have finished.  CLI
subprocesses run one after another.  Inputs are made from the workload
seed, with the program's own `gen`/`split`/`train` commands and a seeded
word2vec writer; the program sees only those files.

* ``train``: per-instance SGD with dropout on an ontonotes-like corpus
  and the seeded fallback table (no word2vec file).  Unit of work: one
  `train_recovery` call on a fixed slice of the training split; items are
  SGD steps.
* ``infer``: eval-mode gap features and forward passes.  A model trained
  once with a 50k x 100 word2vec file (window 2, actual10) recovers and
  scores a zhidao-like corpus.  Unit: one chunk of the corpus, one
  `recover` call per sentence, then `evaluate_dpi` and
  `evaluate_dpg(positions="predicted")` on the chunk; items are candidate
  gaps, scored once by each of the three.  A block is one pass over all
  chunks.

The host's speed swings by a third and more, at the scale of
milliseconds to minutes.  So each unit (about 0.1 s) is followed by a
fixed reference probe that uses no droprec code, each set-up is bracketed
by two, and the gated timings are rescaled to the speed the probes show
next to them: ``ref_items_per_s`` and ``setup_s`` are what a host that
runs the probe in `REF_PROBE_S` would see.  The raw figures stay in the
record.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracing import SUBPROCESS_SPAN, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 170

# A traced run times this many traced blocks of units and as many
# untraced ones.
TRACE_PAIRS = 2

# Units of `train` per set-up, and per traced block.
TRAIN_BLOCK = 8


@dataclass(frozen=True)
class Sizes:
    train_sentences: int = 1000
    train_slice: int = 100  # training sentences per unit; dev gets a third
    train_epochs: int = 2
    infer_train_sentences: int = 1000
    infer_epochs: int = 3
    infer_sentences: int = 4000
    infer_chunk: int = 100  # sentences per unit
    w2v_words: int = 50_000
    w2v_dim: int = 100


FULL = Sizes()


# Median seconds of one speed probe on the reference host: a 2-vCPU Xeon
# (Sapphire Rapids class) VM, Python 3.11, numpy 2.4.
REF_PROBE_S = 0.0125


class SpeedProbe:
    """A fixed piece of work shaped like droprec's per-instance SGD (small
    numpy products in a Python loop) that uses none of droprec's code.
    Timed next to a unit or set-up, it tells how fast the host ran then."""

    STEPS = 200

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w1 = rng.standard_normal((32, 200)) * 0.1
        self.w2 = rng.standard_normal((200, 14)) * 0.1
        self.xs = rng.standard_normal((self.STEPS, 32))

    def __call__(self, repeats: int = 1) -> float:
        """Seconds one probe takes; the median of `repeats` of them."""
        return statistics.median(self._once() for _ in range(repeats))

    def bracket(self, fn):
        """Run `fn`; return its result, its seconds, and the mean of the
        probes (median of three each) timed just before and just after."""
        before = self(3)
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        return result, seconds, (before + self(3)) / 2

    def _once(self) -> float:
        w1, w2 = self.w1.copy(), self.w2.copy()
        t0 = time.perf_counter()
        for x in self.xs:
            h = np.maximum(x @ w1, 0.0)
            z = h @ w2
            p = np.exp(z - z.max())
            p /= p.sum()
            p[0] -= 1.0
            dh = (w2 @ p) * (h > 0)
            w2 -= 0.01 * np.outer(h, p)
            w1 -= 0.01 * np.outer(x, dh)
        return time.perf_counter() - t0


class StepFailed(Exception):
    """A CLI step exited non-zero; the unit that ran it is abandoned."""


def write_word2vec(path, corpus_words, total_words: int, dim: int, seed: int) -> None:
    """Seeded word2vec text file: the corpus words at random rows among
    distractors, components uniform in [-1, 1] printed with 3 decimals."""
    rng = np.random.default_rng(seed)
    corpus_words = sorted(set(corpus_words))
    total_words = max(total_words, len(corpus_words))
    rows = np.empty(total_words, dtype=object)
    at = rng.choice(total_words, size=len(corpus_words), replace=False)
    rows[at] = corpus_words
    free = np.ones(total_words, dtype=bool)
    free[at] = False
    rows[free] = [f"zz{i:06d}" for i in range(int(free.sum()))]
    lut = np.array([f"{v / 1000:.3f}" for v in range(-1000, 1001)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{total_words} {dim}\n")
        for lo in range(0, total_words, 4096):
            hi = min(lo + 4096, total_words)
            vals = lut[rng.integers(0, 2001, size=(hi - lo, dim))].tolist()
            fh.write("".join(f"{w} {' '.join(v)}\n" for w, v in zip(rows[lo:hi], vals)))


def corpus_tokens(*paths) -> set[str]:
    return {tok for p in paths for tokens, _ in checks.read_corpus(p) for tok in tokens}


def candidate_gaps(sentences) -> int:
    return sum(len(tokens) + 1 for tokens, _ in sentences)


def raw_rate(units: list[dict]) -> float:
    """Median items per second of the units, as timed."""
    return statistics.median(u["items"] / u["seconds"] for u in units)


def ref_rate(units: list[dict]) -> float:
    """Median items per second of the units, each rescaled to the reference
    host speed by the probe timed next to it."""
    return statistics.median(u["items"] / u["seconds"] * u["probe_s"] / REF_PROBE_S
                             for u in units)


def pooled_accuracy(reports: list[dict]) -> float:
    """Accuracy over the union of the reports' instances."""
    right = sum(sum(row[i] for i, row in enumerate(r["confusion"])) for r in reports)
    return right / sum(r["n"] for r in reports)


def slice_corpus(corpus, start: int, stop: int):
    from droprec.corpus import Corpus

    return Corpus(corpus.label_set, corpus.sentences[start:stop], corpus.metadata)


class Run:
    """State of one benchmark invocation: work directory, operation
    accounting, digests, and the tracer when the run is traced."""

    def __init__(self, seed: int, sizes: Sizes, work: Path, trace: bool):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.tracer = Tracer() if trace else None
        self.probe = SpeedProbe()
        self.tracing = False
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.inputs: dict[str, object] = {}
        self._spans_seq = 0

    def op(self, count: int, failures: list[str]) -> None:
        """Account `count` attempted operations, `failures` among them."""
        self.attempted += count
        self.failures.extend(failures[:count])

    @contextmanager
    def traced(self):
        with self.tracer.patched():
            self.tracing = True
            try:
                yield
            finally:
                self.tracing = False

    def child_env(self) -> dict:
        return {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def cli(self, argv: list[str], cwd: Path | None = None) -> float:
        """Run one droprec CLI command in a subprocess; wall seconds."""
        cwd = cwd or self.work
        if self.tracing:
            self._spans_seq += 1
            spans = self.work / f"spans-{self._spans_seq}.npz"
            cmd = [sys.executable, str(HERE / "tracechild.py"), str(spans), *argv]
            span = self.tracer.open(SUBPROCESS_SPAN)
        else:
            cmd = [sys.executable, "-m", "droprec.cli", *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, err = "timeout", ""
        seconds = time.perf_counter() - t0
        if self.tracing:
            if spans.exists():
                self.tracer.merge(spans, span)
                spans.unlink()
            self.tracer.close(span)
        if code != 0:
            self.op(1, [f"droprec {argv[0]} exited {code}: {err.strip()[-300:]}"])
            raise StepFailed(argv[0])
        self.op(1, [])
        return seconds

    def word2vec(self, words: set[str]) -> None:
        """Write w2v.txt for the corpus words (once per run) and record it."""
        z = self.sizes
        write_word2vec("w2v.txt", words, z.w2v_words, z.w2v_dim, self.seed + 3)
        self.inputs["word2vec"] = {"words": max(z.w2v_words, len(words)), "dim": z.w2v_dim,
                                   "corpus_words": len(words),
                                   "bytes": Path("w2v.txt").stat().st_size,
                                   "sha256": checks.sha256("w2v.txt")}

    def same_digests(self, paths: dict[str, Path], tag: str = "") -> list[str]:
        """Digest each output; every unit of a run must reproduce the first
        unit with the same inputs (the same `tag`)."""
        failures = []
        for key, path in paths.items():
            key = f"{tag}{key}"
            digest = checks.sha256(path)
            first = self.digests.setdefault(key, digest)
            if digest != first:
                failures.append(f"{key}: digest {digest[:12]} differs from first unit {first[:12]}")
        return failures

    def recover_and_evaluate(self, model, corpus, gold, tag: str = "") -> dict:
        """Recover every sentence (timing each call) into the recover
        format, then score DPI and predicted-position DPG, and check it all."""
        from droprec import evaluate, pipeline

        latencies = []
        t0 = time.perf_counter()
        with open("recovered.jsonl", "w", encoding="utf-8") as fh:
            header = {"label_set": model.label_set.name,
                      "metadata": {**dict(corpus.metadata), "recovered_by": "droprec"}}
            fh.write(json.dumps(header, ensure_ascii=False) + "\n")
            for sent in corpus.sentences:
                t = time.perf_counter()
                result = pipeline.recover(model, sent)
                latencies.append(time.perf_counter() - t)
                obj = {"tokens": list(result.tokens),
                       "annotations": [list(item) for item in result.recovered]}
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
        t1 = time.perf_counter()
        dpi = evaluate.evaluate_dpi(model, corpus, model.table)
        dpg = evaluate.evaluate_dpg(model, corpus, model.table, positions="predicted")
        t2 = time.perf_counter()
        payload = {"positions": "predicted", "dpi": evaluate.report_to_dict(dpi),
                   "dpg": evaluate.report_to_dict(dpg)}
        Path("report.json").write_text(
            json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        self.op(len(gold), checks.check_recover_output("recovered.jsonl", gold))
        self.op(2, checks.check_report(payload, gold)
                + self.same_digests({"recovered.jsonl": Path("recovered.jsonl"),
                                     "report.json": Path("report.json")}, tag))
        return {"recover_s": t1 - t0, "eval_s": t2 - t1, "latencies": latencies,
                "dpi": payload["dpi"], "dpg": payload["dpg"], "dpi_accuracy": dpi.accuracy,
                "dpg_accuracy": dpg.accuracy}


# --- workloads ---------------------------------------------------------------


class TrainWorkload:
    name = "train"
    block = TRAIN_BLOCK

    def __init__(self, run: Run):
        self.run = run
        self.epochs = run.sizes.train_epochs

    def build_inputs(self) -> None:
        run, s = self.run, self.run.seed
        run.cli(["gen", "--profile", "ontonotes-like", "--n", str(run.sizes.train_sentences),
                 "--seed", str(s), "--out", "corpus.jsonl"])
        run.cli(["split", "--in", "corpus.jsonl", "--seed", str(s + 1), "--out-dir", "splits"])
        self.test_gold = checks.read_corpus("splits/test.jsonl")
        train_gold = checks.read_corpus("splits/train.jsonl")[:run.sizes.train_slice]
        # negative_rate 1.0: every candidate gap is a DPI instance, every
        # annotation a DPG instance.
        self.steps = (candidate_gaps(train_gold)
                      + sum(len(annos) for _, annos in train_gold)) * self.epochs

    def setup(self):
        """Load the splits, keep the slices a unit trains on, and build the
        fallback table over the full train and dev vocabulary."""
        from droprec import deterministic_fallback_table, load_corpus

        train, dev, test = (load_corpus(f"splits/{p}.jsonl") for p in ("train", "dev", "test"))
        vocab = sorted({t for c in (train, dev) for sent in c.sentences for t in sent.tokens})
        table = deterministic_fallback_table(vocab, 16, self.run.seed + 2)
        n = self.run.sizes.train_slice
        return slice_corpus(train, 0, n), slice_corpus(dev, 0, max(1, n // 3)), test, table

    def unit(self, state, index: int) -> dict:
        from droprec import Hyperparams, load_recovery_model, save_recovery_model, train_recovery

        train, dev, test, table = state
        hp = Hyperparams(embed_dim=16, window=1, layer_count=2, hidden_dim=200,
                         dropout_rate=0.2, learning_rate=0.1, epochs=self.epochs,
                         seed=self.run.seed + 3)
        t0 = time.perf_counter()
        model = train_recovery(train, dev, table, hp, hp)
        seconds = time.perf_counter() - t0
        save_recovery_model(model, "model.json")
        self.run.op(1, self.run.same_digests({"model.json": Path("model.json")}))
        unit = {"seconds": seconds, "items": self.steps}
        if index == 0:
            # Every unit's model is byte-identical to the first, so the
            # outputs it would give are too; score one unit per block.
            unit.update(self.run.recover_and_evaluate(load_recovery_model("model.json"), test,
                                                      self.test_gold))
        return unit

    def metrics(self, units: list[dict]) -> tuple[dict, dict]:
        secs = [u["seconds"] for u in units]
        detail = {"train.steps_per_s": raw_rate(units), "train.steps": self.steps,
                  "train.call_s": secs}
        return {"ref_items_per_s": ref_rate(units)}, detail


class InferWorkload:
    name = "infer"

    def __init__(self, run: Run):
        self.run = run
        self.block = -(-run.sizes.infer_sentences // run.sizes.infer_chunk)

    def build_inputs(self) -> None:
        run, s, z = self.run, self.run.seed, self.run.sizes
        run.cli(["gen", "--profile", "zhidao-like", "--n", str(z.infer_train_sentences),
                 "--seed", str(s), "--out", "train_corpus.jsonl"])
        run.cli(["split", "--in", "train_corpus.jsonl", "--seed", str(s + 1),
                 "--out-dir", "splits"])
        run.cli(["gen", "--profile", "zhidao-like", "--n", str(z.infer_sentences),
                 "--seed", str(s + 2), "--out", "infer.jsonl"])
        run.word2vec(corpus_tokens("splits/train.jsonl", "splits/dev.jsonl", "infer.jsonl"))
        run.cli(["train", "--train", "splits/train.jsonl", "--dev", "splits/dev.jsonl",
                 "--embeddings", "w2v.txt", "--window", "2", "--epochs", str(z.infer_epochs),
                 "--seed", str(s + 4), "--out-model", "model.json"])
        run.inputs["model_sha256"] = checks.sha256("model.json")
        self.gold = checks.read_corpus("infer.jsonl")
        self.gaps = candidate_gaps(self.gold)

    def setup(self):
        from droprec import load_corpus, load_recovery_model

        return load_recovery_model("model.json"), load_corpus("infer.jsonl")

    def unit(self, state, index: int) -> dict:
        model, corpus = state
        lo = index * self.run.sizes.infer_chunk
        hi = lo + self.run.sizes.infer_chunk
        gold = self.gold[lo:hi]
        scored = self.run.recover_and_evaluate(model, slice_corpus(corpus, lo, hi), gold,
                                               tag=f"chunk{index}/")
        # recover, evaluate_dpi and predicted-position evaluate_dpg each
        # score every candidate gap of the chunk once.
        return {"seconds": scored["recover_s"] + scored["eval_s"],
                "items": 3 * candidate_gaps(gold), "chunk": index, **scored}

    def metrics(self, units: list[dict]) -> tuple[dict, dict]:
        lat_ms = [x * 1e3 for u in units for x in u["latencies"]]
        pct = statistics.quantiles(lat_ms, n=100) if len(lat_ms) > 1 else lat_ms * 99
        # Accuracies over the whole corpus, pooled from each chunk's first unit.
        first = {}
        for u in units:
            first.setdefault(u["chunk"], u)
        e2e = {"ref_items_per_s": ref_rate(units),
               "dpi_accuracy": pooled_accuracy([u["dpi"] for u in first.values()])}
        detail = {
            "dpg_accuracy": pooled_accuracy([u["dpg"] for u in first.values()]),
            "recover.sentence_ms.p50": statistics.median(lat_ms),
            "recover.sentence_ms.p99": pct[98],
            "recover.samples": len(lat_ms),
        }
        passes = []
        for u in units:
            if u["chunk"] == 0:
                passes.append([])
            if passes:
                passes[-1].append(u)
        passes = [p for p in passes if len(p) == self.block]
        detail["infer.passes"] = len(passes)
        if passes:
            recover_s = [sum(u["recover_s"] for u in p) for p in passes]
            detail.update({
                "recover.pass_ms.p50": statistics.median(recover_s) * 1e3,
                "recover.sentences_per_s": len(self.gold) / statistics.median(recover_s),
                "eval.gaps_per_s": statistics.median(2 * self.gaps / sum(u["eval_s"] for u in p)
                                                     for p in passes),
            })
        return e2e, detail


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload)}


# --- run loop ----------------------------------------------------------------


def _attempt(run: Run, fn, *args):
    """Run one unit; a unit that raises counts as one failed operation."""
    try:
        return fn(*args)
    except StepFailed:
        return None
    except Exception:  # the loop must go on and report the failure
        run.op(1, [traceback.format_exc(limit=3)[-600:]])
        return None


def _block(run: Run, wl, state) -> list[dict]:
    """The workload's units for one set-up, in order, each with the speed
    probe timed after it unless the run is traced; failed units left out."""
    done = []
    for i in range(wl.block):
        u = _attempt(run, wl.unit, state, i)
        if u is not None:
            if run.tracer is None:
                u["probe_s"] = run.probe()
            done.append(u)
    return done


def _untraced(run: Run, wl, seconds: float) -> tuple[dict, dict]:
    """Set-up and a block of units alternate for `seconds`, so both are
    sampled across the whole run and the machine's speed swings hit them
    alike."""
    wl.build_inputs()
    setups, setup_probes, units, state = [], [], [], None
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or not units:
        state = None  # drop the previous copy before loading the next
        state, setup_s, probe_s = run.probe.bracket(wl.setup)
        setups.append(setup_s)
        setup_probes.append(probe_s)
        done = _block(run, wl, state)
        units.extend(done)
        if not done and time.perf_counter() - t0 >= seconds:
            break
    if not units:
        raise RuntimeError("no unit of work completed")
    scored = [u for u in units if "dpi_accuracy" in u]
    if not scored:
        raise RuntimeError("no unit's output was scored")
    e2e = {"dpi_accuracy": statistics.median(u["dpi_accuracy"] for u in scored),
           "setup_s": statistics.median(s * REF_PROBE_S / p
                                        for s, p in zip(setups, setup_probes)),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}  # KiB
    unit_s = sorted(u["seconds"] for u in units)
    detail = {"units": len(units), "items_per_s": raw_rate(units),
              "unit_s.p50": statistics.median(unit_s),
              "setup_s.raw": statistics.median(setups), "setup_s.samples": setups,
              "setup_probe_s.samples": setup_probes,
              "unit_s.samples": [u["seconds"] for u in units],
              "unit_probe_s.samples": [u["probe_s"] for u in units],
              "dpg_accuracy": statistics.median(u["dpg_accuracy"] for u in scored)}
    if len(unit_s) > 10:  # the highest percentile with ten samples beyond it
        detail["unit_s.tail"] = unit_s[-11]
        detail["unit_s.tail_pct"] = 100 * (len(unit_s) - 10) / len(unit_s)
    e2e_wl, detail_wl = wl.metrics(units)
    e2e.update(e2e_wl)
    detail.update(detail_wl)
    return e2e, detail


def _traced(run: Run, wl) -> tuple[dict, dict]:
    """Inputs, one set-up and `TRACE_PAIRS` blocks of units run traced; as
    many untraced blocks, interleaved, give the tracing overhead."""
    wall = 0.0
    t0 = time.perf_counter()
    with run.traced():
        wl.build_inputs()
        state = wl.setup()
    wall += time.perf_counter() - t0
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        done = _block(run, wl, state)
        if len(done) == wl.block:
            plain.append(sum(u["seconds"] for u in done))
        t0 = time.perf_counter()
        with run.traced():
            done = _block(run, wl, state)
        wall += time.perf_counter() - t0
        if len(done) == wl.block:
            traced.append(sum(u["seconds"] for u in done))
    if not plain or not traced:
        raise RuntimeError("no block of units completed")
    per_layer = summarize(run.tracer, wall)
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    per_layer["trace.overhead_pct"] = overhead * 100
    per_layer["trace.units"] = len(traced) * wl.block
    detail = {"trace.block_s": traced, "untraced.block_s": plain}
    return per_layer, detail


def execute(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
            work_root: Path | None = None) -> dict:
    """Run one workload in a fresh work directory and return the record."""
    work_root = work_root or HERE / "_work"
    work = work_root / f"{workload}-s{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        run = Run(seed, sizes, work, trace)
        wl = WORKLOADS[workload](run)
        metrics, detail = _traced(run, wl) if trace else _untraced(run, wl, seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    failed = min(len(run.failures), run.attempted)
    detail["op_failure_rate"] = failed / max(run.attempted, 1)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": sizes.__dict__, "attempted": run.attempted, "failed": failed,
        "failures": run.failures[:20], "metrics": metrics, "detail": detail,
        "digests": run.digests, "inputs": run.inputs, "tracer": run.tracer,
    }


def result_line(record: dict) -> dict:
    """The one-line result: correctness, operation counts, and the metrics
    BENCHMARK.json names for the run's mode, with the units it gives."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in section}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}
