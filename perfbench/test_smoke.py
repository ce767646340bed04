"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced on tiny inputs (a few seconds in
all) and checks the result contract against BENCHMARK.json, the traced
self-time budget, and that corrupted outputs count as failed operations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

TINY = workloads.Sizes(
    train_sentences=60, train_slice=20, train_epochs=1, infer_train_sentences=60,
    infer_epochs=1, infer_sentences=40, infer_chunk=20, w2v_words=300, w2v_dim=8,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {(name, trace): workloads.execute(name, 5, 0.1, trace, TINY, work)
            for name in WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(records, workload, trace, section):
    line = workloads.result_line(records[workload, trace])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_the_traced_wall_time(records, workload):
    m = records[workload, True]["metrics"]
    layer_total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert 0 < layer_total <= m["trace.self_sum_s"] + 1e-9
    assert m["trace.self_sum_s"] <= m["trace.wall_s"]
    assert all(m[f"{layer}.self_s"] > 0 for layer in LAYERS)


def test_rescaled_rate_cancels_a_host_slowdown():
    unit = {"items": 1000, "seconds": 0.2, "probe_s": workloads.REF_PROBE_S}
    slow = {"items": 1000, "seconds": 0.3, "probe_s": workloads.REF_PROBE_S * 1.5}
    assert workloads.ref_rate([unit]) == pytest.approx(5000)
    assert workloads.ref_rate([slow]) == pytest.approx(5000)
    assert workloads.raw_rate([slow]) == pytest.approx(1000 / 0.3)


def _recover_file(path, sentences, cut=None):
    lines = [json.dumps({"label_set": "full14", "metadata": {}})]
    lines += [json.dumps({"tokens": t, "annotations": [[1, "wo", 0.9]]}) for t, _ in sentences]
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text[:cut] if cut else text, encoding="utf-8")


def test_truncated_recover_output_counts_failed_operations(tmp_path):
    gold = [(["a", "b"], []), (["c"], []), (["d", "e", "f"], [])]
    path = tmp_path / "recovered.jsonl"
    _recover_file(path, gold)
    assert checks.check_recover_output(path, gold) == []

    _recover_file(path, gold, cut=-10)  # last line cut mid-record
    run = workloads.Run(0, TINY, tmp_path, trace=False)
    run.op(len(gold), checks.check_recover_output(path, gold))
    assert (run.attempted, len(run.failures)) == (3, 1)

    _recover_file(path, gold[:1])  # two sentences missing
    assert len(checks.check_recover_output(path, gold)) == 2


def test_wrong_recover_output_fails_the_run(tmp_path, monkeypatch):
    from droprec import pipeline

    real = pipeline.recover

    def off_by_one(model, sentence):
        result = real(model, sentence)
        return pipeline.RecoveredSentence(
            result.tokens, ((len(sentence.tokens) + 1, "wo", 0.5),))

    monkeypatch.setattr(pipeline, "recover", off_by_one)
    record = workloads.execute("infer", 5, 0.1, False, TINY, tmp_path)
    line = workloads.result_line(record)
    assert not line["correct"]
    assert line["failed"] >= TINY.infer_sentences


def test_report_invariants_catch_a_changed_cell():
    gold = [(["a", "b"], [[1, "wo"]]), (["c"], [])]
    payload = {"dpi": {"n": 5, "accuracy": 0.8, "class_names": ["not_dropped", "dropped"],
                       "confusion": [[4, 0], [1, 0]]},
               "dpg": {"n": 1, "accuracy": 1.0, "class_names": ["wo", "<none>"],
                       "confusion": [[1, 0], [0, 0]]}}
    assert checks.check_report(payload, gold) == []
    payload["dpi"]["confusion"] = [[3, 1], [1, 0]]
    assert checks.check_report(payload, gold)


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
