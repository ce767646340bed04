import json

import pytest

from droprec.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from droprec.corpus import load_corpus


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared gen + split artifacts so the slower subcommands reuse them."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    assert main(["gen", "--profile", "separable", "--n", "120",
                 "--seed", "7", "--out", str(corpus)]) == EXIT_OK
    assert main(["split", "--in", str(corpus), "--seed", "1",
                 "--out-dir", str(root / "splits")]) == EXIT_OK
    return root


def train_args(workspace, out_model, extra=()):
    return [
        "train",
        "--train", str(workspace / "splits" / "train.jsonl"),
        "--dev", str(workspace / "splits" / "dev.jsonl"),
        "--fallback-dim", "8", "--window", "1", "--layers", "2",
        "--epochs", "3", "--lr", "0.01", "--seed", "5",
        "--out-model", str(out_model),
        *extra,
    ]


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["gen", "--profile", "separable", "--n", "50",
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_split_writes_three_partitions(workspace):
    sizes = [len(load_corpus(workspace / "splits" / f"{part}.jsonl").sentences)
             for part in ("train", "dev", "test")]
    assert sizes == [72, 24, 24]


def test_train_then_recover_and_eval(workspace, tmp_path):
    model = tmp_path / "model.json"
    assert main(train_args(workspace, model)) == EXIT_OK
    assert model.exists()

    recovered = tmp_path / "recovered.jsonl"
    assert main(["recover", "--model", str(model),
                 "--in", str(workspace / "splits" / "test.jsonl"),
                 "--out", str(recovered), "--threshold", "0.3"]) == EXIT_OK
    lines = recovered.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["label_set"] == "full14"
    body = [json.loads(line) for line in lines[1:]]
    assert len(body) == 24
    for obj in body:
        for gap, tag, confidence in obj["annotations"]:
            assert 0 <= gap <= len(obj["tokens"])
            assert isinstance(tag, str)
            assert 0.0 <= confidence <= 1.0

    report_path = tmp_path / "report.json"
    assert main(["eval", "--model", str(model),
                 "--test", str(workspace / "splits" / "test.jsonl"),
                 "--positions", "gold", "--report", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for section in ("dpi", "dpg"):
        block = report[section]
        confusion = block["confusion"]
        trace = sum(confusion[i][i] for i in range(len(confusion)))
        assert block["accuracy"] == trace / block["n"]


def test_train_is_idempotent(workspace, tmp_path):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(train_args(workspace, m1)) == EXIT_OK
    assert main(train_args(workspace, m2)) == EXIT_OK
    assert m1.read_bytes() == m2.read_bytes()


def test_train_accepts_reference_generation_settings(workspace, tmp_path):
    # reference generation settings for the larger dataset:
    # 10 layers, dropout 0.8, 10 epochs
    model = tmp_path / "deep.json"
    args = [
        "train",
        "--train", str(workspace / "splits" / "train.jsonl"),
        "--dev", str(workspace / "splits" / "dev.jsonl"),
        "--fallback-dim", "4", "--layers", "10", "--dropout", "0.8",
        "--epochs", "10", "--hidden", "32", "--lr", "0.001", "--seed", "2",
        "--out-model", str(model),
    ]
    assert main(args) == EXIT_OK
    saved = json.loads(model.read_text(encoding="utf-8"))
    assert saved["dpg"]["hyperparams"]["layer_count"] == 10
    assert saved["dpg"]["hyperparams"]["dropout_rate"] == 0.8
    assert saved["dpg"]["hyperparams"]["epochs"] == 10


def test_compare_runs_significance(workspace, capsys):
    args = [
        "compare",
        "--train", str(workspace / "splits" / "train.jsonl"),
        "--dev", str(workspace / "splits" / "dev.jsonl"),
        "--fallback-dim", "8", "--layers", "2", "--epochs", "5",
        "--seed", "3", "--alpha", "0.05",
    ]
    assert main(args) == EXIT_OK
    out = capsys.readouterr().out
    assert "linear (layers=1)" in out
    assert "paired t-test" in out


# --- exit codes -----------------------------------------------------------------


@pytest.mark.parametrize("alpha", ["2", "1", "0", "nan"])
def test_compare_alpha_outside_unit_interval_is_usage_error(tmp_path, capsys, alpha):
    # the corpora do not exist: exit 1 shows parsing failed before any loading
    args = ["compare", "--train", str(tmp_path / "absent.jsonl"),
            "--dev", str(tmp_path / "absent.jsonl"), "--fallback-dim", "4",
            "--alpha", alpha]
    assert main(args) == EXIT_USAGE
    assert "--alpha" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["gen", "--profile", "separable"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_unknown_profile_is_usage_error(capsys):
    assert main(["gen", "--profile", "nope", "--n", "5", "--out", "x.jsonl"]) == EXIT_USAGE


def test_invalid_flag_value_is_usage_error(capsys):
    assert main(["gen", "--profile", "separable", "--n", "0", "--out", "x.jsonl"]) == EXIT_USAGE
    assert main(["split", "--in", "c.jsonl", "--seed", "oops",
                 "--out-dir", "d"]) == EXIT_USAGE


def test_missing_file_is_data_error(tmp_path, capsys):
    missing = tmp_path / "absent.jsonl"
    assert main(["split", "--in", str(missing), "--seed", "1",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert "file not found" in capsys.readouterr().err


def test_label_set_conflict_is_data_error(workspace, tmp_path, capsys):
    args = train_args(workspace, tmp_path / "m.json", extra=["--label-set", "actual10"])
    assert main(args) == EXIT_DATA
    assert "conflicts" in capsys.readouterr().err


def test_corpus_too_small_to_split_is_data_error(tmp_path, capsys):
    tiny = tmp_path / "tiny.jsonl"
    assert main(["gen", "--profile", "separable", "--n", "3",
                 "--seed", "1", "--out", str(tiny)]) == EXIT_OK
    assert main(["split", "--in", str(tiny), "--seed", "1",
                 "--out-dir", str(tmp_path / "s")]) == EXIT_DATA
    assert "too small" in capsys.readouterr().err
