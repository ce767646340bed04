import json

import pytest

from droprec.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from droprec.corpus import FULL14, AnnotatedSentence, Corpus, load_corpus, save_corpus


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


@pytest.fixture(scope="module")
def model_file(workspace):
    """One trained model for the tests that only read it."""
    model = workspace / "model.json"
    assert main(train_args(workspace, model)) == EXIT_OK
    return model


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


def test_recover_output_ends_records_only_at_newline(model_file, tmp_path):
    # str.splitlines() also breaks at these characters, which the writer
    # leaves raw inside JSON strings
    tokens = [("他\u2028说", "要"), ("买\u2029",), ("\u0085它", "好", "了")]
    corpus = Corpus(FULL14, tuple(AnnotatedSentence(t) for t in tokens))
    inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    save_corpus(corpus, inp)
    assert main(["recover", "--model", str(model_file), "--in", str(inp),
                 "--out", str(out), "--threshold", "0"]) == EXIT_OK
    text = out.read_bytes().decode("utf-8")
    assert "\r" not in text  # json.dumps escapes it inside strings
    records = text.split("\n")
    assert records.pop() == ""  # the last record ends with "\n" too
    assert len(records) == 1 + len(corpus)
    header, *body = [json.loads(record) for record in records]
    assert header["label_set"] == "full14"
    assert [tuple(obj["tokens"]) for obj in body] == tokens
    # threshold 0 detects every gap, so each record carries n + 1 triples
    assert [len(obj["annotations"]) for obj in body] == [len(t) + 1 for t in tokens]


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


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_is_usage_error(tmp_path, capsys, lr):
    # the corpora do not exist: exit 1 shows parsing failed before any loading
    args = ["train", "--train", str(tmp_path / "absent.jsonl"),
            "--dev", str(tmp_path / "absent.jsonl"), "--fallback-dim", "4",
            "--lr", lr, "--out-model", str(tmp_path / "m.json")]
    assert main(args) == EXIT_USAGE
    assert "--lr" in capsys.readouterr().err


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


def test_model_with_non_numeric_threshold_is_data_error(workspace, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(train_args(workspace, model)) == EXIT_OK
    obj = json.loads(model.read_text(encoding="utf-8"))
    obj["threshold"] = "abc"
    model.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["recover", "--model", str(model),
                 "--in", str(workspace / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "out.jsonl")]) == EXIT_DATA
    assert "corrupt recovery model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("{broken", "not valid JSON"), (None, "corrupt recovery model: unknown label set")],
    ids=["corrupt-json", "unknown-label-set"],
)
def test_unreadable_model_is_data_error(workspace, model_file, tmp_path, capsys, text, message):
    if text is None:  # a well-formed model file naming an unknown label set
        obj = json.loads(model_file.read_text(encoding="utf-8"))
        obj["label_set"] = "nope"
        text = json.dumps(obj)
    model = tmp_path / "model.json"
    model.write_text(text, encoding="utf-8")
    assert main(["eval", "--model", str(model),
                 "--test", str(workspace / "splits" / "test.jsonl"),
                 "--report", str(tmp_path / "report.json")]) == EXIT_DATA
    assert message in capsys.readouterr().err


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
