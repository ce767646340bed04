import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import droprec
from _blocks import decode_block, encode_block, with_value
from droprec.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from droprec.corpus import FULL14, AnnotatedSentence, Corpus, load_corpus, save_corpus
from droprec.embeddings import context_rows
from droprec.mlp import Hyperparams
from droprec.pipeline import dpi_gap_probability, load_recovery_model, predict_dpi, recover
from droprec.synth import builtin_grammar, generate_corpus


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


def train_args(workspace, out_model, extra=(), table=("--fallback-dim", "8")):
    return [
        "train",
        "--train", str(workspace / "splits" / "train.jsonl"),
        "--dev", str(workspace / "splits" / "dev.jsonl"),
        *table, "--window", "1", "--layers", "2",
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


@pytest.fixture(scope="module")
def w2v_model(workspace):
    """A model trained with --embeddings, in a directory beside its table.

    The table holds the train and dev words, so some test words are out
    of vocabulary, plus unused words that no corpus has."""
    run = workspace / "w2v"
    run.mkdir()
    words = sorted({tok for part in ("train", "dev") for sent in
                    load_corpus(workspace / "splits" / f"{part}.jsonl").sentences
                    for tok in sent.tokens}) + ["unused1", "unused2"]
    rng = np.random.default_rng(0)
    lines = [f"{word} " + " ".join(f"{x:.4f}" for x in rng.uniform(-1, 1, 8)) for word in words]
    (run / "vec.txt").write_text(f"{len(words)} 8\n" + "\n".join(lines) + "\n",
                                 encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(run)  # trained as a user would, with paths relative to the working directory
    try:
        assert main(train_args(workspace, "model.json", table=("--embeddings", "vec.txt"))) \
            == EXIT_OK
    finally:
        os.chdir(cwd)
    return run / "model.json"


def recover_and_eval(workspace, model, out_dir):
    """Exit codes of recover and eval on the test split, outputs in out_dir."""
    test = str(workspace / "splits" / "test.jsonl")
    return (main(["recover", "--model", str(model), "--in", test,
                  "--out", str(out_dir / "recovered.jsonl"), "--threshold", "0.3"]),
            main(["eval", "--model", str(model), "--test", test, "--positions", "predicted",
                  "--report", str(out_dir / "report.json")]))


def output_bytes(out_dir):
    return [(out_dir / name).read_bytes() for name in ("recovered.jsonl", "report.json")]


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


def test_word2vec_model_names_its_table_by_hash_and_relative_path(workspace, w2v_model,
                                                                   tmp_path, monkeypatch):
    run = w2v_model.parent
    ref = json.loads(w2v_model.read_text(encoding="utf-8"))["table_ref"]
    assert ref["path"] == "vec.txt"
    assert ref["sha256"] == hashlib.sha256((run / "vec.txt").read_bytes()).hexdigest()
    # The same training run from elsewhere writes the same bytes.
    monkeypatch.chdir(tmp_path)
    again = run / "again.json"
    assert main(train_args(workspace, os.path.relpath(again),
                           table=("--embeddings", os.path.relpath(run / "vec.txt")))) == EXIT_OK
    assert again.read_bytes() == w2v_model.read_bytes()


def test_word2vec_model_runs_from_another_directory(workspace, w2v_model, tmp_path,
                                                    monkeypatch):
    home, away = tmp_path / "home", tmp_path / "away"
    home.mkdir(), away.mkdir()
    monkeypatch.chdir(w2v_model.parent)
    assert recover_and_eval(workspace, "model.json", home) == (EXIT_OK, EXIT_OK)
    monkeypatch.chdir(away)
    assert recover_and_eval(workspace, os.path.relpath(w2v_model), away) == (EXIT_OK, EXIT_OK)
    assert output_bytes(away) == output_bytes(home)


def test_edited_word2vec_file_is_data_error(workspace, w2v_model, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(w2v_model.parent, run)
    table = run / "vec.txt"
    content = table.read_bytes()
    at = content.index(b"\nunused1 ") + len(b"\nunused1 ") + 1  # a digit of an unused row
    table.write_bytes(content[:at] + bytes([content[at] ^ 1]) + content[at + 1:])
    capsys.readouterr()
    assert recover_and_eval(workspace, run / "model.json", tmp_path) == (EXIT_DATA, EXIT_DATA)
    err = capsys.readouterr().err
    assert err.count("SHA-256") == 2 and "Traceback" not in err
    assert not (tmp_path / "recovered.jsonl").exists() and not (tmp_path / "report.json").exists()


def test_train_on_a_word2vec_file_bad_mid_scan_exits_with_no_thread_left(workspace, tmp_path):
    # Over 1 MB, so the scan stops with chunks of the file still to hash;
    # a hashing thread left running would keep the interpreter from exiting.
    rows = [f"w{i} " + " ".join(["0.125"] * 8) for i in range(40000)]
    rows[20000] = "w20000 0.125"
    (tmp_path / "vec.txt").write_text("40000 8\n" + "\n".join(rows) + "\n", encoding="utf-8")
    src = str(Path(droprec.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "droprec.cli",
         *train_args(workspace, tmp_path / "model.json", table=("--embeddings", "vec.txt"))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_DATA
    assert "line 20002: expected 8 components, got 1" in done.stderr
    assert "Traceback" not in done.stderr and not (tmp_path / "model.json").exists()


def test_train_rejects_a_malformed_duplicate_embedding_line(workspace, tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    vec.write_text("2 8\nthe " + " ".join(["0.5"] * 8) + "\nthe 5\n", encoding="utf-8")
    capsys.readouterr()
    assert main(train_args(workspace, tmp_path / "m.json",
                           table=("--embeddings", str(vec)))) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 3: expected 8 components, got 1" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_train_rejects_a_non_finite_line_of_a_word_no_corpus_uses(workspace, tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    row = " ".join(["0.5"] * 7)
    vec.write_text(f"2 8\nthe {row} 0.5\nzzunused {row} nan\n", encoding="utf-8")
    capsys.readouterr()
    assert main(train_args(workspace, tmp_path / "m.json",
                           table=("--embeddings", str(vec)))) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 3: non-finite vector component for word 'zzunused'" in err
    assert "Traceback" not in err and not (tmp_path / "m.json").exists()


def test_train_rejects_an_embedding_file_with_no_word_line(workspace, tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    vec.write_text("0 100000000000\n", encoding="utf-8")
    capsys.readouterr()
    assert main(train_args(workspace, tmp_path / "m.json",
                           table=("--embeddings", str(vec)))) == EXIT_DATA
    err = capsys.readouterr().err
    assert "no word lines" in err and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("kind", ["embeddings", "corpus", "model"])
def test_invalid_utf8_input_is_data_error_naming_the_file(workspace, model_file, tmp_path,
                                                          capsys, kind):
    bad = tmp_path / "bad.txt"
    bad.write_bytes({"embeddings": b"1 2\n\xff 1 2\n", "corpus": b'{"label_set": "\xff"}\n',
                     "model": b'{"kind": "\xff"}'}[kind])
    test = str(workspace / "splits" / "test.jsonl")
    args = {"embeddings": train_args(workspace, tmp_path / "m.json",
                                     table=("--embeddings", str(bad))),
            "corpus": ["eval", "--model", str(model_file), "--test", str(bad),
                       "--report", str(tmp_path / "report.json")],
            "model": ["recover", "--model", str(bad), "--in", test,
                      "--out", str(tmp_path / "out.jsonl")]}[kind]
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


def test_dev_without_annotations_gives_a_strict_json_model(workspace, tmp_path, capsys):
    dev = load_corpus(workspace / "splits" / "dev.jsonl")
    bare = tmp_path / "dev.jsonl"
    save_corpus(Corpus(dev.label_set, tuple(AnnotatedSentence(s.tokens) for s in dev.sentences),
                       dev.metadata), bare)
    model = tmp_path / "model.json"
    args = train_args(workspace, model)
    args[args.index("--dev") + 1] = str(bare)
    capsys.readouterr()
    assert main(args) == EXIT_OK
    assert "dev generation acc n/a" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    obj = json.loads(model.read_text(encoding="utf-8"), parse_constant=reject)
    assert obj["metadata"]["dev_dpg_accuracy_gold"] is None
    # A bare NaN there, which no save writes, is refused: metadata is strict JSON.
    obj["metadata"]["dev_dpg_accuracy_gold"] = float("nan")
    model.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["recover", "--model", str(model),
                 "--in", str(workspace / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "out.jsonl")]) == EXIT_DATA
    assert "metadata has no JSON form" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


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


# One set of training flags for train and compare.
SHARED_FLAGS = ("--fallback-dim", "8", "--window", "1", "--layers", "2", "--epochs", "3",
                "--lr", "0.01", "--seed", "5")


def shared_args(command, train, dev, *extra):
    return [command, "--train", str(train), "--dev", str(dev), *SHARED_FLAGS, *extra]


def test_compare_scores_the_mlp_as_train_scores_dev_generation(workspace, tmp_path,
                                                              monkeypatch):
    # The same flags train the same generator, and both commands score it at
    # the annotated dev gaps by one path: the per-item hits give train's accuracy.
    train, dev = workspace / "splits" / "train.jsonl", workspace / "splits" / "dev.jsonl"
    real, scores = droprec.evaluate.paired_significance, {}

    def record(mlp_scores, linear_scores, alpha):
        scores["mlp"] = mlp_scores
        return real(mlp_scores, linear_scores, alpha=alpha)

    monkeypatch.setattr(droprec.evaluate, "paired_significance", record)
    assert main(shared_args("compare", train, dev)) == EXIT_OK
    model = tmp_path / "m.json"
    assert main(shared_args("train", train, dev, "--out-model", str(model))) == EXIT_OK
    hits = scores["mlp"]
    assert set(hits) <= {0.0, 1.0}
    assert sum(hits) / len(hits) == load_recovery_model(model).metadata["dev_dpg_accuracy_gold"]


def test_compare_refuses_the_label_set_mismatch_train_refuses(tmp_path, capsys):
    actual10, full14 = tmp_path / "actual10.jsonl", tmp_path / "full14.jsonl"
    save_corpus(generate_corpus(builtin_grammar("zhidao-like"), 30, 1), actual10)
    save_corpus(generate_corpus(builtin_grammar("separable"), 30, 2), full14)
    model = tmp_path / "m.json"
    assert main(shared_args("train", actual10, full14, "--out-model", str(model))) == EXIT_DATA
    refused = capsys.readouterr().err
    assert refused == "droprec: label set mismatch: train='actual10' dev='full14'\n"
    assert main(shared_args("compare", actual10, full14)) == EXIT_DATA
    assert capsys.readouterr() == ("", refused)


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


# Each hyperparameter flag and the Hyperparams field it sets.
HYPERPARAM_FLAGS = {"--fallback-dim": "embed_dim", "--window": "window", "--layers": "layer_count",
                    "--dropout": "dropout_rate", "--epochs": "epochs", "--lr": "learning_rate",
                    "--hidden": "hidden_dim"}


def refused_by_hyperparams(field: str, text: str) -> bool:
    """Whether Hyperparams refuses `text` read as an int where it is one,
    else as a float."""
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    try:
        Hyperparams(**{"embed_dim": 1, field: value})
    except (TypeError, ValueError):
        return True
    return False


@pytest.mark.parametrize("text", ["-1", "0", "1", "0.5", "0.999", "1.0", "nan", "inf", "1e309"])
@pytest.mark.parametrize("flag", HYPERPARAM_FLAGS)
def test_a_hyperparameter_flag_refuses_what_hyperparams_refuses(tmp_path, capsys, flag, text):
    # the corpora do not exist: a value the flag accepts exits 2 at loading
    absent = str(tmp_path / "absent.jsonl")
    args = ["train", "--train", absent, "--dev", absent, "--fallback-dim", "4",
            "--out-model", str(tmp_path / "m.json"), flag, text]
    refused = refused_by_hyperparams(HYPERPARAM_FLAGS[flag], text)
    assert main(args) == (EXIT_USAGE if refused else EXIT_DATA)
    err = capsys.readouterr().err
    assert (f"argument {flag}: " in err) == refused
    assert "Traceback" not in err


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


def test_output_into_missing_directory_names_the_output(model_file, workspace, tmp_path,
                                                        capsys):
    out = tmp_path / "absent" / "out.jsonl"
    assert main(["recover", "--model", str(model_file),
                 "--in", str(workspace / "splits" / "test.jsonl"),
                 "--out", str(out)]) == EXIT_DATA
    assert f"file not found: {out}\n" in capsys.readouterr().err


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
    "contents, message",
    [("{broken", "not valid JSON"),
     ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply to parse"),
     ({"label_set": "nope"}, "corrupt recovery model: unknown label set"),
     ({"table_ref": {"kind": "fallback", "dim": 4}},
      "corrupt recovery model: table_ref lacks fields ['seed', 'vocab']"),
     ({"table_ref": {"kind": "word2vec"}},
      "corrupt recovery model: table_ref lacks fields ['dim', 'path', 'sha256']"),
     ({"table_ref": {"kind": "fallback", "dim": "4", "seed": 0, "vocab": ["a"]}},
      "corrupt recovery model: table_ref dim must be int"),
     ({"table_ref": {"kind": "fallback", "dim": 8, "seed": 0, "vocab": "abc"}},
      "corrupt recovery model: table_ref vocab must be list"),
     ({"table_ref": {"kind": "word2vec", "path": "vec.txt", "dim": 8, "sha256": "ab" * 31}},
      "corrupt recovery model: table_ref sha256 must match")],
    ids=["corrupt-json", "deeply-nested-json", "unknown-label-set", "table-ref-without-vocab",
         "table-ref-without-path", "table-ref-dim-string", "table-ref-vocab-string",
         "table-ref-sha256-not-hex"],
)
def test_unreadable_model_is_data_error(workspace, model_file, tmp_path, capsys, contents,
                                        message):
    if isinstance(contents, dict):  # a well-formed model file with these fields replaced
        obj = json.loads(model_file.read_text(encoding="utf-8"))
        obj.update(contents)
        contents = json.dumps(obj)
    model = tmp_path / "model.json"
    model.write_text(contents, encoding="utf-8")
    assert main(["eval", "--model", str(model),
                 "--test", str(workspace / "splits" / "test.jsonl"),
                 "--report", str(tmp_path / "report.json")]) == EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [(("dpi", float("nan")), "non-finite parameter"),
     (("dpg", float("nan")), "non-finite parameter"),
     (("dpi", float("inf")), "non-finite parameter"),
     (("dpg", float("-inf")), "non-finite parameter"),
     (("dpg", "@@@@"), "parameter block is not valid base64"),
     (("dpi", "AAAAAAAAAA=="), "parameter block has 7 bytes"),
     (("table_ref", 10**12), "differs from table_ref dim 1000000000000")],
    ids=["dpi-nan", "dpg-nan", "dpi-inf", "dpg-minus-inf", "not-base64", "seven-bytes",
         "huge-table-dim"],
)
def test_model_with_numbers_it_cannot_use_is_data_error(workspace, model_file, tmp_path,
                                                        capsys, edit, message):
    obj = json.loads(model_file.read_text(encoding="utf-8"))
    part, value = edit
    if part == "table_ref":
        obj["table_ref"]["dim"] = value
    else:
        first = obj[part]["layers"][0]
        first["weights"] = value if type(value) is str else with_value(first["weights"], 0, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["recover", "--model", str(model),
                 "--in", str(workspace / "splits" / "test.jsonl"),
                 "--out", str(tmp_path / "out.jsonl")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out.jsonl").exists()


def version_1_object(obj: dict, hex_blocks: bool) -> dict:
    """The recovery format 1 file of a model file's object: the window at the
    top, and each network with its own version, kind, label set and sizes.
    Its networks held hex float lists at their version 1, base64 blocks at 2."""
    old = {**obj, "format_version": 1, "window": obj["dpi"]["hyperparams"]["window"]}
    for net, classes in (("dpi", 2), ("dpg", len(FULL14))):
        layers = []
        for layer in obj[net]["layers"]:
            bias, weights = decode_block(layer["bias"]), decode_block(layer["weights"])
            layers.append({"out_dim": bias.size, "in_dim": weights.size // bias.size,
                           **{block: [float(v).hex() for v in decode_block(layer[block])]
                              if hex_blocks else layer[block] for block in ("weights", "bias")}})
        old[net] = {"format_version": 1 if hex_blocks else 2, "kind": "mlp",
                    "input_dim": layers[0]["in_dim"], "num_classes": classes,
                    "label_set": obj["label_set"], "hyperparams": obj[net]["hyperparams"],
                    "layers": layers}
    return old


def test_a_version_1_model_file_is_data_error_asking_to_retrain(workspace, model_file, tmp_path,
                                                                capsys):
    obj = json.loads(model_file.read_text(encoding="utf-8"))
    test = str(workspace / "splits" / "test.jsonl")
    for hex_blocks in (True, False):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(version_1_object(obj, hex_blocks)), encoding="utf-8")
        capsys.readouterr()
        assert main(["recover", "--model", str(model), "--in", test,
                     "--out", str(tmp_path / "out.jsonl")]) == EXIT_DATA
        assert main(["eval", "--model", str(model), "--test", test,
                     "--report", str(tmp_path / "report.json")]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0] == "droprec: unsupported recovery format version 1, expected 2; " \
                         "retrain the model with `droprec train`"
        assert not (tmp_path / "out.jsonl").exists() and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("classes", [1, 3])
def test_a_detector_without_two_classes_is_data_error(workspace, model_file, tmp_path, capsys,
                                                      classes):
    obj = json.loads(model_file.read_text(encoding="utf-8"))
    last = obj["dpi"]["layers"][-1]  # its blocks resized to `classes` output rows
    width = decode_block(last["weights"]).size // 2
    last["weights"] = encode_block(np.resize(decode_block(last["weights"]), classes * width))
    last["bias"] = encode_block(np.resize(decode_block(last["bias"]), classes))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj), encoding="utf-8")
    test = str(workspace / "splits" / "test.jsonl")
    capsys.readouterr()
    assert main(["recover", "--model", str(model), "--in", test,
                 "--out", str(tmp_path / "out.jsonl")]) == EXIT_DATA
    assert main(["eval", "--model", str(model), "--test", test,
                 "--report", str(tmp_path / "report.json")]) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1] and "Traceback" not in err[0]
    assert err[0].startswith("droprec: ") and "expected 8 per value of shape" in err[0]
    assert f"dpi layer {len(obj['dpi']['layers']) - 1} weights: parameter block has" in err[0]
    assert not (tmp_path / "out.jsonl").exists() and not (tmp_path / "report.json").exists()


def test_corpus_and_sentence_detection_agree(workspace, model_file):
    # eval --positions predicted scores the whole corpus at once, recover
    # one sentence at a time: both must detect the same gaps.
    model = load_recovery_model(model_file)
    corpus = load_corpus(workspace / "splits" / "test.jsonl")
    rows = context_rows(corpus.sentences, model.window, model.table)
    # The fixture's tuned threshold detects nothing; halfway between the two
    # middle probabilities detects about half the gaps, and lies far from
    # any last-bit difference between the two paths.
    values = np.unique(dpi_gap_probability(model, rows))
    model.threshold = float(values[len(values) // 2 - 1 : len(values) // 2 + 1].mean())
    whole = predict_dpi(model, rows)
    per_sentence = [predict_dpi(model, context_rows((sent,), model.window, model.table))
                    for sent in corpus.sentences]
    assert np.array_equal(whole, np.concatenate(per_sentence))
    assert 0 < np.count_nonzero(whole) < len(whole)
    for sent, detected in zip(corpus.sentences, per_sentence):
        recovered = [gap for gap, _, _ in recover(model, sent).recovered]
        assert recovered == np.flatnonzero(detected).tolist()


def test_recover_bytes_do_not_depend_on_the_sentences_scored_before(workspace, w2v_model):
    # The w2v model's table is read lazily.  A sentence recovered on a
    # freshly loaded model gives the same bytes as after the whole corpus.
    corpus = load_corpus(workspace / "splits" / "test.jsonl")
    warm = load_recovery_model(w2v_model)
    warm.threshold = 0.0  # every gap goes to the generator
    after_all = [recover(warm, sent) for sent in corpus.sentences]
    for i in (len(corpus.sentences) - 1, len(corpus.sentences) // 2, 0):
        fresh = load_recovery_model(w2v_model)
        fresh.threshold = 0.0
        # repr gives each float's shortest round-trip digits: equal repr, equal bytes.
        assert repr(recover(fresh, corpus.sentences[i])) == repr(after_all[i])


def test_label_set_conflict_is_data_error(workspace, tmp_path, capsys):
    args = train_args(workspace, tmp_path / "m.json", extra=["--label-set", "actual10"])
    assert main(args) == EXIT_DATA
    assert "conflicts" in capsys.readouterr().err


def test_corpus_with_a_list_label_set_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"label_set": ["x"]}\n{"tokens": ["a"]}\n', encoding="utf-8")
    assert main(["split", "--in", str(bad), "--seed", "1",
                 "--out-dir", str(tmp_path / "s")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "unknown label set ['x']" in err and "Traceback" not in err


@pytest.mark.parametrize("line", [1, 2], ids=["header", "sentence"])
def test_deeply_nested_corpus_json_is_data_error(model_file, tmp_path, capsys, line):
    records = ['{"label_set": "full14"}', '{"tokens": ["a"], "annotations": []}']
    records[line - 1] = "[" * 100_000 + "]" * 100_000
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(records) + "\n", encoding="utf-8")
    assert main(["split", "--in", str(bad), "--seed", "1",
                 "--out-dir", str(tmp_path / "s")]) == EXIT_DATA
    assert main(["eval", "--model", str(model_file), "--test", str(bad),
                 "--report", str(tmp_path / "report.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count(f"line {line}: JSON") == 2 and "Traceback" not in err


def test_corpus_too_small_to_split_is_data_error(tmp_path, capsys):
    tiny = tmp_path / "tiny.jsonl"
    assert main(["gen", "--profile", "separable", "--n", "3",
                 "--seed", "1", "--out", str(tiny)]) == EXIT_OK
    assert main(["split", "--in", str(tiny), "--seed", "1",
                 "--out-dir", str(tmp_path / "s")]) == EXIT_DATA
    assert "too small" in capsys.readouterr().err


def test_corpus_token_with_a_lone_surrogate_is_data_error_and_splits_nothing(tmp_path, capsys):
    lines = ['{"label_set": "full14"}'] + [f'{{"tokens": ["w{i}"]}}' for i in range(4)]
    lines.append('{"tokens": ["a", "\\ud800"]}')  # a JSON escape, no UTF-8 encoding
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "s"
    assert main(["split", "--in", str(bad), "--seed", "1", "--out-dir", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == ("droprec: line 6: a token holds a character UTF-8 cannot encode "
                   "(surrogates not allowed)\n")
    assert not out.exists() or not any(out.iterdir())


def test_training_that_diverges_exits_3_with_one_line_and_no_model(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen", "--profile", "separable", "--n", "60",
                 "--seed", "7", "--out", str(corpus)]) == EXIT_OK
    assert main(["split", "--in", str(corpus), "--seed", "1",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    model = tmp_path / "model.json"
    capsys.readouterr()
    # any numpy warning would fail the suite (pyproject's filterwarnings)
    assert main(["train", "--train", str(tmp_path / "train.jsonl"),
                 "--dev", str(tmp_path / "dev.jsonl"), "--fallback-dim", "8",
                 "--lr", "1e300", "--seed", "5", "--out-model", str(model)]) == EXIT_NUMERIC
    assert capsys.readouterr().err == \
        "droprec: numeric failure: non-finite loss at epoch 0, step 1\n"
    assert not model.exists()


@pytest.mark.parametrize("flag, size, message", [
    ("--hidden", 10**15, "droprec: Unable to allocate "),
    ("--fallback-dim", 10**15, "droprec: Unable to allocate "),
    ("--layers", 10**15, "droprec: out of memory\n"),
    ("--layers", 10**30, "droprec: cannot fit 'int' into an index-sized integer\n"),
    # An embedding row or weight matrices of more bytes than numpy can index,
    # which it refuses before allocating.
    ("--fallback-dim", 10**20, "droprec: embedding rows of 100000000000000000000 float64 "),
    ("--fallback-dim", 2**62, "droprec: embedding rows of 4611686018427387904 float64 "),
    ("--hidden", 10**20, "droprec: layer 0 weights of 100000000000000000000 x 16 float64 "),
    ("--fallback-dim=3 --window", 3 * 10**15,
     "droprec: layer 0 weights of 200 x 18000000000000000 float64 "),
])
def test_a_size_the_machine_cannot_allocate_exits_1_with_one_line_and_no_model(
        workspace, tmp_path, capsys, flag, size, message):
    # More than 2**47 bytes: no allocator can grant it, whatever the overcommit policy.
    # `flag` may hold more than one argument.
    model = tmp_path / "model.json"
    capsys.readouterr()
    assert main(train_args(workspace, model, extra=(*flag.split(), str(size)))) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not model.exists()


def test_compare_builds_both_networks_before_it_trains_either(tmp_path, capsys):
    # A baseline trained first diverges at this rate, which would exit 3.
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(generate_corpus(builtin_grammar("separable"), 12, 3), corpus)
    capsys.readouterr()
    assert main(["compare", "--train", str(corpus), "--dev", str(corpus), "--fallback-dim=1",
                 "--layers=1000000000000000", "--lr=1.7e308", "--epochs=2"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "droprec: out of memory\n")


# A size flag's value: small, or so large (>= 10**15 elements, more than
# 2**47 bytes) that allocating it fails at once.  No size in between,
# which could fit in memory or take long to fill.
SIZE_FLAGS = ("--fallback-dim", "--window", "--layers", "--hidden")
SMALL_SIZES, HUGE_SIZES = st.integers(1, 3), st.integers(10**15, 10**40)
# Each float flag's values in its range; at most one flag per example takes any float.
IN_RANGE = {"--dropout": st.floats(0, 1, exclude_max=True),
            "--lr": st.floats(0, exclude_min=True, allow_infinity=False),
            "--alpha": st.floats(0, 1, exclude_min=True, exclude_max=True)}
ANY_FLOAT = st.floats() | st.sampled_from([1e309, -1e309, 0, 1, -0.0])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_numeric_flag_value_ends_in_a_traceback(tmp_path, capsys, data):
    corpus = tmp_path / "corpus.jsonl"
    if not corpus.exists():
        save_corpus(generate_corpus(builtin_grammar("separable"), 12, 3), corpus)
    model = tmp_path / "model.json"
    model.unlink(missing_ok=True)
    command = data.draw(st.sampled_from(["train", "compare"]))
    args = [command, "--train", str(corpus), "--dev", str(corpus),
            "--epochs", str(data.draw(st.sampled_from([1, 2]))),
            "--seed", str(data.draw(st.integers(-(2**80), 2**80)))]
    huge = data.draw(st.sets(st.sampled_from(SIZE_FLAGS), max_size=2))
    sizes = {flag: data.draw(HUGE_SIZES if flag in huge else SMALL_SIZES) for flag in SIZE_FLAGS}
    args += [f"{flag}={size}" for flag, size in sizes.items()]
    float_flags = ["--dropout", "--lr"] + (["--alpha"] if command == "compare" else [])
    wild = data.draw(st.sampled_from([None, *float_flags]))
    for flag in float_flags:
        args.append(f"{flag}={data.draw(ANY_FLOAT if flag == wild else IN_RANGE[flag])!r}")
    if command == "train":
        args.append(f"--out-model={model}")
    capsys.readouterr()
    code = main(args)
    err = capsys.readouterr().err
    assert code in {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC}
    # A huge size in use exits 1, before anything trains.  One layer has no hidden width.
    if huge - ({"--hidden"} if sizes["--layers"] == 1 else set()):
        assert code == EXIT_USAGE, err
    assert "Traceback" not in err
    event(f"exit {code}")
    assert model.exists() == (command == "train" and code == EXIT_OK)


@pytest.mark.parametrize("table, net, field", [("fallback", "dpi", "bias"),
                                               ("fallback", "dpg", "bias"),
                                               ("word2vec", "dpg", "weights")])
def test_scoring_that_overflows_exits_3_with_one_line_and_no_output(
        workspace, model_file, w2v_model, tmp_path, capsys, table, net, field):
    # Finite parameters load, then overflow to NaN probabilities on the text.
    source = model_file if table == "fallback" else w2v_model
    shutil.copy(w2v_model.parent / "vec.txt", tmp_path / "vec.txt")
    obj = json.loads(source.read_text(encoding="utf-8"))
    first = obj[net]["layers"][0]
    first[field] = encode_block(np.full(decode_block(first[field]).size, sys.float_info.max))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj), encoding="utf-8")
    test = str(workspace / "splits" / "test.jsonl")
    capsys.readouterr()
    # Threshold 0 and gold positions score every gap with both networks; any
    # numpy warning would fail the suite (pyproject's filterwarnings).
    assert main(["recover", "--model", str(model), "--in", test, "--threshold", "0",
                 "--out", str(tmp_path / "recovered.jsonl")]) == EXIT_NUMERIC
    assert main(["eval", "--model", str(model), "--test", test,
                 "--report", str(tmp_path / "report.json")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == "droprec: numeric failure: non-finite class probability in eval mode\n" * 2
    assert not (tmp_path / "recovered.jsonl").exists() and not (tmp_path / "report.json").exists()
