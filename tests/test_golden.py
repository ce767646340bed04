"""Golden digests of the criterion-7 CLI chain and of one on a word2vec table.

Criterion 7 only checks that two runs of the same code agree.  These tests
pin the bytes themselves, so a change that moves a model file, an eval
report or the recover output fails here even when it is self-consistent.
A change that alters these bytes on purpose updates the digest and says
why in CHANGES.md.
"""

import hashlib

from droprec.cli import EXIT_OK, main
from droprec.corpus import load_corpus
from droprec.pipeline import load_recovery_model, save_recovery_model

MODEL_SHA256 = "628b3c5386c16f604e8bc7c195c7b34c2021877a54f9a663dbfea61dab2d4f43"
GOLD_REPORT_SHA256 = "4c4aca89314eaa06f303e1f5e4f258a3b5422426db6f34a24957fb548a23969c"
PREDICTED_REPORT_SHA256 = "928ddcd6f20ad9be59fb7e802e7a059f275b729c6a6620eeedd788d2e25d75ba"
RECOVER_SHA256 = "08b98c022d539c88b3450e1eba9fe9a6fb51c69c93deb7c19e23d5332ebf4417"
TRAIN_SPLIT_SHA256 = "795b351b3807148710149cc6a2b64f0830bed8dde7359102cab6ca2a5215711e"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_load_save_round_trips(path):
    """Saving the loaded model beside the file writes the file's bytes."""
    again = path.with_name("again.json")
    save_recovery_model(load_recovery_model(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_criterion_7_chain_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    test = "splits/test.jsonl"
    for args in (
        ["gen", "--profile", "separable", "--n", "250", "--seed", "9", "--out", "corpus.jsonl"],
        ["split", "--in", "corpus.jsonl", "--seed", "10", "--out-dir", "splits"],
        ["train", "--train", "splits/train.jsonl", "--dev", "splits/dev.jsonl",
         "--fallback-dim", "8", "--window", "1", "--layers", "2", "--epochs", "5",
         "--lr", "0.01", "--seed", "11", "--out-model", "model.json"],
        ["eval", "--model", "model.json", "--test", test, "--positions", "gold",
         "--report", "gold.json"],
        ["eval", "--model", "model.json", "--test", test, "--positions", "predicted",
         "--report", "predicted.json"],
        ["recover", "--model", "model.json", "--in", test, "--out", "recovered.jsonl"],
    ):
        assert main(args) == EXIT_OK, args
    capsys.readouterr()
    assert _sha256(tmp_path / "splits" / "train.jsonl") == TRAIN_SPLIT_SHA256
    assert _sha256(tmp_path / "model.json") == MODEL_SHA256
    assert _sha256(tmp_path / "gold.json") == GOLD_REPORT_SHA256
    assert _sha256(tmp_path / "predicted.json") == PREDICTED_REPORT_SHA256
    assert _sha256(tmp_path / "recovered.jsonl") == RECOVER_SHA256
    _assert_load_save_round_trips(tmp_path / "model.json")


W2V_MODEL_SHA256 = "8b49e9365a89c6304e145e5c10975e16b180141c2d546ea707367f5103edf2ba"
W2V_PREDICTED_REPORT_SHA256 = "46ad0b242dd725771f0f1038bcb8928ce905bf0ec0268b408f38cbf065a0fd44"
W2V_RECOVER_SHA256 = "0ff6410b6dd0d14d292b933dee5eb7522dac2ab1a2985345c9d30379a28c9910"


def _word2vec_line(word: str, dim: int) -> str:
    """A word's line, its components a pure function of its UTF-8 bytes."""
    digest = hashlib.sha256(word.encode("utf-8")).digest()
    comps = (int.from_bytes(digest[2 * i : 2 * i + 2], "big") / 65535 * 2 - 1 for i in range(dim))
    return word + " " + " ".join(f"{x:.4f}" for x in comps)


def test_word2vec_chain_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    test = "splits/test.jsonl"
    for args in (
        ["gen", "--profile", "separable", "--n", "250", "--seed", "9", "--out", "corpus.jsonl"],
        ["split", "--in", "corpus.jsonl", "--seed", "10", "--out-dir", "splits"],
    ):
        assert main(args) == EXIT_OK, args
    # The train split's words and one no corpus has, so test words can be
    # out of vocabulary; a blank line and a duplicate whose first line wins.
    words = sorted({tok for sent in load_corpus("splits/train.jsonl").sentences
                    for tok in sent.tokens}) + ["unused"]
    lines = [_word2vec_line(word, 8) for word in words]
    lines[1:1] = ["", words[0] + " 9 9 9 9 9 9 9 9"]
    (tmp_path / "vec.txt").write_text(f"{len(words)} 8\n" + "\n".join(lines) + "\n",
                                      encoding="utf-8")
    for args in (
        ["train", "--train", "splits/train.jsonl", "--dev", "splits/dev.jsonl",
         "--embeddings", "vec.txt", "--window", "1", "--layers", "2", "--epochs", "5",
         "--lr", "0.01", "--seed", "11", "--out-model", "model.json"],
        ["eval", "--model", "model.json", "--test", test, "--positions", "predicted",
         "--report", "predicted.json"],
        ["recover", "--model", "model.json", "--in", test, "--out", "recovered.jsonl"],
    ):
        assert main(args) == EXIT_OK, args
    capsys.readouterr()
    assert _sha256(tmp_path / "model.json") == W2V_MODEL_SHA256
    assert _sha256(tmp_path / "predicted.json") == W2V_PREDICTED_REPORT_SHA256
    assert _sha256(tmp_path / "recovered.jsonl") == W2V_RECOVER_SHA256
    _assert_load_save_round_trips(tmp_path / "model.json")
