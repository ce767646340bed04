"""Golden digests of the criterion-7 CLI chain.

Criterion 7 only checks that two runs of the same code agree.  This test
pins the bytes themselves, so a change that moves a model file, an eval
report or the recover output fails here even when it is self-consistent.
A change that alters these bytes on purpose updates the digest and says
why in CHANGES.md.
"""

import hashlib

from droprec.cli import EXIT_OK, main

MODEL_SHA256 = "817ca5a6ce2173376ae111099bd72a698259e690f07b33affa06e90da2150bf0"
GOLD_REPORT_SHA256 = "4c4aca89314eaa06f303e1f5e4f258a3b5422426db6f34a24957fb548a23969c"
PREDICTED_REPORT_SHA256 = "928ddcd6f20ad9be59fb7e802e7a059f275b729c6a6620eeedd788d2e25d75ba"
RECOVER_SHA256 = "08b98c022d539c88b3450e1eba9fe9a6fb51c69c93deb7c19e23d5332ebf4417"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    assert _sha256(tmp_path / "model.json") == MODEL_SHA256
    assert _sha256(tmp_path / "gold.json") == GOLD_REPORT_SHA256
    assert _sha256(tmp_path / "predicted.json") == PREDICTED_REPORT_SHA256
    assert _sha256(tmp_path / "recovered.jsonl") == RECOVER_SHA256
