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

MODEL_SHA256 = "569fff57b79095c29d2f66c921f5f1cf4a066735117e195b4a485f4467d11751"
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


W2V_MODEL_SHA256 = "fab841e7434a148768630e566901f1d29a7535a0b3df054b0c8d6af3170962b4"
W2V_PREDICTED_REPORT_SHA256 = "46ad0b242dd725771f0f1038bcb8928ce905bf0ec0268b408f38cbf065a0fd44"
W2V_RECOVER_SHA256 = "9b5efafc7e0353fc40c3d1f035ff714dea21dcf5e509345cd6231eaaf0cefdd5"


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
