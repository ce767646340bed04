"""Determinism across BLAS thread counts.

A 400-wide eval-mode product (`X @ W.T` over 8 or more gap rows) can give
other bytes under one OpenBLAS thread than under several; the one-row
products of training do not.  Eval-mode scoring sums cached per-word
products of the first layer, which use no BLAS, so a chain whose network
inputs are 400 wide must write the same bytes under both settings, the
`recover` confidences of sentences with 8 or more detected gaps included.

The test proves nothing on a 1-core host, or when pytest itself runs with
OPENBLAS_NUM_THREADS=1: both chains then run on one thread.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import droprec
from droprec.cli import EXIT_OK, main
from droprec.corpus import AnnotatedSentence, Corpus, load_corpus, save_corpus

OUTPUTS = ("model.json", "predicted.json", "recovered.jsonl", "long-recovered.jsonl",
           "long-all-recovered.jsonl")


def _chain(out: str) -> list[list[str]]:
    """train -> eval -> recover on 2 * window * dim = 400 wide inputs,
    writing into directory `out`."""
    test = "splits/test.jsonl"
    return [
        ["train", "--train", "splits/train.jsonl", "--dev", "splits/dev.jsonl",
         "--fallback-dim", "100", "--window", "2", "--epochs", "1", "--seed", "3",
         "--out-model", f"{out}/model.json"],
        ["eval", "--model", f"{out}/model.json", "--test", test, "--positions", "predicted",
         "--report", f"{out}/predicted.json"],
        ["recover", "--model", f"{out}/model.json", "--in", test,
         "--out", f"{out}/recovered.jsonl"],
        ["recover", "--model", f"{out}/model.json", "--in", "long.jsonl",
         "--out", f"{out}/long-recovered.jsonl"],
        # Threshold 0 detects every gap: 15 to 19 per long sentence.
        ["recover", "--model", f"{out}/model.json", "--in", "long.jsonl", "--threshold", "0",
         "--out", f"{out}/long-all-recovered.jsonl"],
    ]


def _write_long_sentences(path: str) -> None:
    """The test split's sentences joined four at a time (14 to 18 tokens)."""
    test = load_corpus("splits/test.jsonl")
    sents = [sent.tokens for sent in test.sentences]
    long = tuple(AnnotatedSentence(sum(sents[i : i + 4], ())) for i in range(0, len(sents) - 3, 4))
    save_corpus(Corpus(test.label_set, long), path)


def test_chain_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for out in ("default", "one-thread"):
        (tmp_path / out).mkdir()
    for args in (
        ["gen", "--profile", "zhidao-like", "--n", "300", "--seed", "4", "--out", "corpus.jsonl"],
        ["split", "--in", "corpus.jsonl", "--seed", "5", "--out-dir", "splits"],
    ):
        assert main(args) == EXIT_OK, args
    _write_long_sentences("long.jsonl")
    for args in _chain("default"):
        assert main(args) == EXIT_OK, args
    src = str(Path(droprec.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for args in _chain("one-thread"):
        subprocess.run([sys.executable, "-m", "droprec.cli", *args], cwd=tmp_path, env=env,
                       check=True, capture_output=True, timeout=60)
    for name in OUTPUTS:
        default = hashlib.sha256((tmp_path / "default" / name).read_bytes()).hexdigest()
        one = hashlib.sha256((tmp_path / "one-thread" / name).read_bytes()).hexdigest()
        assert default == one, name
