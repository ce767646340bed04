"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion summary lines).
"""

import math
import time

import numpy as np

from _gradcheck import finite_difference_grads, max_relative_error
from droprec import mlp
from droprec.cli import EXIT_OK, main
from droprec.corpus import FULL14, AnnotatedSentence, split_corpus
from droprec.embeddings import EmbeddingTable, context_embedding, deterministic_fallback_table
from droprec.evaluate import evaluate_dpg, evaluate_dpi, paired_significance
from droprec.hypotheses import build_dpg_instances
from droprec.mlp import Hyperparams, build_model, cross_entropy, dropout_mask, one_hot, softmax
from droprec.pipeline import load_recovery_model, train_recovery
from droprec.rng import SplitMix64
from droprec.synth import Template, TemplateGrammar, builtin_grammar, generate_corpus


def test_criterion_1_gradient_oracle():
    """Analytic gradients match central finite differences on 20 random models."""
    start = time.time()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for i in range(20):
        layer_count = (i % 3) + 1
        hp = Hyperparams(
            embed_dim=int(rng.integers(1, 17)),  # input dim 2*W*D <= 32
            window=1,
            layer_count=layer_count,
            hidden_dim=int(rng.integers(2, 9)),
            dropout_rate=0.0,
            seed=int(rng.integers(0, 2**31)),
        )
        num_classes = int(rng.integers(2, 7))
        model = build_model(hp.input_dim, num_classes, hp)
        x = rng.normal(size=hp.input_dim)
        label = int(rng.integers(0, num_classes))
        _, cache = mlp.forward(model, x, mode="train")
        analytic = [(g.dW, g.db) for g in mlp.backward(model, cache, one_hot(num_classes, label))]
        numeric = finite_difference_grads(model, x, label, step=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.time() - start
    assert worst < 1e-4, f"worst relative gradient error {worst}"
    assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"
    print(f"PASS criterion 1: gradient oracle, worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_softmax_cross_entropy_invariants():
    rng = np.random.default_rng(2)
    for _ in range(500):
        z = rng.normal(size=rng.integers(2, 20)) * rng.uniform(0.1, 200)
        probs = softmax(z)
        assert abs(probs.sum() - 1.0) <= 1e-9
        shift = rng.uniform(-500, 500)
        assert np.allclose(probs, softmax(z + shift), atol=1e-9)
    for k in (2, 10, 14):
        loss = cross_entropy(one_hot(k, k // 2), np.full(k, 1.0 / k))
        assert abs(loss - math.log(k)) <= 1e-9
    print("PASS criterion 2: softmax sums to 1, translation invariant, CE(uniform k) = ln k")


def test_criterion_3_hypothesis_cardinality():
    # token t{i} embeds as the scalar i + 1, so with window 1 the left half
    # of gap g's row is token g - 1 (or padding 0 at g = 0), i.e. g itself
    table = EmbeddingTable.from_vectors(1, {f"t{i}": np.array([i + 1.0]) for i in range(50)})
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        sent = AnnotatedSentence(tuple(f"t{i}" for i in range(n)))
        features = context_embedding(sent, 1, table)
        assert len(features) == n + 1
        assert features[:, 0].tolist() == list(range(n + 1))
    print("PASS criterion 3: every sentence of length n yields exactly n+1 gap rows, in order")


def test_criterion_4_inverted_dropout_expectation():
    for rate in (0.3, 0.5, 0.8):
        mask = dropout_mask(100_000, rate, SplitMix64(40 + int(rate * 10)))
        mean = float(mask.mean())
        assert abs(mean - 1.0) <= 0.01, f"rate {rate}: mask mean {mean}"
    print("PASS criterion 4: dropout mask mean within 1% of 1 at rates 0.3/0.5/0.8")


def test_criterion_5_synthetic_learnability():
    start = time.time()
    corpus = generate_corpus(builtin_grammar("separable"), 2000, seed=11)
    train, dev, test = split_corpus(corpus, seed=22)
    vocab = sorted({t for c in (train, dev) for s in c.sentences for t in s.tokens})
    table = deterministic_fallback_table(vocab, 16, seed=33)
    hp = Hyperparams(embed_dim=16, window=1, layer_count=2, epochs=50,
                     learning_rate=0.01, seed=44)
    model = train_recovery(train, dev, table, hp, hp)
    dpi_acc = evaluate_dpi(model, test, table).accuracy
    dpg_acc = evaluate_dpg(model, test, table, positions="gold").accuracy
    elapsed = time.time() - start
    assert dpi_acc >= 0.95, f"test DPI accuracy {dpi_acc}"
    assert dpg_acc >= 0.95, f"test gold-position DPG accuracy {dpg_acc}"
    assert elapsed < 120.0, f"learnability run took {elapsed:.1f}s"
    print(f"PASS criterion 5: separable profile, DPI {dpi_acc:.3f} / DPG {dpg_acc:.3f} "
          f"in {elapsed:.1f}s")


def test_criterion_6_baseline_ordering_and_significance():
    corpus = generate_corpus(builtin_grammar("ontonotes-like"), 2500, seed=101)
    train, dev, test = split_corpus(corpus, seed=102)
    vocab = sorted({t for c in (train, dev) for s in c.sentences for t in s.tokens})
    table = deterministic_fallback_table(vocab, 16, seed=103)
    tr = build_dpg_instances(train, table, 1)
    te = build_dpg_instances(test, table, 1)
    te_features = np.stack([f for f, _ in te])
    te_labels = np.array([y for _, y in te])
    acc = {}
    for layers in (1, 2):
        hp = Hyperparams(embed_dim=16, window=1, layer_count=layers, epochs=30,
                         learning_rate=0.01, seed=104)
        model = build_model(hp.input_dim, 14, hp)
        mlp.train(model, tr, hp)
        acc[layers] = np.count_nonzero(mlp.predict(model, te_features)[0] == te_labels) / len(te)
    assert acc[2] >= acc[1], f"MLP {acc[2]} vs linear baseline {acc[1]}"

    # hand-checked 5-item example: d = (1,0,1,0,0), t = 0.4/(sqrt(0.3)/sqrt(5)),
    # two-sided p for df=4 from the closed-form incomplete-beta antiderivative
    res = paired_significance([1, 1, 1, 0, 1], [0, 1, 0, 0, 1], alpha=0.05)
    p_hand = 0.75 * (4 / 3 - 2 * math.sqrt(0.4) + (2 / 3) * 0.4**1.5)
    assert abs(res.p_value - p_hand) < 1e-4
    print(f"PASS criterion 6: MLP DPG acc {acc[2]:.3f} >= linear {acc[1]:.3f}; "
          f"5-item p {res.p_value:.6f} matches hand value {p_hand:.6f}")


def _run_chain(root):
    corpus = root / "corpus.jsonl"
    splits = root / "splits"
    model = root / "model.json"
    report = root / "report.json"
    for args in (
        ["gen", "--profile", "separable", "--n", "250", "--seed", "9", "--out", str(corpus)],
        ["split", "--in", str(corpus), "--seed", "10", "--out-dir", str(splits)],
        ["train", "--train", str(splits / "train.jsonl"), "--dev", str(splits / "dev.jsonl"),
         "--fallback-dim", "8", "--window", "1", "--layers", "2", "--epochs", "5",
         "--lr", "0.01", "--seed", "11", "--out-model", str(model)],
        ["eval", "--model", str(model), "--test", str(splits / "test.jsonl"),
         "--positions", "gold", "--report", str(report)],
    ):
        assert main(args) == EXIT_OK
    return model.read_bytes(), report.read_bytes()


def test_criterion_7_end_to_end_determinism(tmp_path, capsys):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    model_a, report_a = _run_chain(run_a)
    model_b, report_b = _run_chain(run_b)
    capsys.readouterr()  # silence chain output
    assert model_a == model_b, "model files differ between identical runs"
    assert report_a == report_b, "reports differ between identical runs"
    print("PASS criterion 7: gen->split->train->eval is byte-identical across runs")


def test_criterion_8_round_trips(tmp_path):
    from droprec.corpus import load_corpus, save_corpus
    from droprec.pipeline import save_recovery_model

    corpus = generate_corpus(builtin_grammar("ontonotes-like"), 200, seed=81)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus

    train, dev, _ = split_corpus(corpus, seed=82)
    vocab = sorted({t for c in (train, dev) for s in c.sentences for t in s.tokens})
    table = deterministic_fallback_table(vocab, 8, seed=83)
    hp = Hyperparams(embed_dim=8, window=1, layer_count=2, epochs=2, seed=84)
    model = train_recovery(train, dev, table, hp, hp)
    model_path = tmp_path / "model.json"
    save_recovery_model(model, model_path)
    again = load_recovery_model(model_path)
    rng = np.random.default_rng(85)
    for _ in range(100):
        x = rng.normal(size=model.dpi.input_dim)
        assert np.array_equal(mlp.forward(model.dpi, x)[0], mlp.forward(again.dpi, x)[0])
        assert np.array_equal(mlp.forward(model.dpg, x)[0], mlp.forward(again.dpg, x)[0])
    print("PASS criterion 8: corpus and model files round-trip bit-exactly")


def test_criterion_9_random_predictor_calibration():
    # balanced 14-class data whose contexts carry no label signal
    grammar = TemplateGrammar(
        (Template(("{w}", "{w}", "{slot}", "{w}", "{w}")),),
        {tag: 1.0 / 14.0 for tag in FULL14.labels},
        drop_rate=1.0,
        vocab=tuple(f"w{i:02d}" for i in range(16)),
        name="balanced",
        label_set_name="full14",
    )
    corpus = generate_corpus(grammar, 2200, seed=901)
    vocab = sorted({t for s in corpus.sentences for t in s.tokens})
    table = deterministic_fallback_table(vocab, 16, seed=902)
    instances = build_dpg_instances(corpus, table, 1)
    assert len(instances) >= 2000
    hp = Hyperparams(embed_dim=16, window=1, layer_count=2, seed=903)
    model = build_model(hp.input_dim, 14, hp)  # untrained, random init
    features = np.stack([i.feature for i in instances])
    labels = np.array([i.label for i in instances])
    acc = np.count_nonzero(mlp.predict(model, features)[0] == labels) / len(instances)
    p = 1.0 / 14.0
    sigma = math.sqrt(p * (1 - p) / len(instances))
    assert abs(acc - p) <= 3 * sigma, f"accuracy {acc} outside 1/14 +/- 3 sigma"
    print(f"PASS criterion 9: untrained generator accuracy {acc:.4f} within "
          f"[{p - 3 * sigma:.4f}, {p + 3 * sigma:.4f}]")
