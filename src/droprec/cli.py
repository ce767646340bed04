"""Command-line workflow: gen, split, train, recover, eval, compare.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every random decision flows from --seed, so rerunning a subcommand with
identical flags reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import mlp, pipeline, synth
from .corpus import (
    Corpus,
    CorpusError,
    atomic_open,
    load_corpus,
    save_corpus,
    split_corpus,
    write_records,
)
from .embeddings import context_rows, deterministic_fallback_table, load_embeddings
from .hypotheses import build_dpg_instances, gap_labels
from .mlp import HYPERPARAM_RANGES, Hyperparams, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _number(kind: type, ok, rule: str):
    """argparse type: the flag's text as a `kind` for which `ok` holds;
    argparse's "invalid ... value" message names `kind`."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = kind.__name__
    return parse


_positive_int = _number(int, lambda v: v >= 1, ">= 1")
_unit_interval = _number(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_open_unit_interval = _number(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--train", required=True, help="training corpus (JSONL)")
    sub.add_argument("--dev", required=True, help="dev corpus for threshold tuning (JSONL)")
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--embeddings", help="word2vec text file with pretrained vectors")
    src.add_argument(
        "--fallback-dim", type=_number(int, *HYPERPARAM_RANGES["embed_dim"]),
        help="build seeded fallback embeddings of this dimension instead",
    )
    sub.add_argument("--window", type=_number(int, *HYPERPARAM_RANGES["window"]), default=1,
                     help="context window per side")
    sub.add_argument("--layers", type=_number(int, *HYPERPARAM_RANGES["layer_count"]), default=2,
                     help="MLP layer count")
    sub.add_argument("--dropout", type=_number(float, *HYPERPARAM_RANGES["dropout_rate"]),
                     default=0.0, help="dropout rate in [0, 1)")
    sub.add_argument("--epochs", type=_number(int, *HYPERPARAM_RANGES["epochs"]), default=10)
    sub.add_argument("--lr", type=_number(float, *HYPERPARAM_RANGES["learning_rate"]), default=0.01,
                     help="SGD learning rate")
    sub.add_argument("--hidden", type=_number(int, *HYPERPARAM_RANGES["hidden_dim"]), default=200,
                     help="hidden layer width")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--label-set", choices=["full14", "actual10"],
        help="expected label set; must match the corpus header when given",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="droprec", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--profile", required=True, choices=list(synth.PROFILE_NAMES))
    gen.add_argument("--n", type=_positive_int, required=True, help="sentence count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output corpus path (JSONL)")
    gen.set_defaults(func=cmd_gen)

    split = subs.add_parser("split", help="3:1:1 train/dev/test split")
    split.add_argument("--in", dest="inp", required=True, help="corpus to split (JSONL)")
    split.add_argument("--seed", type=int, default=0)
    split.add_argument("--out-dir", required=True, help="directory for train/dev/test.jsonl")
    split.set_defaults(func=cmd_split)

    train = subs.add_parser("train", help="train the two-stage recovery model")
    _add_train_flags(train)
    train.add_argument("--out-model", required=True, help="output model path (JSON)")
    train.set_defaults(func=cmd_train)

    rec = subs.add_parser("recover", help="recover dropped pronouns in a corpus")
    rec.add_argument("--model", required=True)
    rec.add_argument("--in", dest="inp", required=True, help="input corpus (JSONL)")
    rec.add_argument("--out", required=True, help="output JSONL with recovered pronouns")
    rec.add_argument(
        "--threshold", type=_unit_interval,
        help="override the dev-tuned detection threshold",
    )
    rec.set_defaults(func=cmd_recover)

    evl = subs.add_parser("eval", help="evaluate a model on a test corpus")
    evl.add_argument("--model", required=True)
    evl.add_argument("--test", required=True, help="annotated test corpus (JSONL)")
    evl.add_argument("--positions", choices=["gold", "predicted"], default="gold",
                     help="score generation at gold or detector-predicted gaps")
    evl.add_argument("--report", required=True, help="output report path (JSON)")
    evl.set_defaults(func=cmd_eval)

    cmp_ = subs.add_parser(
        "compare",
        help="train linear baseline vs MLP generators and test significance",
    )
    _add_train_flags(cmp_)
    cmp_.add_argument("--alpha", type=_open_unit_interval, default=0.05,
                      help="significance level for the paired t-test")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def _load_table(args, corpora: list[Corpus]):
    if args.embeddings:
        return load_embeddings(args.embeddings)
    vocab = sorted({tok for corpus in corpora for sent in corpus.sentences for tok in sent.tokens})
    return deterministic_fallback_table(vocab, args.fallback_dim, args.seed)


def _load_train_dev(args) -> tuple[Corpus, Corpus]:
    train = load_corpus(args.train)
    dev = load_corpus(args.dev)
    if args.label_set and train.label_set.name != args.label_set:
        raise CorpusError(
            f"--label-set {args.label_set} conflicts with corpus label set "
            f"{train.label_set.name!r}"
        )
    return train, dev


def _hyperparams(args, embed_dim: int, layer_count: int) -> Hyperparams:
    return Hyperparams(
        embed_dim=embed_dim,
        window=args.window,
        layer_count=layer_count,
        dropout_rate=args.dropout,
        epochs=args.epochs,
        learning_rate=args.lr,
        hidden_dim=args.hidden,
        seed=args.seed,
    )


def cmd_gen(args) -> int:
    grammar = synth.builtin_grammar(args.profile)
    corpus = synth.generate_corpus(grammar, args.n, args.seed)
    save_corpus(corpus, args.out)
    print(
        f"wrote {len(corpus)} sentences ({corpus.total_annotations()} dropped pronouns) "
        f"to {args.out}"
    )
    return EXIT_OK


def cmd_split(args) -> int:
    corpus = load_corpus(args.inp)
    train, dev, test = split_corpus(corpus, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for part, name in ((train, "train"), (dev, "dev"), (test, "test")):
        save_corpus(part, out_dir / f"{name}.jsonl")
    print(f"split {len(corpus)} sentences into {len(train)}/{len(dev)}/{len(test)} at {out_dir}")
    return EXIT_OK


def _print_progress(stage: str, stats) -> None:
    print(f"{stage} epoch {stats.epoch + 1}: loss {stats.mean_loss:.4f} "
          f"acc {stats.accuracy:.4f}")


def cmd_train(args) -> int:
    train, dev = _load_train_dev(args)
    table = _load_table(args, [train, dev])
    hp = _hyperparams(args, table.dim, args.layers)
    model = pipeline.train_recovery(train, dev, table, hp, hp, progress=_print_progress)
    pipeline.save_recovery_model(model, args.out_model)
    dpg_acc = model.metadata["dev_dpg_accuracy_gold"]
    print(
        f"threshold {model.threshold:.2f}  "
        f"dev detection acc {model.metadata['dev_dpi_accuracy']:.4f}  "
        f"dev generation acc {'n/a' if dpg_acc is None else format(dpg_acc, '.4f')}"
    )
    print(f"saved model to {args.out_model}")
    return EXIT_OK


def cmd_recover(args) -> int:
    model = pipeline.load_recovery_model(args.model)
    if args.threshold is not None:
        model.threshold = args.threshold
    corpus = load_corpus(args.inp)
    results = [pipeline.recover(model, sent) for sent in corpus.sentences]
    write_records(
        args.out,
        model.label_set.name,
        {**corpus.metadata, "recovered_by": "droprec"},
        ((result.tokens, result.recovered) for result in results),
    )
    total = sum(len(result.recovered) for result in results)
    print(f"recovered {total} dropped pronouns over {len(corpus)} sentences into {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = pipeline.load_recovery_model(args.model)
    corpus = load_corpus(args.test)
    dpi_report, dpg_report = ev.evaluate_both(model, corpus, model.table, args.positions)
    print(ev.format_report(dpi_report, title="== dropped position identification =="))
    print()
    print(ev.format_report(dpg_report, title=f"== pronoun generation ({args.positions}) =="))
    payload = {
        "positions": args.positions,
        "dpi": ev.report_to_dict(dpi_report),
        "dpg": ev.report_to_dict(dpg_report),
    }
    with atomic_open(args.report) as fh:
        fh.write(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote report to {args.report}")
    return EXIT_OK


def cmd_compare(args) -> int:
    train, dev = _load_train_dev(args)
    train.label_set.check_same(dev.label_set, "train", "dev")
    if not (train.total_annotations() and dev.total_annotations()):
        raise CorpusError("compare needs dropped-pronoun annotations in train and dev")
    table = _load_table(args, [train, dev])
    # Both networks are built before either trains, so a size the machine cannot hold fails first.
    nets = {}
    for name, layers in (("linear", 1), ("mlp", args.layers)):
        hp = _hyperparams(args, table.dim, layers)
        nets[name] = mlp.build_model(hp.input_dim, len(train.label_set), hp)
    train_inst = build_dpg_instances(train, table, args.window)
    gold = gap_labels(dev)
    rows, gold = context_rows(dev.sentences, args.window, table)[gold >= 0], gold[gold >= 0]

    results = {}
    for name, net in nets.items():
        mlp.train(net, train_inst)
        classes = pipeline.class_probabilities(net, table, rows).argmax(axis=1)
        scores = (classes == gold).astype(float).tolist()
        results[name] = scores
        print(f"{name} (layers={net.hyperparams.layer_count}): dev generation acc "
              f"{sum(scores) / len(scores):.4f} over {len(scores)} items")

    sig = ev.paired_significance(results["mlp"], results["linear"], alpha=args.alpha)
    verdict = "significant" if sig.significant else "not significant"
    note = f"  ({sig.note})" if sig.note else ""
    print(f"paired t-test: t={sig.statistic:.4f} p={sig.p_value:.6f} -> {verdict} "
          f"at alpha={args.alpha}{note}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # Overflow on a text ends in a NumericError, not in numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except NumericError as exc:
        print(f"droprec: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:  # a `filename2` is the file that names the missing one
        named_by = f"{exc.filename2}: " if exc.filename2 else ""
        print(f"droprec: {named_by}file not found: {exc.filename}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"droprec: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (MemoryError, OverflowError) as exc:
        # A size too large to allocate or to index, as a size flag can ask for.
        print(f"droprec: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
