"""Fuzzing the three file loaders.

Any bytes given to `load_corpus`, `load_embeddings` or
`load_recovery_model` either load or raise that module's own error type,
and through the CLI a file that fails to load exits 2 with no traceback.
The strategies mutate real files written by the package's own writers,
and the examples hold every break fixed by hand so far.
"""

import copy
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from _blocks import decode_block, encode_block, with_value
from droprec import mlp
from droprec.cli import EXIT_DATA, main
from droprec.corpus import FULL14, CorpusError, decode_json, load_corpus, save_corpus
from droprec.embeddings import EmbeddingError, deterministic_fallback_table, load_embeddings
from droprec.mlp import Hyperparams, ModelFormatError
from droprec.pipeline import (RecoveryModel, load_recovery_model, recovery_to_dict,
                              save_recovery_model)
from droprec.synth import builtin_grammar, generate_corpus

FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

DEEP = "[" * 2000 + "]" * 2000  # nested deeper than json.loads can parse

# JSON text put in place of one value of a real file.
LITERALS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "true", "false", "null",
    "0", "-1", "1.5", "2.0", "9223372036854775808", "-9223372036854775809", "1000000000000",
    '""', '"x"', '"nope"', '"0.5"', "[]", "{}", '[[0, "ta_m"]]', '"\\ud800"', '" "',
    '"0x1.fffffffffffffp+1023"', '"-0x1.fffffffffffffp+1023"', '"0x1p-1074"', '"0x1p+1024"',
    '"0x1p+2000"', '"-0x0p+0"', '"nan"', '"inf"', '"-inf"', '"0x"', DEEP,
    '"AAA="', '"@@@@"', '"AAAAAAAAAAA="', '"AAAAAAAA+H8="', '"AAAAAAAA8P8="',
]

CORPUS = generate_corpus(builtin_grammar("separable"), 4, seed=3)
CORPUS_RECORDS = [{"label_set": CORPUS.label_set.name, "metadata": {"seed": 3}}] + [
    {"tokens": list(sent.tokens), "annotations": [list(a) for a in sent.annotations]}
    for sent in CORPUS.sentences
]


def model_object() -> dict:
    """The object of a real model file: window 1, a 2-dim fallback table."""
    table = deterministic_fallback_table(["a", "b"], 2, seed=1)
    hp = Hyperparams(embed_dim=2, window=1, layer_count=2, hidden_dim=2, epochs=1, seed=0)
    model = RecoveryModel(mlp.build_model(4, 2, hp), mlp.build_model(4, len(FULL14), hp),
                          FULL14, 0.5, table, {"dev_dpi_accuracy": 0.5})
    return json.loads(json.dumps(recovery_to_dict(model)))


MODEL = model_object()


def value_paths(obj, path=()):
    """Paths to every value of a JSON object; of a list, to its first two
    items only (a parameter block has many alike values)."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj[:2])
    else:
        items = ()
    for key, value in items:
        yield from value_paths(value, path + (key,))


def mutated(obj, edits) -> str:
    """JSON text of `obj` with the value at each path of `edits` replaced
    by its JSON literal."""
    obj = json.loads(json.dumps(obj))
    literals = []
    for path, literal in edits:
        if not path:
            return literal
        parent = obj
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = f"\x00{len(literals)}\x00"
        except (KeyError, IndexError, TypeError):  # an earlier edit replaced the path
            continue
        literals.append(literal)
    text = json.dumps(obj, ensure_ascii=False)
    for i, literal in enumerate(literals):
        text = text.replace(json.dumps(f"\x00{i}\x00"), literal)
    return text


def edits(obj):
    paths = list(value_paths(obj))
    return st.lists(st.tuples(st.sampled_from(paths), st.sampled_from(LITERALS)),
                    min_size=1, max_size=3)


def loads_or_raises(load, path, error) -> bool:
    """Whether `load(path)` loaded; an exception other than `error` propagates."""
    try:
        load(path)
    except error:
        return False
    return True


def seeded(breaks):
    """Decorator under @given: each of `breaks` is an explicit example."""
    def decorate(test):
        for data in breaks:
            test = example(data)(test)
        return test
    return decorate


@st.composite
def corrupted(draw, data: bytes):
    """`data` with a few bytes replaced, inserted or deleted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([b"\xff", b"\x00", b"\r", b"\n", b"\xc2\x85", b"{", b"]",
                                     b'"', b"", b"\xe2\x80\xa8"]))
        data[at : at + draw(st.integers(0, 1))] = byte
    return bytes(data)


# --- corpus ---------------------------------------------------------------------


@st.composite
def corpus_mutations(draw):
    lines = [json.dumps(record, ensure_ascii=False) for record in CORPUS_RECORDS]
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = mutated(CORPUS_RECORDS[i], draw(edits(CORPUS_RECORDS[i])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r", " ", "\x85", "\n\n"]))
    return end.join(lines).encode("utf-8")


VALID_CORPUS = "\n".join(json.dumps(r, ensure_ascii=False) for r in CORPUS_RECORDS).encode()
CORPUS_FILES = st.one_of(st.binary(max_size=200), corpus_mutations(), corrupted(VALID_CORPUS))
CORPUS_BREAKS = [
    b"", b"\xff", b'{"label_set": "\xff"}\n', VALID_CORPUS + b"\n\xff\n",
    DEEP.encode(), b'{"label_set": "full14"}\n' + DEEP.encode(),
    b'{"label_set": ["x"]}\n{"tokens": ["a"]}\n', b'{"label_set": "nope"}\n',
    b'{"label_set": "full14", "metadata": []}\n',
    '{"label_set": "full14"}\n{"tokens": ["a b"]}\n'.encode("utf-8"),
    b'{"label_set": "full14"}\n{"tokens": ["a"], "annotations": [[true, "ta_m"]]}\n',
    b'{"label_set": "full14"}\n{"tokens": ["a"], "annotations": [[1.0, "ta_m"]]}\n',
    b'{"label_set": "full14"}\n{"tokens": ["a"], "annotations": [[NaN, "ta_m"]]}\n',
    b'{"label_set": "full14"}\n{"tokens": ["a"], "annotations": [[5, "ta_m"]]}\n',
    b'{"label_set": "full14"}\n{"tokens": [""]}\n',
    b'{"label_set": "full14"}\n{"tokens": ["a", "\\ud800"]}\n',
    b'{"label_set": "full14", "metadata": {"seed": "\\udfff"}}\n{"tokens": ["a"]}\n',
    # Texts that json's scanner leaves to json.loads: whitespace, a BOM, extra data.
    b' {"label_set": "full14"}\t\n\r\n\t{"tokens": ["a"]}\r\n{"tokens": ["b"]} \r',
    '{"label_set": "full14"}\u3000\n{"tokens": ["a"]}\n'.encode("utf-8"),
    '{"label_set": "full14"}\n\u0085{"tokens": ["a"]}\n'.encode("utf-8"),
    b'\xef\xbb\xbf{"label_set": "full14"}\n{"tokens": ["a"]}\n',
    b'{"label_set": "full14"}\n\xef\xbb\xbf{"tokens": ["a"]}\n',
    b'{"label_set": "full14"}\n1, 2\n', b'{"label_set": "full14"}{}\n{"tokens": ["a"]}\n',
    b'{"label_set": "full14"}\n{"tokens": ["a"]}{"tokens": ["b"]}\n',
    b'{"label_set": "full14"}\nNaN\n', b'{"label_set": "full14", "metadata": {"x": Infinity}}\n',
    b'{"label_set": "full14"}\n{"tokens": ["a"], "annotations": [[-Infinity, "ta_m"]]}\n',
    b'{"label_set": "full14"}\n\x1c\n', b'{"label_set": "full14"}\n{"tokens": ["\\x"]}\n',
    b'{"label_set": "\\ud800"}\n', b'{"label_set": "full14"}\n{"tokens": ["\\udc00a"]}\n',
    b'{"label_set": "full14"}\n' + DEEP.encode() + b" ",
]


WHITESPACE = ["", " ", "\t", "\n", "\r", "\r\n", "\ufeff", "\x0c", "\x85", "\xa0", "\u2028",
              "\u3000"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=8).map(json.dumps)
JSON_TEXTS = st.one_of(
    st.builds(lambda lead, text, trail: lead + text + trail, st.sampled_from(WHITESPACE),
              JSON_VALUES | st.sampled_from(LITERALS + ["1, 2", "[1] [2]", "{} x", '"\\x"',
                                                        '"\\u12"', '"\\udc00"', "[", "",
                                                        "tru", "-", "01"]),
              st.sampled_from(WHITESPACE)),
    st.text(max_size=12))


def decoded_as_json_loads(text: str):
    """What decode_json should give for `text`: json.loads's value, or its error
    in decode_json's wording."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        return ValueError(f"not valid JSON: {exc.msg}")
    except RecursionError:
        return ValueError("JSON nested too deeply to parse")


@FUZZ
@given(JSON_TEXTS)
@example(DEEP)
@example(DEEP + " ")
@example('{"a": [1, 2]}\r')
def test_decode_json_gives_the_value_or_error_of_json_loads(text):
    try:
        got = decode_json(text.encode("utf-8"))
    except ValueError as exc:
        got = exc
    expected = decoded_as_json_loads(text)
    assert type(got) is type(expected) and repr(got) == repr(expected)


@FUZZ
@given(CORPUS_FILES)
@seeded(CORPUS_BREAKS)
def test_any_corpus_bytes_load_or_raise_corpus_error(tmp_path, data):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    if loads_or_raises(load_corpus, path, CorpusError):
        save_corpus(load_corpus(path), tmp_path / "again.jsonl")  # what loads can be written


# --- embeddings -----------------------------------------------------------------

HEADERS = [b"2 2", b"3 2", b"0 2", b"2 0", b"2 -1", b"2 2.0", b"x 2", b"2", b"2 2 2", b"",
           b"2 100000000000", b"\xef\xbb\xbf2 2", b" 2 2 "]
WORDS = [b"a", b"b", b"a", b"\xe8\xaf\x8d", b"", b"\xff", b"\xc2\x85", b"\xe3\x80\x80",
         b"\xe2\x80\xa8", b"\x00", b"a\r"]
COMPONENTS = [b"0.1", b"-2", b"1e3", b"nan", b"inf", b"-inf", b"1e400", b"-1e400", b"0x1p3",
              b"1_0", b"\xef\xbc\x91", b"", b"true", b"1.5.5", b"\xff"]
ENDS = [b"\n", b"\r\n", b"\r", b" \n", b"\t\n", b"\xc2\x85"]


@st.composite
def embedding_files(draw):
    lines = [draw(st.sampled_from(HEADERS)) + draw(st.sampled_from(ENDS))]
    for _ in range(draw(st.integers(0, 4))):
        comps = draw(st.lists(st.sampled_from(COMPONENTS), max_size=4))
        lines.append(b" ".join([draw(st.sampled_from(WORDS)), *comps])
                     + draw(st.sampled_from(ENDS)))
    return b"".join(lines)


VALID_EMBEDDINGS = b"2 2\na 0.5 -1\nb 2 0.25\n"
EMBEDDING_FILES = st.one_of(st.binary(max_size=200), embedding_files(),
                            corrupted(VALID_EMBEDDINGS))
EMBEDDING_BREAKS = [
    b"", b"1 2\n\xff 1 2\n", b"2 2\n", b"2 2\n\n\n", b"1 100000000000\na 1\n",
    b"1 2\na nan 1\n", b"1 2\na 1e400 1\n", b"1 2\na 1 inf\n", b"2 2\na 1 2\na 1\n",
    b"1 2\r\na 1 2\r\n", b"1 2\ra 1 2\r", b"1 2\n\xc2\x85 1 2\n", b"1 2\na 1\n",
    b"x 2\na 1 2\n", b"1 0\na\n", b"1 2\na 1 two\n",
]


@FUZZ
@given(EMBEDDING_FILES)
@seeded(EMBEDDING_BREAKS)
def test_any_embedding_bytes_load_or_raise_embedding_error(tmp_path, data):
    path = tmp_path / "vec.txt"
    path.write_bytes(data)
    loads_or_raises(load_embeddings, path, EmbeddingError)


# --- recovery model -------------------------------------------------------------


def model_edit(*edit) -> bytes:
    return mutated(MODEL, edit).encode("utf-8")


def block_with(net, layer, block, index, value) -> str:
    """JSON literal of a parameter block of MODEL with one value replaced."""
    return json.dumps(with_value(MODEL[net]["layers"][layer][block], index, value))


def resized(net, layer, rows, blocks=("weights", "bias")) -> str:
    """JSON literal of network `net` of MODEL with `blocks` of layer `layer`
    resized to `rows` output rows."""
    obj = copy.deepcopy(MODEL[net])
    entry = obj["layers"][layer]
    width = decode_block(entry["weights"]).size // decode_block(entry["bias"]).size
    for block, size in (("weights", rows * width), ("bias", rows)):
        if block in blocks:
            entry[block] = encode_block(np.resize(decode_block(entry[block]), size))
    return json.dumps(obj)


def with_hyperparams(net, classes, **changes) -> str:
    """JSON literal of a network of `classes` outputs whose hyperparams are
    those of network `net` of MODEL with `changes`; its shapes match them."""
    hp = Hyperparams(**{**MODEL[net]["hyperparams"], **changes})
    return json.dumps(mlp.model_to_dict(mlp.build_model(hp.input_dim, classes, hp)))


# The hex float lists of a version 1 file, in place of a version 2 block.
HEX_BLOCK = json.dumps([float(v).hex() for v in decode_block(MODEL["dpi"]["layers"][1]["bias"])])
VALID_MODEL = json.dumps(MODEL).encode("utf-8")
MODEL_FILES = st.one_of(
    st.binary(max_size=200),
    edits(MODEL).map(lambda e: mutated(MODEL, e).encode("utf-8")),
    corrupted(VALID_MODEL),
)
# A parameter block that is no finite double (NaN, -inf), no base64 ("@@@@"),
# 2 bytes ("AAA="), 7 bytes, a version 1 hex list in a version 2 or 1 file,
# or 16 zero bytes whose last character sets a pad bit ("…AB==").
BLOCK_BREAKS = [
    model_edit((("dpi", "layers", 0, "weights"), block_with("dpi", 0, "weights", 0, math.nan))),
    model_edit((("dpg", "layers", 1, "bias"), block_with("dpg", 1, "bias", 0, -math.inf))),
    model_edit((("dpg", "layers", 0, "weights"), '"@@@@"')),
    model_edit((("dpi", "layers", 1, "bias"), '"AAA="')),
    model_edit((("dpg", "layers", 1, "weights"), '"AAAAAAAAAA=="')),
    model_edit((("dpi", "layers", 1, "bias"), HEX_BLOCK)),
    model_edit((("format_version",), "1"), (("dpi", "layers", 1, "bias"), HEX_BLOCK)),
    model_edit((("dpi", "layers", 1, "bias"), '"AAAAAAAAAAAAAAAAAAAAAB=="')),
]
BLOCK_BREAK_IDS = ["nan", "minus-inf", "not-base64", "two-bytes", "seven-bytes", "hex-list",
                   "hex-list-in-version-1", "non-canonical-tail"]
# Files whose fields are each well formed but break a relation between them:
# the shapes the hyperparams and class counts fix, and the three relations
# the loader checks besides.  Each must be refused.
RELATION_BREAKS = {
    "dpi-one-class": model_edit((("dpi",), resized("dpi", -1, 1))),
    "dpi-three-classes": model_edit((("dpi",), resized("dpi", -1, 3))),
    "dpg-thirteen-classes": model_edit((("dpg",), resized("dpg", -1, len(FULL14) - 1))),
    "windows-differ": model_edit((("dpg",), with_hyperparams("dpg", len(FULL14), window=2))),
    "embed-dim-not-table-dim": model_edit((("table_ref", "dim"), "3")),
    "both-embed-dims-not-table-dim": model_edit(
        (("dpi",), with_hyperparams("dpi", 2, embed_dim=3)),
        (("dpg",), with_hyperparams("dpg", len(FULL14), embed_dim=3))),
    "more-layers-than-layer-count": model_edit((("dpi", "hyperparams", "layer_count"), "1")),
    "fewer-layers-than-layer-count": model_edit((("dpg", "hyperparams", "layer_count"), "3")),
    "weights-one-row-short": model_edit((("dpi",), resized("dpi", 0, 1, ["weights"]))),
    "weights-one-row-long": model_edit((("dpg",), resized("dpg", 1, len(FULL14) + 1,
                                                          ["weights"]))),
    "bias-one-row-short": model_edit((("dpg",), resized("dpg", 0, 1, ["bias"]))),
    "word2vec-table-without-sha256": model_edit(
        (("table_ref",), json.dumps({"kind": "word2vec", "path": "vec.txt", "dim": 2}))),
}
MODEL_BREAKS = [
    b"{broken", DEEP.encode(), b'{"kind": "\xff"}', b"[]",
    model_edit((("threshold",), '"abc"')), model_edit((("threshold",), "true")),
    model_edit((("threshold",), "NaN")), model_edit((("label_set",), '"nope"')),
    model_edit((("table_ref", "dim"), "1000000000000")),
    model_edit((("table_ref", "dim"), '"2"')), model_edit((("table_ref", "kind"), '"nope"')),
    model_edit((("table_ref", "vocab"), '"ab"')), model_edit((("table_ref", "vocab", 0), "1")),
    model_edit((("table_ref", "vocab", 0), '"\\ud800"')),
    *BLOCK_BREAKS, *RELATION_BREAKS.values(),
    model_edit((("dpi", "hyperparams", "learning_rate"), "NaN")),
    model_edit((("dpi", "hyperparams", "learning_rate"), "true")),
    model_edit((("dpi", "hyperparams", "epochs"), "true")),
    model_edit((("dpg", "hyperparams", "hidden_dim"), "2.5")),
    model_edit((("dpg", "hyperparams", "seed"), "1.5")),
    model_edit((("dpi", "hyperparams", "layer_count"), "2.0")),
    model_edit((("dpi", "hyperparams", "embed_dim"), "true")),
    model_edit((("dpi", "hyperparams", "window"), "1.0")),
    model_edit((("metadata",), "NaN")), model_edit((("metadata", "dev_dpi_accuracy"), "NaN")),
    model_edit((("metadata",), '[["k", 1]]')),
    # Network blocks that Python, not the format, once refused.
    model_edit((("dpi", "hyperparams"), "[]")), model_edit((("dpg", "hyperparams", "extra"), "1")),
    model_edit((("dpi", "layers"), "null")), model_edit((("dpg", "layers"), '{"a": 1, "b": 2}')),
    model_edit((("dpi",), "null")),
    json.dumps({**MODEL, "dpi": {**MODEL["dpi"], "hyperparams": {
        k: v for k, v in MODEL["dpi"]["hyperparams"].items() if k != "seed"}}}).encode("utf-8"),
]


@FUZZ
@given(MODEL_FILES)
@seeded(MODEL_BREAKS)
def test_any_model_bytes_load_or_raise_model_format_error(tmp_path, data):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    if loads_or_raises(load_recovery_model, path, ModelFormatError):
        # what loads saves back as the object it was read from
        save_recovery_model(load_recovery_model(path), tmp_path / "again.json")
        again = (tmp_path / "again.json").read_text(encoding="utf-8")
        assert json.loads(again) == json.loads(data.decode("utf-8"))


@pytest.mark.parametrize("data", BLOCK_BREAKS, ids=BLOCK_BREAK_IDS)
def test_each_parameter_block_break_is_refused(tmp_path, data):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    assert not loads_or_raises(load_recovery_model, path, ModelFormatError)


@pytest.mark.parametrize("data", RELATION_BREAKS.values(), ids=RELATION_BREAKS.keys())
def test_each_relation_break_is_refused(tmp_path, data):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    assert not loads_or_raises(load_recovery_model, path, ModelFormatError)


def test_the_unbroken_model_loads(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(VALID_MODEL)
    assert loads_or_raises(load_recovery_model, path, ModelFormatError)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@FUZZ
@given(arrays(np.float64, st.integers(1, 6).map(lambda d: 4 * d + 2), elements=FINITE))
@example(np.array([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   sys.float_info.max, -sys.float_info.max]))
def test_any_finite_parameters_survive_the_model_file_bit_exactly(values):
    k = (values.size - 2) // 2  # a k -> 2 network: 2k weights and 2 biases
    hp = Hyperparams(embed_dim=k // 2, layer_count=1, seed=0)  # window 1: k inputs
    model = mlp.build_model(hp.input_dim, 2, hp)
    layer = model.layers[0]
    layer.weights[...] = values[:2 * k].reshape(2, k)
    layer.bias[...] = values[2 * k:]
    text = json.dumps(mlp.model_to_dict(model), allow_nan=False)
    again = mlp.model_from_dict(json.loads(text), 2, "dpi")
    assert again.layers[0].weights.tobytes() == layer.weights.tobytes()
    assert again.layers[0].bias.tobytes() == layer.bias.tobytes()
    assert json.dumps(mlp.model_to_dict(again), allow_nan=False) == text


# --- through the CLI --------------------------------------------------------------

LOADERS = {"corpus": (CORPUS_FILES, load_corpus, CorpusError),
           "dev-corpus": (CORPUS_FILES, load_corpus, CorpusError),
           "embeddings": (EMBEDDING_FILES, load_embeddings, EmbeddingError),
           "model": (MODEL_FILES, load_recovery_model, ModelFormatError)}


# Python's own exception texts, which no refusal of a file should show.
PYTHON_PHRASINGS = ["argument after **", "has no len()", "__init__()",
                    "unexpected keyword argument"]


def refused_through_the_cli(tmp_path, capsys, kind, bad) -> None:
    """The CLI command that reads `bad` as a file of `kind` exits 2, with a message in
    droprec's words that starts with the file and, where the error has a line, names
    it as `<path>: line N: `."""
    good = tmp_path / "good.jsonl"  # read before the bad file, or never
    save_corpus(CORPUS, good)
    out = str(tmp_path / "out")
    args = {"corpus": ["split", "--in", str(bad), "--seed", "1", "--out-dir", out],
            "dev-corpus": ["train", "--train", str(good), "--dev", str(bad),
                           "--fallback-dim", "2", "--out-model", out],
            "embeddings": ["train", "--train", str(good), "--dev", str(good),
                           "--embeddings", str(bad), "--out-model", out],
            "model": ["recover", "--model", str(bad), "--in", str(good), "--out", out]}[kind]
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"droprec: {bad}") and "Traceback" not in err
    assert not any(phrasing in err for phrasing in PYTHON_PHRASINGS), err
    assert not re.search(r"\bline \d+: ", err) or f"{bad}: line " in err, err


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("kind", LOADERS)
@given(data=st.data())
def test_a_file_that_fails_to_load_is_a_data_error_through_the_cli(tmp_path, capsys, kind, data):
    strategy, load, error = LOADERS[kind]
    bad = tmp_path / "bad"
    bad.write_bytes(data.draw(strategy))
    assume(not loads_or_raises(load, bad, error))
    refused_through_the_cli(tmp_path, capsys, kind, bad)


@pytest.mark.parametrize("data", MODEL_BREAKS, ids=range(len(MODEL_BREAKS)))
def test_each_model_break_is_a_data_error_in_words_through_the_cli(tmp_path, capsys, data):
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    assert not loads_or_raises(load_recovery_model, bad, ModelFormatError)
    refused_through_the_cli(tmp_path, capsys, "model", bad)
