"""Fuzzing the three file loaders.

Any bytes given to `load_corpus`, `load_embeddings` or
`load_recovery_model` either load or raise that module's own error type,
and through the CLI a file that fails to load exits 2 with no traceback.
The strategies mutate real files written by the package's own writers,
and the examples hold every break fixed by hand so far.
"""

import json

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from droprec import mlp
from droprec.cli import EXIT_DATA, main
from droprec.corpus import FULL14, CorpusError, load_corpus, save_corpus
from droprec.embeddings import EmbeddingError, deterministic_fallback_table, load_embeddings
from droprec.mlp import Hyperparams, ModelFormatError
from droprec.pipeline import RecoveryModel, load_recovery_model, recovery_to_dict
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
                          FULL14, 1, 0.5, table, {"dev_dpi_accuracy": 0.5})
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
]


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


# Both networks with zero-width first layers, which pass the input-width checks.
ZERO_WIDTH = [((net, *key), value) for net in ("dpi", "dpg") for key, value in
              [(("input_dim",), "0"), (("layers", 0, "in_dim"), "0"),
               (("layers", 0, "weights"), "[]")]]
VALID_MODEL = json.dumps(MODEL).encode("utf-8")
MODEL_FILES = st.one_of(
    st.binary(max_size=200),
    edits(MODEL).map(lambda e: mutated(MODEL, e).encode("utf-8")),
    corrupted(VALID_MODEL),
)
MODEL_BREAKS = [
    b"{broken", DEEP.encode(), b'{"kind": "\xff"}', b"[]",
    model_edit((("threshold",), '"abc"')), model_edit((("threshold",), "true")),
    model_edit((("threshold",), "NaN")), model_edit((("label_set",), '"nope"')),
    model_edit((("window",), "0")), model_edit((("window",), "1.7")),
    model_edit((("window",), "true")), model_edit((("table_ref", "dim"), "1000000000000")),
    model_edit((("table_ref", "dim"), '"2"')), model_edit((("table_ref", "kind"), '"nope"')),
    model_edit((("table_ref", "vocab"), '"ab"')), model_edit((("table_ref", "vocab", 0), "1")),
    model_edit((("table_ref", "vocab", 0), '"\\ud800"')),
    model_edit((("dpi", "layers", 0, "weights", 0), '"nan"')),
    model_edit((("dpg", "layers", 1, "bias", 0), '"-inf"')),
    model_edit((("dpg", "layers", 0, "weights", 1), '"0x1p+2000"')),
    model_edit((("dpi", "layers", 0, "in_dim"), "4.7")),
    model_edit((("dpi", "input_dim"), "4.0")),
    model_edit((("dpi", "hyperparams", "learning_rate"), "NaN")),
    model_edit((("dpi", "hyperparams", "learning_rate"), "true")),
    model_edit((("dpi", "hyperparams", "epochs"), "true")),
    model_edit((("dpg", "hyperparams", "hidden_dim"), "2.5")),
    model_edit((("dpg", "hyperparams", "seed"), "1.5")),
    model_edit((("dpi", "hyperparams", "layer_count"), "2.0")),
    model_edit((("dpi", "hyperparams", "embed_dim"), "true")),
    model_edit((("dpi", "hyperparams", "window"), "1.0")),
    model_edit((("window",), "0"), *ZERO_WIDTH),
    model_edit((("table_ref", "dim"), "0"), *ZERO_WIDTH),
    model_edit((("metadata",), "NaN")), model_edit((("metadata", "dev_dpi_accuracy"), "NaN")),
]


@FUZZ
@given(MODEL_FILES)
@seeded(MODEL_BREAKS)
def test_any_model_bytes_load_or_raise_model_format_error(tmp_path, data):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    loads_or_raises(load_recovery_model, path, ModelFormatError)


# --- through the CLI --------------------------------------------------------------

LOADERS = {"corpus": (CORPUS_FILES, load_corpus, CorpusError),
           "embeddings": (EMBEDDING_FILES, load_embeddings, EmbeddingError),
           "model": (MODEL_FILES, load_recovery_model, ModelFormatError)}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("kind", LOADERS)
@given(data=st.data())
def test_a_file_that_fails_to_load_is_a_data_error_through_the_cli(tmp_path, capsys, kind, data):
    strategy, load, error = LOADERS[kind]
    bad = tmp_path / "bad"
    bad.write_bytes(data.draw(strategy))
    assume(not loads_or_raises(load, bad, error))
    good = tmp_path / "good.jsonl"  # read before the bad file, or never
    save_corpus(CORPUS, good)
    out = str(tmp_path / "out")
    args = {"corpus": ["split", "--in", str(bad), "--seed", "1", "--out-dir", out],
            "embeddings": ["train", "--train", str(good), "--dev", str(good),
                           "--embeddings", str(bad), "--out-model", out],
            "model": ["recover", "--model", str(bad), "--in", str(good), "--out", out]}[kind]
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("droprec: ") and "Traceback" not in err
