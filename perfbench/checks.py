"""Output checks, written against the file formats rather than droprec's code.

Each check returns a list of failure messages, one per failed operation it
found; an empty list means the output is correct.  Corpus files are read
here with plain `json`, so a loader bug in the program cannot hide a bad
output from its own check.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_corpus(path) -> list[tuple[list[str], list[list]]]:
    """(tokens, annotations) per sentence line of a corpus JSONL file."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    out = []
    for line in lines[1:]:
        if line.strip():
            obj = json.loads(line)
            out.append((obj["tokens"], obj["annotations"]))
    return out


def check_report(payload: dict, gold: list[tuple[list[str], list[list]]]) -> list[str]:
    """Report invariants: accuracy = trace/n, cells sum to n, and each gold
    class's row sums to its count in the test corpus."""
    failures = []
    candidate_gaps = sum(len(tokens) + 1 for tokens, _ in gold)
    tag_counts = Counter(tag for _, annos in gold for _, tag in annos)
    annotated = sum(tag_counts.values())
    for stage in ("dpi", "dpg"):
        rep = payload[stage]
        confusion, n, names = rep["confusion"], rep["n"], rep["class_names"]
        trace = sum(confusion[i][i] for i in range(len(confusion)))
        cells = sum(map(sum, confusion))
        if cells != n:
            failures.append(f"{stage} report: confusion cells sum to {cells}, n={n}")
        if n == 0 or rep["accuracy"] != trace / n:
            failures.append(f"{stage} report: accuracy {rep['accuracy']} != trace/n {trace}/{n}")
        if stage == "dpi":
            expected = {"not_dropped": candidate_gaps - annotated, "dropped": annotated}
        else:
            expected = {name: tag_counts.get(name, 0) for name in names if name != "<none>"}
        for i, name in enumerate(names):
            if name in expected and sum(confusion[i]) != expected[name]:
                failures.append(
                    f"{stage} report: row {name} sums to {sum(confusion[i])}, "
                    f"gold count {expected[name]}")
    return failures


def check_recover_output(path, inputs: list[tuple[list[str], list[list]]]) -> list[str]:
    """One line per input sentence with its tokens; gaps in [0, n], strictly
    increasing; confidences finite and in (0, 1].  One failure per sentence
    that is missing or wrong, plus one for a bad header or extra lines."""
    failures = []
    try:
        lines = [ln for ln in Path(path).read_text(encoding="utf-8").split("\n") if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        return [f"recover output unreadable: {exc}"] * max(1, len(inputs))
    try:
        header = json.loads(lines[0]) if lines else None
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or "label_set" not in header:
        failures.append("recover output: missing or malformed header")
    body = lines[1:]
    for i, (tokens, _) in enumerate(inputs):
        if i >= len(body):
            failures.append(f"recover output: sentence {i} missing")
            continue
        problem = _check_recovered_line(body[i], tokens)
        if problem:
            failures.append(f"recover output: sentence {i}: {problem}")
    if len(body) > len(inputs):
        failures.append(f"recover output: {len(body) - len(inputs)} extra line(s)")
    return failures


def _check_recovered_line(line: str, tokens: list[str]) -> str | None:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return "malformed JSON"
    if not isinstance(obj, dict) or obj.get("tokens") != tokens:
        return "tokens differ from the input"
    last = -1
    for item in obj.get("annotations", ()):
        if not (isinstance(item, list) and len(item) == 3):
            return f"bad annotation {item!r}"
        gap, tag, conf = item
        if not isinstance(gap, int) or not last < gap <= len(tokens):
            return f"gap {gap!r} out of order or outside [0, {len(tokens)}]"
        if not isinstance(tag, str):
            return f"tag {tag!r} is not a string"
        if not isinstance(conf, (int, float)) or not math.isfinite(conf) or not 0.0 < conf <= 1.0:
            return f"confidence {conf!r} not in (0, 1]"
        last = gap
    return None
