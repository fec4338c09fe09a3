"""Mutated input documents must end in a report or a one-line refusal.

The golden model documents and one complement datum are mutated at random
(type swaps, deleted and duplicated keys, huge and negative integers, deep
nesting, NaN and Infinity tokens, bytes that are not UTF-8) and handed to
``cli.main`` in-process.  Whatever the input, the exit code is 0, 1 or 2,
exit 1 prints exactly one line on stderr, and no exception leaves ``main``.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from germkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# the golden inputs; the other golden files are reports
MODELS = sorted(p for p in GOLDEN.glob("*.json") if "graph" in json.loads(p.read_text()))
# over an intervals symbol, with every optional key given
DATUM = {
    "n": 2,
    "basis": ["1", "r"],
    "enclosures": {"r": {"intervals": [["1", "2"], ["7/5", "3/2"], ["141/100", "71/50"]]}},
    "B": ["1/2", ["0", "1/3"]],
    "Bplus": ["1/2", ["1", "0"]],
    "m": ["1/2", 0],
    "decomposition": {
        "weights": ["1/2", "1/2"],
        "parts": [{"Bplus": ["1/2", "1"]}, {"Bplus": ["1/2", ["1", "-1/2"]], "m": []}],
    },
}
CASES = [("mld", p) for p in MODELS] + [("partition", p) for p in MODELS] + [
    ("check-complement", DATUM)
]


class Raw:
    """Text written into the document as it stands."""

    def __init__(self, text):
        self.text = text


class Pairs:
    """A JSON object written from a list of pairs, so a key may repeat."""

    def __init__(self, pairs):
        self.pairs = pairs


def emit(x) -> str:
    if isinstance(x, Raw):
        return x.text
    if isinstance(x, dict):
        x = Pairs(list(x.items()))
    if isinstance(x, Pairs):
        return "{" + ",".join(f"{json.dumps(k)}:{emit(v)}" for k, v in x.pairs) + "}"
    if isinstance(x, list):
        return "[" + ",".join(map(emit, x)) + "]"
    return json.dumps(x)


def locations(holder):
    """Every (container, key) slot below ``holder``, the root included."""
    out, todo = [], [holder]
    while todo:
        c = todo.pop()
        for k in list(c) if isinstance(c, dict) else range(len(c)):
            out.append((c, k))
            if isinstance(c[k], (dict, list)):
                todo.append(c[k])
    return out


# copied on each draw: a later mutation may write into a drawn list
SCALARS = st.sampled_from(
    [None, True, False, 0, 1, -1, 1.5, "", "x", "1/0", [], {}, [[]], {"": 0}]
    + [Raw("NaN"), Raw("Infinity"), Raw("-Infinity"), Raw("1e400")]
).map(copy.deepcopy)
DIGITS = st.integers(1, 5000).map(lambda k: "9" * k)
INTEGERS = st.one_of(
    st.integers(-(10**6), 10**6),
    DIGITS.map(Raw),
    DIGITS.map(lambda d: Raw("-" + d)),
)
BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])


def mutate(data, holder) -> None:
    slots = locations(holder)
    c, k = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
    v = c[k]
    kind = data.draw(st.sampled_from(["swap", "delete", "duplicate", "integer", "nest"]))
    if kind == "swap":
        c[k] = data.draw(SCALARS)
    elif kind == "delete" and c is not holder:
        del c[k]
    elif kind == "duplicate" and isinstance(v, dict) and v:
        pairs = list(v.items())
        key = pairs[data.draw(st.integers(0, len(pairs) - 1), label="key")][0]
        c[k] = Pairs(pairs + [(key, data.draw(SCALARS))])
    elif kind == "integer":
        c[k] = data.draw(INTEGERS)
    elif kind == "nest":
        depth = data.draw(st.sampled_from([1, 2, 30, 100_000]), label="depth")
        opener, closer = data.draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
        c[k] = Raw(opener * depth + emit(v) + closer * depth)


@pytest.mark.parametrize(
    "command,source", CASES, ids=[f"{c}-{getattr(s, 'stem', 'datum')}" for c, s in CASES]
)
@settings(
    derandomize=True,
    database=None,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_documents_end_in_one_line(tmp_path, capsys, command, source, data):
    doc = json.loads(source.read_text()) if isinstance(source, Path) else source
    holder = [json.loads(json.dumps(doc))]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        if isinstance(holder[0], (Raw, Pairs)):
            break
        mutate(data, holder)
    text = emit(holder[0]).encode()
    if data.draw(st.booleans(), label="bad utf-8"):
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + data.draw(BAD_BYTES) + text[at:]
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert err.count("\n") == 1, err
