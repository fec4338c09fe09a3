"""End-to-end runs of the command line interface via main(argv)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from germkit import NEG_INFINITY, explorer
from germkit.cli import main
from germkit.coefflattice import DEFAULT_BUDGET, current_budget
from germkit.corpus import corpus
from germkit.discrepancy import Violation, mld_point


@pytest.fixture
def model_file(tmp_path):
    def write(doc, name="model.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return write


HJ73_HALF = {
    "graph": {
        "vertices": [{"id": 0, "weight": -3}, {"id": 1, "weight": -2}, {"id": 2, "weight": -2}],
        "edges": [[0, 1], [1, 2]],
    },
    "branches": [{"vertex": 0, "b": "1/2"}],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve(model_file, capsys):
    code, out, _ = run(capsys, "solve", model_file(HJ73_HALF))
    assert code == 0
    doc = json.loads(out)
    assert doc["a"]["0"]["exact"] == "5/14"
    assert doc["a"]["2"]["exact"] == "11/14"


def test_mld_with_agreeing_oracle(model_file, capsys):
    code, out, _ = run(capsys, "mld", model_file(HJ73_HALF), "--oracle-depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mld"]["exact"] == "5/14"
    assert doc["realizing"] == {"kind": "vertex", "where": 0}
    assert doc["oracle"]["agrees"] is True


def test_mld_oracle_mismatch_exits_two(model_file, capsys):
    # closed form says not lc, a depth-1 tower has not yet noticed
    doc = {
        "graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []},
        "branches": [{"vertex": 0, "b": "5/4"}],
    }
    code, out, _ = run(capsys, "mld", model_file(doc), "--oracle-depth", "1")
    assert code == 2
    parsed = json.loads(out)
    assert parsed["mld"]["exact"] == "-inf"
    assert parsed["oracle"]["agrees"] is False


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "mld", "/nonexistent/model.json")
    assert code == 1
    assert "error" in err


def test_invalid_json_exits_one(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "solve", str(p))
    assert code == 1
    assert "not valid JSON" in err


# the second "branches" would silently win, giving mld 1 instead of 3/4
DUPLICATE_BRANCHES = (
    '{"graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []},'
    ' "branches": [{"vertex": 0, "b": "1/2"}], "branches": []}'
)
# [1; 2, 2] = 7/5 is rational, so it cannot be a basis symbol
FINITE_CF = (
    '{"basis": ["1", "r"], "enclosures": {"r": {"cf": [1, 2, 2]}},'
    ' "graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []}}'
)
FINITE_CF_EMPTY_CYCLE = FINITE_CF.replace("[1, 2, 2]", '{"head": [1, 2, 2], "cycle": []}')
# eight irrational symbols [k; 2k, 2k, ...] = sqrt(k^2 + 1), one more than
# a partition of one takes
EIGHT_SYMBOLS = json.dumps({
    "basis": ["1"] + [f"r{k}" for k in range(1, 9)],
    "enclosures": {f"r{k}": {"cf": {"head": [k], "cycle": [2 * k]}} for k in range(1, 9)},
    "graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []},
})
# one integer past CPython's 4,300-digit limit on int("...")
HUGE_INTEGER = '{"graph": {"vertices": [{"id": 0, "weight": -2' + "0" * 5000 + '}], "edges": []}}'
# a rational literal whose exponent alone passes the same limit
HUGE_EXPONENT = (
    '{"graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []},'
    ' "branches": [{"vertex": 0, "b": "1e999999"}]}'
)
# sqrt3 - 1 = [0; 1, 2, ...] has no positive lower endpoint at level 0, so a
# product basis needs level 1 of it
HEAD_ZERO_PAIR = json.dumps({
    "basis": ["1", "r", "s"],
    "enclosures": {
        "r": {"cf": {"head": [0], "cycle": [1, 2]}},
        "s": {"cf": {"head": [1], "cycle": [2]}},
    },
    "graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []},
})
# nesting past the interpreter's recursion limit
DEEP_ARRAYS = "[" * 100_000 + "]" * 100_000
BOOLEAN_EDGE = (
    '{"graph": {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}],'
    ' "edges": [[true, false]]}}'
)
ONE_CURVE = {"vertices": [{"id": 0, "weight": -2}], "edges": []}
# one interval is a level 0 with no level 1 to shrink it
ONE_LEVEL_INTERVALS = json.dumps({
    "basis": ["1", "r"],
    "enclosures": {"r": {"intervals": [["1", "2"]]}},
    "graph": ONE_CURVE,
})


def _with(doc, path, value):
    # a copy of doc with value put at the dotted path
    doc = json.loads(json.dumps(doc))
    *keys, last = path.split(".")
    inner = doc
    for key in keys:
        inner = inner[int(key)] if isinstance(inner, list) else inner[key]
    inner[last] = value
    return json.dumps(doc)


# 4,000-digit integers, below the digit limit on reading, whose results
# need more digits than the interpreter prints
BIG = 10**4000 - 1
TWO_HUGE_WEIGHTS = json.dumps({
    "graph": {
        "vertices": [{"id": 0, "weight": -BIG}, {"id": 1, "weight": -BIG}],
        "edges": [[0, 1]],
    },
    "branches": [{"vertex": 0, "b": "1/2"}],
})
HUGE_INDEX = json.dumps({"n": BIG, "B": [f"{BIG}/7"], "Bplus": [f"{BIG}/7"]})
HUGE_CF = json.dumps({
    "basis": ["1", "r"],
    "enclosures": {"r": {"cf": {"head": [BIG], "cycle": [1, BIG]}}},
    "graph": {"vertices": [], "edges": []},
})
MODEL_DOC = {"graph": ONE_CURVE, "branches": [{"vertex": 0, "b": "1/2"}]}
DATUM_DOC = {
    "n": 2,
    "B": ["1/2"],
    "Bplus": ["1/2"],
    "m": [],
    "decomposition": {"weights": ["1"], "parts": [{"Bplus": ["1/2"], "m": []}]},
}
SQRT2_MODEL = {
    "basis": ["1", "r"],
    "enclosures": {"r": {"cf": {"head": [1], "cycle": [2]}}},
    "graph": ONE_CURVE,
}
# each of these was iterated unchecked, so a non-list ended in a TypeError
NON_LISTS = [
    ("mld", MODEL_DOC, "graph.vertices", 5),
    ("mld", MODEL_DOC, "graph.edges", 7),
    ("mld", MODEL_DOC, "branches", True),
    ("check-complement", DATUM_DOC, "decomposition.weights", 3),
    ("check-complement", DATUM_DOC, "decomposition.parts", 1),
    ("check-complement", DATUM_DOC, "decomposition.parts.0.Bplus", 2),
    ("check-complement", DATUM_DOC, "decomposition.parts.0.m", None),
]
# int() reads each of these as 30, but none is the decimal spelling of an id
NEFLOAD_KEYS = ["3_0", " 30 ", "+30", "\u0663\u0660"]
NEFLOAD_CASES = [
    (
        ["mld", "{doc}"],
        json.dumps({
            "graph": {"vertices": [{"id": 30, "weight": -2}], "edges": []},
            "nefloads": {key: "1/2"},
        }),
        f"nefloads: bad vertex key {key!r}",
    )
    for key in NEFLOAD_KEYS
]
NON_LIST_CASES = [
    ([cmd, "{doc}"], _with(doc, key, value), f"{key.replace('.0', '[0]')}: expected a list")
    for cmd, doc, key, value in NON_LISTS
]


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (["mld", "{doc}"], DUPLICATE_BRANCHES, "duplicate key 'branches'"),
        (["check-complement", "{doc}"], '{"n": 2, "B": ["1/2"], "B": []}', "duplicate key 'B'"),
        (["mld", "{doc}"], BOOLEAN_EDGE, "edge must be a pair of vertex ids"),
        (["gen-hj", "4", "2"], None, "coprime"),
        (["mld", "{dir}"], None, "Is a directory"),
        (["gen-hj", "7", "3", "--out", "{dir}"], None, "Is a directory"),
        (["mld"], None, "required: model"),
        (["solve", "{doc}", "--seed", "3"], None, "unrecognized arguments: --seed 3"),
        (["partition", "--delta", "0"], None, "delta must be positive"),
        (["perturb", "{doc}", "--delta", "0"], None, "delta must be positive"),
        (["verify-lemmas", "--count", "5", "--delta", "0"], None, "delta must be positive"),
        (["partition", "--refine-budget", "0"], None, "refinement budget must be positive"),
        (["mld", "{doc}", "--refine-budget", "-3"], None, "refinement budget must be positive"),
        (["mld", "{doc}"], FINITE_CF, "enclosures.r: a finite continued fraction is rational"),
        (["mld", "{doc}"], FINITE_CF_EMPTY_CYCLE, "enclosures.r: a finite continued fraction"),
        (["mld", "{doc}", "--oracle-depth", "15"], None, "oracle depth 15 exceeds the cap of 14"),
        (["scan", "--oracle-depth", "15"], None, "oracle depth 15 exceeds the cap of 14"),
        (["verify-lemmas", "--oracle-depth", "40"], None, "oracle depth 40 exceeds the cap"),
        (["verify-lemmas", "--oracle-depth", "0"], None, "N must be at least 1, got 0"),
        (["scan", "--oracle-depth", "-1"], None, "oracle depth must be at least 1, got -1"),
        (["partition", "{doc}"], EIGHT_SYMBOLS, "8 irrational symbols exceeds the cap of 7"),
        (["gen-hj", "7", "3", "--refine-budget", "7"], None, "unrecognized arguments"),
        (["mld", "{doc}"], b'{"graph": "\xff"}', "doc.json is not UTF-8"),
        (["mld", "{doc}"], HUGE_INTEGER, "doc.json is not valid JSON: Exceeds the limit"),
        (["mld", "{doc}"], DEEP_ARRAYS, "doc.json nests too deeply to read"),
        (["mld", "{doc}"], HUGE_EXPONENT,
         "branches[0].b: rational literal '1e999999' needs more than 4300 digits"),
        (["mld", "{doc}"], HUGE_EXPONENT.replace("1e999999", "1e999999999"),
         "branches[0].b: rational literal '1e999999999' needs more than 4300 digits"),
        (["gen-hj", "7", "3", "--branch", "0:1e999999"], None,
         "--branch: rational literal '1e999999' needs more than 4300 digits"),
        (["partition", "--delta", "1e-999999"], None,
         "--delta: rational literal '1e-999999' needs more than 4300 digits"),
        (["partition", "{doc}", "--refine-budget", "1"], HEAD_ZERO_PAIR,
         "no level with a positive lower endpoint"),
        (["mld", "{doc}"], TWO_HUGE_WEIGHTS, "a result needs more than 4300 digits to print"),
        (["check-complement", "{doc}"], HUGE_INDEX, "a result needs more than 4300 digits"),
        (["partition", "{doc}"], HUGE_CF, "a result needs more than 4300 digits to print"),
        *NON_LIST_CASES,
        (["mld", "{doc}"], _with(SQRT2_MODEL, "enclosures.r.typo", 3),
         "enclosures.r: unknown keys ['typo']"),
        (["mld", "{doc}"], _with(SQRT2_MODEL, "enclosures.r.intervals", [["1", "2"]]),
         "enclosures.r: enclosure needs exactly one of cf or intervals"),
        (["mld", "{doc}"], ONE_LEVEL_INTERVALS,
         "enclosures.r: an enclosure needs at least two levels, got 1"),
        *NEFLOAD_CASES,
        (["gen-hj", "1000000000", "999999999"], None,
         "quotient chain exceeds the cap of 10000 curves"),
        (["gen-hj", "10002", "10001"], None, "quotient chain exceeds the cap of 10000 curves"),
        (["scan", "--count", "10001"], None, "count 10001 exceeds the cap of 10000"),
        (["scan", "--family", "an", "--n-max", "1001"], None,
         "n_max 1001 exceeds the cap of 1000"),
        (["verify-lemmas", "--count", "10001"], None, "count 10001 exceeds the cap of 10000"),
    ],
    ids=["duplicate-model-key", "duplicate-datum-key", "boolean-endpoints", "gen-hj-not-coprime",
         "read-directory", "write-directory", "missing-model", "flag-of-another-subcommand",
         "partition-zero-delta", "perturb-zero-delta", "verify-zero-delta",
         "zero-refine-budget", "negative-refine-budget", "finite-cf-symbol",
         "finite-cf-empty-cycle", "mld-oracle-over-cap", "scan-oracle-over-cap",
         "verify-oracle-over-cap", "verify-oracle-depth-zero", "scan-oracle-depth-negative",
         "partition-over-cap",
         "gen-hj-refine-budget", "not-utf8", "integer-past-digit-limit", "deep-nesting",
         "exponent-past-digit-limit", "huge-exponent", "gen-hj-exponent-past-digit-limit",
         "delta-exponent-past-digit-limit", "partition-positive-level-past-budget",
         "mld-past-digit-limit", "complement-past-digit-limit", "partition-past-digit-limit",
         *(f"non-list-{key}" for _, _, key, _ in NON_LISTS),
         "enclosure-unknown-key", "enclosure-cf-and-intervals", "enclosure-one-level",
         "nefloads-key-underscore", "nefloads-key-spaces", "nefloads-key-plus",
         "nefloads-key-arabic-indic", "gen-hj-billion-curves", "gen-hj-one-past-cap",
         "scan-count-over-cap", "scan-n-max-over-cap", "verify-count-over-cap"],
)
def test_bad_input_exits_one_with_one_line(tmp_path, capsys, argv, text, message):
    doc = tmp_path / "doc.json"
    if isinstance(text, bytes):
        doc.write_bytes(text)
    elif text is not None:
        doc.write_text(text)
    argv = [a.format(doc=doc, dir=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and message in err


def _sqrt2_convergent(k):
    # p_k/q_k of sqrt2 = [1; 2, 2, ...]; even k lie below sqrt2
    (p, q), (p1, q1) = (1, 1), (3, 2)
    for _ in range(k):
        (p, q), (p1, q1) = (p1, q1), (2 * p1 + p, 2 * q1 + q)
    return f"{p}/{q}"


def _deep_branch(enclosure):
    # one (-2)-curve with a branch of coefficient sqrt2 - p_70/q_70, a
    # positive number below 10^-50
    return {
        "basis": ["1", "sqrt2"],
        "enclosures": {"sqrt2": enclosure},
        "graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []},
        "branches": [{"vertex": 0, "b": ["-" + _sqrt2_convergent(70), "1"]}],
    }


# sqrt2 declared by its first 100 continued fraction levels [p_k/q_k,
# p_(k+1)/q_(k+1)]: certifying the branch's sign refines to level 71
SQRT2_INTERVALS = {
    "intervals": [
        sorted((_sqrt2_convergent(k), _sqrt2_convergent(k + 1)), key=Fraction)
        for k in range(100)
    ]
}
SQRT2_CF = {"cf": {"head": [1], "cycle": [2]}}


def test_refine_budget_reaches_model_validation(model_file, capsys):
    path = model_file(_deep_branch(SQRT2_INTERVALS))
    code, _, err = run(capsys, "mld", path)
    assert code == 1
    assert "undecided after 64 refinement levels" in err
    code, out, _ = run(capsys, "mld", path, "--refine-budget", "300")
    assert code == 0
    assert json.loads(out)["classification"] == "klt"
    assert current_budget() == DEFAULT_BUDGET == 64


def test_cf_symbols_need_no_refinement_budget(model_file, capsys):
    # the same model over the continued fraction of sqrt2, a certified
    # basis: its sign is exact, at the default budget and at one level
    path = model_file(_deep_branch(SQRT2_CF))
    reports = []
    for budget in ("64", "1"):
        code, out, err = run(capsys, "mld", path, "--refine-budget", budget)
        assert (code, err) == (0, "")
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["classification"] == "klt"


def test_unmet_hypotheses_exit_one(model_file, capsys):
    doc = {"graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []}}
    code, _, err = run(capsys, "computing-path", model_file(doc))
    assert code == 1
    assert "hypotheses unmet" in err


def test_gen_hj_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "hj.json"
    code, _, _ = run(
        capsys, "gen-hj", "7", "3", "--branch", "0:1/2", "--out", str(out_path)
    )
    assert code == 0
    code, out, _ = run(capsys, "mld", str(out_path))
    assert code == 0
    assert json.loads(out)["mld"]["exact"] == "5/14"


def test_scan_csv_format(capsys):
    code, out, _ = run(capsys, "scan", "--family", "an", "--n-max", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("digest,")
    assert len(lines) == 5


def test_scan_is_deterministic(capsys):
    argv = ("scan", "--family", "corpus", "--count", "20", "--seed", "3")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_scan_files_family_requires_paths(capsys):
    code, _, err = run(capsys, "scan", "--family", "files")
    assert code == 1
    assert "needs at least one model path" in err


def test_scan_refuses_model_paths_outside_the_files_family(capsys):
    # a path given with another family would be listed under config.paths
    # and never read
    path = str(Path(__file__).parent / "golden" / "tree.json")
    for family in ([], ["--family", "an"]):
        code, out, err = run(capsys, "scan", *family, path)
        assert (code, out) == (1, "")
        name = family[-1] if family else "corpus"
        assert err == (
            f"error: model paths are read only by --family files, not by --family {name}\n"
        )


def test_scan_refuses_to_aggregate_models_over_different_bases(capsys):
    # each model scans alone; their mld values cannot be ordered together
    golden = Path(__file__).parent / "golden"
    paths = [str(golden / "tree.json"), str(golden / "sqrt2_sqrt3.json")]
    a, b = sorted(explorer.model_digest(explorer.load_model(p)) for p in paths)
    code, out, err = run(capsys, "scan", "--family", "files", *paths)
    assert (code, out) == (1, "")
    assert err == f"error: scan aggregate: models {a} and {b} are over different bases\n"
    for p in paths:
        assert run(capsys, "scan", "--family", "files", p)[0] == 0


def test_scan_files_over_the_empty_graph(model_file, capsys):
    # on the empty graph the smooth-center check runs exactly when the
    # branches sum to at most 1
    def point(*bs):
        return {
            "graph": {"vertices": [], "edges": []},
            "branches": [{"vertex": None, "b": b} for b in bs],
        }

    paths = [
        model_file(point("1/2", "1/3"), "low.json"),
        model_file(point("3/4", "1/2"), "high.json"),
    ]
    code, out, _ = run(capsys, "scan", "--family", "files", *paths, "--epsilon", "1/10")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["epsilon"] == "1/10"
    got = {i["mld"]["exact"]: (i["checks"], i["violations"]) for i in doc["instances"]}
    assert got == {
        "7/6": (["convexity", "smooth-center"], []),
        "3/4": (["convexity"], []),
    }
    assert [i["classification"] for i in doc["instances"]] == ["eps-lc", "eps-lc"]
    assert doc["aggregate"]["violations_total"] == 0


def test_partition_default_basis(capsys):
    code, out, _ = run(capsys, "partition", "--delta", "1/10")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == ["1", "sqrt2"]
    assert len(doc["entries"]) == 2
    assert all(doc["checks"].values())


def test_check_complement(model_file, capsys):
    path = model_file({"n": 2, "B": ["1/2"], "Bplus": ["1/2"]}, "datum.json")
    code, out, _ = run(capsys, "check-complement", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"]["ok"] is True
    assert doc["strong_auto"]["hypothesis_ok"] is True


def test_check_complement_floors_two_roots_without_budget(model_file, capsys):
    # floor(sqrt2 + sqrt3) = 3 straddles the isqrt window 2..4; over the
    # certified basis it needs no refinement level
    datum = {
        "n": 2,
        "basis": ["1", "a", "b"],
        "enclosures": {"a": SQRT2_CF, "b": {"cf": {"head": [1], "cycle": [1, 2]}}},
        "B": [["0", "1", "1"]],
        "Bplus": ["1"],
    }
    code, out, err = run(capsys, "check-complement", model_file(datum), "--refine-budget", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"]["rows"][0]["threshold"] == "3"


def test_resolve(model_file, capsys):
    doc = {
        "graph": {"vertices": [], "edges": []},
        "branches": [{"vertex": None, "b": "1/2"}, {"vertex": None, "b": "1/2"}],
    }
    code, out, _ = run(capsys, "resolve", model_file(doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["kind"] == "blown-up"
    assert parsed["vertices"] == [[0, -1]]
    assert parsed["minus_one_unique"] is True


def test_scan_checks_span_closure_over_the_model_inputs(model_file, capsys):
    # the check read the corpus generator's pool, whose only irrational is
    # sqrt2/2, so this valid germ over sqrt3 was reported as a violation
    doc = {
        "basis": ["1", "sqrt2", "sqrt3"],
        "enclosures": {
            "sqrt2": {"cf": {"head": [1], "cycle": [2]}},
            "sqrt3": {"cf": {"head": [1], "cycle": [1, 2]}},
        },
        "graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []},
        "branches": [{"vertex": 0, "b": ["0", "0", "1/4"]}],
    }
    code, out, err = run(capsys, "scan", "--family", "files", model_file(doc))
    assert (code, err) == (0, "")
    [inst] = json.loads(out)["instances"]
    # with no --coeff there is no span to check: the mld of a valid model
    # always lies in Q-span(1, positive inputs)
    assert "span-closure" not in inst["checks"]
    assert inst["violations"] == []
    # a declared --coeff span decides: 1/8*sqrt3 needs sqrt3
    code, out, _ = run(capsys, "scan", "--family", "files", model_file(doc), "--coeff", "1/2")
    [inst] = json.loads(out)["instances"]
    assert code == 2
    assert "span-closure" in inst["checks"]
    assert inst["violations"] == ["span-closure: mld outside the declared coefficient span"]


def test_scan_refuses_a_bad_coeff_on_a_model_that_is_not_lc(model_file, capsys):
    # the declared span is read before the lc test, so a malformed --coeff
    # ends the run even where span closure would not run
    doc = {
        "graph": {"vertices": [{"id": 0, "weight": -2}], "edges": []},
        "branches": [{"vertex": 0, "b": "1"}] * 3,
    }
    path = model_file(doc, "nonlc.json")
    code, out, err = run(capsys, "scan", "--family", "files", path)
    assert (code, err) == (0, "")
    assert json.loads(out)["instances"][0]["classification"] == "not-lc"
    code, out, err = run(capsys, "scan", "--family", "files", path, "--coeff", "abc")
    assert (code, out) == (1, "")
    assert "coeffs: bad rational literal 'abc'" in err


def test_computing_path(model_file, capsys):
    doc = {
        "graph": {
            "vertices": [{"id": i, "weight": -2} for i in range(20)],
            "edges": [[i, i + 1] for i in range(19)],
        },
        "branches": [{"vertex": 0, "b": "1/2"}],
    }
    code, out, _ = run(capsys, "computing-path", model_file(doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["kind"] == "noncomputing-neighbor"
    assert parsed["path"] == [0, 1, 2, 3]
    assert parsed["m"] == 3


def test_epsilon_tag(model_file, capsys):
    doc = {"graph": {"vertices": [{"id": 0, "weight": -4}], "edges": []}}
    code, out, _ = run(capsys, "epsilon-tag", model_file(doc), "1/4")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["classification"] == "eps-lc"
    assert parsed["mld"]["exact"] == "1/2"


def test_seed_4_runs_find_no_violation(capsys):
    # corpus seed 4 holds an lc germ whose reduced branch meets a curve with
    # log discrepancy 0; its adjunction coefficient is 1, not 1 - 1/det
    code, _, err = run(capsys, "scan", "--family", "corpus", "--count", "200", "--seed", "4")
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "verify-lemmas", "--count", "200", "--seed", "4")
    assert (code, err) == (0, "")
    assert json.loads(out)["violations_total"] == 0


def test_verify_lemmas_small(capsys):
    code, out, _ = run(
        capsys, "verify-lemmas", "--count", "12", "--oracle-depth", "1", "--delta", "1/100"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["violations_total"] == 0


def test_verify_lemmas_checks_depths_1_to_3_by_default(capsys):
    code, out, _ = run(capsys, "verify-lemmas", "--count", "3")
    assert code == 0
    assert json.loads(out)["sections"]["oracle"]["depths"] == [1, 2, 3]


EPS_MODEL = {
    "basis": ["1", "sqrt2"],
    "enclosures": {"sqrt2": SQRT2_CF},
    "graph": {
        "vertices": [{"id": 0, "weight": -3}, {"id": 1, "weight": -2}],
        "edges": [[0, 1]],
    },
    "branches": [{"vertex": 0, "b": ["0", "1/10"]}],
    "epsilon": "1/10",
}


def test_mld_reports_the_epsilon(model_file, capsys):
    code, out, err = run(capsys, "mld", model_file(EPS_MODEL))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert set(doc) == {
        "a", "classification", "digest", "epsilon", "epsilon_ok", "mld", "realizing",
    }
    assert doc["epsilon"] == {"exact": "1/10", "decimal": "0.100000000000"}
    assert doc["epsilon_ok"] is True
    assert doc["classification"] == "eps-lc"
    assert doc["mld"]["exact"] == "3/5 - 1/25*sqrt2"


def test_perturb(model_file, capsys):
    path = model_file(EPS_MODEL)
    code, out, err = run(capsys, "perturb", path, path, "--delta", "1/100")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert set(doc) == {"delta", "disclaimer", "entries", "violations_total"}
    assert doc["delta"] == "1/100"
    # the second copy has the same digest and is checked once
    assert doc["entries"] == [
        {
            "digest": doc["entries"][0]["digest"],
            "status": "checked",
            "maps": 2,
            "lc_preserved": True,
            "epsilon_preserved": True,
        }
    ]
    assert doc["violations_total"] == 0


@pytest.mark.parametrize(
    "weights, report",
    [
        (
            ["1/2", "1/2"],
            {
                "ok": True,
                "weights_positive": True,
                "weights_sum_to_one": True,
                "mixes_back": True,
                "parts_ok": [True, True],
            },
        ),
        (
            ["1/2", "1/4"],
            {
                "ok": False,
                "weights_positive": True,
                "weights_sum_to_one": False,
                # 1/2 * 1 + 1/4 * 0 is still B+ = 1/2
                "mixes_back": True,
                "parts_ok": [True, True],
            },
        ),
    ],
    ids=["mixes-back", "short-weights"],
)
def test_check_complement_with_a_decomposition(model_file, capsys, weights, report):
    datum = {
        "n": 2,
        "B": ["1/2"],
        "Bplus": ["1/2"],
        "decomposition": {"weights": weights, "parts": [{"Bplus": ["1"]}, {"Bplus": ["0"]}]},
    }
    code, out, err = run(capsys, "check-complement", model_file(datum, "datum.json"))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert set(doc) == {"n", "coefficients", "strong_auto", "decomposition"}
    assert doc["decomposition"] == report


# ---------------------------------------------------------------------------
# violations, forced with monkeypatch: every other test runs on valid germs

# a0 = 1/3 and a1 = 2/3: lc, every a <= 1, all weights -2, a reduced branch
REDUCED_CHAIN = {
    "graph": {
        "vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}],
        "edges": [[0, 1]],
    },
    "branches": [{"vertex": 0, "b": "1"}],
}


class _FailedForm:
    ok = False


def test_scan_records_each_kind_of_violation(model_file, capsys, monkeypatch):
    forced = (Violation("midpoint", (0, 1, 2), "forced"),)
    monkeypatch.setattr(explorer, "check_convexity", lambda model, profile: forced)
    monkeypatch.setattr(explorer, "mld_oracle", lambda model, depth, profile: NEG_INFINITY)
    monkeypatch.setattr(explorer, "in_span", lambda gens, x: False)
    monkeypatch.setattr(explorer, "adjunction_form", lambda model, idx, profile: _FailedForm())
    path = model_file(REDUCED_CHAIN)
    code, out, err = run(
        capsys, "scan", "--family", "files", path, "--oracle-depth", "1", "--coeff", "1"
    )
    assert (code, err) == (2, "")
    doc = json.loads(out)
    [inst] = doc["instances"]
    assert inst["violations"] == [
        "adjunction-form@branch:0: decomposition failed",
        "midpoint@(0, 1, 2): forced",
        "oracle: tower enumeration disagrees with the closed form",
        "span-closure: mld outside the declared coefficient span",
    ]
    assert doc["aggregate"]["violations_total"] == 4


def test_verify_lemmas_records_oracle_and_suite_violations(capsys, monkeypatch):
    forced = (Violation("midpoint", (0, 1, 2), "forced"),)
    monkeypatch.setattr(explorer, "check_convexity", lambda model, profile: forced)
    monkeypatch.setattr(explorer, "mld_oracle", lambda model, depth, profile: NEG_INFINITY)
    code, out, err = run(capsys, "verify-lemmas", "--count", "6", "--oracle-depth", "2")
    assert (code, err) == (2, "")
    doc = json.loads(out)
    models = corpus(0, 6)
    finite = [explorer.model_digest(m) for m in models if mld_point(m).mld is not NEG_INFINITY]
    convex = [
        explorer.model_digest(m)
        for m in models
        if "convexity" in explorer._scan_instance(m, explorer.ScanConfig())[0]["checks"]
    ]
    assert finite and convex
    sections = doc["sections"]
    assert sections["oracle"]["mismatches"] == [
        {"digest": d, "depth": k} for d in finite for k in (1, 2)
    ]
    assert sections["suites"]["violations"] == [
        {"digest": d, "violation": "midpoint@(0, 1, 2): forced"} for d in convex
    ]
    assert doc["violations_total"] == 2 * len(finite) + len(convex)
    assert doc["ok"] is False


# the snap of a 1/2 chain end that is eps-lc at 1/4 is replaced by a germ
# that is not lc, or by one that is lc with mld 1/5 below the epsilon
@pytest.mark.parametrize(
    "weight, b, lc, eps",
    [(-2, "5/4", False, False), (-5, "1", True, False)],
    ids=["not-lc", "below-epsilon"],
)
def test_perturb_records_a_snap_that_breaks_the_germ(
    model_file, capsys, monkeypatch, weight, b, lc, eps
):
    snapped = explorer.parse_model(
        {
            "graph": {"vertices": [{"id": 0, "weight": weight}], "edges": []},
            "branches": [{"vertex": 0, "b": b}],
        }
    )
    monkeypatch.setattr(explorer, "apply_to_coefficients", lambda model, f: snapped)
    doc = {"graph": {"vertices": [{"id": 0, "weight": -4}], "edges": []}, "epsilon": "1/4"}
    code, out, err = run(capsys, "perturb", model_file(doc))
    assert (code, err) == (2, "")
    report = json.loads(out)
    [entry] = report["entries"]
    assert (entry["lc_preserved"], entry["epsilon_preserved"]) == (lc, eps)
    assert entry["note"] == "no irrational symbols; the family is the identity map"
    assert report["violations_total"] == (0 if lc else 1) + (0 if eps else 1)


def test_scan_bytes_do_not_depend_on_the_hash_seed():
    # one process running a scan twice shares its hash seed; two processes
    # with different seeds would tell set or dict order leaking into a report
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "germkit.cli", "scan", "--count", "40", "--oracle-depth", "3"],
            env=env, capture_output=True, check=True,
        )
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]
