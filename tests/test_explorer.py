"""Model document parsing, digests, and deterministic scan reports."""

import dataclasses
import gc
import json
import weakref
from functools import cached_property

import pytest

from germkit import (
    Branch,
    DigitLimitExceeded,
    HypothesesUnmet,
    MAX_SCAN_COUNT,
    MAX_SCAN_N,
    ModelError,
    NEG_INFINITY,
    TRIVIAL_BASIS,
    discrepancy,
    explorer,
    refinement_budget,
)
from germkit.coefflattice import partition_of_one
from germkit.corpus import corpus, family_an, sqrt2_basis
from germkit.discrepancy import DiscrepancyProfile, branch_total, mld_point
from germkit.explorer import (
    ScanConfig,
    complement_report,
    emit_csv,
    emit_json,
    model_digest,
    parse_complement_datum,
    parse_model,
    run_perturb_harness,
    run_scan,
    run_verification,
    value_json,
)

from util import EMPTY, germ


GOOD_DOC = {
    "graph": {
        "vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -3}],
        "edges": [[0, 1]],
    },
    "branches": [{"vertex": 0, "b": "1/2"}],
}


def test_parse_roundtrip_digest_ignores_document_order():
    shuffled = {
        "branches": [{"b": "1/2", "vertex": 0}],
        "graph": {
            "edges": [[0, 1]],
            "vertices": [{"weight": -3, "id": 1}, {"weight": -2, "id": 0}],
        },
    }
    assert model_digest(parse_model(GOOD_DOC)) == model_digest(parse_model(shuffled))


def test_parse_rejects_unknown_keys():
    with pytest.raises(ModelError, match="unknown keys"):
        parse_model({**GOOD_DOC, "bogus": 1})


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d["graph"]["vertices"].append({"id": 2}), "graph.vertices[2]"),
        (lambda d: d["graph"]["vertices"].append({"id": True, "weight": -2}), ".id"),
        (lambda d: d["graph"]["edges"].append([0]), "graph.edges[1]"),
        (lambda d: d["branches"].append({"vertex": 0, "coeff": "1/2"}), "branches[1]"),
        (lambda d: d["branches"].append({"vertex": 0, "b": "7/"}), "branches[1].b"),
    ],
)
def test_parse_error_paths(mutate, path):
    doc = json.loads(json.dumps(GOOD_DOC))
    mutate(doc)
    with pytest.raises(ModelError) as exc:
        parse_model(doc)
    assert path in str(exc.value)


def test_parse_nefloads_and_epsilon():
    doc = {
        "graph": {"vertices": [{"id": 3, "weight": -2}], "edges": []},
        "nefloads": {"3": "1/2"},
        "epsilon": "1/10",
    }
    m = parse_model(doc)
    assert m.nef_loads[0][0] == 3
    assert m.epsilon.as_fraction().numerator == 1


def test_nefloads_keys_are_decimal_ids():
    doc = {
        "graph": {
            "vertices": [{"id": -4, "weight": -2}, {"id": 30, "weight": -2}],
            "edges": [[-4, 30]],
        },
        "nefloads": {"-4": "1/3", "30": "1/2"},
    }
    assert [v for v, _ in parse_model(doc).nef_loads] == [-4, 30]
    for key in ("3_0", " 30 ", "+30", "\u0663\u0660", "030", "-0", "30.0", ""):
        doc["nefloads"] = {key: "1/2"}
        with pytest.raises(ModelError) as info:
            parse_model(doc)
        assert str(info.value) == f"nefloads: bad vertex key {key!r}"


def test_value_json():
    assert value_json(NEG_INFINITY) == {"exact": "-inf", "decimal": "-inf"}
    m = parse_model(GOOD_DOC)
    from germkit import mld_point

    v = value_json(mld_point(m).mld)
    assert set(v) == {"exact", "decimal"}
    assert "/" in v["exact"]


def test_an_scan_values_collapse():
    rep = run_scan(ScanConfig(family="an", n_max=5))
    assert rep.aggregate["count"] == 5
    # every A_n has mld 1, so the distinct-value list is a singleton
    assert [v["exact"] for v in rep.aggregate["values"]] == ["1"]
    assert rep.aggregate["violations_total"] == 0


def test_cyclic_scan_values_and_gap():
    rep = run_scan(ScanConfig(family="cyclic", n_max=6))
    assert [v["exact"] for v in rep.aggregate["values"]] == [
        "1/3",
        "2/5",
        "1/2",
        "2/3",
        "1",
    ]
    assert rep.aggregate["min_gap"]["exact"] == "1/15"


def test_scan_config_records_the_budget_in_force():
    assert run_scan(ScanConfig(family="an", n_max=2)).config["budget"] == 64
    with refinement_budget(30):
        assert run_scan(ScanConfig(family="an", n_max=2)).config["budget"] == 30


def test_hj_scan_skips_non_coprime():
    rep = run_scan(ScanConfig(family="hj", n_min=2, n_max=9, q=3))
    # q = 3 only pairs with n in {4, 5, 7, 8} below 10
    assert rep.aggregate["count"] == 4


def test_scan_report_bytes_are_reproducible():
    cfg = ScanConfig(family="corpus", count=25, seed=7, oracle_depth=1)
    first = emit_json(run_scan(cfg).to_json_dict())
    second = emit_json(run_scan(cfg).to_json_dict())
    assert first == second
    assert first.endswith("\n")
    doc = json.loads(first)
    assert doc["aggregate"]["count"] == 25


def test_scan_instance_solves_each_model_once(monkeypatch):
    # the checks, the oracle and the adjunction form all read the profile
    # that _scan_instance solved
    solved = []
    real = discrepancy.solve_discrepancies

    def spy(model):
        solved.append(model)
        return real(model)

    monkeypatch.setattr(discrepancy, "solve_discrepancies", spy)
    half = TRIVIAL_BASIS.rational("1/2")
    models = corpus(0, 60) + [germ(EMPTY, [Branch(None, half)])]
    ran = set()
    for m in models:
        solved.clear()
        instance, _ = explorer._scan_instance(m, ScanConfig(oracle_depth=1))
        ran.update(instance["checks"])
        assert solved == [m]
    assert {"adjunction-form", "smooth-center", "convexity", "oracle"} <= ran


@pytest.mark.parametrize(
    "config", [ScanConfig(count=200), ScanConfig(family="an", n_max=30)], ids=["corpus", "an"]
)
def test_scan_decides_every_a_at_most_one_once_per_model(monkeypatch, config):
    # the convexity gate of _scan_instance and the refusal of check_convexity
    # both read DiscrepancyProfile.above_one, computed on its first read
    asked = []
    real = DiscrepancyProfile.above_one.func

    def spy(profile):
        asked.append(profile)
        return real(profile)

    counted = cached_property(spy)
    counted.__set_name__(DiscrepancyProfile, "above_one")
    monkeypatch.setattr(DiscrepancyProfile, "above_one", counted)
    instances = run_scan(config).instances
    lc = [i for i in instances if i["classification"] != "not-lc"]
    assert lc and len(asked) == len(lc)
    assert len({id(p) for p in asked}) == len(asked)


@pytest.mark.parametrize("mult", ["1/3", "1/2", "1"])
def test_scan_reports_a_wrong_smooth_center_value(monkeypatch, mult):
    # the smooth-center gate reads the branch total, not the mld it checks:
    # an empty-graph mld of 1 - mult instead of 2 - mult is reported
    real = explorer.mld_point

    def wrong(model):
        one = model.basis.rational(1)
        return dataclasses.replace(real(model), mld=one - branch_total(model))

    monkeypatch.setattr(explorer, "mld_point", wrong)
    m = germ(EMPTY, [Branch(None, TRIVIAL_BASIS.rational(mult))])
    instance, _ = explorer._scan_instance(m, ScanConfig())
    assert "smooth-center" in instance["checks"]
    assert any(v.startswith("smooth-center-value@") for v in instance["violations"])


def test_verification_solves_each_adjunction_chain_once(monkeypatch):
    # the adjunction section hands mld_point's profile to adjunction_form,
    # so each of the 71 coprime n/q chains, 2 <= n <= 15, is solved once
    chains = []
    real_chain = explorer.hj_with_reduced_branch

    def built(n, q):
        chains.append(real_chain(n, q))
        return chains[-1]

    solved = []
    real_solve = discrepancy.solve_discrepancies

    def spy(model):
        solved.append(model)
        return real_solve(model)

    monkeypatch.setattr(explorer, "hj_with_reduced_branch", built)
    monkeypatch.setattr(discrepancy, "solve_discrepancies", spy)
    doc = run_verification(count=0, oracle_depth=1)
    assert doc["sections"]["adjunction"] == {"checked": 71, "failures": []}
    ids = {id(m) for m in chains}
    assert len(chains) == 71
    assert sum(id(m) in ids for m in solved) == 71


def test_csv_shape():
    rep = run_scan(ScanConfig(family="an", n_max=3))
    lines = emit_csv(rep).strip().splitlines()
    assert lines[0] == "digest,n_vertices,mld_exact,mld_decimal,classification,realizing,violations"
    assert len(lines) == 4
    assert lines[1].split(",")[1:] == ["1", "1", "1.000000000000", "klt", "vertex:0", "0"]


def test_emit_json_is_sorted_and_newline_terminated():
    out = emit_json({"b": 1, "a": 2})
    assert out == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_perturb_harness_skips_non_lc():
    h = run_perturb_harness(corpus(0, 6), "1/1000")
    assert h["violations_total"] == 0
    assert h["disclaimer"]
    statuses = {e["status"] for e in h["entries"]}
    assert statuses <= {"checked", "skipped-not-lc"}
    for e in h["entries"]:
        if e["status"] == "checked":
            assert e["lc_preserved"] is True


def test_parse_complement_datum_rejects_unknown_keys():
    with pytest.raises(ModelError):
        parse_complement_datum({"n": 2, "B": [], "Bplus": [], "extra": True})


FLOAT_DELTA = "0.001 is a float; give an int, a Fraction or a string"


def test_perturb_harness_refuses_a_float_delta():
    # Fraction(0.001) would be the binary value 1152921504606847/2^60
    with pytest.raises(TypeError) as info:
        partition_of_one(sqrt2_basis(), 0.001)
    assert str(info.value) == FLOAT_DELTA
    with pytest.raises(TypeError) as info:
        run_perturb_harness(corpus(0, 3), 0.001)
    assert str(info.value) == FLOAT_DELTA


def test_harnesses_refuse_a_delta_past_the_digit_limit_before_any_work(monkeypatch):
    def no_corpus(*args):
        raise AssertionError("the corpus was built")

    message = r"^rational literal '1e-3000000' needs more than \d+ digits$"
    with pytest.raises(ValueError, match=message):
        run_perturb_harness(corpus(0, 3), "1e-3000000")
    monkeypatch.setattr(explorer, "corpus", no_corpus)
    with pytest.raises(ValueError, match=message):
        run_verification(count=3, oracle_depth=1, delta="1e-3000000")


def test_perturb_builds_one_partition_per_basis(monkeypatch):
    built = []

    def counted(basis, delta):
        built.append(basis)
        return partition_of_one(basis, delta)

    models = corpus(0, 20) + list(family_an(3))
    want = run_perturb_harness(models, "1/1000")
    monkeypatch.setattr(explorer, "partition_of_one", counted)
    assert run_perturb_harness(models, "1/1000") == want
    assert built == [sqrt2_basis(), TRIVIAL_BASIS]


def test_scan_holds_one_model_at_a_time(monkeypatch):
    # while the next model is built, the loop still names the last one;
    # every model before it must be gone
    build = explorer.build_scan_models
    refs = []

    def watched(config):
        for m in build(config):
            gc.collect()
            assert [r for r in refs[:-1] if r() is not None] == []
            refs.append(weakref.ref(m))
            yield m

    monkeypatch.setattr(explorer, "build_scan_models", watched)
    for family in ("an", "cyclic", "hj"):
        refs.clear()
        run_scan(ScanConfig(family=family, n_max=8, q=3))
        assert len(refs) >= 4


def test_verification_refuses_a_float_delta_before_any_work(monkeypatch):
    def no_corpus(*args):
        raise AssertionError("the corpus was built")

    monkeypatch.setattr(explorer, "corpus", no_corpus)
    with pytest.raises(TypeError) as info:
        run_verification(count=3, oracle_depth=1, delta=0.001)
    assert str(info.value) == FLOAT_DELTA


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: run_scan(ScanConfig(count=MAX_SCAN_COUNT + 1)), "count 10001 exceeds the cap"),
        (lambda: run_scan(ScanConfig(family="an", n_max=MAX_SCAN_N + 1)), "n_max 1001 exceeds"),
        (lambda: run_scan(ScanConfig(family="hj", n_max=MAX_SCAN_N + 1)), "n_max 1001 exceeds"),
        (lambda: run_verification(count=MAX_SCAN_COUNT + 1), "count 10001 exceeds the cap"),
    ],
    ids=["scan-count", "scan-an-n-max", "scan-hj-n-max", "verify-count"],
)
def test_scan_sizes_are_refused_before_any_work(monkeypatch, run, message):
    def no_models(*args):
        raise AssertionError("a model was built")

    for name in ("corpus", "family_an", "hj_graph"):
        monkeypatch.setattr(explorer, name, no_models)
    with pytest.raises(HypothesesUnmet) as info:
        run()
    assert message in str(info.value)


# 4,000-digit integers, below the digit limit on reading, whose results need
# more digits than the interpreter prints
BIG = 10**4000 - 1


def test_results_past_the_digit_limit_raise_a_germkit_error():
    model = parse_model({
        "graph": {
            "vertices": [{"id": 0, "weight": -BIG}, {"id": 1, "weight": -BIG}],
            "edges": [[0, 1]],
        },
        "branches": [{"vertex": 0, "b": "1/2"}],
    })
    profile = mld_point(model)
    for x in [profile.mld] + [a for _, a in profile.a]:
        with pytest.raises(DigitLimitExceeded, match=r"^a result needs more than \d+ digits"):
            value_json(x)
    datum = parse_complement_datum({"n": BIG, "B": [f"{BIG}/7"], "Bplus": [f"{BIG}/7"]})
    with pytest.raises(DigitLimitExceeded, match="digits to print"):
        complement_report(datum)
