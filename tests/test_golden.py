"""Reports pinned byte for byte against files in tests/golden/.

The scan and mld files were produced by the CLI before the intersection
form moved to its single cached factorization, so any change in the solved
log discrepancies, their rendering or the scan aggregation shows up here.
The partition files were produced before the partition verifier moved to
integer numerators; they pin the snap values, the weights and the flags.
The reports of the other subcommands (solve through verify-lemmas) were
produced before the subcommands handed their reports to ``cli.main`` to
write.  To regenerate after an intended change, rerun each argv below with
its output redirected to the named file.
"""

from pathlib import Path

import pytest

from germkit import mld_point
from germkit.cli import main
from germkit.explorer import load_model, model_digest, value_json

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (("scan", "--family", "corpus", "--count", "40", "--seed", "9", "--oracle-depth", "1"),
     "scan_corpus.json"),
    (("scan", "--family", "hj", "--n-min", "2", "--n-max", "30", "--q", "3", "--format", "csv"),
     "scan_hj.csv"),
    (("mld", "{chain.json}", "--oracle-depth", "2"), "chain.mld.json"),
    (("mld", "{tree.json}", "--oracle-depth", "2"), "tree.mld.json"),
    (("mld", "{cycle.json}", "--oracle-depth", "2"), "cycle.mld.json"),
    # models of the sizes the large-graphs benchmark runs, so that the pinned
    # renderings carry numerators of 15 and more digits: an lc 60-curve
    # chain and a not-lc one-cycle graph of 40 curves (every log discrepancy
    # is still solved and printed), each with a sqrt2/2 branch
    (("mld", "{chain60.json}", "--oracle-depth", "2"), "chain60.mld.json"),
    (("mld", "{cycle40.json}", "--oracle-depth", "2"), "cycle40.mld.json"),
    # partitions of one: the default sqrt2 basis, two square roots, and three
    # continued fractions from the pool acceptance criterion 6 draws from
    (("partition", "--delta", "1/10"), "partition_sqrt2.json"),
    (("partition", "{sqrt2_sqrt3.json}", "--delta", "1/1000"), "partition_sqrt2_sqrt3.json"),
    (("partition", "{pool3.json}", "--delta", "1/1000"), "partition_pool3.json"),
    # one report per remaining subcommand
    (("solve", "{chain.json}"), "chain.solve.json"),
    (("solve", "{cycle.json}"), "cycle.solve.json"),
    (("resolve", "{chain.json}"), "chain.resolve.json"),
    (("resolve", "{point.json}"), "point.resolve.json"),
    (("computing-path", "{path20.json}"), "path20.computing-path.json"),
    (("epsilon-tag", "{tree.json}", "1/200"), "tree.epsilon-tag.json"),
    (("perturb", "{chain.json}", "{tree.json}", "{point.json}", "{gen_hj_7_3.json}",
      "--delta", "1/100"), "perturb.json"),
    (("check-complement", "{datum.json}"), "datum.check-complement.json"),
    (("gen-hj", "7", "3", "--branch", "0:1/2", "--branch", "2:1/3", "--load", "1:1/5",
      "--epsilon", "1/10"), "gen_hj_7_3.json"),
    (("verify-lemmas", "--count", "20", "--oracle-depth", "2"), "verify_lemmas_20.json"),
]


@pytest.mark.parametrize("argv,expected", CASES, ids=[c[1] for c in CASES])
def test_report_matches_golden(argv, expected, capsys):
    args = [str(GOLDEN / a[1:-1]) if a.startswith("{") else a for a in argv]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()


OUT_CASES = [c for c in CASES if c[1] in {"chain.mld.json", "scan_hj.csv"}]


@pytest.mark.parametrize("argv,expected", OUT_CASES, ids=[c[1] for c in OUT_CASES])
def test_out_writes_the_golden_report(argv, expected, capsys, tmp_path):
    out = tmp_path / expected
    args = [str(GOLDEN / a[1:-1]) if a.startswith("{") else a for a in argv]
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == (GOLDEN / expected).read_text()


MLD_CASES = [c for c in CASES if c[0][0] == "mld"]


@pytest.mark.parametrize("argv,expected", MLD_CASES, ids=[c[1] for c in MLD_CASES])
def test_mld_over_sqrt2_needs_one_refinement_level(argv, expected, capsys):
    # sqrt2 is a certified continued fraction, so signs and decimals are
    # exact; the cycle model's report was refused at --refine-budget 3
    args = [str(GOLDEN / a[1:-1]) if a.startswith("{") else a for a in argv]
    assert main(args + ["--refine-budget", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()


def test_mld_leaves_the_model_digest_alone():
    # refinement caches levels on the enclosures; they are not model data
    path = str(GOLDEN / "cycle.json")
    model = load_model(path)
    before = model_digest(model)
    profile = mld_point(model)
    for _, x in profile.a:
        value_json(x)
    value_json(profile.mld)
    assert model_digest(model) == before == model_digest(load_model(path))


# digests of the golden models as the reports above print them
GOLDEN_DIGESTS = {
    "chain.json": "69a8d9209600f51c",
    "tree.json": "e0f58431cc6e7b64",
    "cycle.json": "b457a5458228d48d",
    "chain60.json": "126329f1bda9f1f5",
    "cycle40.json": "644f12e29353a5e6",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_model_digest_is_pinned(name):
    assert model_digest(load_model(str(GOLDEN / name))) == GOLDEN_DIGESTS[name]
