"""Model documents, deterministic scans and report emission.

The JSON document format, digesting and all batch runners live here.  Every
report is built from sorted, exact string renderings with no floats or
timestamps, so a fixed seed and configuration reproduce identical bytes.
"""

from __future__ import annotations

import dataclasses
import io
import json
import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .coefflattice import (
    BasisDescriptor,
    PartitionOfOne,
    SpanElement,
    TRIVIAL_BASIS,
    _fraction,
    _nums_sign,
    current_budget,
    decimal_str,
    in_span,
    is_ge,
    partition_of_one,
    ratio_str,
    render_exact,
    span_key,
)
from .complements import (
    ComplementDatum,
    ComplementPart,
    Decomposition,
    check_decomposable,
    check_n_complement_coeffs,
    check_strong_auto,
)
from .corpus import (
    corpus,
    family_an,
    family_cyclic_one_one,
    hj_with_reduced_branch,
)
from .discrepancy import (
    Branch,
    MldValue,
    NegInfinity,
    SurfaceGermModel,
    _affine,
    adjunction_form,
    apply_to_coefficients,
    branch_total,
    check_convexity,
    check_empty_graph_value,
    check_oracle_depth,
    check_smooth_threshold,
    check_vertex_window,
    mld_oracle,
    mld_point,
)
from .dualgraph import WeightedDualGraph, hj_graph
from .enclosures import (
    ContinuedFractionEnclosure,
    Enclosure,
    NestedIntervalsEnclosure,
    PointEnclosure,
)
from .errors import BasisMismatch, HypothesesUnmet, LiteralTooLong, ModelError

MODEL_KEYS = frozenset({"basis", "enclosures", "graph", "branches", "nefloads", "epsilon"})
GRAPH_KEYS = frozenset({"vertices", "edges"})
VERTEX_KEYS = frozenset({"id", "weight"})
BRANCH_KEYS = frozenset({"vertex", "b"})
ENCLOSURE_KEYS = frozenset({"cf", "intervals"})
CF_KEYS = frozenset({"head", "cycle"})
DATUM_KEYS = frozenset({"n", "basis", "enclosures", "B", "Bplus", "m", "decomposition"})
DECOMPOSITION_KEYS = frozenset({"weights", "parts"})
PART_KEYS = frozenset({"Bplus", "m"})


def _object(obj, what: str, path, keys=None, required=frozenset(), index=None) -> dict:
    """``obj`` when it is a JSON object whose keys lie in ``keys`` and include ``required``.

    ``keys`` of None admits any key.  Anything else raises a one-line
    ModelError at ``path``, or at ``path[index]`` when ``index`` is given;
    the path is formatted only then, so a check per vertex builds no string.
    """
    if isinstance(obj, dict):
        present = obj.keys()
        if keys is not None and not present <= keys:
            message = f"unknown keys {sorted(present - keys)}"
        elif not present >= required:
            message = f"missing keys {sorted(required - present)}"
        else:
            return obj
    else:
        message = f"{what} must be an object"
    raise ModelError(message, path if index is None else f"{path}[{index}]")


def _list(obj, path) -> list:
    """``obj`` when it is a JSON array; anything else is refused at ``path``."""
    if isinstance(obj, list):
        return obj
    raise ModelError("expected a list", path)


def _is_int(obj) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def parse_rational(obj, path: str) -> Fraction:
    """An integer, or a string Fraction reads ("-3/4", "5e-3"), found at ``path``.

    Strings are read by coefflattice._fraction, which refuses one past the
    interpreter's digit limit before building it.
    """
    if isinstance(obj, bool):
        raise ModelError("expected a rational literal, got a boolean", path)
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return _fraction(obj)
        except LiteralTooLong as e:
            raise ModelError(str(e), path) from None
        except (ValueError, ZeroDivisionError) as e:
            raise ModelError(f"bad rational literal {obj!r}: {e}", path) from None
    raise ModelError(f"expected a rational literal, got {type(obj).__name__}", path)


def parse_coefficient(obj, basis: BasisDescriptor, path: str) -> SpanElement:
    """Coefficient literal: a rational, or a coordinate list over the basis."""
    if isinstance(obj, list):
        if len(obj) != basis.dim:
            raise ModelError(
                f"coordinate list needs {basis.dim} entries, got {len(obj)}", path
            )
        return basis.element([parse_rational(x, f"{path}[{i}]") for i, x in enumerate(obj)])
    return basis.rational(parse_rational(obj, path))


def _parse_enclosure(obj, path: str) -> Enclosure:
    if isinstance(obj, list):
        obj = {"cf": obj}
    if len(_object(obj, "enclosure", path, ENCLOSURE_KEYS)) != 1:
        raise ModelError("enclosure needs exactly one of cf or intervals", path)
    if "cf" in obj:
        cf = obj["cf"]
        if isinstance(cf, list):
            head, cycle = cf, ()
        else:
            cf = _object(cf, "cf", f"{path}.cf", CF_KEYS)
            head = _list(cf.get("head", []), f"{path}.cf.head")
            cycle = _list(cf.get("cycle", []), f"{path}.cf.cycle")
        try:
            return ContinuedFractionEnclosure(tuple(head), tuple(cycle))
        except (ValueError, TypeError) as e:
            raise ModelError(str(e), path) from None
    ivs = []
    for i, pair in enumerate(_list(obj["intervals"], f"{path}.intervals")):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ModelError("interval must be a [lo, hi] pair", f"{path}.intervals[{i}]")
        ivs.append(
            (
                parse_rational(pair[0], f"{path}.intervals[{i}][0]"),
                parse_rational(pair[1], f"{path}.intervals[{i}][1]"),
            )
        )
    try:
        return NestedIntervalsEnclosure(tuple(ivs))
    except ValueError as e:
        raise ModelError(str(e), path) from None


def parse_basis(doc: dict) -> BasisDescriptor:
    symbols = _list(doc.get("basis", ["1"]), "basis")
    if not all(isinstance(s, str) for s in symbols):
        raise ModelError("basis must be a list of symbol names", "basis")
    declared = frozenset(symbols[1:])
    encdoc = _object(doc.get("enclosures", {}), "enclosures", "enclosures", declared, declared)
    encs = [PointEnclosure(Fraction(1))]
    for name in symbols[1:]:
        encs.append(_parse_enclosure(encdoc[name], f"enclosures.{name}"))
    try:
        return BasisDescriptor(tuple(symbols), tuple(encs))
    except ValueError as e:
        raise ModelError(str(e), "basis") from None


def parse_model(doc: dict) -> SurfaceGermModel:
    """Build a validated germ model from one JSON document."""
    _object(doc, "model document", None, MODEL_KEYS)
    basis = parse_basis(doc)
    gdoc = _object(doc.get("graph", {}), "graph", "graph", GRAPH_KEYS)
    vertices = []
    for i, v in enumerate(_list(gdoc.get("vertices", []), "graph.vertices")):
        _object(v, "vertex", "graph.vertices", VERTEX_KEYS, VERTEX_KEYS, i)
        if not _is_int(v["id"]):
            raise ModelError("id must be an integer", f"graph.vertices[{i}].id")
        if not _is_int(v["weight"]):
            raise ModelError("weight must be an integer", f"graph.vertices[{i}].weight")
        vertices.append((v["id"], v["weight"]))
    edges = []
    for i, e in enumerate(_list(gdoc.get("edges", []), "graph.edges")):
        if not (isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])):
            raise ModelError("edge must be a pair of vertex ids", f"graph.edges[{i}]")
        edges.append((e[0], e[1]))
    try:
        graph = WeightedDualGraph(tuple(vertices), tuple(edges))
    except ValueError as e:
        raise ModelError(str(e), "graph") from None
    branches = []
    for i, b in enumerate(_list(doc.get("branches", []), "branches")):
        _object(b, "branch", "branches", BRANCH_KEYS, BRANCH_KEYS, i)
        v = b["vertex"]
        if v is not None and not _is_int(v):
            raise ModelError("vertex must be an id or null", f"branches[{i}].vertex")
        branches.append(Branch(v, parse_coefficient(b["b"], basis, f"branches[{i}].b")))
    loads = []
    loaddoc = _object(doc.get("nefloads", {}), "nefloads", "nefloads")
    for k in sorted(loaddoc):
        try:
            vid = int(k)
        except ValueError:
            vid = None
        # only the decimal spelling of an id: int() also reads "+3", " 3", "3_0" and other digits
        if vid is None or str(vid) != k:
            raise ModelError(f"bad vertex key {k!r}", "nefloads")
        loads.append((vid, parse_coefficient(loaddoc[k], basis, f"nefloads.{k}")))
    eps = doc.get("epsilon")
    if eps is not None:
        eps = parse_coefficient(eps, basis, "epsilon")
    return SurfaceGermModel(graph, tuple(branches), tuple(loads), eps, basis)


def _unique_keys(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ModelError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_doc(path: str):
    """Read one UTF-8 JSON document; an object that repeats a key is refused.

    Bytes that are not UTF-8, an integer literal past the interpreter's
    digit limit and nesting past its recursion limit each raise a one-line
    ModelError naming the path.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except UnicodeDecodeError as e:
            raise ModelError(f"{path} is not UTF-8: {e}") from None
        except ValueError as e:  # JSONDecodeError, or an int past the digit limit
            raise ModelError(f"{path} is not valid JSON: {e}") from None
        except RecursionError:
            raise ModelError(f"{path} nests too deeply to read") from None


def load_model(path: str) -> SurfaceGermModel:
    return parse_model(load_doc(path))


def _canonical_enclosure(enc: Enclosure):
    if isinstance(enc, ContinuedFractionEnclosure):
        return {"cf": {"head": list(enc.head), "cycle": list(enc.cycle)}}
    if isinstance(enc, NestedIntervalsEnclosure):
        return {"intervals": [[str(lo), str(hi)] for lo, hi in enc.intervals]}
    raise ValueError(f"cannot serialize enclosure {type(enc).__name__}")


def _canonical_coeff(x: SpanElement) -> List[str]:
    return [ratio_str(n, x.den) for n in x.nums]


def canonical_model_doc(model: SurfaceGermModel) -> dict:
    """Stable dictionary form of a model, the basis of its digest."""
    doc: dict = {
        "basis": list(model.basis.symbols),
        "enclosures": {
            name: _canonical_enclosure(enc)
            for name, enc in zip(model.basis.symbols[1:], model.basis.enclosures[1:])
        },
        "graph": {
            "vertices": [{"id": v, "weight": w} for v, w in model.graph.vertices],
            "edges": [[a, b] for a, b in model.graph.edges],
        },
        "branches": [
            {"vertex": b.vertex, "b": _canonical_coeff(b.coeff)} for b in model.branches
        ],
        "nefloads": {str(v): _canonical_coeff(mu) for v, mu in model.nef_loads},
    }
    if model.epsilon is not None:
        doc["epsilon"] = _canonical_coeff(model.epsilon)
    return doc


def model_digest(model: SurfaceGermModel) -> str:
    # imported here: hashlib loads OpenSSL, a few MB that only digests need
    import hashlib

    blob = json.dumps(canonical_model_doc(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def value_json(x: MldValue) -> dict:
    if isinstance(x, NegInfinity):
        return {"exact": "-inf", "decimal": "-inf"}
    return {"exact": render_exact(x), "decimal": decimal_str(x, 12)}


def _realizing_str(locus) -> str:
    kind, where = locus
    if kind == "vertex":
        return f"vertex:{where}"
    if kind == "branch":
        return f"branch:{where}"
    return "point"


# Most models one scan or verify-lemmas run takes (--count), and the
# largest n of the n-indexed scan families (--n-max).  The an family has a
# chain of every length up to n_max, built and profiled one at a time: at
# 1,000, scan takes 6.2 s and 26 MB.  A corpus of 10,000 models takes
# 2.9 s and 66 MB under scan and 7.5 s and 59 MB under verify-lemmas
# (Python 3.11, 2 shared cores).
MAX_SCAN_COUNT = 10_000
MAX_SCAN_N = 1_000


def _check_cap(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise HypothesesUnmet(f"{what} {value} exceeds the cap of {cap}")


@dataclass(frozen=True)
class ScanConfig:
    """Deterministic scan parameters; the seed pins every random choice."""

    family: str = "corpus"
    n_min: int = 2
    n_max: int = 30
    q: int = 1
    count: int = 200
    seed: int = 0
    oracle_depth: int = 0
    epsilon: Optional[str] = None
    coeffs: Optional[Tuple[str, ...]] = None
    paths: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        # reports keep naming the refinement budget the scan ran under
        d["budget"] = current_budget()
        d["coeffs"] = list(self.coeffs) if self.coeffs is not None else None
        d["paths"] = list(self.paths)
        return d


def build_scan_models(config: ScanConfig) -> Iterator[SurfaceGermModel]:
    """The models of the configured family, yielded one at a time."""
    fam = config.family
    if fam == "an":
        models = family_an(config.n_max)
    elif fam == "cyclic":
        models = family_cyclic_one_one(config.n_max)
    elif fam == "hj":
        models = (
            SurfaceGermModel(hj_graph(n, config.q), (), (), None, TRIVIAL_BASIS)
            for n in range(max(2, config.n_min), config.n_max + 1)
            if 0 < config.q < n and math.gcd(n, config.q) == 1
        )
    elif fam == "corpus":
        models = corpus(config.seed, config.count)
    elif fam == "files":
        models = map(load_model, config.paths)
    else:
        raise ModelError(f"unknown family {fam!r}")
    for m in models:
        if config.epsilon is not None:
            eps = parse_coefficient(config.epsilon, m.basis, "epsilon")
            m = dataclasses.replace(m, epsilon=eps)
        yield m


def _scan_instance(model: SurfaceGermModel, config: ScanConfig):
    profile = mld_point(model)
    g = model.graph
    checks: List[str] = []
    violations: List[str] = []

    def record(found) -> None:
        for v in found:
            violations.append(f"{v.check}@{v.where}: {v.detail}")

    all_deep = g.order > 0 and all(w <= -2 for _, w in g.vertices)
    if profile.is_lc and profile.above_one is None:
        checks.append("convexity")
        record(check_convexity(model, profile))
    if all_deep:
        checks.append("smooth-threshold")
        record(check_smooth_threshold(model, profile))
        if profile.is_lc:
            checks.append("vertex-window")
            record(check_vertex_window(model, profile))
    if g.order == 0:
        total = branch_total(model)
        if _nums_sign(model.basis, _affine(1, -1, total.nums, total.den), total.den) >= 0:
            checks.append("smooth-center")
            record(check_empty_graph_value(model, profile))
    if config.oracle_depth >= 1:
        checks.append("oracle")
        if mld_oracle(model, config.oracle_depth, profile) != profile.mld:
            violations.append("oracle: tower enumeration disagrees with the closed form")
    # span closure runs only on a --coeff span: the solve has an integer
    # matrix, so an lc mld always lies in Q-span(1, positive inputs).  The
    # span is read on every model, so a bad literal is refused on any model
    generators = (
        None
        if config.coeffs is None
        else [parse_coefficient(c, model.basis, "coeffs") for c in config.coeffs]
    )
    if profile.is_lc:
        if generators is not None:
            checks.append("span-closure")
            if not in_span(generators, profile.mld):
                violations.append("span-closure: mld outside the declared coefficient span")
        for idx, br in enumerate(model.branches):
            if br.coeff == model.basis.rational(1):
                checks.append("adjunction-form")
                if not adjunction_form(model, idx, profile).ok:
                    violations.append(f"adjunction-form@branch:{idx}: decomposition failed")
                break
    instance = {
        "digest": model_digest(model),
        "n_vertices": g.order,
        "mld": value_json(profile.mld),
        "classification": profile.classification,
        "realizing": _realizing_str(profile.realizing),
        "checks": sorted(set(checks)),
        "violations": sorted(violations),
    }
    return instance, profile


@dataclass(frozen=True)
class ScanReport:
    config: dict
    instances: List[dict]
    aggregate: dict

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "instances": self.instances,
            "aggregate": self.aggregate,
        }


def run_scan(config: ScanConfig) -> ScanReport:
    """Sweep a family, profile every model and aggregate the results.

    Instances are deduplicated and ordered by digest.  The aggregate holds
    the sorted set of distinct finite mld values, the smallest pairwise gap
    and the total violation count; not-log-canonical instances are counted
    but contribute no value.  A count above MAX_SCAN_COUNT or an n_max
    above MAX_SCAN_N raises HypothesesUnmet before any work starts.
    """
    if config.oracle_depth != 0:  # 0 turns the oracle off
        check_oracle_depth(config.oracle_depth)
    _check_cap("count", config.count, MAX_SCAN_COUNT)
    _check_cap("n_max", config.n_max, MAX_SCAN_N)
    by_digest: Dict[str, Tuple[dict, MldValue]] = {}
    for m in build_scan_models(config):
        inst, profile = _scan_instance(m, config)
        by_digest.setdefault(inst["digest"], (inst, profile.mld))
    rows = sorted(by_digest.items())
    instances = [inst for _, (inst, _) in rows]
    finite = {d: x for d, (_, x) in rows if not isinstance(x, NegInfinity)}
    over = {x.basis: d for d, x in finite.items()}
    if len(over) > 1:
        a, b, *_ = over.values()
        raise BasisMismatch(f"scan aggregate: models {a} and {b} are over different bases")
    # values hash by value, so fromkeys keeps the first of each
    ordered = sorted(dict.fromkeys(finite.values()), key=span_key)
    gaps = (y - x for x, y in zip(ordered, ordered[1:]))
    min_gap = min(gaps, key=span_key, default=None)
    violations_total = sum(len(inst["violations"]) for inst in instances)
    aggregate = {
        "count": len(instances),
        "not_lc": len(rows) - len(finite),
        "values": [value_json(v) for v in ordered],
        "min_gap": None if min_gap is None else value_json(min_gap),
        "violations_total": violations_total,
    }
    return ScanReport(config.to_dict(), instances, aggregate)


PERTURB_DISCLAIMER = (
    "each instance is certified at its own delta; no single delta is claimed "
    "to work uniformly across an unbounded family"
)


def run_perturb_harness(models: Sequence[SurfaceGermModel], delta) -> dict:
    """Snap every lc model's coefficients to nearby rationals and re-solve.

    For each entry of the partition family the perturbed model must stay
    log canonical, and when the original was tagged against a positive
    epsilon the perturbed mld must stay at or above the snapped epsilon.
    A float delta is refused with TypeError.
    """
    delta = _fraction(delta)
    entries: Dict[str, dict] = {}
    parts: Dict[BasisDescriptor, PartitionOfOne] = {}
    violations = 0
    for m in models:
        digest = model_digest(m)
        if digest in entries:
            continue
        profile = mld_point(m)
        if not profile.is_lc:
            entries[digest] = {"digest": digest, "status": "skipped-not-lc"}
            continue
        if m.basis not in parts:
            parts[m.basis] = partition_of_one(m.basis, delta)
        part = parts[m.basis]
        eps_active = profile.classification == "eps-lc"
        lc_ok = True
        eps_ok: Optional[bool] = True if eps_active else None
        for _, f in part.entries:
            m2 = apply_to_coefficients(m, f)
            p2 = mld_point(m2)
            if not p2.is_lc:
                lc_ok = False
            if eps_active and not (p2.is_lc and is_ge(p2.mld, f.apply(m.epsilon))):
                eps_ok = False
        if not lc_ok:
            violations += 1
        if eps_active and not eps_ok:
            violations += 1
        entry = {
            "digest": digest,
            "status": "checked",
            "maps": len(part.entries),
            "lc_preserved": lc_ok,
            "epsilon_preserved": eps_ok,
        }
        if m.basis.dim == 1:
            entry["note"] = "no irrational symbols; the family is the identity map"
        entries[digest] = entry
    return {
        "disclaimer": PERTURB_DISCLAIMER,
        "delta": str(delta),
        "entries": [entries[k] for k in sorted(entries)],
        "violations_total": violations,
    }


def run_verification(
    seed: int = 0,
    count: int = 200,
    oracle_depth: int = 3,
    delta="1/1000",
) -> dict:
    """Construction-level verification across the generated corpus.

    Runs the tower oracle at every depth up to ``oracle_depth`` against the
    closed form, the named families against their known values, every
    applicable inequality suite, the adjunction decomposition on reduced
    branch chains, the partition identities and the perturbation harness.
    The depth, the count (at most MAX_SCAN_COUNT) and ``delta`` (a float is
    refused with TypeError) are checked before any work starts.
    """
    check_oracle_depth(oracle_depth)
    _check_cap("count", count, MAX_SCAN_COUNT)
    delta = _fraction(delta)
    models = corpus(seed, count)
    sections: Dict[str, dict] = {}

    mismatches = []
    suite_violations = []
    for m in models:
        inst, profile = _scan_instance(m, ScanConfig())
        for d in range(1, oracle_depth + 1):
            if mld_oracle(m, d, profile) != profile.mld:
                mismatches.append({"digest": inst["digest"], "depth": d})
        for v in inst["violations"]:
            suite_violations.append({"digest": inst["digest"], "violation": v})
    sections["oracle"] = {
        "models": len(models),
        "depths": list(range(1, oracle_depth + 1)),
        "mismatches": mismatches,
    }

    bad_an = [
        m.graph.order
        for m in family_an(50)
        if mld_point(m).mld != m.basis.rational(1)
    ]
    bad_cyclic = [
        -m.graph.weight(0)
        for m in family_cyclic_one_one(50)
        if mld_point(m).mld != m.basis.rational(Fraction(2, -m.graph.weight(0)))
    ]
    sections["families"] = {"an_failures": bad_an, "cyclic_failures": bad_cyclic}

    sections["suites"] = {"violations": suite_violations}

    adjunction_failures = []
    adjunction_checked = 0
    for n in range(2, 16):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            m = hj_with_reduced_branch(n, q)
            profile = mld_point(m)
            if not profile.is_lc:
                adjunction_failures.append({"n": n, "q": q, "violation": "not lc"})
                continue
            adjunction_checked += 1
            if not adjunction_form(m, 0, profile).ok:
                adjunction_failures.append({"n": n, "q": q, "violation": "form"})
    sections["adjunction"] = {
        "checked": adjunction_checked,
        "failures": adjunction_failures,
    }

    basis = models[0].basis if models else None
    partition_ok = True
    if basis is not None:
        for d in (Fraction(1, 10), Fraction(1, 1000)):
            part = partition_of_one(basis, d)
            if not all(part.checks.values()):
                partition_ok = False
    sections["partition"] = {"ok": partition_ok}

    perturb = run_perturb_harness(models, delta)
    sections["perturb"] = {
        "violations": perturb["violations_total"],
        "entries": len(perturb["entries"]),
    }

    total = (
        len(mismatches)
        + len(bad_an)
        + len(bad_cyclic)
        + len(suite_violations)
        + len(adjunction_failures)
        + (0 if partition_ok else 1)
        + perturb["violations_total"]
    )
    return {
        "seed": seed,
        "count": count,
        "sections": sections,
        "violations_total": total,
        "ok": total == 0,
    }


def _coefficients(raw, basis: BasisDescriptor, path: str) -> Tuple[SpanElement, ...]:
    return tuple(
        parse_coefficient(x, basis, f"{path}[{i}]") for i, x in enumerate(_list(raw, path))
    )


def parse_complement_datum(doc: dict) -> ComplementDatum:
    _object(doc, "complement document", None, DATUM_KEYS)
    if not _is_int(doc.get("n")):
        raise ModelError("n must be an integer", "n")
    basis = parse_basis(doc)
    decomposition = None
    if "decomposition" in doc:
        d = _object(doc["decomposition"], "decomposition", "decomposition", DECOMPOSITION_KEYS)
        weights = _coefficients(d.get("weights", []), basis, "decomposition.weights")
        parts = []
        for k, p in enumerate(_list(d.get("parts", []), "decomposition.parts")):
            path = f"decomposition.parts[{k}]"
            _object(p, "part", path, PART_KEYS)
            bplus = _coefficients(p.get("Bplus", []), basis, f"{path}.Bplus")
            loads = _coefficients(p["m"], basis, f"{path}.m") if "m" in p else None
            parts.append(ComplementPart(bplus, loads))
        decomposition = Decomposition(weights, tuple(parts))
    b, bplus, m = (_coefficients(doc.get(key, []), basis, key) for key in ("B", "Bplus", "m"))
    return ComplementDatum(doc["n"], basis, b, bplus, m, decomposition)


def complement_report(datum: ComplementDatum) -> dict:
    """All complement-side checks on one datum, as a JSON-ready dict."""
    coeffs = check_n_complement_coeffs(datum)
    strong = check_strong_auto(datum)
    doc: dict = {
        "n": datum.n,
        "coefficients": {
            "ok": coeffs.ok,
            "rows": [
                {
                    "index": r.index,
                    "threshold": ratio_str(r.threshold.numerator, r.threshold.denominator),
                    "integral": r.integral,
                    "meets_threshold": r.meets_threshold,
                }
                for r in coeffs.rows
            ],
            "loads_integral": list(coeffs.loads_integral),
        },
        "strong_auto": {
            "hypothesis_ok": strong.hypothesis_ok,
            "coeffs_ok": strong.coeffs_ok,
            "consistent": strong.ok,
        },
    }
    if datum.decomposition is not None:
        rep = check_decomposable(datum)
        doc["decomposition"] = {
            "ok": rep.ok,
            "weights_positive": rep.weights_positive,
            "weights_sum_to_one": rep.weights_sum_to_one,
            "mixes_back": rep.mixes_back,
            "parts_ok": [c.ok for c in rep.part_checks],
        }
    return doc


def emit_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


CSV_COLUMNS = (
    "digest",
    "n_vertices",
    "mld_exact",
    "mld_decimal",
    "classification",
    "realizing",
    "violations",
)


def emit_csv(report: ScanReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for inst in report.instances:
        w.writerow(
            [
                inst["digest"],
                inst["n_vertices"],
                inst["mld"]["exact"],
                inst["mld"]["decimal"],
                inst["classification"],
                inst["realizing"],
                len(inst["violations"]),
            ]
        )
    return buf.getvalue()
