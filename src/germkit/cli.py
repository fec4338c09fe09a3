"""Command line front end.

Each subcommand returns its report, a JSON-ready dict or CSV text, with an
exit code; ``main`` writes the report to stdout or to ``--out``.  Exit
codes: 0 on success, 1 for invalid input or model data, 2 when a run finds
violations (an oracle mismatch, a failed scan check, a strong-auto
contradiction).  All reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .coefflattice import DEFAULT_BUDGET, partition_of_one, refinement_budget
from .complements import epsilon_tag
from .corpus import sqrt2_basis
from .discrepancy import (
    Branch,
    MAX_ORACLE_DEPTH,
    SurfaceGermModel,
    check_oracle_depth,
    find_computing_path,
    mld_oracle,
    mld_point,
    resolution_model,
    solve_discrepancies,
)
from .dualgraph import hj_graph
from .errors import GermkitError, HypothesesUnmet, ModelError
from .explorer import (
    ScanConfig,
    canonical_model_doc,
    complement_report,
    emit_csv,
    emit_json,
    load_doc,
    load_model,
    model_digest,
    parse_coefficient,
    parse_complement_datum,
    parse_rational,
    run_perturb_harness,
    run_scan,
    run_verification,
    value_json,
)

VIOLATIONS_EXIT = 2


def _delta_arg(text: str) -> Fraction:
    delta = parse_rational(text, "--delta")
    if delta <= 0:
        raise ModelError(f"delta must be positive, got {text}", "--delta")
    return delta


def _budget_arg(text: str) -> int:
    try:
        levels = int(text)
    except ValueError:
        raise ModelError(f"bad refinement budget {text!r}", "--refine-budget") from None
    if levels <= 0:
        raise ModelError(f"refinement budget must be positive, got {text}", "--refine-budget")
    return levels


def _oracle_depth_arg(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        raise ModelError(f"bad oracle depth {text!r}", "--oracle-depth") from None
    if depth != 0:  # 0 turns the oracle off
        try:
            check_oracle_depth(depth)
        except ValueError as e:
            raise ModelError(str(e), "--oracle-depth") from None
    return depth


def _verify_depth_arg(text: str) -> int:
    depth = _oracle_depth_arg(text)
    if depth < 1:
        raise ModelError(
            f"verify-lemmas checks the oracle at depths 1 to N; N must be at least 1, got {text}",
            "--oracle-depth",
        )
    return depth


def cmd_solve(args) -> tuple[dict | str, int]:
    model = load_model(args.model)
    a = solve_discrepancies(model)
    doc = {
        "digest": model_digest(model),
        "a": {str(v): value_json(a[v]) for v in sorted(a)},
    }
    return doc, 0


def cmd_mld(args) -> tuple[dict | str, int]:
    model = load_model(args.model)
    profile = mld_point(model)
    doc = {
        "digest": model_digest(model),
        "a": {str(v): value_json(x) for v, x in profile.a},
        "mld": value_json(profile.mld),
        "classification": profile.classification,
        "realizing": {"kind": profile.realizing[0], "where": profile.realizing[1]},
    }
    if model.epsilon is not None:
        doc["epsilon"] = value_json(model.epsilon)
        doc["epsilon_ok"] = profile.epsilon_ok
    code = 0
    if args.oracle_depth >= 1:
        got = mld_oracle(model, args.oracle_depth, profile)
        agrees = got == profile.mld
        doc["oracle"] = {
            "depth": args.oracle_depth,
            "mld": value_json(got),
            "agrees": agrees,
        }
        if not agrees:
            code = VIOLATIONS_EXIT
    return doc, code


def cmd_scan(args) -> tuple[dict | str, int]:
    config = ScanConfig(
        family=args.family,
        n_min=args.n_min,
        n_max=args.n_max,
        q=args.q,
        count=args.count,
        seed=args.seed,
        oracle_depth=args.oracle_depth,
        epsilon=args.epsilon,
        coeffs=tuple(args.coeff) if args.coeff else None,
        paths=tuple(args.paths),
    )
    if config.family == "files" and not config.paths:
        raise ModelError("--family files needs at least one model path")
    if config.family != "files" and config.paths:
        raise ModelError(
            f"model paths are read only by --family files, not by --family {config.family}"
        )
    report = run_scan(config)
    code = VIOLATIONS_EXIT if report.aggregate["violations_total"] else 0
    return (emit_csv(report) if args.format == "csv" else report.to_json_dict()), code


def cmd_perturb(args) -> tuple[dict | str, int]:
    models = [load_model(p) for p in args.models]
    report = run_perturb_harness(models, args.delta)
    return report, VIOLATIONS_EXIT if report["violations_total"] else 0


def cmd_partition(args) -> tuple[dict | str, int]:
    if args.model:
        basis = load_model(args.model).basis
    else:
        basis = sqrt2_basis()
    part = partition_of_one(basis, args.delta)
    entries = []
    for weight, snap in part.entries:
        entries.append(
            {
                "weight": value_json(weight),
                # row 0 of a rational snap holds the image of each symbol
                "images": dict(zip(basis.symbols, map(str, snap.matrix[0]))),
            }
        )
    doc = {
        "basis": list(basis.symbols),
        "delta": str(args.delta),
        "entries": entries,
        "checks": part.checks,
    }
    return doc, 0


def cmd_check_complement(args) -> tuple[dict | str, int]:
    datum = parse_complement_datum(load_doc(args.data))
    doc = complement_report(datum)
    strong = doc["strong_auto"]
    return doc, VIOLATIONS_EXIT if strong["hypothesis_ok"] and not strong["coeffs_ok"] else 0


def _pair_args(pairs, basis, label):
    out = []
    for text in pairs:
        vid, sep, lit = text.partition(":")
        if not sep:
            raise ModelError(f"expected ID:VALUE, got {text!r}", label)
        try:
            v = int(vid)
        except ValueError:
            raise ModelError(f"bad vertex id {vid!r}", label) from None
        out.append((v, basis.rational(parse_rational(lit, label))))
    return out


def cmd_gen_hj(args) -> tuple[dict | str, int]:
    from .coefflattice import TRIVIAL_BASIS

    try:
        g = hj_graph(args.n, args.q)
    except ValueError as e:
        raise ModelError(str(e), "gen-hj") from None
    branches = tuple(
        Branch(v, x) for v, x in _pair_args(args.branch, TRIVIAL_BASIS, "--branch")
    )
    loads = tuple(_pair_args(args.load, TRIVIAL_BASIS, "--load"))
    eps = None
    if args.epsilon is not None:
        eps = TRIVIAL_BASIS.rational(parse_rational(args.epsilon, "--epsilon"))
    model = SurfaceGermModel(g, branches, loads, eps, TRIVIAL_BASIS)
    return canonical_model_doc(model), 0


def cmd_verify_lemmas(args) -> tuple[dict | str, int]:
    report = run_verification(
        seed=args.seed,
        count=args.count,
        oracle_depth=args.oracle_depth,
        delta=args.delta,
    )
    return report, 0 if report["ok"] else VIOLATIONS_EXIT


def cmd_resolve(args) -> tuple[dict | str, int]:
    model = load_model(args.model)
    step = resolution_model(model)
    doc = {
        "digest": model_digest(model),
        "kind": step.kind,
        "computing_vertex": step.computing_vertex,
        "mld": value_json(step.profile.mld),
        "minus_one_unique": step.minus_one_unique,
        "vertices": [[v, w] for v, w in step.model.graph.vertices],
        "edges": [[a, b] for a, b in step.model.graph.edges],
    }
    return doc, 0


def cmd_computing_path(args) -> tuple[dict | str, int]:
    model = load_model(args.model)
    report = find_computing_path(model)
    doc = {
        "digest": model_digest(model),
        "kind": report.kind,
        "path": list(report.path.vertex_ids),
        "m": report.m,
        "conditions": report.conditions,
        "moreover_applicable": report.moreover_applicable,
        "moreover": report.moreover,
    }
    return doc, 0 if all(report.conditions.values()) else VIOLATIONS_EXIT


def cmd_epsilon_tag(args) -> tuple[dict | str, int]:
    model = load_model(args.model)
    eps = parse_coefficient(args.epsilon, model.basis, "epsilon")
    classification, profile = epsilon_tag(model, eps)
    doc = {
        "digest": model_digest(model),
        "epsilon": value_json(eps),
        "classification": classification,
        "mld": value_json(profile.mld),
    }
    return doc, 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input: exit 1 with one line."""

    def error(self, message):
        raise ModelError(message)


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the report here instead of stdout")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument(
        "--refine-budget",
        type=_budget_arg,
        default=DEFAULT_BUDGET,
        help="max enclosure refinement level before giving up a comparison",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed for generated families")
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument(
        "--oracle-depth",
        type=_oracle_depth_arg,
        default=0,
        help="cross-check depth for the blowup tower oracle "
        f"(0 disables, at most {MAX_ORACLE_DEPTH})",
    )

    p = _Parser(prog="germkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", parents=[common], help="log discrepancies of one model")
    sp.add_argument("model")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser(
        "mld", parents=[common, oracle], help="minimal log discrepancy and profile"
    )
    sp.add_argument("model")
    sp.set_defaults(func=cmd_mld)

    sp = sub.add_parser(
        "scan", parents=[common, seeded, oracle], help="sweep a family and aggregate"
    )
    sp.add_argument(
        "--family", choices=("corpus", "hj", "an", "cyclic", "files"), default="corpus"
    )
    sp.add_argument("paths", nargs="*", help="model files for --family files")
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=30)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--epsilon", help="tag every instance against this epsilon")
    sp.add_argument("--coeff", action="append", help="declared coefficient (repeatable)")
    sp.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("perturb", parents=[common], help="rational snap harness")
    sp.add_argument("models", nargs="+")
    sp.add_argument("--delta", type=_delta_arg, default="1/1000")
    sp.set_defaults(func=cmd_perturb)

    sp = sub.add_parser("partition", parents=[common], help="partition of one over a basis")
    sp.add_argument("model", nargs="?", help="model file providing the basis")
    sp.add_argument("--delta", type=_delta_arg, default="1/1000")
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser(
        "check-complement", parents=[common], help="index-n complement coefficient checks"
    )
    sp.add_argument("data")
    sp.set_defaults(func=cmd_check_complement)

    sp = sub.add_parser("gen-hj", parents=[out], help="emit a quotient chain model")
    sp.add_argument("n", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("--branch", action="append", default=[], metavar="ID:B")
    sp.add_argument("--load", action="append", default=[], metavar="ID:M")
    sp.add_argument("--epsilon")
    sp.set_defaults(func=cmd_gen_hj)

    sp = sub.add_parser(
        "verify-lemmas",
        parents=[common, seeded],
        help="run every construction-level check",
    )
    sp.add_argument(
        "--oracle-depth",
        type=_verify_depth_arg,
        default=3,
        help="cross-check the blowup tower oracle at depths 1 to this "
        f"(at least 1, at most {MAX_ORACLE_DEPTH})",
    )
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--delta", type=_delta_arg, default="1/1000")
    sp.set_defaults(func=cmd_verify_lemmas)

    sp = sub.add_parser("resolve", parents=[common], help="one mld-preserving model step")
    sp.add_argument("model")
    sp.set_defaults(func=cmd_resolve)

    sp = sub.add_parser(
        "computing-path", parents=[common], help="locate a computing chain in the graph"
    )
    sp.add_argument("model")
    sp.set_defaults(func=cmd_computing_path)

    sp = sub.add_parser("epsilon-tag", parents=[common], help="classify against an epsilon")
    sp.add_argument("model")
    sp.add_argument("epsilon")
    sp.set_defaults(func=cmd_epsilon_tag)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with refinement_budget(getattr(args, "refine_budget", DEFAULT_BUDGET)):
            report, code = args.func(args)
            text = report if isinstance(report, str) else emit_json(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except HypothesesUnmet as e:
        print(f"hypotheses unmet: {e}", file=sys.stderr)
        return 1
    except (GermkitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
