"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Every comparison below is exact rational or enclosure-certified arithmetic;
the only tolerance anywhere is the 60 second wall-clock budget in check 1.
Lines go to the real stdout so they survive pytest's capture.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

from germkit import (
    Branch,
    BasisDescriptor,
    ContinuedFractionEnclosure,
    HypothesesUnmet,
    NEG_INFINITY,
    PointEnclosure,
    SurfaceGermModel,
    TRIVIAL_BASIS,
    WeightedDualGraph,
    find_chain,
    mld_oracle,
    mld_point,
)
from germkit.coefflattice import is_le, partition_of_one, verify_partition
from germkit.complements import ComplementDatum, check_n_complement_coeffs, check_strong_auto
from germkit.corpus import (
    coefficient_pool,
    corpus,
    family_an,
    family_cyclic_one_one,
    hj_with_reduced_branch,
    sqrt2_basis,
)
from germkit.discrepancy import adjunction_form, check_convexity
from germkit.explorer import ScanConfig, emit_csv, emit_json, run_perturb_harness, run_scan


def report(num, text, ok):
    print(
        f"[criterion {num:02d}] {text}: {'PASS' if ok else 'FAIL'}",
        file=sys.__stdout__,
        flush=True,
    )
    assert ok, f"criterion {num} failed: {text}"


def values_equal(x, y):
    if x is NEG_INFINITY or y is NEG_INFINITY:
        return x is y
    return x.coords == y.coords


CORPUS = corpus(0, 200)


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    for m in CORPUS:
        want = mld_point(m).mld
        for depth in (1, 2, 3):
            if not values_equal(mld_oracle(m, depth), want):
                mismatches += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        f"closed form equals blow-up oracle at depths 1..3 on {len(CORPUS)} models "
        f"({elapsed:.1f}s < 60s)",
        mismatches == 0 and len(CORPUS) >= 200 and elapsed < 60.0,
    )


def test_criterion_02_named_families():
    ok = all(mld_point(m).mld.as_fraction() == 1 for m in family_an(50))
    for n, m in enumerate(family_cyclic_one_one(50), start=2):
        ok = ok and mld_point(m).mld.as_fraction() == Fraction(2, n)
    report(2, "A_n gives mld 1 and 1/n(1,1) gives 2/n for n up to 50", ok)


def test_criterion_03_convexity_suite():
    checked = 0
    violations = 0
    for m in CORPUS:
        try:
            violations += len(check_convexity(m))
        except HypothesesUnmet:
            continue  # not lc, or some discrepancy above 1: out of scope
        checked += 1
    report(
        3,
        f"midpoint, weight-bound, and gap inequalities clean on {checked} lc models",
        violations == 0 and checked >= 40,
    )


def test_criterion_04_window_and_smooth_values():
    ok = True
    nonempty = 0
    for m in CORPUS:
        if m.graph.order == 0 or any(w > -2 for _, w in m.graph.vertices):
            continue
        nonempty += 1
        mld = mld_point(m).mld
        if mld is not NEG_INFINITY and not is_le(mld, 1):
            ok = False
    basis = sqrt2_basis()
    zero = basis.rational(Fraction(0))
    two = basis.rational(Fraction(2))
    empties = 0
    for size in (0, 1, 2):
        for combo in itertools.combinations_with_replacement(coefficient_pool(basis), size):
            mult = sum(combo, zero)
            if not is_le(mult, 1):
                continue
            m = SurfaceGermModel(
                WeightedDualGraph((), ()), tuple(Branch(None, x) for x in combo), (), None, basis
            )
            want = two - mult
            ok = ok and values_equal(mld_point(m).mld, want)
            ok = ok and values_equal(mld_oracle(m, 4), want)
            empties += 1
    report(
        4,
        f"all-(-2 or worse) models stay at mld <= 1 ({nonempty} cases) and "
        f"empty graphs with mult <= 1 give 2 - mult against the depth-4 oracle ({empties} cases)",
        ok and nonempty >= 50 and empties >= 10,
    )


def _tree_representatives(max_n, max_deg):
    """One adjacency dict per isomorphism class of free trees, grown by leaves."""

    def canon(adj, n):
        ecc = {}
        for s in adj:
            dist = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in adj[v]:
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            nxt.append(u)
                frontier = nxt
            ecc[s] = max(dist.values())
        radius = min(ecc.values())
        centers = [v for v in adj if ecc[v] == radius]

        def shape(v, parent):
            return "(" + "".join(sorted(shape(u, v) for u in adj[v] if u != parent)) + ")"

        return min(shape(c, None) for c in centers)

    reps = {1: {"()": {0: []}}}
    for n in range(2, max_n + 1):
        reps[n] = {}
        for adj in reps[n - 1].values():
            for v in list(adj):
                if len(adj[v]) >= max_deg:
                    continue
                grown = {u: list(ns) for u, ns in adj.items()}
                grown[n - 1] = [v]
                grown[v].append(n - 1)
                reps[n].setdefault(canon(grown, n), grown)
    return [adj for size in reps.values() for adj in size.values()]


def _all_paths(adj, start, length):
    """Every simple path with ``length`` edges out of ``start``."""
    out = []

    def walk(path):
        if len(path) == length + 1:
            out.append(tuple(path))
            return
        for u in adj[path[-1]]:
            if u not in path:
                walk(path + [u])

    walk([start])
    return out


def test_criterion_05_chain_finder_exhaustive():
    ok = True
    cases = 0
    for adj in _tree_representatives(10, 4):
        n = len(adj)
        g = WeightedDualGraph(
            tuple((v, -2) for v in sorted(adj)),
            tuple((v, u) for v in sorted(adj) for u in adj[v] if v < u),
        )
        for length in (1, 2, 3):
            if 2 * n <= 3**length - 1:
                continue
            for start in sorted(adj):
                if len(adj[start]) > 3:
                    continue
                valid = _all_paths(adj, start, length)
                found = find_chain(g, start, length)
                cases += 1
                if not valid or found.vertex_ids not in set(valid):
                    ok = False
    report(
        5,
        f"greedy chain finder returns a brute-force-valid path in all {cases} "
        "(tree, start, length) cases over trees with <= 10 vertices",
        ok and cases >= 1000,
    )


def test_criterion_06_partition_of_one():
    rng = random.Random(11)
    ok = True
    for _ in range(100):
        k = rng.randrange(1, 4)
        seen = set()
        names, encs = ["1"], [PointEnclosure(Fraction(1))]
        while len(names) < k + 1:
            head = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(1, 3)))
            cycle = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(1, 4)))
            if (head, cycle) in seen:
                continue
            seen.add((head, cycle))
            names.append(f"r{len(names)}")
            encs.append(ContinuedFractionEnclosure(head, cycle))
        basis = BasisDescriptor(tuple(names), tuple(encs))
        for delta in (Fraction(1, 10), Fraction(1, 1000)):
            checks = verify_partition(partition_of_one(basis, delta))
            ok = ok and all(checks.values())
    report(
        6,
        "partition of one certified on 100 random bases at delta 1/10 and 1/1000",
        ok,
    )


def test_criterion_07_perturbation_harness():
    def has_irrational(m):
        return (
            any(not b.coeff.is_rational for b in m.branches)
            or any(not mu.is_rational for _, mu in m.nef_loads)
            or (m.epsilon is not None and not m.epsilon.is_rational)
        )

    wobbly = [
        m
        for m in CORPUS
        if mld_point(m).classification != "not-lc" and has_irrational(m)
    ]
    h = run_perturb_harness(wobbly, Fraction(1, 1000))
    ok = (
        len(wobbly) >= 10
        and h["violations_total"] == 0
        and all(e["status"] == "checked" and e["lc_preserved"] for e in h["entries"])
        and "no single delta" in h["disclaimer"]
    )
    report(
        7,
        f"delta=1/1000 rational snaps keep all {len(wobbly)} irrational lc models lc, "
        "with the per-instance-delta disclaimer",
        ok,
    )


def test_criterion_08_complement_fuzz():
    rng = random.Random(5)
    bad = 0
    for _ in range(10_000):
        n = rng.randrange(1, 13)
        den = rng.randrange(1, 13)
        b = Fraction(rng.randrange(0, 2 * den + 1), den)
        ceil_nb = -((-b.numerator * n) // b.denominator)
        bplus = Fraction(ceil_nb + rng.randrange(0, 4), n)
        loads = tuple(
            TRIVIAL_BASIS.rational(Fraction(rng.randrange(0, 2 * n + 1), n))
            for _ in range(rng.randrange(0, 3))
        )
        d = ComplementDatum(
            n,
            TRIVIAL_BASIS,
            (TRIVIAL_BASIS.rational(b),),
            (TRIVIAL_BASIS.rational(bplus),),
            loads,
        )
        r = check_strong_auto(d)
        if not (r.hypothesis_ok and r.coeffs_ok):
            bad += 1

    def threshold(n, b):
        d = ComplementDatum(
            n, TRIVIAL_BASIS, (TRIVIAL_BASIS.rational(b),), (TRIVIAL_BASIS.rational(b),)
        )
        return check_n_complement_coeffs(d).rows[0].threshold

    hand = (
        threshold(2, Fraction(1, 2)) == Fraction(1, 2)
        and threshold(6, Fraction(5, 6)) == Fraction(5, 6)
        and threshold(3, Fraction(0)) == 0
    )
    report(
        8,
        "10000 rounding-inequality samples find no counterexample and the three "
        "hand thresholds reproduce",
        bad == 0 and hand,
    )


def test_criterion_09_adjunction_form():
    ok = True
    cases = 0
    import math

    for n in range(2, 31):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            f = adjunction_form(hj_with_reduced_branch(n, q), 0)
            ok = ok and f.ok and f.det == n
            cases += 1
    a1 = adjunction_form(
        SurfaceGermModel(
            WeightedDualGraph(((0, -2),), ()),
            (Branch(0, TRIVIAL_BASIS.rational(Fraction(1))),),
            (),
            None,
            TRIVIAL_BASIS,
        ),
        0,
    )
    m3 = adjunction_form(
        SurfaceGermModel(
            WeightedDualGraph(((0, -3),), ()),
            (Branch(0, TRIVIAL_BASIS.rational(Fraction(1))),),
            (),
            None,
            TRIVIAL_BASIS,
        ),
        0,
    )
    hand = a1.coefficient.as_fraction() == Fraction(1, 2) and m3.coefficient.as_fraction() == Fraction(2, 3)
    report(
        9,
        f"adjunction coefficient decomposes integrally on {cases} quotient chains "
        "and matches the two hand solves",
        ok and hand and cases >= 200,
    )


def test_criterion_10_deterministic_reports():
    cfg = ScanConfig(family="corpus", count=40, seed=9, oracle_depth=1)
    a, b = run_scan(cfg), run_scan(cfg)
    ok = (
        emit_json(a.to_json_dict()) == emit_json(b.to_json_dict())
        and emit_csv(a) == emit_csv(b)
    )
    report(10, "fixed-seed scans emit byte-identical JSON and CSV reports", ok)
