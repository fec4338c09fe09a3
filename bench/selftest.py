"""Self-tests for the benchmark's own checkers, on hand-computed cases.

    python3 bench/selftest.py

Kept out of the tier-1 suite (pytest collects only tests/).  The last test
runs each workload once at its smallest size, with and without tracing.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import unittest
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from exact import (  # noqa: E402
    SQRT2,
    QuadraticBasis,
    cf_closed_form,
    continuant,
    decimal_ok,
    hj_weights,
    parse_exact,
    tree_pivots,
    tree_solve,
)


class SignOverSqrt2(unittest.TestCase):
    def sign(self, p, q):
        return SQRT2.sign(SQRT2.value((F(p), F(q))))

    def test_squaring_decides_mixed_signs(self):
        # 3 - 2*sqrt2 > 0 because 9 > 8; 7/5 - sqrt2 < 0 because 49/25 < 2
        self.assertEqual(self.sign(3, -2), 1)
        self.assertEqual(self.sign(-3, 2), -1)
        self.assertEqual(self.sign(F(7, 5), -1), -1)
        self.assertEqual(self.sign(F(-17, 12), 1), -1)  # 17/12 > sqrt2
        self.assertEqual(self.sign(F(-141421, 100000), 1), 1)

    def test_same_signs_and_zero(self):
        self.assertEqual(self.sign(1, 1), 1)
        self.assertEqual(self.sign(-1, F(-1, 3)), -1)
        self.assertEqual(self.sign(0, 0), 0)
        self.assertEqual(self.sign(0, -2), -1)

    def test_two_roots(self):
        qb = QuadraticBasis([((1,), (2,)), ((1,), (1, 2))])  # sqrt2, sqrt3
        # sqrt3 - sqrt2 - 3/10 > 0 (0.3178...), sqrt3 - sqrt2 - 1/3 < 0
        self.assertEqual(qb.sign(qb.value((F(-3, 10), F(-1), F(1)))), 1)
        self.assertEqual(qb.sign(qb.value((F(-1, 3), F(-1), F(1)))), -1)
        # sqrt6 = sqrt2*sqrt3 lies between 2.449 and 2.45
        six = qb.monomial([1, 2])
        self.assertEqual(qb.sign({**six, 0: F(-2449, 1000)}), 1)
        self.assertEqual(qb.sign({**six, 0: F(-245, 100)}), -1)


class ClosedForm(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(cf_closed_form((1,), (2,)), (0, 1, 2))  # sqrt2
        self.assertEqual(cf_closed_form((1,), (1, 2)), (0, 1, 3))  # sqrt3
        self.assertEqual(cf_closed_form((2,), (4,)), (0, 1, 5))  # sqrt5
        self.assertEqual(cf_closed_form((), (1,)), (F(1, 2), F(1, 2), 5))  # golden ratio
        self.assertEqual(cf_closed_form((0,), (1,)), (F(-1, 2), F(1, 2), 5))
        self.assertEqual(cf_closed_form((1, 2), (2,)), (0, 1, 2))  # [1; 2, 2, ...] again

    def test_floor_and_convergents(self):
        qb = QuadraticBasis([((3,), (1, 1, 1, 1, 6))])  # sqrt13 = [3; 1, 1, 1, 1, 6, ...]
        self.assertEqual(qb.floor(qb.value((F(0), F(1)))), 3)  # sqrt13 = 3.605...
        self.assertEqual(qb.floor(qb.value((F(0), F(-1)))), -4)
        self.assertEqual(qb.floor(qb.value((F(1, 2), F(5)))), 18)  # 18.527...
        # the value lies between consecutive convergents 3/1 and 4/1
        r = qb.symbols[1]
        self.assertEqual(qb.sign({**r, 0: r.get(0, 0) - 3}), 1)
        self.assertEqual(qb.sign({**r, 0: r.get(0, 0) - 4}), -1)


class Renderings(unittest.TestCase):
    def test_decimal(self):
        half_root = SQRT2.value((F(0), F(1, 2)))  # 0.70710678118654...
        self.assertTrue(decimal_ok(SQRT2, half_root, "0.707106781187"))
        self.assertFalse(decimal_ok(SQRT2, half_root, "0.707106781186"))
        self.assertFalse(decimal_ok(SQRT2, half_root, "0.70710678119"))
        self.assertTrue(decimal_ok(SQRT2, {0: F(1, 8)}, "0.125000000000"))
        self.assertTrue(decimal_ok(SQRT2, {0: F(-1, 3)}, "-0.333333333333"))

    def test_exact(self):
        self.assertEqual(parse_exact("1/2 - 1/4*sqrt2", ("1", "sqrt2")), [F(1, 2), F(-1, 4)])
        self.assertEqual(parse_exact("-sqrt2", ("1", "sqrt2")), [0, -1])
        self.assertEqual(parse_exact("0", ("1", "sqrt2")), [0, 0])
        self.assertEqual(
            parse_exact("1 - r1 + 3/4*r1*r2", ("1", "r1", "r2", "r1*r2")), [1, -1, 0, F(3, 4)]
        )


class LinearAlgebra(unittest.TestCase):
    def test_continuant_is_n(self):
        self.assertEqual(hj_weights(7, 3), [-3, -2, -2])
        self.assertEqual(continuant([-3, -2, -2]), 7)
        self.assertEqual(continuant([-2] * 5), 6)  # A5
        self.assertEqual(continuant([]), 1)
        for n in range(2, 40):
            for q in range(1, n):
                if math.gcd(n, q) == 1:
                    self.assertEqual(continuant(hj_weights(n, q)), n)

    def test_tree_pivots(self):
        d4 = [(0, 1), (0, 2), (0, 3)]
        piv = tree_pivots(4, [-2, -2, -2, -2], d4)
        self.assertEqual(piv[0], F(-1, 2))  # -2 - 3 * (1 / -2)
        self.assertIsNone(tree_pivots(5, [-2] * 5, d4 + [(0, 4)]))  # the affine D4 is not definite
        self.assertEqual(tree_pivots(3, [-2, -2, -2], [(0, 1), (1, 2)])[1], F(-3, 2))

    def test_residual_of_tree_solve(self):
        # the 7/3 chain with a 1/2 branch on curve 0: a = (5/14, 4/7, 11/14)
        ws, edges = [-3, -2, -2], [(0, 1), (1, 2)]
        rhs = [[F(-1) - F(1, 2)], [F(0)], [F(0)]]
        x = tree_solve(3, ws, edges, rhs)
        self.assertEqual([1 - v[0] for v in x], [F(5, 14), F(4, 7), F(11, 14)])
        # M (1 - a) = rhs row by row
        neighbors = {0: [1], 1: [0, 2], 2: [1]}
        for v in range(3):
            row = ws[v] * x[v][0] + sum(x[u][0] for u in neighbors[v])
            self.assertEqual(row, rhs[v][0])


class Workloads(unittest.TestCase):
    """Each workload at its smallest size, untimed, then under tracing."""

    def test_smallest_runs(self):
        import workloads
        from tracing import Tracer

        for name, make in workloads.WORKLOADS.items():
            wl = make(seed=7, count=3)
            for traced in (False, True):
                tracer = Tracer()
                if traced:
                    tracer.install()
                try:
                    ops = wl.operations(wl.setup())
                    outs = [op.run() for op in ops]
                finally:
                    tracer.uninstall()
                with self.subTest(workload=name, traced=traced):
                    self.assertTrue(ops)
                    for op, out in zip(ops, outs):
                        self.assertIsNone(op.check(out), op.label)
                    if traced:
                        self.assertGreater(tracer.calls["explorer.value_json"], 0)

    def test_a_wrong_output_is_caught(self):
        import workloads

        wl = workloads.large_graphs(seed=7, count=1)
        op = wl.operations(wl.setup())[0]
        profile, rendered, rendered_mld = op.run()
        vid, a0 = profile.a[0]
        off = ((vid, a0 + a0.basis.rational(F(1, 10**9))),) + profile.a[1:]
        bad = dataclasses.replace(profile, a=off)
        self.assertIn("residual", op.check((bad, rendered, rendered_mld)))


if __name__ == "__main__":
    unittest.main()
