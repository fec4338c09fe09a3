"""The ranking shared by mld_point and mld_oracle, against its older form."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from germkit import BasisDescriptor, Branch, mld_oracle, mld_point
from germkit import discrepancy
from germkit.coefflattice import BRACKET_BITS, is_ge, is_le, partition_of_one
from germkit.discrepancy import _least
from germkit.enclosures import (
    ContinuedFractionEnclosure,
    NestedIntervalsEnclosure,
    PointEnclosure,
)

from util import chain, declared, germ, reference_least

ONE = PointEnclosure(Fraction(1))
SQ2 = BasisDescriptor(("1", "sqrt2"), (ONE, ContinuedFractionEnclosure((1,), (2,))))
SQ2_SQ3 = BasisDescriptor(
    ("1", "sqrt2", "sqrt3"),
    (ONE, ContinuedFractionEnclosure((1,), (2,)), ContinuedFractionEnclosure((1,), (1, 2))),
)
# (3 - sqrt5)/2 = [0; 2, 1, 1, ...] and 2 - sqrt3 = [0; 3, 1, 2, 1, 2, ...]
# have negative irrational coefficients; sqrt2 comes last
NEGATIVE_SQ2 = BasisDescriptor(
    ("1", "t", "u", "sqrt2"),
    (
        ONE,
        ContinuedFractionEnclosure((0, 2), (1,)),
        ContinuedFractionEnclosure((0, 3), (1, 2)),
        ContinuedFractionEnclosure((1,), (2,)),
    ),
)
DECLARED_SQ2 = declared(SQ2, 64)



def _pell_rows(count=8):
    """Rows (p, -q) for the Pell pairs p^2 - 2q^2 = +-1 with q > 2^32.

    Each p - q*sqrt2 is within 1/(2q) of 0, far inside the width of a
    64-bit bracket times q, so only an exact sign ranks them.
    """
    rows, p, q = [], 1, 1
    while len(rows) < count:
        p, q = p + 2 * q, p + q
        if q > 2**32:
            rows.append((p, -q))
    return rows


PELL = _pell_rows()


@st.composite
def ranked_rows(draw):
    basis = draw(st.sampled_from([SQ2, SQ2_SQ3, NEGATIVE_SQ2, DECLARED_SQ2]))
    width = basis.dim - 1
    parts = draw(
        st.lists(st.tuples(*[st.integers(-6, 6)] * width), min_size=1, max_size=4, unique=True)
    )
    # several rows share each irrational part
    picks = draw(st.lists(st.tuples(st.integers(-40, 40), st.sampled_from(parts)), max_size=10))
    rows = [(c,) + part for c, part in picks]
    if basis.certified and draw(st.booleans()):
        pell = draw(st.lists(st.tuples(st.sampled_from(PELL), st.sampled_from([1, -1])),
                             min_size=1, max_size=3))
        rows += [(s * p, s * q) + (0,) * (width - 1) for (p, q), s in pell]
        rows += [(0,) * (width + 1)]
        # sqrt2 is the last symbol of NEGATIVE_SQ2
        if basis is NEGATIVE_SQ2:
            rows = [(x[0],) + x[2:] + x[1:2] for x in rows]
    rows = draw(st.permutations(rows))
    return basis, rows or [(0,) * (width + 1)], draw(st.integers(1, 12))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(ranked_rows())
def test_least_matches_the_running_best_reference(case):
    basis, rows, den = case
    assert _least(basis, rows, den) == reference_least(basis, rows, den)


def test_pell_near_ties_against_zero_in_both_orientations():
    # one of p - q*sqrt2 and q*sqrt2 - p lies just below 0 and one just
    # above; each bracket straddles 0, so the exact sign decides
    for basis in (SQ2, SQ2_SQ3, NEGATIVE_SQ2):
        for p, q in PELL:
            for s in (1, -1):
                # sqrt2 is symbol 1 of SQ2_SQ3 and the last symbol elsewhere
                x = (s * p,) + (0,) * (basis.dim - 2) + (s * q,)
                if basis is SQ2_SQ3:
                    x = x[:1] + x[2:] + x[1:2]
                for rows in ([x, (0,) * basis.dim], [(0,) * basis.dim, x]):
                    assert _least(basis, rows, 3) == reference_least(basis, rows, 3)


def bounds(basis, x):
    """Integers L <= 2^BRACKET_BITS * (the value of row x) <= U."""
    lo = hi = 0
    for n, (l, h) in zip(x, basis._brackets):
        lo, hi = (lo + n * l, hi + n * h) if n >= 0 else (lo + n * h, hi + n * l)
    return lo, hi


def test_symbol_brackets_hold_each_closed_form():
    scale = Fraction(1, 1 << BRACKET_BITS)
    for basis in (SQ2, SQ2_SQ3, NEGATIVE_SQ2):
        assert basis._brackets[0] == (1 << BRACKET_BITS,) * 2
        for j, (lo, hi) in enumerate(basis._brackets):
            # compare decides over a certified basis from the closed forms
            assert is_le(basis.rational(lo * scale), basis.unit(j))
            assert is_ge(basis.rational(hi * scale), basis.unit(j))
            assert hi - lo <= 1
    assert DECLARED_SQ2._brackets is None


def test_signs_are_asked_only_of_bracket_survivors(monkeypatch):
    asked = []
    real = discrepancy._nums_sign

    def spy(basis, nums, den):
        asked.append(nums)
        return real(basis, nums, den)

    monkeypatch.setattr(discrepancy, "_nums_sign", spy)
    (p1, q1), (p2, q2) = PELL[:2]
    # two Pell near-ties and 0 overlap; 3, 5 - sqrt2 and sqrt2 lie clear above
    rows = [(3, 0), (p1, q1), (5, -1), (p2, q2), (0, 1), (0, 0), (9, 0)]
    reps = {x[1:]: x for x in sorted(rows, reverse=True)}.values()
    top = min(bounds(SQ2, x)[1] for x in reps)
    survivors = [x for x in reps if bounds(SQ2, x)[0] <= top]
    assert len(survivors) == 3 < len(reps)
    # of two consecutive Pell pairs exactly one has p^2 < 2q^2, below 0
    [least] = [(p, q) for p, q in PELL[:2] if p * p < 2 * q * q]
    assert _least(SQ2, rows, 1) == reference_least(SQ2, rows, 1) == least
    differences = {tuple(a - b for a, b in zip(x, y)) for x in survivors for y in survivors}
    assert asked and set(asked) <= differences


def _levels_read(monkeypatch, model):
    """Enclosure reads of mld_point, then of mld_oracle at depths 1 to 3."""
    calls = []
    real = NestedIntervalsEnclosure.interval

    def counted(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(NestedIntervalsEnclosure, "interval", counted)
    profile = mld_point(model)
    reads = [len(calls)]
    for depth in (1, 2, 3):
        calls.clear()
        assert mld_oracle(model, depth, profile) == profile.mld
        reads.append(len(calls))
    monkeypatch.undo()
    return reads


# the reads of the running-best ranking over every candidate of the
# tables before they held only their lower envelopes: mld_point, then
# mld_oracle at depths 1, 2 and 3
RUNNING_BEST_READS = [9, 10, 27, 56]


def test_declared_bases_read_no_more_levels(monkeypatch):
    # an intervals copy of sqrt2 has no certificate, so only the grouping
    # applies, and it asks no sign the running best did not ask
    b = DECLARED_SQ2
    r2 = b.unit(1)
    m = germ(
        chain(-3, -2, -3),
        [Branch(0, r2 / 4), Branch(2, (b.rational(2) - r2) / 2)],
        loads=[(1, r2 / 16)],
        basis=b,
    )
    now = _levels_read(monkeypatch, m)
    monkeypatch.setattr(discrepancy, "_least", reference_least)
    before = _levels_read(monkeypatch, m)
    assert all(r <= b for r, b in zip(now, before)), (now, before)
    assert all(r <= b for r, b in zip(now, RUNNING_BEST_READS)), now


def test_partitions_build_no_brackets():
    # irrational-bases work ranks nothing, so it never pays for brackets
    basis = BasisDescriptor(SQ2_SQ3.symbols, SQ2_SQ3.enclosures)
    part = partition_of_one(basis, Fraction(1, 100))
    assert "_brackets" not in vars(basis)
    assert "_brackets" not in vars(part.basis)
