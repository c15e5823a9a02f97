import io
import itertools
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from eag import cli, hyperfermat as hf
from eag.cx import GaussianRational, Mobius, ProjPoint
from eag.errors import CAPS, CapExceededError, PreconditionError
from eag.surfaces import Signature, riemann_hurwitz_genus


def _rand_fractions(rng, count, lo=-30, hi=30, maxden=9):
    out = []
    while len(out) < count:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, maxden))
        if f not in out:
            out.append(f)
    return out


def test_gaussian_rational_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(Fraction(2), Fraction(-1))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * GaussianRational(a.re, -a.im) == GaussianRational(a.norm2())
    assert (a ** 3) == a * a * a
    assert complex(GaussianRational(Fraction(1), Fraction(2))) == 1 + 2j


fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


def _gaussians(real):
    if real:
        return st.builds(GaussianRational, fractions)
    return st.builds(GaussianRational, fractions, fractions.filter(bool))


def _general(op, x, y):
    """The textbook formula for each operation on (re, im) pairs."""
    a, b, c, d = x.re, x.im, y.re, y.im
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n2 = c * c + d * d
    return (a * c + b * d) / n2, (b * c - a * d) / n2


@pytest.mark.parametrize("x_real,y_real", [(True, True), (True, False),
                                           (False, True), (False, False)])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_gaussian_ops_match_general_formula(x_real, y_real, data):
    # the real-operand fast paths must agree with the formula for complex data
    x = data.draw(_gaussians(x_real))
    y = data.draw(_gaussians(y_real))
    results = {"+": x + y, "-": x - y, "*": x * y}
    if not y.is_zero():
        results["/"] = x / y
    for op, got in results.items():
        assert (got.re, got.im) == _general(op, x, y), op
    assert ((-x).re, (-x).im) == (-x.re, -x.im)
    assert (3 - y) == GaussianRational(3 - y.re, -y.im)
    if not y.is_zero():
        assert (2 / y) == GaussianRational(*_general("/", GaussianRational.of(2), y))
    with pytest.raises(ZeroDivisionError):
        x / GaussianRational(Fraction(0))


def test_vandermonde_line_shapes():
    row = hf.vandermonde_line([0, 1, 7]).rows
    assert len(row) == 1 and all(x == GaussianRational.of(1) for x in row[0])
    rows = hf.vandermonde_line([0, 1, 2, 3]).rows
    assert [complex(x).real for x in rows[0]] == [1, 1, 1, 1]
    assert [complex(x).real for x in rows[1]] == [0, 1, 2, 3]
    with pytest.raises(PreconditionError):
        hf.vandermonde_line([0, 1, 1, 3])


def _leibniz_det(rows):
    """Determinant as the signed sum over permutations (small sizes only)."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def _deletions(rows):
    """(kept columns, square submatrix) for every two-column deletion of C."""
    width = len(rows[0])
    for drop in itertools.combinations(range(width), 2):
        keep = [j for j in range(width) if j not in drop]
        yield keep, [[row[j] for j in keep] for row in rows]


def test_vandermonde_always_generic_with_det_oracle():
    rng = random.Random(13)
    for n in (2, 3, 4, 5, 6):
        w = _rand_fractions(rng, n + 1)
        line = hf.vandermonde_line(w)
        assert hf.is_generic_line(line)
        # oracle: every two-column deletion is a square Vandermonde matrix,
        # whose determinant is the product of the differences
        for keep, sub in _deletions(line.rows):
            want = GaussianRational.of(1)
            for a, b in itertools.combinations(keep, 2):
                want = want * GaussianRational.of(w[b] - w[a])
            assert _leibniz_det(sub) == want


def test_is_generic_line_matches_minor_oracle_exact():
    # entries in {-1, 0, 1} make vanishing minors, and so non-generic lines,
    # common; rank-deficient matrices turn up too
    rng = random.Random(17)
    verdicts = []
    for _ in range(300):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-1, 1) for _ in range(n + 1)] for _ in range(n - 1)]
        want = all(_leibniz_det(sub) != 0 for _, sub in _deletions(rows))
        assert hf.is_generic_line(hf.LineMatrix.of(rows)) == want, rows
        verdicts.append(want)
    assert 30 < sum(verdicts) < 270


def _exact_entry(rng, gaussian):
    re = Fraction(rng.randint(-1, 1), rng.choice((1, 1, 2, 3)))
    if not gaussian:
        return re
    return GaussianRational(re, Fraction(rng.randint(-1, 1), rng.choice((1, 2))))


def test_plucker_rows_are_the_signed_minors_exact():
    # for i < j, Q_i(j) is the minor of C without columns i and j times
    # (-1)^(i+j) and one factor common to all i and j, and Q_j(i) = -Q_i(j);
    # each row is then scaled to a first nonzero coordinate of 1, so the
    # signed minors of row i, divided by the one at that coordinate, are Q_i
    rng = random.Random(23)
    seen = set()
    for trial in range(160):
        gaussian = trial % 2 == 1
        n = rng.randint(2, 5)
        rows = [[_exact_entry(rng, gaussian) for _ in range(n + 1)] for _ in range(n - 1)]
        line = hf.LineMatrix.of(rows)
        minors = {drop: _leibniz_det(sub)
                  for drop, (_, sub) in zip(itertools.combinations(range(n + 1), 2),
                                            _deletions(line.rows))}
        plucker = hf._plucker_rows(line)
        generic = all(m != 0 for m in minors.values())
        seen.add((gaussian, generic))
        if not generic:
            assert plucker is None, rows
            continue
        signed = [[GaussianRational.of(0)] * (n + 1) for _ in range(n + 1)]
        for (i, j), minor in minors.items():
            signed[i][j] = (-1) ** (i + j) * minor
            signed[j][i] = -1 * signed[i][j]
        for i, row in enumerate(signed):
            first = row[1 if i == 0 else 0]
            assert list(plucker[i]) == [x / first for x in row], (rows, i)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def _exact_det(rows):
    """Determinant of a square matrix of exact scalars by Gaussian elimination."""
    m = [[GaussianRational.of(x) for x in row] for row in rows]
    det = GaussianRational.of(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if not m[i][c].is_zero()), None)
        if piv is None:
            return GaussianRational.of(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c]
        for row in m[c + 1:]:
            ratio = row[c] / m[c][c]
            row[c:] = [x - ratio * y for x, y in zip(row[c:], m[c][c:])]
    return det


def test_is_generic_line_matches_minor_oracle_float():
    # floating entries are read exactly, as the dyadic rationals they store,
    # so the oracle is every exact minor of those rationals; proportional
    # columns are exact multiples (by -0.5), and every verdict must survive
    # scaling C by a power of 10 as floats
    for seed in (19, 20, 21, 24):
        rng = np.random.default_rng(seed)
        verdicts = []
        for trial in range(200):
            n = int(rng.integers(2, 6))
            c = rng.normal(size=(n - 1, n + 1)) + 1j * rng.normal(size=(n - 1, n + 1))
            kind = trial % 4
            if kind == 1:
                c[:, rng.integers(n + 1)] = 0
            elif kind == 2:
                i, j = rng.choice(n + 1, size=2, replace=False)
                c[:, j] = -0.5 * c[:, i]
            elif kind == 3:
                c = rng.integers(-1, 2, size=(n - 1, n + 1)) + 0.5 * np.eye(n - 1, n + 1)
            c = c * 10.0 ** (3 * (trial % 3))
            want = all(not _exact_det(sub).is_zero() for _, sub in _deletions(c.tolist()))
            assert hf.is_generic_line(hf.LineMatrix.of(c.tolist())) == want, (seed, c)
            verdicts.append(want)
        assert 40 < sum(verdicts) < 160, seed


# an integer line whose minor on columns (0, 3, 4, 5) is exactly 0
SINGULAR_MINOR = [[1, 0, -2, -2, 0, -2], [0, -1, 2, 0, 0, 0],
                  [2, 0, 3, 0, 2, 0], [0, -2, 0, 1, 2, -2]]


def test_is_generic_line_examples():
    assert hf.is_generic_line(hf.LineMatrix.of([[1, 1, 1]]))
    assert not hf.is_generic_line(hf.LineMatrix.of([[1, 1, 0]]))
    assert not hf.is_generic_line(hf.LineMatrix.of([[1, 1, 1, 1], [0, 0, 1, 1]]))
    # read exactly, 1e-12 is a nonzero dyadic rational, so every 1 x 1
    # minor of this row is nonzero: no tolerance calls it zero
    assert hf.is_generic_line(hf.LineMatrix.of([[1.0, 1.0, 1e-12]]))
    # every multiple of a line with a zero minor describes the same line
    assert not hf.is_generic_line(hf.LineMatrix.of(SINGULAR_MINOR))
    for k in (1, 1e2, 1e3, 1e6, 1e9):
        rows = [[k * float(x) for x in row] for row in SINGULAR_MINOR]
        assert not hf.is_generic_line(hf.LineMatrix.of(rows)), k


def test_rank_deficient_line_is_not_generic():
    for rows in ([[1, 2, 3, 4], [1, 2, 3, 4]],
                 [[1.5, 2, 3, 4], [1.5, 2, 3, 4]],
                 [[1, 2, 3, 4, 5], [2, 3, 5, 7, 11], [1, 2, 3, 4, 5]]):
        line = hf.LineMatrix.of(rows)
        assert not hf.is_generic_line(line)
        with pytest.raises(PreconditionError):
            hf.intersection_points(line)


def test_hyper_fermat_genus_values():
    assert hf.hyper_fermat_genus(3, 2) == 1
    assert hf.hyper_fermat_genus(5, 2) == 6 == Fraction((5 - 1) * (5 - 2), 2)
    assert hf.hyper_fermat_genus(2, 2) == 0


def test_hyper_fermat_genus_matches_riemann_hurwitz():
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(2, 9):
            assert hf.hyper_fermat_genus(p, n) == \
                riemann_hurwitz_genus(p ** n, Signature(0, (p,) * (n + 1)))


def test_intersection_points_small_case():
    q = hf.intersection_points(hf.LineMatrix.of([[1, 1, 1]]))
    assert q[0] == [GaussianRational.of(0), GaussianRational.of(1),
                    GaussianRational.of(-1)]
    for i in range(3):
        assert q[i][i] == GaussianRational.of(0)


def test_intersection_points_properties():
    rng = random.Random(29)
    for n in (3, 4, 5):
        w = _rand_fractions(rng, n + 1)
        line = hf.vandermonde_line(w)
        q = hf.intersection_points(line)
        for i in range(n + 1):
            assert q[i][i].is_zero()
            for row in line.rows:
                total = GaussianRational.of(0)
                for c, x in zip(row, q[i]):
                    total = total + c * x
                assert total.is_zero()
            for j in range(n + 1):
                if j != i:
                    assert not q[i][j].is_zero()


def test_intersection_points_match_product_formula():
    # for power-row lines, Q_i(j) is proportional to
    # prod_{k != i, j} (w_j - w_k)^(-1)
    rng = random.Random(31)
    for n in (3, 4):
        w = _rand_fractions(rng, n + 1)
        line = hf.vandermonde_line(w)
        q = hf.intersection_points(line)
        for i in range(n + 1):
            ratios = set()
            for j in range(n + 1):
                if j == i:
                    continue
                formula = GaussianRational.of(1)
                for k in range(n + 1):
                    if k not in (i, j):
                        formula = formula / GaussianRational.of(w[j] - w[k])
                ratios.add(q[i][j] / formula)
            assert len(ratios) == 1   # proportional with one common scale


def test_branch_points_vandermonde_identity_exact():
    rng = random.Random(37)
    for n in (3, 4, 5):
        w = _rand_fractions(rng, n + 1)
        bs = hf.branch_points(hf.vandermonde_line(w), (w[0], w[1], w[2]))
        for pt, wi in zip(bs.points, w):
            assert pt.same_point(ProjPoint.finite(wi))


def test_branch_points_vandermonde_identity_float():
    # floats are read exactly, so the identity holds exactly for them too
    rng = random.Random(41)
    for n in (3, 4, 5):
        w = [float(f) for f in _rand_fractions(rng, n + 1)]
        bs = hf.branch_points(hf.vandermonde_line(w), (w[0], w[1], w[2]))
        for pt, wi in zip(bs.points, w):
            assert pt.value() == GaussianRational.of(wi)


def test_branch_points_infinite_pin_formula():
    # with pins (0, 1, inf) the parameters become -d_i c_2 / (c_i d_2 - d_i c_2)
    rng = random.Random(43)
    for n in (3, 4):
        w = _rand_fractions(rng, n + 1)
        line = hf.vandermonde_line(w)
        bs = hf.branch_points(line, (0, 1, "inf"))
        q = hf.intersection_points(line)
        c2, d2 = q[2][1] / q[0][1], q[2][0] / q[1][0]
        for i in range(3, n + 1):
            ci, di = q[i][1] / q[0][1], q[i][0] / q[1][0]
            version = (-1 * di * c2) / (ci * d2 - di * c2)
            assert bs.points[i].same_point(ProjPoint.finite(version))


def test_branch_points_u1_formula():
    # u1 = c2 (l0 - l2) / (d2 (l2 - l1)) for the reported c2, d2; with the
    # product-formula scaling of the intersection points it collapses to 1
    rng = random.Random(47)
    w = _rand_fractions(rng, 5)
    line = hf.vandermonde_line(w)
    bs = hf.branch_points(line, (w[0], w[1], w[2]))
    q = hf.intersection_points(line)
    c2, d2 = q[2][1] / q[0][1], q[2][0] / q[1][0]
    want = (c2 * GaussianRational.of(w[0] - w[2])) / \
           (d2 * GaussianRational.of(w[2] - w[1]))
    assert bs.u1.same_point(ProjPoint.finite(want))
    # the worked-example normalisation: c2 and d2 from the product formula
    c2p = GaussianRational.of((w[1] - w[2]) / (w[1] - w[0]))
    d2p = GaussianRational.of((w[0] - w[2]) / (w[0] - w[1]))
    u1p = (c2p * GaussianRational.of(w[0] - w[2])) / \
          (d2p * GaussianRational.of(w[2] - w[1]))
    assert u1p == GaussianRational.of(1)


def test_branch_points_pin_equivariance():
    rng = random.Random(53)
    for _ in range(10):
        w = _rand_fractions(rng, 5)
        line = hf.vandermonde_line(w)
        base = hf.branch_points(line, (w[0], w[1], w[2]))
        a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
        if a * d - b * c == 0:
            continue
        mob = Mobius(GaussianRational.of(a), GaussianRational.of(b),
                     GaussianRational.of(c), GaussianRational.of(d))
        moved_pins = [mob.apply(pt) for pt in base.pins]
        if len({(str(p)) for p in moved_pins}) < 3:
            continue
        moved = hf.branch_points(line, tuple(moved_pins))
        for got, orig in zip(moved.points, base.points):
            assert got.same_point(mob.apply(orig))


def _normalized_invariants(bs):
    """Images of the unpinned points after sending the pins to 0, 1, inf.

    These n - 2 values are a complete set of cross-ratio coordinates for
    the branch set: the dimension of the family.
    """
    to_std = Mobius.to_standard(*bs.pins)
    return tuple(to_std.apply(pt) for pt in bs.points[3:])


def test_normalized_invariants_dimension():
    rng = random.Random(59)
    for n in (3, 4, 5, 6):
        w = _rand_fractions(rng, n + 1)
        bs = hf.branch_points(hf.vandermonde_line(w), (w[0], w[1], w[2]))
        assert len(_normalized_invariants(bs)) == n - 2


def test_residue_identity_examples():
    assert hf.residue_identity_check([0, 1, 2], 0) == 0
    assert hf.residue_identity_check([Fraction(0), Fraction(1), Fraction(2),
                                      Fraction(3)], 1) == 0
    # negative control: s = n - 1 gives the residue at infinity, exactly 1
    assert hf.residue_identity_check([0, 1, 2, 3], 2) == 1


def test_residue_identity_random_exact():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(2, 8)
        w = _rand_fractions(rng, n + 1)
        for s in range(0, n - 1):
            assert hf.residue_identity_check(w, s) == 0
        assert hf.residue_identity_check(w, n - 1) != 0


def test_residue_identity_rational_matches_per_term_sum():
    # the common-denominator sum against one Fraction quotient per term;
    # s = n - 1 is the negative control (the residue at infinity, exactly 1)
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(2, 8)
        w = _rand_fractions(rng, n + 1, lo=-200, hi=200, maxden=rng.choice([1, 9, 60]))
        for s in range(n + 2):
            want = sum(w[j] ** s / math.prod(w[j] - w[k] for k in range(1, n + 1) if k != j)
                       for j in range(1, n + 1))
            got = hf.residue_identity_check(w, s)
            assert isinstance(got, Fraction) and got == abs(want), (w, s)
        assert hf.residue_identity_check(w, n - 1) == 1
        assert hf.residue_identity_check(w, n) == abs(sum(w[1:]))


def test_residue_identity_float():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(2, 6)
        w = [complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(n + 1)]
        for s in range(0, n - 1):
            assert hf.residue_identity_check(w, s) == 0


def _quadruple(lam):
    pts = (ProjPoint.finite(Fraction(0)), ProjPoint.finite(Fraction(1)),
           ProjPoint.infinity(), ProjPoint.finite(Fraction(lam)))
    return hf.BranchSet(pts, ProjPoint.finite(1))


def test_moduli_equivalent_cross_ratio_classes():
    # the six-element orbit of lambda = 2 is {2, 1/2, -1}
    assert hf.moduli_equivalent(_quadruple(2), _quadruple(Fraction(1, 2)))
    assert hf.moduli_equivalent(_quadruple(2), _quadruple(-1))
    assert not hf.moduli_equivalent(_quadruple(2), _quadruple(3))
    assert not hf.moduli_equivalent(_quadruple(2), _quadruple(Fraction(5, 7)))


def test_moduli_equivalent_triples_always():
    t1 = hf.branch_points(hf.vandermonde_line([0, 1, 5]), (0, 1, 5))
    t2 = hf.branch_points(hf.vandermonde_line([2, 3, 9]), (2, 3, 9))
    assert hf.moduli_equivalent(t1, t2)


def test_moduli_equivalent_properties():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.choice((3, 4))
        w = _rand_fractions(rng, n + 1)
        b1 = hf.branch_points(hf.vandermonde_line(w), (w[0], w[1], w[2]))
        assert hf.moduli_equivalent(b1, b1)
        a, b, c, d = (Fraction(rng.randint(-6, 6)) for _ in range(4))
        if a * d - b * c == 0:
            continue
        mob = Mobius(*(GaussianRational.of(x) for x in (a, b, c, d)))
        moved_pts = tuple(mob.apply(pt) for pt in b1.points)
        b2 = hf.BranchSet(moved_pts, ProjPoint.finite(1))
        assert hf.moduli_equivalent(b1, b2)
        assert hf.moduli_equivalent(b2, b1)


def test_smoothness_sampling_fermat_quintic():
    spec = hf.HyperFermatSpec(5, 2, hf.LineMatrix.of([[1, 1, 1]]))
    report = hf.sample_and_check_smoothness(spec, count=100, seed=3)
    assert report.passed
    assert report.samples == 100
    assert report.min_jacobian_rank == 1
    assert report.max_equation_residual < 1e-9
    assert report.max_minor_identity_error < 1e-9


def test_smoothness_sampling_higher_rank():
    spec = hf.HyperFermatSpec(3, 3, hf.vandermonde_line([0, 1, 2, 3]))
    report = hf.sample_and_check_smoothness(spec, count=40, seed=11)
    assert report.passed
    assert report.min_jacobian_rank == 2


def test_sampler_rejects_nonpositive_samples():
    spec = hf.HyperFermatSpec(3, 3, hf.vandermonde_line([0, 1, 2, 3]))
    for count in (-1, 0):
        with pytest.raises(PreconditionError, match="sample"):
            hf.sample_and_check_smoothness(spec, count=count)


def test_sampler_wide_scale_line():
    # the intersection coordinates span more than six orders of magnitude;
    # the per-coordinate rejection rule still finds every sample
    w = [Fraction(11, 5), Fraction(37, 5), Fraction(-12, 5), 0, Fraction(-19, 10),
         Fraction(-29, 12), Fraction(-13, 5)]
    report = hf.sample_and_check_smoothness(hf.HyperFermatSpec(7, 6, hf.vandermonde_line(w)))
    assert report.passed
    assert report.samples == 50


def test_sampler_cap_raises_before_drawing():
    spec = hf.HyperFermatSpec(5, 2, hf.vandermonde_line([0, 1, 2]))
    start = time.process_time()
    with pytest.raises(CapExceededError, match=f"above the cap {hf.SAMPLE_CAP}"):
        hf.sample_and_check_smoothness(spec, count=100_000_000)
    assert time.process_time() - start < 1.0


def test_sampler_gives_up_with_a_cap_error(monkeypatch):
    # a sampler that may take no draw must give up cleanly (CapExceededError,
    # exit 4 at the CLI), not hang or crash
    monkeypatch.setattr(hf, "SAMPLE_ATTEMPTS_PER_POINT", 0)
    spec = hf.HyperFermatSpec(5, 2, hf.vandermonde_line([0, 1, 2]))
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="samples lay clear of the branch points"):
        hf.sample_and_check_smoothness(spec)
    assert time.perf_counter() - start < 2.0


def test_jacobian_rank_drop_on_non_generic_line():
    bad = hf.LineMatrix.of([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert not hf.is_generic_line(bad)
    # the line hits x0 = x1 = 0; lifting that point onto the power cover
    # gives two zero coordinates and a rank-deficient gradient matrix
    degenerate = np.array([1, -1, 0, 0], dtype=complex)
    # the gradient of sum_j c_ij x_j^3, as the smoothness sampler builds it
    g = 3 * np.array([[complex(c) for c in row] for row in bad.rows]) * degenerate ** 2
    assert np.linalg.matrix_rank(g) < 2


def test_hyper_fermat_spec_validates():
    with pytest.raises(PreconditionError):
        hf.HyperFermatSpec(4, 2, hf.LineMatrix.of([[1, 1, 1]]))
    with pytest.raises(PreconditionError):
        hf.HyperFermatSpec(3, 2, hf.LineMatrix.of([[1, 1, 0]]))
    spec = hf.HyperFermatSpec(3, 3, hf.vandermonde_line([0, 1, 2, 3]))
    assert spec.genus == hf.hyper_fermat_genus(3, 3)


def test_exact_and_floating_points_mix():
    # a float or complex operand is read exactly, as the dyadic rational it
    # stores, so the arithmetic stays exact and no zero test has a tolerance
    assert ProjPoint.finite(Fraction(1)).same_point(ProjPoint.finite(1 + 0j))
    assert not ProjPoint.finite(Fraction(1)).same_point(ProjPoint.finite(1 + 1e-300j))
    assert ProjPoint.infinity().same_point(ProjPoint(GaussianRational.of(1e300),
                                                     GaussianRational.of(0.0)))
    assert GaussianRational.of(1.5 - 2j) == GaussianRational(Fraction(3, 2), Fraction(-2))
    # 0.1 is stored as a dyadic rational near 1/10, and read as that
    assert GaussianRational.of(0.1) == Fraction(0.1) and GaussianRational.of(0.1) != Fraction(1, 10)
    assert GaussianRational.of(1) + 0.5 == GaussianRational(Fraction(3, 2))
    # equal numbers hash alike, whatever their type
    assert len({GaussianRational.of(2), 2, 2.0, Fraction(2), 2 + 0j}) == 1
    assert hash(GaussianRational.of(1.5 - 2e300j)) == hash(1.5 - 2e300j)
    for bad in (float("nan"), float("inf"), complex(1, float("inf")), "1"):
        with pytest.raises(PreconditionError):
            GaussianRational.of(bad)


def test_branch_points_exact_line_with_complex_pins():
    # z -> iz carries the pins 1, 2, 3 to i, 2i, 3i, and so 4 to 4i
    mixed = hf.branch_points(hf.vandermonde_line([1, 2, 3, 4]), (1j, 2j, 3j))
    complex_line = hf.branch_points(hf.vandermonde_line([1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j]),
                                    (1j, 2j, 3j))
    assert mixed == complex_line
    for pt, want in zip(mixed.points, (1j, 2j, 3j, 4j)):
        assert pt.value() == GaussianRational.of(want)


def _smoothness_by_loop(spec, count, seed, tol=1e-7):
    """The sampler one draw at a time: the reference for the batched checks.

    Returns (max residual, min rank, max minor error, failure labels), the
    labels being "sample i: <check>" without the printed value.
    """
    rng = random.Random(seed)
    p, n = spec.p, spec.n
    cmat = np.array([[complex(c) for c in row] for row in spec.line.rows])
    q = hf.intersection_points(spec.line)
    q0 = np.array([complex(v) for v in q[0]])
    q1 = np.array([complex(v) for v in q[1]])
    max_res, min_rank, max_minor, labels = 0.0, n - 1, 0.0, []
    done = 0
    while done < count:
        t = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        pt = q0 + t * q1
        if np.any(np.abs(pt) < 1e-6 * (np.abs(q0) + abs(t) * np.abs(q1))):
            continue
        roots = np.array([v ** (1.0 / p) * np.exp(2j * np.pi * rng.randrange(p) / p)
                          for v in pt])
        done += 1
        res = float(np.max(np.abs(cmat @ (roots ** p)) / (np.abs(cmat) @ np.abs(pt))))
        g = p * cmat * (roots ** (p - 1))[None, :]
        svals = np.linalg.svd(g / np.max(np.abs(g), axis=0), compute_uv=False)
        rank = int(np.sum(svals > tol * svals[0]))
        keep = sorted(np.argsort(np.abs(roots))[2:])
        lhs = np.linalg.det(g[:, keep])
        rhs = p ** (n - 1) * np.prod(roots[keep] ** (p - 1)) * np.linalg.det(cmat[:, keep])
        err = float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        for bad, label in ((res > tol, "equation residual"), (rank < n - 1, "gradient rank"),
                           (err > tol, "minor identity error")):
            if bad:
                labels.append(f"sample {done}: {label}")
        max_res, min_rank, max_minor = max(max_res, res), min(min_rank, rank), max(max_minor, err)
    return max_res, min_rank, max_minor, labels


def _move_points_off_the_line(monkeypatch):
    """Shift every intersection point by (1, ..., 1); the first row of a
    Vandermonde C is all ones, so C (pt + 1) != C pt = 0 and pt + 1 is off T."""
    on_line = hf.intersection_points
    monkeypatch.setattr(hf, "intersection_points",
                        lambda line: [[x + 1 for x in q] for q in on_line(line)])


@pytest.mark.parametrize("p,w,off_line", [
    (3, [0, 1, 2, 3], False),
    (7, [Fraction(11, 5), Fraction(37, 5), Fraction(-12, 5), 0, Fraction(-19, 10),
         Fraction(-29, 12), Fraction(-13, 5)], False),
    (5, [1, -2, Fraction(1, 3), 4, Fraction(-5, 2)], True),
])
def test_batched_sampler_matches_loop_reference(monkeypatch, p, w, off_line):
    spec = hf.HyperFermatSpec(p, len(w) - 1, hf.vandermonde_line(w))
    if off_line:
        _move_points_off_the_line(monkeypatch)
    report = hf.sample_and_check_smoothness(spec, count=30, seed=5)
    max_res, min_rank, max_minor, labels = _smoothness_by_loop(spec, 30, 5)
    assert report.samples == 30
    assert report.min_jacobian_rank == min_rank
    # "sample 3: gradient rank 4 < 5" -> "sample 3: gradient rank"
    assert [f.split(":")[0] + ": " + " ".join(x for x in f.split(":")[1].split() if x.isalpha())
            for f in report.failures] == labels
    # stacked and per-sample linear algebra round differently, and on a clean
    # line both diagnostics are rounding errors themselves (about 1e-11 here)
    assert report.max_equation_residual == pytest.approx(max_res, rel=1e-6, abs=1e-9)
    assert report.max_minor_identity_error == pytest.approx(max_minor, rel=1e-6, abs=1e-9)


def _count_kernels(monkeypatch):
    calls = []
    kernel = hf._kernel
    monkeypatch.setattr(hf, "_kernel", lambda rows, ring: calls.append(rows) or kernel(rows, ring))
    hf._plucker_rows.cache_clear()
    return calls


def test_fermat_call_reduces_the_line_once(capsys, monkeypatch):
    # one kernel per line, which gives every minor of the n = 4 line,
    # although the genericity test, the branch points and the smoothness
    # certificate all ask for them
    calls = _count_kernels(monkeypatch)
    assert cli.main(["fermat", "--p", "5", "--n", "4", "--w=1/2,-3,7/3,0,5"]) == 0
    assert len(json.loads(capsys.readouterr().out)["lambdas"]) == 5
    assert len(calls) == 1
    assert hf._plucker_rows.cache_info().misses == 1


def test_floating_certificate_reuses_the_one_elimination(capsys, monkeypatch):
    # a complex line takes the same one kernel, in the Gaussian integers,
    # and its certificate is the rational line's: no floating margin is left
    calls = _count_kernels(monkeypatch)
    assert cli.main(["fermat", "--p", "5", "--n", "4", "--w=1j,-3,7/3,0,5"]) == 0
    smoothness = json.loads(capsys.readouterr().out)["smoothness"]
    assert smoothness == {"passed": True, "method": "jacobian-criterion"}
    assert len(calls) == 1 and isinstance(calls[0][0][0], tuple)
    assert hf._plucker_rows.cache_info().misses == 1
    with pytest.raises(PreconditionError, match="not generic"):
        hf.smoothness_certificate(hf.LineMatrix.of([[1, 1, 0]]))


def test_batched_checks_flag_points_off_the_line(monkeypatch):
    spec = hf.HyperFermatSpec(3, 3, hf.vandermonde_line([0, 1, 2, 3]))
    _move_points_off_the_line(monkeypatch)
    report = hf.sample_and_check_smoothness(spec, count=6, seed=2)
    assert not report.passed
    residual = [f for f in report.failures if "equation residual" in f]
    assert [f.split(":")[0] for f in residual] == [f"sample {i}" for i in range(1, 7)]
    assert report.max_equation_residual > 1e-3
    numbers = [int(f.split(":")[0].split()[1]) for f in report.failures]
    assert numbers == sorted(numbers)


def test_fermat_sweep_of_random_lines(capsys):
    # 200 n = 6 Vandermonde lines whose parameters a/b have |a| <= 40 and
    # b <= 12; some have intersection coordinates spanning more than six
    # orders of magnitude, which a rejection rule comparing coordinates of
    # different scales cannot sample
    rng = random.Random(1)
    for k in range(200):
        p = (3, 5, 7)[k % 3]
        w = []
        while len(w) < 7:
            f = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if f not in w:
                w.append(f)
        argv = ["fermat", "--p", str(p), "--n", "6", "--w=" + ",".join(map(str, w))]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        assert json.loads(out)["smoothness"]["passed"], argv
        # the sampler oracle agrees with the Jacobian certificate
        spec = hf.HyperFermatSpec(p, 6, hf.vandermonde_line(w))
        assert hf.sample_and_check_smoothness(spec).passed, argv


def test_fermat_sweep_of_wide_scale_lines(capsys):
    # 600 lines with n from 3 to 7 and parameters a/b with |a| <= 200 and
    # b <= 50; on some of them the gradient columns differ by many orders of
    # magnitude, and an unscaled rank or residual test reported false failures
    rng = random.Random(8)
    for i in range(600):
        p, n = (3, 5, 7)[i % 3], 3 + i % 5
        w = []
        while len(w) < n + 1:
            f = Fraction(rng.randint(-200, 200), rng.randint(1, 50))
            if f not in w:
                w.append(f)
        argv = ["fermat", "--p", str(p), "--n", str(n), "--w=" + ",".join(map(str, w))]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        assert json.loads(out)["smoothness"]["passed"], argv
        # the sampler oracle agrees with the Jacobian certificate
        spec = hf.HyperFermatSpec(p, n, hf.vandermonde_line(w))
        assert hf.sample_and_check_smoothness(spec).passed, argv


def _fermat(argv):
    """Exit code, stdout and stderr of one in-process eag call; a traceback raises."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _names_a_cap(err):
    return "payload cannot be printed" in err or any(f"the {cap} cap of" in err for cap in CAPS)


@st.composite
def _w_argv(draw):
    """n, and n+1 distinct complex or real --w tokens at scales from 1e-300 to
    1e300: around one scale for the whole line, or each at its own.  Token i
    has a mantissa 100 m + i, so that tokens at one scale differ."""
    n = draw(st.integers(2, 8) if draw(st.integers(0, 3)) < 3
             else st.integers(9, CAPS["ambient dimension"]))
    base = draw(st.integers(-300, 300))
    spread = draw(st.sampled_from([0, 2, 20, 600]))

    def part(i):
        exponent = max(-300, min(300, base + draw(st.integers(-spread, spread))))
        return f"{100 * draw(st.integers(-9, 9)) + i}e{exponent}"

    tokens = []
    for i in range(1, n + 2):
        re_part, im_part = part(i), part(i)
        kind = draw(st.sampled_from(["complex", "complex", "real", "imaginary"]))
        tokens.append({"complex": f"{re_part}{'' if im_part.startswith('-') else '+'}{im_part}j",
                       "real": re_part, "imaginary": f"{im_part}j"}[kind])
    assume(len({cli._parse_scalar(t) for t in tokens}) == n + 1)
    return n, tokens


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_w_argv(), st.sampled_from([3, 5, 7]))
def test_distinct_w_is_always_generic(w, p):
    # the Vandermonde theorem: n+1 distinct parameters give a generic line
    # whose branch parameters, with the default pins, are the parameters
    n, tokens = w
    code, out, err = _fermat(["fermat", "--p", str(p), "--n", str(n), "--w=" + ",".join(tokens)])
    event(f"exit {code}, n {'<= 8' if n <= 8 else '> 8'}")
    assert code in (cli.EXIT_OK, cli.EXIT_CAP), (tokens, err)
    if code == cli.EXIT_CAP:
        assert _names_a_cap(err) and out == "", err
        return
    want = [[complex(t).real, complex(t).imag] for t in tokens]
    assert json.loads(out)["lambdas"] == want, tokens


def _c_file_text(rows, row_exponents):
    """A --c-file whose row i holds the pairs of rows[i] times 10^row_exponents[i]."""
    return '{"C": [%s]}' % ", ".join(
        "[" + ", ".join(f"[{x}e{e}, {y}e{e}]" for x, y in row) + "]"
        for row, e in zip(rows, row_exponents))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(
           st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), min_size=n + 1,
                    max_size=n + 1), min_size=n - 1, max_size=n - 1)),
       st.integers(-12, 12), st.booleans(), st.data())
def test_scaling_c_or_one_row_keeps_the_verdict(tmp_path_factory, rows, k, one_row, data):
    # C and any multiple of it, or of one row of it, define the same line:
    # the same verdict and, when generic, the same branch parameters
    path = tmp_path_factory.mktemp("lines") / "line.json"
    runs = []
    row = data.draw(st.integers(0, len(rows) - 1))
    for exponents in ([0] * len(rows),
                      [k if i == row or not one_row else 0 for i in range(len(rows))]):
        path.write_text(_c_file_text(rows, exponents), encoding="utf-8")
        code, out, err = _fermat(["fermat", "--p", "3", "--n", str(len(rows) + 1),
                                  "--c-file", str(path)])
        assert code in (cli.EXIT_OK, cli.EXIT_PRECONDITION), err
        runs.append((code, json.loads(out)["lambdas"] if out else err))
    assert runs[0] == runs[1], (rows, k, one_row, row)


_DIGITS = st.text("0123456789", min_size=1, max_size=12)
_DECIMAL = st.builds(lambda sign, whole, frac, exp: f"{sign}{whole}{frac}{exp}",
                     st.sampled_from(["", "+", "-"]), _DIGITS,
                     st.one_of(st.just(""), _DIGITS.map(lambda d: "." + d)),
                     st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"),
                                                      st.sampled_from(["", "+", "-"]),
                                                      st.integers(0, 300))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_DECIMAL, _DECIMAL, st.sampled_from(["{}", "{}j", "{}J", "({}j)", "{}+{}j", "{}-{}j",
                                             "({}+{}j)", " {}-{}J ", "+j", "-j", "j", "{}+j"]))
def test_each_token_is_read_exactly_and_rounds_to_complex(a, b, shape):
    token = shape.format(a, b.lstrip("+-"))
    z = complex(token)
    assume(math.isfinite(z.real) and math.isfinite(z.imag))
    got = cli._parse_scalar(token)
    assert (float(got.re), float(got.im)) == (z.real, z.imag), token
