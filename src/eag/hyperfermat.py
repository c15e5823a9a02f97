"""Hyper-Fermat curves: generic lines, genus, branch parameters, moduli.

The curve is the preimage of a generic line T in projective n-space under
the coordinate-wise p-th power map.  It carries a C_p^n action with
signature (0; p^(n+1)); the branch points of the quotient are the
intersections of T with the coordinate hyperplanes, and their cross-ratio
coordinates are the moduli of the family.  The line is encoded by an
(n-1) x (n+1) matrix C with T = {X : CX = 0}.  It is generic iff every
Pluecker coordinate, a maximal minor of C, is nonzero.  Every scalar is
exact, and all the Pluecker coordinates come from one kernel basis of C,
found by one fraction-free elimination in the integers or the Gaussian
integers, so every zero test is exact.  A LineMatrix keeps that kernel's
integer data on itself once computed; the branch parameters are computed
from it on integer projective pairs, each reduced once, and Gaussian
rationals are built only for what the functions return.

The curve over a generic line is smooth by the Jacobian criterion
(Gonzalez-Diez, Hidalgo and Leyton, "Generalized Fermat curves", J. Algebra
321 (2009)), so ``smoothness_certificate`` states that and computes
nothing new.  The sampler ``sample_and_check_smoothness`` draws points and
re-checks the same fact numerically; the CLI no longer calls it, and it
stays here as a test oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .cx import ONE, GaussianRational, Mobius, ProjPoint, cross_det
from .errors import CapExceededError, PreconditionError, require_within
from .fp import is_prime
from .record import Record

# The smoothness sampler's constants.  The sampler is a test oracle; it stays
# in this module because perfbench/tracing.py reads its time under the key
# hyperfermat.sample_and_check_smoothness.
#: draws allowed per requested smoothness sample before the sampler gives up
SAMPLE_ATTEMPTS_PER_POINT = 100
#: most smoothness samples one call draws; its memory grows with the count
SAMPLE_CAP = 10_000
#: bound on each relative smoothness error, and the gradient rank's singular-value cut
SMOOTHNESS_TOL = 1e-7


class LineMatrix(Record):
    """(n-1) x (n+1) matrix of Gaussian rationals whose kernel is a line in
    projective n-space."""

    _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[GaussianRational, ...], ...]):
        vars(self).update(rows=rows)

    @staticmethod
    def of(rows) -> "LineMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise PreconditionError("line matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise PreconditionError("line matrix rows have unequal length")
        if width != len(rows) + 2:
            raise PreconditionError(
                f"line matrix must be (n-1) x (n+1); got {len(rows)} x {width}")
        return LineMatrix(tuple(tuple(map(GaussianRational.of, r)) for r in rows))

    @property
    def n(self) -> int:
        return len(self.rows) + 1

    @functools.cached_property
    def _plucker(self):
        """(real, s, q): whether C is real, its column scales s_k and the rows q_i
        of one kernel, or None if T is not generic.  Computed on first use and
        kept in the instance's ``__dict__``, outside ``_fields``, as
        HyperFermatSpec keeps its genus: the genericity test, the branch
        parameters and the smoothness certificate share it, and nothing hashes
        the line to find it.

        For a kernel basis u, v of C, Q_i = v_i u - u_i v: it lies on T, and its
        i-th coordinate is 0.  For i < j its j-th coordinate u_j v_i - u_i v_j
        is, up to one factor common to all i and j and the sign (-1)^(i+j), the
        minor of C with columns i and j deleted: the Pluecker coordinate p_ij of
        T; and Q_j(i) = -Q_i(j).  So T is generic iff the n-1 columns that the
        elimination pivots on, whose minor is one p_ij, are independent and every
        u_i v_j - u_j v_i is nonzero.

        Each column k of C is first multiplied by the lcm s_k of its
        denominators, and each row divided by the gcd of its entries, so the
        kernel, in the integers for a real line and in the Gaussian integers
        (as (re, im) pairs) otherwise, is that of C up to the factor s_k of
        coordinate k: Q_i(j) is q_ij s_j up to a factor of row i.  Scaling
        columns keeps a Vandermonde line small: its column w_k^j takes the
        denominator of w_k alone.
        """
        real = not any(x.im for row in self.rows for x in row)
        scale = [math.lcm(*(d for x in column for d in (x.re.denominator, x.im.denominator)))
                 for column in zip(*self.rows)]
        parts = []
        for row in self.rows:
            pairs = [(x.re.numerator * (c // x.re.denominator),
                      x.im.numerator * (c // x.im.denominator)) for x, c in zip(row, scale)]
            g = math.gcd(*(t for pair in pairs for t in pair)) or 1
            parts.append([(re // g, im // g) for re, im in pairs])
        # the elimination multiplies out its first n-1 columns and only carries the
        # last two along, so the two columns of the longest entries go last
        bits = [max(abs(t).bit_length() for row in parts for t in row[k]) + 1
                for k in range(self.n + 1)]
        order = sorted(range(self.n + 1), key=bits.__getitem__)
        # each number it builds is a minor of those n-1 columns, one perhaps swapped
        # for a later one; by Hadamard's inequality on columns, a column of moduli
        # below 2^b adds at most b log10(2) + log10(n-1) / 2 digits
        require_within("digits", int((sum(bits) - bits[order[-2]]) * math.log10(2)
                                     + (self.n - 1) * math.log10(self.n - 1) / 2) + 1,
                       "the digits that the minors of C may have")
        ring = _INTEGERS if real else _GAUSSIAN_INTEGERS
        cross, zero, one = ring
        kernel = _kernel([[row[k][0] if real else row[k] for k in order] for row in parts], ring)
        if kernel is None:
            return None
        u, v = ([vec[order.index(k)] for k in range(self.n + 1)] for vec in kernel)
        q = [[cross(v[i], u[j], u[i], v[j], one) for j in range(self.n + 1)]
             for i in range(self.n + 1)]
        if any(q[i][j] == zero for i, j in itertools.combinations(range(self.n + 1), 2)):
            return None
        return real, scale, q


def vandermonde_line(w) -> LineMatrix:
    """Power rows (w_i^j, j = 0..n-2) of n+1 distinct parameters.

    Deleting any two columns leaves an invertible square Vandermonde matrix,
    so the resulting line is generic.
    """
    vals = [GaussianRational.of(x) for x in w]
    n = len(vals) - 1
    if n < 2:
        raise PreconditionError("need at least three parameters")
    for a, b in itertools.combinations(range(n + 1), 2):
        if vals[a] == vals[b]:
            raise PreconditionError(f"parameters {a} and {b} coincide")
    rows = []
    power = [GaussianRational.of(1)] * (n + 1)
    for _ in range(n - 1):
        rows.append(tuple(power))
        power = [power[i] * vals[i] for i in range(n + 1)]
    return LineMatrix(tuple(rows))


def _integer_cross(a, b, c, d, e):
    """(ab - cd) / e for integers, the division exact."""
    return (a * b - c * d) // e


def _gaussian_cross(a, b, c, d, e):
    """(ab - cd) / e for Gaussian integers as (re, im) pairs, the division exact."""
    re = a[0] * b[0] - a[1] * b[1] - c[0] * d[0] + c[1] * d[1]
    im = a[0] * b[1] + a[1] * b[0] - c[0] * d[1] - c[1] * d[0]
    norm = e[0] * e[0] + e[1] * e[1]
    return (re * e[0] + im * e[1]) // norm, (im * e[0] - re * e[1]) // norm


#: (cross, zero, one) of the integers and of the Gaussian integers
_INTEGERS = (_integer_cross, 0, 1)
_GAUSSIAN_INTEGERS = (_gaussian_cross, (0, 0), (1, 0))


def _kernel(rows, ring):
    """A basis u, v of the kernel of an (n-1) x (n+1) matrix over ``ring``,
    or None when its leading n-1 columns are singular.

    One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22
    (1968) 565-578): each step divides by the previous pivot, and the
    division is exact, so the entries stay in the ring.  Only the columns
    right of the pivot are kept up to date.  The rows end as [d I | X], d
    the last pivot, so u = (X_0, -d, 0) and v = (X_1, 0, -d).
    """
    cross, zero, one = ring
    m = [list(row) for row in rows]
    k = len(m)
    prev = one
    for c in range(k):
        piv = next((i for i in range(c, k) if m[i][c] != zero), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        top = m[c]
        for row in m:
            if row is not top:
                for j in range(c + 1, k + 2):
                    row[j] = cross(top[c], row[j], row[c], top[j], prev)
        prev = top[c]
    minus_d = cross(zero, zero, prev, one, one)
    return ([row[k] for row in m] + [minus_d, zero],
            [row[k + 1] for row in m] + [zero, minus_d])


def _ratio(x, y, real: bool, a: int = 1, b: int = 1) -> GaussianRational:
    """xa / (yb) for integers a and b, and x and y integers, or Gaussian
    integers as (re, im) pairs."""
    if real:
        return GaussianRational(Fraction(x * a, y * b))
    norm = (y[0] * y[0] + y[1] * y[1]) * b
    return GaussianRational(Fraction((x[0] * y[0] + x[1] * y[1]) * a, norm),
                            Fraction((x[1] * y[0] - x[0] * y[1]) * a, norm))


def is_generic_line(line: LineMatrix) -> bool:
    """True iff every two-column deletion of C leaves an invertible matrix.

    Equivalently, the line misses all pairwise intersections of coordinate
    hyperplanes and lies in none of them: every Pluecker coordinate of T is
    nonzero.
    """
    return line._plucker is not None


def smoothness_certificate(line: LineMatrix) -> dict:
    """Why the hyper-Fermat curve over a generic line is smooth.

    The curve is {sum_j c_ij x_j^p = 0}, whose gradient matrix at x is
    C diag(p x_j^(p-1)).  Generic means every n-1 columns of C are
    independent, so the gradient can drop below rank n-1 only where at
    least three coordinates vanish; the at most n-2 others, y_j = x_j^p,
    then solve C y = 0 on independent columns, so y = 0 and x is no point.  By
    the Jacobian criterion the curve is smooth (Gonzalez-Diez, Hidalgo and
    Leyton, J. Algebra 321 (2009)).
    """
    if line._plucker is None:
        raise PreconditionError("line is not generic")
    return {"passed": True, "method": "jacobian-criterion"}


def hyper_fermat_genus(p: int, n: int) -> Fraction:
    """Genus of the degree-p^n cover of a generic line branched at n+1 points.

    Computed from the Riemann-Hurwitz relation
    2(sigma - 1) / p^n = -2 + (n+1)(1 - 1/p), i.e.
    sigma = 1 + p^(n-1) ((n-1) p - (n+1)) / 2.  (A frequently quoted variant
    with "+ (n+1)" instead of "- (n+1)" fails its own consistency checks:
    this form gives 1 for (p, n) = (3, 2) and 6 = (5-1)(5-2)/2 for (5, 2).)
    """
    if n < 2:
        raise PreconditionError("n must be >= 2")
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    return 1 + Fraction(p ** (n - 1) * ((n - 1) * p - (n + 1)), 2)


def intersection_points(line: LineMatrix) -> list[list]:
    """For each i, the point Q_i spanning T meet {x_i = 0}.

    Q_i(j) is, up to sign, the minor of C without columns i and j;
    genericity keeps every coordinate but the i-th nonzero.  Scale is fixed
    by setting the first nonzero coordinate to 1.  The Gaussian rationals are
    built here, from the integer rows that the line keeps.
    """
    data = line._plucker
    if data is None:
        raise PreconditionError("line is not generic")
    real, scale, q = data
    first = [1] + [0] * line.n
    return [[_ratio(x, row[first[i]], real, scale[j], scale[first[i]]) for j, x in enumerate(row)]
            for i, row in enumerate(q)]


def as_proj_point(x) -> ProjPoint:
    """Coerce a scalar or the string 'inf' onto the projective line."""
    if isinstance(x, ProjPoint):
        return x
    if isinstance(x, str) and x.strip().lower() in ("inf", "oo", "infinity"):
        return ProjPoint.infinity()
    return ProjPoint.finite(x)


class BranchSet(Record):
    """The n+1 branch parameters of the quotient map, the first three being
    the pins, and the u_1 of the closed formula in ``branch_points``."""

    _fields = ("points", "u1")

    def __init__(self, points: tuple[ProjPoint, ...], u1: ProjPoint):
        vars(self).update(points=points, u1=u1)

    @property
    def pins(self) -> tuple[ProjPoint, ...]:
        return self.points[:3]


def branch_points(line: LineMatrix, pins) -> BranchSet:
    """Branch parameters lambda_i with the first three pinned as requested.

    Writing Q_2 = c_2 Q_0 + d_2 Q_1, the parameterisation sending Q_0, Q_1,
    Q_2 to the pins carries (Q_1(i) : -Q_0(i)) to lambda_i; with finite pins
    this is exactly
    lambda_i = (lambda_1 u_1 Q_0(i) - lambda_0 Q_1(i)) / (u_1 Q_0(i) - Q_1(i))
    with u_1 = c_2 (lambda_0 - lambda_2) / (d_2 (lambda_2 - lambda_1)); pins
    at infinity are the projective limits of the same formula.

    The map runs on integer projective pairs.  Q_i(j) is q_ij s_j up to a
    factor of row i (``LineMatrix._plucker``), and Q_0, Q_1 are scaled to
    Q_0(1) = Q_1(0) = 1, so (c_2 : d_2) is (q_21 s_1 : q_20 s_0) and
    (Q_1(i) : -Q_0(i)) is (q_1i q_01 s_1 : -q_0i q_10 s_0); a real pin
    enters as (numerator : denominator), and infinity as (1 : 0); the
    Gaussian integers of a complex line or pin enter as Gaussian rationals
    with integer parts.  Each parameter, and u_1, is then reduced once to
    (lambda : 1) or (1 : 0), so two parameters collide iff they are equal.
    Every scalar is exact, and so is the result.
    """
    if len(pins) != 3:
        raise PreconditionError("exactly three pin values are required")
    pin_pts = tuple(map(_integer_pair, pins))
    for a, b in itertools.combinations(pin_pts, 2):
        if a.same_point(b):
            raise PreconditionError("pin values must be pairwise distinct")
    data = line._plucker
    if data is None:
        raise PreconditionError("line is not generic")
    real, s, q = data

    def scalar(x, y, k):  # xyk for ring elements x, y and an integer k
        if real:
            return x * y * k
        return GaussianRational(Fraction((x[0] * y[0] - x[1] * y[1]) * k),
                                Fraction((x[0] * y[1] + x[1] * y[0]) * k))

    one = 1 if real else (1, 0)
    c2, d2 = scalar(q[2][1], one, s[1]), scalar(q[2][0], one, s[0])
    mob = Mobius.through((ProjPoint(1, 0), ProjPoint(0, 1), ProjPoint(c2, d2)), pin_pts)
    pts = [_canonical(pt) for pt in pin_pts]
    pts += [_canonical(mob.apply(ProjPoint(scalar(q[1][i], q[0][1], s[1]),
                                           scalar(q[0][i], q[1][0], -s[0]))))
            for i in range(3, line.n + 1)]
    if len(set(pts)) < len(pts):
        raise PreconditionError("branch parameters collide; data is degenerate")
    p0, p1, p2 = pin_pts
    u1 = ProjPoint(c2 * cross_det(p0, p2) * p1.den, d2 * cross_det(p2, p1) * p0.den)
    return BranchSet(tuple(pts), _canonical(u1))


def _integer_pair(x) -> ProjPoint:
    """A pin as a projective pair over the integers: (numerator : denominator)
    for a real point, (1 : 0) at infinity, and Gaussian rationals with integer
    parts for a complex point."""
    pt = as_proj_point(x)
    parts = (pt.num.re, pt.num.im, pt.den.re, pt.den.im)
    scale = math.lcm(*(t.denominator for t in parts))
    a, b, c, d = (t.numerator * (scale // t.denominator) for t in parts)
    if b or d:
        return ProjPoint(GaussianRational(Fraction(a), Fraction(b)),
                         GaussianRational(Fraction(c), Fraction(d)))
    return ProjPoint(a, c)


def _canonical(pt: ProjPoint) -> ProjPoint:
    """The same point as (lambda : 1), lambda a Gaussian rational, or as (1 : 0)."""
    return ProjPoint.infinity() if pt.is_infinity() else ProjPoint(pt.value(), ONE)


def residue_identity_check(w, s: int):
    """Magnitude of sum_{j>=1} w_j^s / prod_{k>=1, k!=j} (w_j - w_k).

    The sum of residues of z^s / prod (z - w_k) vanishes for s <= n - 2; at
    s = n - 1 it is generically 1 (the residue at infinity), which callers
    use as a negative control.  The magnitude is exact: the absolute value for
    real w, and |re| + |im| otherwise.

    The w_j are scaled once to integers, or Gaussian integers, a_j = D w_j,
    D the lcm of their denominators; the sum is then D^(n-1-s) times
    sum_j a_j^s (Delta / P_j) / Delta, with P_j = prod_{k != j} (a_j - a_k)
    and Delta the product of all a_j - a_k, j < k, which each P_j divides.
    """
    vals = [GaussianRational.of(x) for x in w]
    n = len(vals) - 1
    if s < 0:
        raise PreconditionError("s must be >= 0")
    real = not any(v.im for v in vals)
    scale = math.lcm(*(d for v in vals[1:] for d in (v.re.denominator, v.im.denominator)))
    a = tuple(v.re.numerator * (scale // v.re.denominator) if real
              else (v.re.numerator * (scale // v.re.denominator),
                    v.im.numerator * (scale // v.im.denominator))
              for v in vals[1:])
    cross, zero, one = _INTEGERS if real else _GAUSSIAN_INTEGERS
    delta, quotients = _residue_denominators(a, real)
    num = zero
    for aj, quotient in zip(a, quotients):
        power = one
        for _ in range(s):
            power = cross(power, aj, zero, zero, one)
        num = cross(num, one, power, quotient, one)  # the sum's negative, of the same magnitude
    return (_ratio(num, delta, real) * Fraction(scale) ** (n - 1 - s)).magnitude_l1()


@functools.lru_cache(maxsize=8)
def _residue_denominators(a: tuple, real: bool):
    """Delta and the exact quotients Delta / P_j, which every s of one w shares."""
    cross, zero, one = _INTEGERS if real else _GAUSSIAN_INTEGERS
    diff = {(j, k): cross(aj, one, ak, one, one) for j, aj in enumerate(a) for k, ak in enumerate(a)}

    def prod(pairs):
        return functools.reduce(lambda x, y: cross(x, y, zero, zero, one),
                                (diff[pair] for pair in pairs), one)

    delta = prod(itertools.combinations(range(len(a)), 2))
    return delta, [cross(delta, one, zero, zero, prod((j, k) for k in range(len(a)) if k != j))
                   for j in range(len(a))]


def moduli_equivalent(b1: BranchSet, b2: BranchSet) -> bool:
    """Whether some fractional linear map carries one branch set onto the other.

    Pins three points of the first set to every ordered triple of the second
    and compares images as sets; n = 2 (three points each) is always
    equivalent, reflecting the zero-dimensional moduli there.
    """
    n = len(b2.points)
    if len(b1.points) != n:
        return False
    for triple in itertools.permutations(range(n), 3):
        try:
            mob = Mobius.through(b1.pins, tuple(b2.points[i] for i in triple))
        except PreconditionError:
            continue
        images = [mob.apply(pt) for pt in b1.points]
        used = [False] * n
        ok = True
        for img in images:
            hit = next((j for j in range(n)
                        if not used[j] and img.same_point(b2.points[j])), None)
            if hit is None:
                ok = False
                break
            used[hit] = True
        if ok:
            return True
    return False


class HyperFermatSpec(Record):
    """A hyper-Fermat curve: prime degree, rank, and a generic line."""

    _fields = ("p", "n", "line")  # and the genus, derived: equality, hash and repr leave it out

    def __init__(self, p: int, n: int, line: LineMatrix):
        # the genus checks n and p: one primality test per spec
        genus = hyper_fermat_genus(p, n)
        if line.n != n:
            raise PreconditionError(f"line matrix is for ambient dimension {line.n}, not {n}")
        if not is_generic_line(line):
            raise PreconditionError(
                "line is not generic (some two-column deletion of C is singular)")
        vars(self).update(p=p, n=n, line=line, genus=genus)


class SmoothnessReport(Record):
    _fields = ("p", "n", "samples", "max_equation_residual", "min_jacobian_rank",
               "max_minor_identity_error", "failures", "seed")

    def __init__(self, p: int, n: int, samples: int, max_equation_residual: float,
                 min_jacobian_rank: int, max_minor_identity_error: float,
                 failures: tuple[str, ...], seed: int):
        vars(self).update(p=p, n=n, samples=samples, max_equation_residual=max_equation_residual,
                          min_jacobian_rank=min_jacobian_rank,
                          max_minor_identity_error=max_minor_identity_error,
                          failures=failures, seed=seed)

    @property
    def passed(self) -> bool:
        return not self.failures


def sample_and_check_smoothness(spec: HyperFermatSpec, count: int = 50,
                                seed: int = 0) -> SmoothnessReport:
    """Sample the curve through p-th root lifts and test the smoothness data.

    Each sample point X satisfies the defining equations by construction;
    the checks are that the residuals stay at rounding scale, that the
    gradient matrix has full rank n - 1, and that its two-column-deleted
    minors factor as p^(n-1) (prod x_j^(p-1)) det(C'').  Each equation's
    residual is relative to its row scale sum_j |c_ij| |pt_j|, and the rank
    is counted with every gradient column divided by its largest entry, so
    neither check depends on the scale of a coordinate.

    A draw is the point pt = Q_0 + t Q_1 of T for a standard complex normal
    t.  It is rejected, as too close to a branch point for a clean lift,
    when some coordinate has |pt_j| < 1e-6 (|Q_0(j)| + |t| |Q_1(j)|); the
    rule is per coordinate, so rescaling a coordinate of the line does not
    change it.  The draws and the choice of p-th root per coordinate run in
    Python, in the order the seed fixes; the lifts, residuals, gradient
    ranks (one stacked SVD) and minor identities (two stacked
    determinants) are then computed for all samples at once, and the
    failures are listed in sample order.
    """
    if count < 1:
        raise PreconditionError(f"smoothness sampling needs at least one sample, not {count}")
    if count > SAMPLE_CAP:
        raise CapExceededError(f"{count} smoothness samples requested, above the cap {SAMPLE_CAP}")
    import random

    import numpy as np
    rng = random.Random(seed)
    p, n = spec.p, spec.n
    cmat = np.array([[complex(c) for c in row] for row in spec.line.rows])
    q = intersection_points(spec.line)
    q0 = [complex(v) for v in q[0]]
    q1 = [complex(v) for v in q[1]]
    a0 = [abs(v) for v in q0]
    a1 = [abs(v) for v in q1]
    pts = []
    branches = []
    draws = 0
    while len(pts) < count:
        if draws == SAMPLE_ATTEMPTS_PER_POINT * count:
            raise CapExceededError(
                f"only {len(pts)} of {count} samples lay clear of the branch points"
                f" in {draws} draws")
        draws += 1
        t = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        at = abs(t)
        pt = [u + t * v for u, v in zip(q0, q1)]
        if any(abs(x) < 1e-6 * (u + at * v) for x, u, v in zip(pt, a0, a1)):
            continue  # too close to a branch point for a clean lift
        pts.append(pt)
        branches.append([rng.randrange(p) for _ in pt])
    pts = np.array(pts)
    roots = pts ** (1.0 / p) * np.exp(2j * np.pi * np.array(branches) / p)
    row_scale = np.abs(pts) @ np.abs(cmat).T
    res = np.max(np.abs((roots ** p) @ cmat.T) / np.maximum(row_scale, 1e-300), axis=1)
    g = p * cmat[None, :, :] * (roots ** (p - 1))[:, None, :]
    col_scale = np.max(np.abs(g), axis=1, keepdims=True)
    svals = np.linalg.svd(g / np.maximum(col_scale, 1e-300), compute_uv=False)
    ranks = np.sum(svals > SMOOTHNESS_TOL * svals[:, :1], axis=1)
    keep = np.sort(np.argsort(np.abs(roots), axis=1)[:, 2:], axis=1)
    lhs = np.linalg.det(np.take_along_axis(g, keep[:, None, :], axis=2))
    kept_roots = np.take_along_axis(roots, keep, axis=1)
    rhs = (p ** (n - 1) * np.prod(kept_roots ** (p - 1), axis=1)
           * np.linalg.det(cmat[:, keep].transpose(1, 0, 2)))
    errs = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    failures = []
    for i in range(count):
        if res[i] > SMOOTHNESS_TOL:
            failures.append(f"sample {i + 1}: equation residual {res[i]:.3e}")
        if ranks[i] < n - 1:
            failures.append(f"sample {i + 1}: gradient rank {ranks[i]} < {n - 1}")
        if errs[i] > SMOOTHNESS_TOL:
            failures.append(f"sample {i + 1}: minor identity error {errs[i]:.3e}")
    return SmoothnessReport(p, n, count, max(0.0, *res.tolist()),
                            min(n - 1, *ranks.tolist()),
                            max(0.0, *errs.tolist()), tuple(failures), seed)
