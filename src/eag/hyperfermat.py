"""Hyper-Fermat curves: generic lines, genus, branch parameters, moduli.

The curve is the preimage of a generic line T in projective n-space under
the coordinate-wise p-th power map.  It carries a C_p^n action with
signature (0; p^(n+1)); the branch points of the quotient are the
intersections of T with the coordinate hyperplanes, and their cross-ratio
coordinates are the moduli of the family.  The line is encoded by an
(n-1) x (n+1) matrix C with T = {X : CX = 0}.  It is generic iff every
Pluecker coordinate, a maximal minor of C, is nonzero; each minor is one
fraction-free elimination, in integers for rational input.  Floating input
keeps one floor: a minor is zero at most cx.DEFAULT_TOL times its Hadamard
bound, and that bound is floored at 1.

The curve over a generic line is smooth by the Jacobian criterion
(Gonzalez-Diez, Hidalgo and Leyton, "Generalized Fermat curves", J. Algebra
321 (2009)), so ``smoothness_certificate`` states that and computes
nothing new.  The sampler ``sample_and_check_smoothness`` draws points and
re-checks the same fact numerically; the CLI no longer calls it, and it
stays here as a test oracle.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cx import (GaussianRational, Mobius, ProjPoint, cross_det, is_exact_scalar,
                 scalar_is_zero)
from .errors import CapExceededError, PreconditionError
from .fp import is_prime

# The smoothness sampler's constants.  The sampler is a test oracle; it stays
# in this module because perfbench/tracing.py reads its time under the key
# hyperfermat.sample_and_check_smoothness.
#: draws allowed per requested smoothness sample before the sampler gives up
SAMPLE_ATTEMPTS_PER_POINT = 100
#: most smoothness samples one call draws; its memory grows with the count
SAMPLE_CAP = 10_000
#: bound on each relative smoothness error, and the gradient rank's singular-value cut
SMOOTHNESS_TOL = 1e-7


def _coerce_entries(entries):
    """Classify input scalars: all-rational data runs exactly, else complex."""
    flat = list(entries)
    if all(is_exact_scalar(x) for x in flat):
        return [GaussianRational.of(x) for x in flat], True
    return [complex(x) for x in flat], False


@dataclass(frozen=True)
class LineMatrix:
    """(n-1) x (n+1) matrix whose kernel is a line in projective n-space."""

    rows: tuple[tuple[object, ...], ...]
    exact: bool

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
        flat, exact = _coerce_entries(x for r in rows for x in r)
        it = iter(flat)
        coerced = tuple(tuple(next(it) for _ in range(width)) for _ in rows)
        return LineMatrix(coerced, exact)

    @property
    def n(self) -> int:
        return len(self.rows) + 1

    def to_json(self):
        out = []
        for row in self.rows:
            out.append([[complex(x).real, complex(x).imag] for x in row])
        return out


def vandermonde_line(w) -> LineMatrix:
    """Power rows (w_i^j, j = 0..n-2) of n+1 distinct parameters.

    Deleting any two columns leaves an invertible square Vandermonde matrix,
    so the resulting line is generic.
    """
    vals, exact = _coerce_entries(w)
    n = len(vals) - 1
    if n < 2:
        raise PreconditionError("need at least three parameters")
    for a, b in itertools.combinations(range(n + 1), 2):
        if vals[a] == vals[b]:
            raise PreconditionError(f"parameters {a} and {b} coincide")
    one = GaussianRational.of(1) if exact else complex(1)
    rows = []
    power = [one] * (n + 1)
    for _ in range(n - 1):
        rows.append(tuple(power))
        power = [power[i] * vals[i] for i in range(n + 1)]
    return LineMatrix(tuple(rows), exact)


def _det(m):
    """Determinant of a square matrix by fraction-free elimination.

    Bareiss (Math. Comp. 22 (1968) 565-578): each step divides by the
    previous pivot, and the division is exact, so integer entries stay
    integers (divided with //) and small-integer floating entries stay
    exact.  The entries are all ints, all GaussianRationals or all complex;
    exact entries pivot on the first nonzero entry of a column, complex ones
    on the entry of largest modulus.
    """
    m = [list(row) for row in m]
    div = operator.floordiv if isinstance(m[0][0], int) else operator.truediv
    floating = isinstance(m[0][0], complex)
    sign, prev = 1, 1
    for c in range(len(m)):
        rest = range(c, len(m))
        if floating:
            piv = max(rest, key=lambda i: abs(m[i][c]))
        else:
            piv = next((i for i in rest if m[i][c] != 0), c)
        if m[piv][c] == 0:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top = m[c]
        for row in m[c + 1:]:
            for j in range(c + 1, len(m)):
                row[j] = div(top[c] * row[j] - row[c] * top[j], prev)
        prev = top[c]
    return sign * prev


@lru_cache(maxsize=8)
def _plucker_rows(line: LineMatrix):
    """The points Q_i where T meets {x_i = 0} and the line's least relative
    minor, or None if T is not generic.

    Q_i spans the kernel of C without column i, so by Cramer's rule Q_i(j)
    is, up to the sign of j's place among the other columns, the minor of C
    with columns i and j deleted: the Pluecker coordinate p_ij of T.  An
    exact real line first has each row multiplied by the lcm of its
    denominators, which scales every minor alike, so its minors are
    integers.  Exact input is generic iff every minor is nonzero.  Floating
    input counts a minor as zero when its modulus is at most cx.DEFAULT_TOL
    times the larger of 1 and its Hadamard bound (the product of C's row
    norms over the kept columns); that floor at 1 makes the verdict depend
    on the scale of C.  A minor or bound beyond the floating-point range
    raises PreconditionError.

    The result is the pair (rows, least), rows a tuple of tuples so that no
    caller can change the cached rows, and least the smallest
    |minor| / Hadamard bound over the minors of a floating line (None for
    an exact one).  The genericity test, the branch points and the
    smoothness certificate all ask for the same line, so it is cached per
    line.
    """
    n, rows = line.n, line.rows
    if line.exact and not any(x.im for row in rows for x in row):
        cleared = []
        for row in rows:
            lcm = math.lcm(*(x.re.denominator for x in row))
            cleared.append([int(x.re * lcm) for x in row])
        rows = cleared
    scalar = GaussianRational.of if line.exact else complex
    q = [[scalar(0)] * (n + 1) for _ in range(n + 1)]
    least = math.inf
    for i, j in itertools.combinations(range(n + 1), 2):
        keep = [k for k in range(n + 1) if k not in (i, j)]
        minor = _det([[row[k] for k in keep] for row in rows])
        scale = 1.0
        if not line.exact:
            for row in rows:
                norm = math.hypot(*(t for k in keep for t in (row[k].real, row[k].imag)))
                scale *= max(norm, 1e-300)
            if not (math.isfinite(scale) and cmath.isfinite(minor)):
                raise PreconditionError(
                    f"a minor of C or its Hadamard bound leaves the floating-point "
                    f"range (moduli up to {sys.float_info.max:.3g}); rescale the rows of C")
        if scalar_is_zero(minor, scale):
            return None
        if not line.exact:
            least = min(least, abs(minor) / scale)
        q[i][j] = scalar((-1) ** (j - 1) * minor)
        q[j][i] = scalar((-1) ** i * minor)
    return tuple(map(tuple, q)), None if line.exact else least


def is_generic_line(line: LineMatrix) -> bool:
    """True iff every two-column deletion of C leaves an invertible matrix.

    Equivalently, the line misses all pairwise intersections of coordinate
    hyperplanes and lies in none of them: every Pluecker coordinate of T is
    nonzero.
    """
    return _plucker_rows(line) is not None


def smoothness_certificate(line: LineMatrix) -> dict:
    """Why the hyper-Fermat curve over a generic line is smooth.

    The curve is {sum_j c_ij x_j^p = 0}, whose gradient matrix at x is
    C diag(p x_j^(p-1)).  Generic means every n-1 columns of C are
    independent, so the gradient can drop below rank n-1 only where at
    least three coordinates vanish; the at most n-2 others, y_j = x_j^p,
    then solve C y = 0 on independent columns, so y = 0 and x is no point.  By
    the Jacobian criterion the curve is smooth (Gonzalez-Diez, Hidalgo and
    Leyton, J. Algebra 321 (2009)).  A floating line also reports its least
    |minor| / Hadamard bound, read off the one elimination of its minors,
    so that a user sees how close the line came to the genericity floor.
    """
    plucker = _plucker_rows(line)
    if plucker is None:
        raise PreconditionError("line is not generic")
    cert = {"passed": True, "method": "jacobian-criterion"}
    if not line.exact:
        cert["least_relative_minor"] = plucker[1]
    return cert


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
    by setting the first nonzero coordinate to 1.
    """
    plucker = _plucker_rows(line)
    if plucker is None:
        raise PreconditionError("line is not generic")
    out = []
    for i, row in enumerate(plucker[0]):
        inv = 1 / row[1 if i == 0 else 0]
        out.append([x * inv for x in row])
    return out


def as_proj_point(x) -> ProjPoint:
    """Coerce a scalar or the string 'inf' onto the projective line."""
    if isinstance(x, ProjPoint):
        return x
    if isinstance(x, str) and x.strip() in ("inf", "oo", "infinity"):
        return ProjPoint.infinity()
    return ProjPoint.finite(x)


@dataclass(frozen=True)
class BranchSet:
    """The n+1 branch parameters of the quotient map, the first three being
    the pins, and the u_1 of the closed formula in ``branch_points``."""

    points: tuple[ProjPoint, ...]
    u1: ProjPoint

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

    The source triple (inf, 0, c_2 : d_2) is exact, so the result is exact
    when the line and the pins are, and floating complex otherwise.
    """
    if len(pins) != 3:
        raise PreconditionError("exactly three pin values are required")
    pin_pts = tuple(as_proj_point(x) for x in pins)
    for a, b in itertools.combinations(pin_pts, 2):
        if a.same_point(b):
            raise PreconditionError("pin values must be pairwise distinct")
    q = intersection_points(line)
    c2 = q[2][1] / q[0][1]
    d2 = q[2][0] / q[1][0]
    src = (ProjPoint.infinity(), ProjPoint.finite(0), ProjPoint(c2, d2))
    mob = Mobius.through(src, pin_pts)
    pts = list(pin_pts)
    for i in range(3, line.n + 1):
        pts.append(mob.apply(ProjPoint(q[1][i], -1 * q[0][i])))
    for a, b in itertools.combinations(pts, 2):
        if a.same_point(b):
            raise PreconditionError("branch parameters collide; data is degenerate")
    p0, p1, p2 = pin_pts
    u1 = ProjPoint(c2 * cross_det(p0, p2) * p1.den,
                   d2 * cross_det(p2, p1) * p0.den)
    return BranchSet(tuple(pts), u1)


def residue_identity_check(w, s: int):
    """Magnitude of sum_{j>=1} w_j^s / prod_{k>=1, k!=j} (w_j - w_k).

    The sum of residues of z^s / prod (z - w_k) vanishes for s <= n - 2; at
    s = n - 1 it is generically 1 (the residue at infinity), which callers
    use as a negative control.  Exact inputs give an exact magnitude.

    Real rational w are scaled once to integers a_j = D w_j, D the lcm of
    their denominators; term j is then D^(n-1-s) a_j^s / prod_k (a_j - a_k),
    and the n integer ratios are summed over one running denominator.
    """
    vals, exact = _coerce_entries(w)
    n = len(vals) - 1
    if s < 0:
        raise PreconditionError("s must be >= 0")
    if exact and not any(v.im for v in vals):
        scale = math.lcm(*(v.re.denominator for v in vals[1:]))
        a = [int(v.re * scale) for v in vals[1:]]
        num, den = 0, 1
        for j, aj in enumerate(a):
            d = math.prod(aj - ak for k, ak in enumerate(a) if k != j)
            num, den = num * d + aj ** s * den, den * d
        return abs(Fraction(num, den) * Fraction(scale) ** (n - 1 - s))
    total = GaussianRational.of(0) if exact else complex(0)
    for j in range(1, n + 1):
        term = vals[j] ** s
        for k in range(1, n + 1):
            if k != j:
                term = term / (vals[j] - vals[k])
        total = total + term
    if exact:
        return total.magnitude_l1()
    return abs(total)


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


@dataclass(frozen=True)
class HyperFermatSpec:
    """A hyper-Fermat curve: prime degree, rank, and a generic line."""

    p: int
    n: int
    line: LineMatrix

    def __post_init__(self):
        if not is_prime(self.p):
            raise PreconditionError(f"{self.p} is not prime")
        if self.n < 2:
            raise PreconditionError("n must be >= 2")
        if self.line.n != self.n:
            raise PreconditionError(
                f"line matrix is for ambient dimension {self.line.n}, not {self.n}")
        if not is_generic_line(self.line):
            raise PreconditionError(
                "line is not generic (some two-column deletion of C is singular)")

    @property
    def genus(self) -> Fraction:
        return hyper_fermat_genus(self.p, self.n)


@dataclass(frozen=True)
class SmoothnessReport:
    p: int
    n: int
    samples: int
    max_equation_residual: float
    min_jacobian_rank: int
    max_minor_identity_error: float
    failures: tuple[str, ...]
    seed: int

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
