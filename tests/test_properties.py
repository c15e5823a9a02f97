"""Property tests for the structural invariants."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from eag import fp, grouptable as gt
from eag.cx import GaussianRational, Mobius, ProjPoint, cross_det
from eag.genvec import GeneratingVector, multiset_character, validate
from eag.surfaces import EAActionSpec, Signature, ea_genus, riemann_hurwitz_genus

primes = st.sampled_from((2, 3, 5))


@st.composite
def fp_matrices(draw):
    p = draw(primes)
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                            max_size=rows * cols))
    return p, np.array(entries).reshape(rows, cols)


@given(fp_matrices(), st.integers(0, 10**6))
def test_rank_invariants(pm, seed):
    p, m = pm
    rng = random.Random(seed)
    rk = fp.vector_span_rank(m, p)
    assert 0 <= rk <= min(m.shape)
    rows = list(m)
    rng.shuffle(rows)
    assert fp.vector_span_rank(rows, p) == rk


@given(primes, st.integers(0, 3), st.integers(0, 3), st.integers(0, 8))
def test_genus_formulas_agree(p, n, rho, r):
    spec = EAActionSpec(p, n, rho, r)
    assert ea_genus(spec) == riemann_hurwitz_genus(p ** n, spec.sig)


def _zero_sum_vector(p, n, r, raw):
    entries = []
    it = iter(raw)
    for _ in range(r - 1):
        v = np.array([next(it) for _ in range(n)])
        if not v.any():
            v[0] = 1
        entries.append(v)
    total = sum(entries) % p
    if not total.any():
        entries[-1][0] += 1
        total[0] += 1
    entries.append(-total)
    return GeneratingVector(p, n, hyperbolic=(), elliptic=entries)


@given(primes, st.integers(1, 2), st.integers(2, 6),
       st.lists(st.integers(0, 4), max_size=12), st.integers(0, 10**6))
def test_multiset_character_is_an_invariant(p, n, extra, raw, seed):
    rng = random.Random(seed)
    r = n + extra
    padded = [x % p for x in raw] + [0] * 16
    vec = _zero_sum_vector(p, n, r, padded)
    chi = multiset_character(vec)
    entries = list(vec.elliptic)
    rng.shuffle(entries)
    while True:
        g = np.array([[rng.randrange(vec.p) for _ in range(vec.n)] for _ in range(vec.n)])
        if fp.vector_span_rank(g, vec.p) == vec.n:
            break
    moved = GeneratingVector(vec.p, vec.n, hyperbolic=(), elliptic=[g @ v for v in entries])
    assert multiset_character(moved) == chi
    assert validate(moved) == validate(vec)


@given(st.sampled_from(("C10", "S3", "D4", "A4")), st.integers(3, 6),
       st.integers(0, 10**6))
@settings(max_examples=60)
def test_braid_moves_preserve_tuple_invariants(name, r, seed):
    rng = random.Random(seed)
    g = gt.by_name(name)
    c = [rng.randrange(1, g.order) for _ in range(r - 1)]
    c.append(g.inv(g.product(c)))
    if 0 in c:
        return
    v = gt.TableVector(g, tuple(c))
    for i in range(1, r):
        w = gt.braid_move(v, i)
        assert w.product() == 0
        assert sorted(w.periods()) == sorted(v.periods())
        assert g.closure(w.elliptic) == g.closure(v.elliptic)


@st.composite
def rational_points(draw):
    num = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 6)))
    return ProjPoint.finite(GaussianRational.of(num))


def cross_ratio(p, q, r, s):
    """(p, q; r, s) as a projective value, infinity included."""
    return ProjPoint(cross_det(p, r) * cross_det(q, s), cross_det(p, s) * cross_det(q, r))


def test_cross_ratio_helper():
    pts = [ProjPoint.finite(Fraction(x)) for x in (0, 1, 3)] + [ProjPoint.infinity()]
    cr = cross_ratio(pts[0], pts[1], pts[2], pts[3])
    # (0,1;3,inf) = (0-3)/(1-3) = 3/2
    assert cr.same_point(ProjPoint.finite(Fraction(3, 2)))


@given(st.lists(rational_points(), min_size=4, max_size=4, unique_by=str),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                 st.integers(-5, 5), st.integers(-5, 5)))
def test_cross_ratio_is_mobius_invariant(pts, coeffs):
    a, b, c, d = coeffs
    if a * d - b * c == 0:
        return
    mob = Mobius(*(GaussianRational.of(Fraction(x)) for x in coeffs))
    before = cross_ratio(*pts)
    after = cross_ratio(*(mob.apply(pt) for pt in pts))
    assert before.same_point(after)


@st.composite
def gaussian_rationals(draw):
    parts = [Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**3)))
             for _ in range(2)]
    return GaussianRational(*parts)


PARTS = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6),
                  st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300))
FLOATING = st.one_of(PARTS, st.builds(complex, PARTS, PARTS))


@given(gaussian_rationals(), FLOATING)
def test_gaussian_rational_with_floating_operand_is_exact(g, z):
    # a float or complex operand is read as the dyadic rational it stores,
    # and the result is the exact value on (re, im) pairs of Fractions
    a, b = g.re, g.im
    c, d = Fraction(z.real), Fraction(z.imag)
    assert GaussianRational.of(z) == GaussianRational(c, d)
    assert complex(GaussianRational.of(z)) == z
    cases = [(g + z, (a + c, b + d)), (z + g, (a + c, b + d)),
             (g - z, (a - c, b - d)), (z - g, (c - a, d - b)),
             (g * z, (a * c - b * d, a * d + b * c)), (z * g, (a * c - b * d, a * d + b * c))]
    if z != 0:
        n2 = c * c + d * d
        cases.append((g / z, ((a * c + b * d) / n2, (b * c - a * d) / n2)))
    if g != 0:
        n2 = a * a + b * b
        cases.append((z / g, ((c * a + d * b) / n2, (d * a - c * b) / n2)))
    for got, want in cases:
        assert isinstance(got, GaussianRational)
        assert (got.re, got.im) == want


@given(st.integers(0, 4), st.lists(st.integers(2, 9), max_size=5),
       st.integers(0, 10**6))
def test_signature_compares_as_multiset(rho, periods, seed):
    rng = random.Random(seed)
    sig = Signature(rho, tuple(periods))
    shuffled = list(periods)
    rng.shuffle(shuffled)
    other = Signature(rho, tuple(shuffled))
    assert sig == other and hash(sig) == hash(other)
    assert Signature.parse(str(sig)) == sig
