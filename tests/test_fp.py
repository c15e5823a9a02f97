import random

import numpy as np
import pytest

from eag import fp
from eag.errors import CapExceededError, PreconditionError
from eag.fp import FpMatrix, FpVector


def test_rank_examples():
    assert fp.rank(FpMatrix(3, ((0, 0), (0, 0)))) == 0
    assert fp.rank(FpMatrix.identity(3, 2)) == 3
    # second row is twice the first
    assert fp.rank(FpMatrix(3, ((1, 1), (2, 2)))) == 1


def test_rank_bounds_and_invariance():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = FpMatrix(p, tuple(tuple(rng.randrange(p) for _ in range(cols))
                              for _ in range(rows)))
        rk = fp.rank(m)
        assert 0 <= rk <= min(rows, cols)
        shuffled = list(m.rows)
        rng.shuffle(shuffled)
        assert fp.rank(FpMatrix(p, tuple(shuffled))) == rk
        g = _random_invertible(rng, rows, p)
        assert fp.rank(g * m) == rk
        h = _random_invertible(rng, cols, p)
        assert fp.rank(m * h) == rk


def _random_invertible(rng, n, p):
    while True:
        m = FpMatrix(p, tuple(tuple(rng.randrange(p) for _ in range(n))
                              for _ in range(n)))
        if m.is_invertible():
            return m


def test_prime_gate():
    with pytest.raises(PreconditionError):
        FpMatrix(4, ((1,),))
    with pytest.raises(PreconditionError):
        FpVector(17, (1, 2))
    with pytest.raises(PreconditionError):
        fp.gl_generators(2, 6)


def test_gl_generators_mult_group():
    (gen,) = fp.gl_generators(1, 5)
    powers = set()
    x = gen
    for _ in range(4):
        powers.add(x.rows[0][0])
        x = x * gen
    assert powers == {1, 2, 3, 4}
    assert len(fp.group_closure(fp.gl_generators(1, 2))) == 1


@pytest.mark.parametrize("n,p,order", [
    (2, 2, 6),        # (4-1)(4-2)
    (2, 3, 48),       # (9-1)(9-3)
    (3, 2, 168),
])
def test_gl_closure_orders(n, p, order):
    assert len(fp.group_closure(fp.gl_generators(n, p))) == order


@pytest.mark.parametrize("rho,p,order", [
    (1, 2, 6), (1, 3, 24), (1, 5, 120),   # p (p^2 - 1)
    (2, 2, 720),
    (2, 3, 51840),
])
def test_sp_closure_orders(rho, p, order):
    assert len(fp.group_closure(fp.sp_generators(rho, p))) == order


@pytest.mark.parametrize("rho,p", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3),
                                   (2, 5), (3, 2), (3, 3), (3, 5)])
def test_sp_generators_preserve_form(rho, p):
    J = fp.standard_symplectic_form(rho, p)
    for g in fp.sp_generators(rho, p):
        assert g.transpose() * J * g == J


@pytest.mark.parametrize("rho,p", [(3, 2), (3, 3)])
def test_sp_transitive_on_nonzero_vectors(rho, p):
    # orbit of a unit vector hits every nonzero vector (Witt transitivity);
    # proves the generators do not sit inside a smaller reducible group
    gens = fp.sp_generators(rho, p)
    start = FpVector.unit(p, 2 * rho, 0)
    seen = {start.coords}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = g.apply(v)
                if w.coords not in seen:
                    seen.add(w.coords)
                    new.append(w)
        frontier = new
    assert len(seen) == p ** (2 * rho) - 1


@pytest.mark.parametrize("rho,p", [(1, 3), (1, 5), (2, 2)])
def test_sp_closure_preserves_form(rho, p):
    J = np.array(fp.standard_symplectic_form(rho, p).rows)
    group = fp.group_closure(fp.sp_generators(rho, p))
    assert ((group.transpose(0, 2, 1) @ J @ group) % p == J).all()


def test_group_closure_identity_and_order_independence():
    ident = FpMatrix.identity(2, 3)
    assert np.array_equal(fp.group_closure([ident]), np.eye(2, dtype=np.int64)[None])
    gens = fp.sp_generators(1, 3)
    assert np.array_equal(fp.group_closure(gens), fp.group_closure(list(reversed(gens))))


def test_group_closure_cap():
    with pytest.raises(CapExceededError):
        fp.group_closure(fp.gl_generators(2, 3), cap=10)


def test_vector_arithmetic():
    v = FpVector(5, (1, 2, 3))
    w = FpVector(5, (4, 4, 4))
    assert (v + w).coords == (0, 1, 2)
    assert (-v).coords == (4, 3, 2)
    assert v.scale(2).coords == (2, 4, 1)
    assert FpVector.zero(5, 3).is_zero()
    assert FpVector.unit(5, 3, 1).coords == (0, 1, 0)


@pytest.mark.parametrize("a,b", [
    (FpVector(2, (1, 0, 1)), FpVector(2, (1, 1))),  # lengths differ
    (FpVector(2, (1, 0)), FpVector(3, (1, 0))),  # primes differ
])
def test_vector_add_rejects_mismatch(a, b):
    with pytest.raises(PreconditionError):
        a + b


@pytest.mark.parametrize("a,b", [
    (FpMatrix.identity(2, 2), FpMatrix(2, ((1, 0, 1),))),  # 2x2 times 1x3
    (FpMatrix.identity(2, 2), FpMatrix.identity(2, 3)),  # primes differ
])
def test_matrix_product_rejects_mismatch(a, b):
    with pytest.raises(PreconditionError):
        a * b


@pytest.mark.parametrize("m,v", [
    (FpMatrix.identity(2, 3), FpVector(3, (1, 2, 0))),  # lengths differ
    (FpMatrix.identity(2, 3), FpVector(5, (1, 2))),  # primes differ
])
def test_matrix_apply_rejects_mismatch(m, v):
    with pytest.raises(PreconditionError):
        m.apply(v)
