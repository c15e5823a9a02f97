import random
import tracemalloc

import numpy as np
import pytest

from eag import fp, orbits
from eag.errors import CAPS, CapExceededError, PreconditionError
from eag.genvec import GeneratingVector

from burnside_walk import class_matrix, gl_conjugacy_classes


def _gl_generators(n, p):
    """A generating set of GL(n, p): the classical trio for n >= 2.

    A transvection, the cyclic coordinate permutation and diag(g, 1, ..., 1)
    with g the least primitive root mod p (left out when it is 1, i.e.
    p = 2); for n = 1 the single matrix [g].
    """
    g = next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
    if n == 1:
        return [np.array([[g]], dtype=np.int64)]
    trans = np.eye(n, dtype=np.int64)
    trans[0, 1] = 1
    cyc = np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
    diag = np.eye(n, dtype=np.int64)
    diag[0, 0] = g
    return [trans, cyc] + ([diag] if g != 1 else [])


def test_rank_examples():
    assert fp.vector_span_rank([(0, 0), (0, 0)], 3) == 0
    assert fp.vector_span_rank(np.eye(3, dtype=np.int64), 2) == 3
    # second row is twice the first
    assert fp.vector_span_rank([(1, 1), (2, 2)], 3) == 1
    assert fp.vector_span_rank([], 5) == 0


def test_rank_bounds_and_invariance():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, p)
        rk = fp.vector_span_rank(m, p)
        assert 0 <= rk <= min(rows, cols)
        shuffled = list(m)
        rng.shuffle(shuffled)
        assert fp.vector_span_rank(shuffled, p) == rk
        g = _random_invertible(rng, rows, p)
        assert fp.vector_span_rank(g @ m % p, p) == rk
        h = _random_invertible(rng, cols, p)
        assert fp.vector_span_rank(m @ h % p, p) == rk


def _random_matrix(rng, rows, cols, p):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def _random_invertible(rng, n, p):
    while True:
        m = _random_matrix(rng, n, n, p)
        if fp.vector_span_rank(m, p) == n:
            return m


def test_rref_takes_numpy_integers():
    # pow(x, -1, p) rejects numpy integers, so rref must read Python ints
    rows = np.array([[2, 1], [1, 0]], dtype=np.int64)
    assert fp.rref(rows, 3) == ((1, 0), (0, 1))
    assert all(type(a) is int for row in fp.rref(rows, 3) for a in row)


def test_prime_gate():
    with pytest.raises(PreconditionError):
        fp.group_closure([np.eye(1, dtype=np.int64)], 4)
    with pytest.raises(PreconditionError):
        GeneratingVector(17, 2, hyperbolic=(), elliptic=[(1, 2)])
    with pytest.raises(PreconditionError):
        gl_conjugacy_classes(2, 6)


def test_is_prime_matches_a_sieve():
    sieve = [True] * 100_000
    sieve[:2] = [False, False]
    for q in range(2, 317):
        sieve[q * q::q] = [False] * len(sieve[q * q::q])
    assert [fp.is_prime(p) for p in range(100_000)] == sieve
    assert not any(fp.is_prime(p) for p in (-7, -1))


def test_is_prime_sees_through_strong_pseudoprimes():
    # the least strong pseudoprimes to the first 1, 4, 7, 9 and 12 prime bases;
    # the last passes every base up to 37, and 41 exposes it
    for n in (2047, 3_215_031_751, 341_550_071_728_321, 3_825_123_056_546_413_051,
              318_665_857_834_031_151_167_461):
        assert not fp.is_prime(n), n
    assert fp.is_prime(10 ** 18 + 3) and fp.is_prime(2 ** 61 - 1) and fp.is_prime(2 ** 31 - 1)
    assert not fp.is_prime(10 ** 18 + 1) and not fp.is_prime((2 ** 31 - 1) * (10 ** 9 + 7))


def test_is_prime_raises_past_its_bound():
    assert fp.is_prime(CAPS["primality"]) in (True, False)
    with pytest.raises(CapExceededError, match="above the primality cap"):
        fp.is_prime(CAPS["primality"] + 1)
    with pytest.raises(CapExceededError):
        fp.is_prime(2 ** 89 - 1)


@pytest.mark.parametrize("n,p", [(n, p) for p in (2, 3, 5, 7, 11, 13) for n in (1, 2, 3)
                                 if fp.gl_order(n, p) <= orbits.CANONICAL_MAX_GROUP])
def test_gl_by_definition_is_the_closure_of_its_generators(n, p):
    # the canonical pure count takes GL(n, p) as every matrix of full rank
    group = orbits._general_linear(n, p)
    assert len(group) == fp.gl_order(n, p)
    assert np.array_equal(group, fp.group_closure(_gl_generators(n, p), p))


@pytest.mark.parametrize("rho,p", [(rho, p) for p in (2, 3, 5, 7, 11, 13) for rho in (1, 2, 3)
                                   if orbits.kernel_canonical_feasible(p, rho)])
def test_sp_by_definition_is_the_closure_of_its_generators(rho, p):
    # the canonical kernel count takes Sp(2 rho, p) as every matrix whose
    # rows form a symplectic basis; the closure of the transvections is the
    # same array, element for element and in the same order
    group = orbits.sp_group(rho, p)
    J = orbits.standard_symplectic_form(rho, p)
    order = p ** (rho * rho)
    for i in range(1, rho + 1):
        order *= p ** (2 * i) - 1
    assert group.shape == (order, 2 * rho, 2 * rho) and group.dtype == np.int64
    assert (group @ J @ group.transpose(0, 2, 1) % p == J).all()
    assert np.array_equal(group, fp.group_closure(orbits.sp_generators(rho, p), p))


def test_sp_group_rejects_a_bad_modulus_or_genus():
    with pytest.raises(PreconditionError, match="not prime"):
        orbits.sp_group(1, 4)
    with pytest.raises(PreconditionError, match="rho must be >= 1"):
        orbits.sp_group(0, 3)


def test_sp_group_cap_raises_before_any_array(monkeypatch):
    # the cap is checked on the order formula, so past it nothing is built
    monkeypatch.setitem(CAPS, "elements", 51_839)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="Sp\\(4, 3\\).*above the elements cap"):
            orbits.sp_group.__wrapped__(2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000  # the pairing table of F_3^4 alone takes 52 kB
    monkeypatch.setitem(CAPS, "elements", 51_840)
    assert len(orbits.sp_group.__wrapped__(2, 3)) == 51_840


def test_sp_group_peak_memory_stays_near_its_result():
    # row codes in one byte, and the last row's mask freed before the
    # decode: little beside the 51,840 x 4 x 4 int64 result
    tracemalloc.start()
    try:
        group = orbits.sp_group.__wrapped__(2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.shape == (51_840, 4, 4)
    assert peak < 1.3 * group.nbytes


@pytest.mark.parametrize("n,p,order", [
    (2, 2, 6),        # (4-1)(4-2)
    (2, 3, 48),       # (9-1)(9-3)
    (3, 2, 168),
])
def test_gl_closure_orders(n, p, order):
    assert len(fp.group_closure(_gl_generators(n, p), p)) == order


@pytest.mark.parametrize("n,p", [(n, p) for p in (2, 3, 5, 7, 11, 13) for n in (1, 2, 3)]
                         + [(4, 2), (4, 3), (4, 5)])
def test_gl_class_sizes_sum_to_the_order(n, p):
    classes = gl_conjugacy_classes(n, p)
    assert sum(size for size, _ in classes) == fp.gl_order(n, p)
    # in the matrix of a class's blocks, the block of (f, m) is annihilated
    # by f^m but not by f^(m - 1): its minimal polynomial
    for _, blocks in classes:
        rep = class_matrix(blocks, p)
        assert rep.shape == (n, n)
        at = 0
        for f, m in blocks:
            size = (len(f) - 1) * m
            B = rep[at:at + size, at:at + size]
            assert not rep[at:at + size, at + size:].any()
            assert not rep[at + size:, at:at + size].any()
            fB = sum(c * _power_mod(B, i, p) for i, c in enumerate(f)) % p
            assert not _power_mod(fB, m, p).any()
            assert _power_mod(fB, m - 1, p).any()
            at += size


def _power_mod(A, e, p):
    out = np.eye(len(A), dtype=np.int64)
    for _ in range(e):
        out = out @ A % p
    return out


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_gl_classes_match_brute_force_conjugacy(n, p):
    group = orbits._general_linear(n, p)
    products = np.einsum("aij,bjk->abik", group, group) % p
    inverses = group[(products == np.eye(n, dtype=np.int64)).all(axis=(2, 3)).argmax(axis=1)]
    keys = fp._pack_keys(group, p)
    # label[key]: the least key in the conjugacy class of that element
    label = {}
    for g, key in zip(group, keys.tolist()):
        if key in label:
            continue
        conj = np.einsum("hij,jk,hkl->hil", group, g, inverses) % p
        members = fp._pack_keys(conj, p).tolist()
        least = min(members)
        for m in members:
            label[m] = least
    sizes = {}
    for least in label.values():
        sizes[least] = sizes.get(least, 0) + 1
    classes = gl_conjugacy_classes(n, p)
    assert len(classes) == len(sizes)
    reps = [label[int(fp._pack_keys(class_matrix(blocks, p)[None], p)[0])]
            for _, blocks in classes]
    assert len(set(reps)) == len(classes)
    assert all(sizes[least] == size for least, (size, _) in zip(reps, classes))


@pytest.mark.parametrize("rho,p,order", [
    (1, 2, 6), (1, 3, 24), (1, 5, 120),   # p (p^2 - 1)
    (2, 2, 720),
    (2, 3, 51840),
])
def test_sp_closure_orders(rho, p, order):
    assert len(fp.group_closure(orbits.sp_generators(rho, p), p)) == order


@pytest.mark.parametrize("rho,p", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3),
                                   (2, 5), (3, 2), (3, 3), (3, 5)])
def test_sp_generators_preserve_form(rho, p):
    J = orbits.standard_symplectic_form(rho, p)
    for g in orbits.sp_generators(rho, p):
        assert (g.T @ J @ g % p == J).all()


@pytest.mark.parametrize("rho,p", [(3, 2), (3, 3)])
def test_sp_transitive_on_nonzero_vectors(rho, p):
    # orbit of a unit vector hits every nonzero vector (Witt transitivity);
    # proves the generators do not sit inside a smaller reducible group
    gens = orbits.sp_generators(rho, p)
    start = tuple(np.eye(2 * rho, dtype=np.int64)[0].tolist())
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = tuple((g @ v % p).tolist())
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    assert len(seen) == p ** (2 * rho) - 1


@pytest.mark.parametrize("rho,p", [(1, 3), (1, 5), (2, 2)])
def test_sp_closure_preserves_form(rho, p):
    J = orbits.standard_symplectic_form(rho, p)
    group = fp.group_closure(orbits.sp_generators(rho, p), p)
    assert ((group.transpose(0, 2, 1) @ J @ group) % p == J).all()


def test_group_closure_identity_and_order_independence():
    ident = np.eye(2, dtype=np.int64)
    assert np.array_equal(fp.group_closure([ident], 3), ident[None])
    gens = orbits.sp_generators(1, 3)
    assert np.array_equal(fp.group_closure(gens, 3),
                          fp.group_closure(list(reversed(gens)), 3))


def test_group_closure_cap(monkeypatch):
    monkeypatch.setitem(CAPS, "elements", 10)
    with pytest.raises(CapExceededError, match="above the elements cap of 10"):
        fp.group_closure(_gl_generators(2, 3), 3)


def _closure_by_matmul(gens, p):
    """Reference closure: breadth-first by left matrix products, sorted as nested lists."""
    G = np.array(gens, dtype=np.int64) % p
    ident = np.eye(G.shape[1], dtype=np.int64)
    seen = {ident.tobytes(): ident}
    frontier = ident[None]
    while len(frontier):
        fresh = []
        for m in (G[:, None] @ frontier[None] % p).reshape(-1, *ident.shape):
            if m.tobytes() not in seen:
                seen[m.tobytes()] = m
                fresh.append(m)
        frontier = np.array(fresh).reshape(-1, *ident.shape)
    return np.array(sorted(m.tolist() for m in seen.values()), dtype=np.int64)


@pytest.mark.parametrize("kind,n,p", [
    ("gl", 1, 5), ("gl", 2, 3), ("gl", 2, 5), ("gl", 3, 2), ("gl", 3, 3),
    ("sp", 1, 2), ("sp", 1, 3), ("sp", 1, 5), ("sp", 1, 7), ("sp", 2, 2), ("sp", 2, 3),
])
def test_group_closure_matches_matmul_reference(kind, n, p):
    gens = _gl_generators(n, p) if kind == "gl" else orbits.sp_generators(n, p)
    group = fp.group_closure(gens, p)
    assert group.dtype == np.int64
    assert np.array_equal(group, _closure_by_matmul(gens, p))


@pytest.mark.parametrize("n,p", [(8, 2), (6, 5), (5, 7)])
def test_group_closure_keys_beyond_63_bits_raise(n, p):
    # p^(n^2) >= 2^63 here; the raise comes before any code table is built
    with pytest.raises(CapExceededError, match=f"above the key values cap of {CAPS['key values']}"):
        fp.group_closure(_gl_generators(n, p), p)


def test_group_closure_peak_memory_stays_near_its_result():
    # codes in one byte for Sp(4, 3), decoded once through the code table:
    # no (N, n^2) uint64 temporaries beside the 51,840 x 4 x 4 int64 result
    gens = orbits.sp_generators(2, 3)
    tracemalloc.start()
    try:
        group = fp.group_closure(gens, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.shape == (51_840, 4, 4)
    assert peak < 1.75 * group.nbytes


def test_cached_groups_are_built_once_and_read_only():
    group = orbits.sp_group(2, 2)
    assert orbits.sp_group(2, 2) is group
    assert np.array_equal(group, fp.group_closure(orbits.sp_generators(2, 2), 2))
    with pytest.raises(ValueError):
        group[0, 0, 0] = 1
    gl = orbits._general_linear(2, 3)
    assert orbits._general_linear(2, 3) is gl
    with pytest.raises(ValueError):
        gl[0, 0, 0] = 1


def test_vector_arithmetic():
    # vectors are numpy rows while they are computed with, and int tuples in
    # [0, p) once stored in a generating vector
    v, w = np.array([1, 2, 3]), np.array([4, 4, 4])
    e1 = np.eye(3, dtype=np.int64)[1]
    vec = GeneratingVector(5, 3, hyperbolic=[(e1, 0 * v)], elliptic=[v + w, -v, 2 * v])
    assert vec.elliptic == ((0, 1, 2), (4, 3, 2), (2, 4, 1))
    assert vec.hyperbolic == (((0, 1, 0), (0, 0, 0)),)
    assert all(type(a) is int for c in vec.elliptic + vec.hyperbolic[0] for a in c)
    assert vec == GeneratingVector(5, 3, hyperbolic=[((0, 1, 0), (0, 0, 0))],
                                   elliptic=[(0, 1, 2), (4, 3, 2), (2, 4, 1)])


@pytest.mark.parametrize("a,b", [
    ((1, 0, 1), (1, 1)),  # lengths differ
    ((1,), (1, 1)),  # lengths differ the other way
])
def test_vector_add_rejects_mismatch(a, b):
    # entries of one generating vector live in one F_p^n
    with pytest.raises(PreconditionError):
        GeneratingVector(3, 2, hyperbolic=(), elliptic=[a, b])
    with pytest.raises(PreconditionError):
        GeneratingVector(3, 2, hyperbolic=[(a, b)], elliptic=[])


@pytest.mark.parametrize("a,b", [
    (np.eye(2, dtype=np.int64), np.array([[1, 0, 1]])),  # 2x2 and 1x3
    (np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)),  # sizes differ
])
def test_matrix_product_rejects_mismatch(a, b):
    # the closure multiplies its generators, so they must be square and of one size
    with pytest.raises(PreconditionError):
        fp.group_closure([a, b], 3)


@pytest.mark.parametrize("gens", [
    [np.array([[1, 1], [1, 1]])],  # singular over every F_p
    [np.eye(2, dtype=np.int64), np.array([[1, 2], [2, 1]])],  # singular mod 3 only
])
def test_group_closure_rejects_singular_generators(gens):
    with pytest.raises(PreconditionError):
        fp.group_closure(gens, 3)
