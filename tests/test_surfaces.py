import random
from fractions import Fraction

import pytest

from eag.errors import PreconditionError
from eag.genvec import GeneratingVector
from eag.surfaces import (EAActionSpec, Signature, ea_genus, riemann_hurwitz_genus,
                          solve_extension_params, subgroup_signature)


def test_riemann_hurwitz_examples():
    assert riemann_hurwitz_genus(5, Signature(0, (5, 5, 5))) == 2
    for sigma in (0, 1, 2, 7):
        assert riemann_hurwitz_genus(1, Signature(sigma)) == sigma
    assert riemann_hurwitz_genus(2, Signature(0, (2,) * 6)) == 2
    # non-integral results are reported, not raised
    assert riemann_hurwitz_genus(2, Signature(0, (2,) * 5)) == Fraction(3, 2)


def test_ea_genus_examples():
    assert ea_genus(EAActionSpec(2, 3, 0, 5)) == 3
    assert ea_genus(EAActionSpec(3, 1, 1, 2)) == 3
    assert ea_genus(EAActionSpec(2, 1, 0, 6)) == 2


def test_ea_genus_matches_riemann_hurwitz_everywhere():
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(0, 5):
            for rho in range(0, 4):
                for r in range(0, 9):
                    spec = EAActionSpec(p, n, rho, r)
                    assert ea_genus(spec) == riemann_hurwitz_genus(p ** n, spec.sig)


def test_signature_multiset_semantics():
    assert Signature(1, (2, 3, 2)) == Signature(1, (2, 2, 3))
    assert hash(Signature(1, (2, 3, 2))) == hash(Signature(1, (3, 2, 2)))
    assert Signature(1, (2, 3)) != Signature(2, (2, 3))
    assert str(Signature(2)) == "(2; -)"
    assert str(Signature(0, (2, 5, 10))) == "(0; 2,5,10)"
    assert Signature.parse("(0; 2,5,10)") == Signature(0, (2, 5, 10))
    assert Signature.parse("(3;-)") == Signature(3)
    with pytest.raises(PreconditionError):
        Signature.parse("nonsense")
    with pytest.raises(PreconditionError):
        Signature(0, (1, 2))


def _c2c2_vector(rho, elliptic):
    zero = (0, 0)
    return GeneratingVector(2, 2, hyperbolic=((zero, zero),) * rho, elliptic=elliptic)


def test_subgroup_signature_worked_example():
    # C_2 x C_2 with (tau; 2^3), elliptic (x, xy, y), subgroup <y>:
    # two entries survive the quotient, so <y> gets (2 tau; 2, 2)
    for tau in (1, 2, 3):
        n_spec = EAActionSpec(2, 2, tau, 3)
        vec = _c2c2_vector(tau, [(1, 0), (1, 1), (0, 1)])
        sig = subgroup_signature(n_spec, vec, ((0, 1),))
        assert sig == Signature(2 * tau, (2, 2))


def test_subgroup_signature_identity_quotient():
    n_spec = EAActionSpec(2, 2, 1, 3)
    vec = _c2c2_vector(1, [(1, 0), (1, 1), (0, 1)])
    sig = subgroup_signature(n_spec, vec, ((1, 0), (0, 1)))
    assert sig == n_spec.sig


def _coset_oracle(n_spec, vec, basis):
    """Independent check: count branch data through the coset action.

    Each elliptic entry fixes either every coset of the subgroup or none,
    so the subgroup collects [N:A] branch points per entry inside it; the
    orbit genus then comes out of the shared surface genus.
    """
    p = n_spec.p
    from eag.fp import rref
    basis_rows = list(basis)
    a_dim = len(rref(basis_rows, p))
    index = p ** (n_spec.n - a_dim)

    def in_a(v):
        return len(rref(basis_rows + [v], p)) == a_dim

    periods = []
    for c in vec.elliptic:
        if in_a(c):
            periods.extend([p] * index)
    sigma = riemann_hurwitz_genus(p ** n_spec.n, n_spec.sig)
    branch = sum(1 - Fraction(1, m) for m in periods)
    sub_order = p ** a_dim
    rho = (sigma - 1 - Fraction(sub_order, 2) * branch) / sub_order + 1
    assert rho.denominator == 1
    return Signature(int(rho), tuple(periods))


def test_subgroup_signature_against_coset_oracle():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice((2, 3))
        n = 2
        rho = rng.randint(0, 2)
        r = rng.randint(2, 6)
        elliptic = []
        for _ in range(r - 1):
            while True:
                v = (rng.randrange(p), rng.randrange(p))
                if any(v):
                    break
            elliptic.append(v)
        total = [sum(col) % p for col in zip(*elliptic)]
        if not any(total):
            continue
        elliptic.append([-t for t in total])
        hyperbolic = tuple(
            ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p)))
            for _ in range(rho))
        vec = GeneratingVector(p, n, hyperbolic=hyperbolic, elliptic=elliptic)
        spec = EAActionSpec(p, n, rho, r)
        from eag.surfaces import validate_vector_for
        if not validate_vector_for(spec, vec):
            continue
        basis = ((1, 0),)
        assert subgroup_signature(spec, vec, basis) == _coset_oracle(spec, vec, basis)


def test_subgroup_signature_genus_two_cover():
    # C_2 x C_2 with (0; 2^5) on a genus-2 surface: the subgroup <x> keeps
    # the three entries it contains and picks up six branch points
    n_spec = EAActionSpec(2, 2, 0, 5)
    vec = GeneratingVector(2, 2, hyperbolic=(), elliptic=[(1, 0), (1, 0), (1, 0), (0, 1), (1, 1)])
    basis = ((1, 0),)
    sig = subgroup_signature(n_spec, vec, basis)
    assert sig == Signature(0, (2,) * 6)
    assert sig == _coset_oracle(n_spec, vec, basis)
    assert riemann_hurwitz_genus(2, sig) == riemann_hurwitz_genus(4, n_spec.sig) == 2


def test_subgroup_signature_rejects_dependent_basis():
    n_spec = EAActionSpec(2, 2, 1, 3)
    vec = _c2c2_vector(1, [(1, 0), (1, 1), (0, 1)])
    with pytest.raises(PreconditionError):
        subgroup_signature(n_spec, vec, ((1, 0), (1, 0)))


def test_solve_extension_params_examples():
    sols = solve_extension_params(2, 0, 2)
    assert any((e.tau, e.l, e.m, e.s) == (0, 2, 1, 3) for e in sols)
    # r = 0, rho = 1: the tau = 1 solution has no surviving periods at all
    sols = solve_extension_params(3, 1, 0)
    assert any((e.tau, e.l, e.m) == (1, 0, 0) for e in sols)
    assert solve_extension_params(2, 0, 3) == []


def test_solve_extension_params_invariants():
    for p in (2, 3, 5):
        for rho in range(0, 6):
            for r in range(0, 9):
                for e in solve_extension_params(p, rho, r):
                    assert e.s == e.l + e.m
                    assert r == p * e.m
                    assert 2 * rho - 2 == 2 * p * (e.tau - 1) + e.l * (p - 1)
                    assert e.tau <= rho
                    if e.tau == rho:
                        assert rho in (0, 1)
                    if rho == 0 and r > 0:
                        # r > s whenever the inner action has genus >= 2
                        n = 1
                        while ea_genus(EAActionSpec(p, n, 0, r)) < 2 and n < r - 1:
                            n += 1
                        if ea_genus(EAActionSpec(p, n, 0, r)) >= 2:
                            assert r > e.s
