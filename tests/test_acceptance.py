"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import random
from fractions import Fraction
from pathlib import Path

from eag import genvec, grouptable as gt, hyperfermat as hf, maximality as mx, orbits
from eag.cx import GaussianRational, Mobius, ProjPoint
from eag.genvec import (build_inequivalent_pair, count_pure_classes,
                        is_unique_action, multiset_character, pure_unique_row,
                        validate)
from eag.surfaces import (EAActionSpec, Signature, ea_genus,
                          riemann_hurwitz_genus, subgroup_signature)

REPO = Path(__file__).resolve().parent.parent


def _ok(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def _admissible(spec):
    g = ea_genus(spec)
    return g.denominator == 1 and g >= 2


def _pure_box():
    for p in (2, 3, 5):
        for n in range(1, 5):
            for r in range(n + 1, 8):
                spec = EAActionSpec(p, n, 0, r)
                if _admissible(spec):
                    yield p, n, r


def test_criterion_01_purely_ramified_classification():
    rows = non_rows = 0
    for p, n, r in _pure_box():
        count = count_pure_classes(p, n, r)
        if pure_unique_row(p, n, r) is not None:
            assert count == 1, (p, n, r, count)
            rows += 1
        else:
            assert count >= 2, (p, n, r, count)
            v1, v2 = build_inequivalent_pair(p, n, r)
            assert validate(v1) and validate(v2), (p, n, r)
            assert multiset_character(v1) != multiset_character(v2), (p, n, r)
            non_rows += 1
    assert rows >= 10 and non_rows >= 20
    _ok(1, f"pure box reproduced: {rows} unique rows = 1, "
           f"{non_rows} non-rows >= 2 with explicit inequivalent pairs")


def test_criterion_02_unramified_adjudication():
    checked = 0
    for p in (2, 3):
        for rho in (2, 3):
            unique_ranks = {0, 1, 2 * rho - 1, 2 * rho}
            for k in range(0, 2 * rho + 1):
                h = orbits.count_kernel_orbits_bfs(p, k, rho)
                if k in unique_ranks:
                    assert h == 1, (p, k, rho, h)
                else:
                    assert h >= 2, (p, k, rho, h)
                checked += 1
            adj = genvec.unramified_adjudication(p, rho)
            assert not adj.agrees and "disagree" in adj.note
    assert checked == 24
    _ok(2, "kernel BFS counts are 1 exactly at ranks {0, 1, 2rho-1, 2rho}; "
           "the stated rank set is flagged as discrepant")


def test_criterion_03_unique_table_consistency():
    checked = 0
    for p, n, r in _pure_box():
        spec = EAActionSpec(p, n, 0, r)
        count = count_pure_classes(p, n, r)
        assert (count == 1) == is_unique_action(spec), (p, n, r)
        checked += 1
    for p in (2, 3):
        for rho in (2, 3):
            for n in range(1, 2 * rho + 1):
                spec = EAActionSpec(p, n, rho, 0)
                if not _admissible(spec):
                    continue
                h = orbits.count_kernel_orbits_bfs(p, n, rho)
                assert (h == 1) == is_unique_action(spec), (p, n, rho)
                checked += 1
    assert checked >= 50
    _ok(3, f"closed-form uniqueness matches enumeration on {checked} "
           "purely ramified and unramified instances")


def _table3_instances():
    for p in (2, 3, 5):
        for r in range(2, 9):
            yield EAActionSpec(p, r - 1, 0, r)
    for p in (3, 5):
        for rho in range(2, 5):
            yield EAActionSpec(p, 2 * rho, rho, 0)
            yield EAActionSpec(p, 2 * rho - 1, rho, 0)
    for p in (3, 5):
        for rho in range(1, 5):
            yield EAActionSpec(p, 1, rho, 2)
    for p in (2, 3, 5):
        for rho in range(1, 5):
            for r in range(2, 9):
                if p * r == 4:
                    continue
                yield EAActionSpec(p, r + 2 * rho - 1, rho, r)
    for rho in range(0, 5):
        yield EAActionSpec(5, 1, rho, 3)
    for r in (4, 5, 7):
        for rho in range(0, 5):
            yield EAActionSpec(3, 1, rho, r)
    yield EAActionSpec(2, 3, 0, 5)
    for rho in range(0, 5):
        yield EAActionSpec(2, 2, rho, 5)


def _table4_instances():
    for rho in range(2, 5):
        yield EAActionSpec(2, 2 * rho, rho, 0)
        yield EAActionSpec(2, 2 * rho - 1, rho, 0)
    for rho in range(1, 5):
        yield EAActionSpec(2, 1, rho, 2)
        yield EAActionSpec(2, 2 * rho + 1, rho, 2)
        yield EAActionSpec(3, 1, rho, 3)
    for r in (4, 6, 8):
        for rho in range(0, 5):
            yield EAActionSpec(2, 1, rho, r)


def test_criterion_04_maximality_tables_with_witnesses():
    n_max = n_not = 0
    for spec in _table3_instances():
        if not _admissible(spec):
            continue
        verdict = mx.is_maximal(spec)
        assert verdict.maximal, (spec, verdict.rule)
        outcome = mx.search_extension_witness(spec)
        assert outcome.status == "none", (spec, outcome.status)
        n_max += 1
    for spec in _table4_instances():
        if not _admissible(spec):
            continue
        verdict = mx.is_maximal(spec)
        assert not verdict.maximal, (spec, verdict.rule)
        w = verdict.witness
        assert w is not None, spec
        assert validate(w.vector), spec
        assert subgroup_signature(w.n_spec, w.vector, w.subgroup_basis) == spec.sig
        assert ea_genus(w.n_spec) == ea_genus(spec)
        outcome = mx.search_extension_witness(spec)
        assert outcome.status == "found", (spec, outcome.status)
        n_not += 1
    assert n_max >= 80 and n_not >= 25
    _ok(4, f"maximality verdicts match on {n_max} maximal and {n_not} "
           "non-maximal instances; every witness validates and round-trips")


def test_criterion_05_frobenius_criterion_p7():
    representable = set()
    for a in range(-1, 6):
        for b in range(0, 40):
            rho = a * 7 + b * 3 + 1
            if 2 <= rho <= 30:
                representable.add(rho)
    oracle_maximal = set(range(2, 31)) - representable
    assert oracle_maximal == {2, 5}
    verdict_maximal = {rho for rho in range(2, 31)
                       if mx.is_maximal(EAActionSpec(7, 1, rho, 0)).maximal}
    assert verdict_maximal == {2, 5}
    _ok(5, "for p=7 the maximal unramified cyclic genera in [2, 30] are "
           "exactly {2, 5}, matching the representation-search oracle")


def test_criterion_06_desk_scale_orbits_and_braids():
    assert gt.count_orbits(gt.cyclic(10), Signature(0, (2, 5, 10))) == 1
    rng = random.Random(6)
    for group in (gt.symmetric(3), gt.dihedral(4), gt.cyclic(10)):
        produced = 0
        while produced < 1000:
            r = rng.randint(3, 6)
            c = [rng.randrange(1, group.order) for _ in range(r - 1)]
            c.append(group.inv(group.product(c)))
            if 0 in c:
                continue
            v = gt.TableVector(group, tuple(c))
            if not gt.validate_table_vector(v):
                continue
            produced += 1
            for i in range(1, r):
                w = gt.braid_move(v, i)
                assert w.product() == 0
                assert gt.validate_table_vector(w)
                assert sorted(w.periods()) == sorted(v.periods())
    _ok(6, "C_10 acting with (0; 2,5,10) is unique (1 orbit); braid moves "
           "preserved validity and product on 1000 vectors per group")


def test_criterion_07_hyper_fermat_genus():
    assert hf.hyper_fermat_genus(3, 2) == 1
    assert hf.hyper_fermat_genus(5, 2) == 6 == Fraction((5 - 1) * (5 - 2), 2)
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(2, 9):
            assert hf.hyper_fermat_genus(p, n) == \
                riemann_hurwitz_genus(p ** n, Signature(0, (p,) * (n + 1)))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "(n-1)p - (n+1)" in readme and "(n-1)p + n + 1" in readme, \
        "README must record the genus-formula sign discrepancy"
    _ok(7, "genus closed form matches the quotient-map count for all "
           "p <= 13, n <= 8; README records the sign discrepancy")


def test_criterion_08_vandermonde_branch_identity():
    rng = random.Random(8)
    for trial in range(100):
        n = (3, 4, 5)[trial % 3]
        w = []
        while len(w) < n + 1:
            f = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if f not in w:
                w.append(f)
        bs = hf.branch_points(hf.vandermonde_line(w), (w[0], w[1], w[2]))
        for pt, wi in zip(bs.points, w):
            assert pt.value() == GaussianRational.of(wi), (w, str(pt))
        # floats are read exactly, as the dyadic rationals they store
        wf = [float(f) for f in w]
        bsf = hf.branch_points(hf.vandermonde_line(wf), (wf[0], wf[1], wf[2]))
        for pt, wi in zip(bsf.points, wf):
            assert pt.value() == GaussianRational.of(wi), (w, str(pt))
    _ok(8, "branch parameters of 100 random power-row lines equal the "
           "defining parameters exactly, rational and floating alike")


def test_criterion_09_residue_identity():
    rng = random.Random(9)
    nonzero_controls = 0
    for trial in range(100):
        n = rng.randint(2, 8)
        w = []
        while len(w) < n + 1:
            f = Fraction(rng.randint(-50, 50), rng.randint(1, 10))
            if f not in w:
                w.append(f)
        for s in range(0, n - 1):
            assert hf.residue_identity_check(w, s) == 0, (w, s)
        if hf.residue_identity_check(w, n - 1) != 0:
            nonzero_controls += 1
    assert nonzero_controls == 100   # the control is exactly 1 generically
    _ok(9, "residue sums vanish exactly for all s <= n-2 on 100 random "
           "rational tuples; the s = n-1 control is nonzero every time")


def test_criterion_10_moduli_equivalence():
    rng = random.Random(10)
    for trial in range(100):
        n = rng.choice((3, 4))
        w = []
        while len(w) < n + 1:
            f = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
            if f not in w:
                w.append(f)
        exact = trial % 2 == 0
        params = w if exact else [float(x) for x in w]
        b1 = hf.branch_points(hf.vandermonde_line(params),
                              (params[0], params[1], params[2]))
        assert hf.moduli_equivalent(b1, b1)
        coeffs = [rng.randint(-6, 6) for _ in range(4)]
        if coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2] == 0:
            continue
        vals = [GaussianRational.of(x) if exact else complex(x) for x in coeffs]
        mob = Mobius(*vals)
        moved = tuple(mob.apply(pt) for pt in b1.points)
        b2 = hf.BranchSet(moved, ProjPoint.finite(1))
        assert hf.moduli_equivalent(b1, b2)
        assert hf.moduli_equivalent(b2, b1)
    t1 = hf.branch_points(hf.vandermonde_line([0, 1, 4]), (0, 1, 4))
    t2 = hf.branch_points(hf.vandermonde_line([-7, 2, 9]), (-7, 2, 9))
    assert hf.moduli_equivalent(t1, t2)

    def quadruple(lam):
        pts = (ProjPoint.finite(Fraction(0)), ProjPoint.finite(Fraction(1)),
               ProjPoint.infinity(), ProjPoint.finite(Fraction(lam)))
        return hf.BranchSet(pts, ProjPoint.finite(1))

    assert hf.moduli_equivalent(quadruple(2), quadruple(Fraction(1, 2)))
    assert not hf.moduli_equivalent(quadruple(2), quadruple(3))
    _ok(10, "moduli equivalence is reflexive, symmetric and invariant on 100 "
            "random pairs; triples always match; quadruple classes separate")


def test_criterion_11_oracle_cross_checks():
    checked = 0
    grid = [(2, k, r) for k in (1, 2, 3) for r in range(2, 8)] + \
           [(3, k, r) for k in (1, 2) for r in range(2, 8)] + \
           [(5, 1, r) for r in range(2, 8)] + [(5, 2, r) for r in range(3, 6)]
    for p, k, r in grid:
        if k > r - 1 or not orbits.pure_canonical_feasible(p, k, r):
            continue
        assert orbits.count_pure_orbits_canonical(p, k, r) == \
            orbits.count_pure_orbits_bfs(p, k, r), (p, k, r)
        checked += 1
    from eag.errors import CapExceededError
    for p in (2, 3, 5):
        for rho in (1, 2, 3):
            for k in range(0, 2 * rho + 1):
                try:
                    bfs = orbits.count_kernel_orbits_bfs(p, k, rho)
                except CapExceededError:
                    continue
                assert bfs == genvec.witt_kernel_orbit_count(rho, k), (p, k, rho)
                if orbits.kernel_canonical_feasible(p, rho):
                    assert orbits.count_kernel_orbits_canonical(p, k, rho) == bfs
                checked += 1
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(0, 4):
            for rho in range(0, 3):
                for r in range(0, 7):
                    spec = EAActionSpec(p, n, rho, r)
                    assert ea_genus(spec) == riemann_hurwitz_genus(p ** n, spec.sig)
                    checked += 1
    _ok(11, f"canonical-form and BFS orbit counts agree on every feasible "
            f"input; genus formulas agree everywhere ({checked} checks)")
