import random

import numpy as np
import pytest

from eag import fp, genvec, orbits
from eag.errors import CapExceededError, OutOfDomainError, PreconditionError
from eag.genvec import (GeneratingVector, build_inequivalent_pair, count_classes,
                        count_pure_classes, count_unramified_classes,
                        is_unique_action, multiset_character, unique_action_rules,
                        unramified_adjudication, validate)
from eag.surfaces import EAActionSpec, ea_genus

from box_pins import PURE_BOX_COUNTS
from uniqueness_grid import check_grid


def test_validate_examples():
    assert validate(GeneratingVector(2, 1, hyperbolic=(), elliptic=[(1,)] * 4))
    assert validate(GeneratingVector(3, 1, hyperbolic=(), elliptic=[(1,)] * 3))
    # rank-2 target is not generated by a single repeated image
    assert not validate(GeneratingVector(3, 2, hyperbolic=(), elliptic=[(1, 0)] * 3))
    # nonzero sum
    assert not validate(GeneratingVector(3, 1, hyperbolic=(), elliptic=[(1,)] * 4))
    # a zero elliptic entry breaks the order condition
    assert not validate(GeneratingVector(3, 1, hyperbolic=(), elliptic=[(1,), (2,), (0,)]))


def test_multiset_character_examples():
    # three repeats of one generator, the second generator, and the forced
    # closing entry: profile (1, 1, 3)
    v = GeneratingVector(3, 2, hyperbolic=(), elliptic=[(1, 0), (0, 1), (1, 0), (1, 0), (0, 2)])
    assert validate(v)
    assert multiset_character(v) == (1, 1, 3)
    assert multiset_character(GeneratingVector(2, 1, hyperbolic=(), elliptic=[(1,)] * 4)) == (4,)
    v = GeneratingVector(5, 1, hyperbolic=(), elliptic=[(1,), (2,), (3,), (4,)])
    assert multiset_character(v) == (1, 1, 1, 1)


def test_multiset_character_invariance():
    rng = random.Random(9)
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 2)
        r = rng.randint(n + 1, 6)
        entries = []
        for _ in range(r - 1):
            v = np.array([rng.randrange(p) for _ in range(n)])
            if not v.any():
                v[0] = 1
            entries.append(v)
        total = sum(entries) % p
        if not total.any():
            continue
        entries.append(-total)
        vec = GeneratingVector(p, n, hyperbolic=(), elliptic=entries)
        chi = multiset_character(vec)
        # permuting entries and acting by any invertible matrix fixes chi
        perm = list(range(r))
        rng.shuffle(perm)
        while True:
            g = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            if fp.vector_span_rank(g, p) == n:
                break
        moved = GeneratingVector(p, n, hyperbolic=(), elliptic=[g @ entries[i] for i in perm])
        assert multiset_character(moved) == chi


PURE_UNIQUE_IN_BOX = [
    (2, 1, 4), (2, 1, 6), (2, 3, 5), (2, 2, 4), (2, 2, 5),
    (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 1, 7), (5, 1, 3),
    (2, 1, 2), (3, 1, 2), (5, 1, 2),
    (2, 2, 3), (3, 2, 3), (5, 2, 3), (2, 3, 4), (3, 3, 4), (2, 4, 5), (3, 4, 5),
]


@pytest.mark.parametrize("p,k,r", PURE_UNIQUE_IN_BOX)
def test_count_pure_classes_unique_rows(p, k, r):
    assert count_pure_classes(p, k, r) == 1


def test_count_pure_classes_examples():
    assert count_pure_classes(3, 1, 6) == 2
    assert count_pure_classes(5, 1, 3) == 1
    assert count_pure_classes(2, 1, 5) == 0    # odd period count over p=2
    assert count_pure_classes(2, 0, 0) == 1
    assert count_pure_classes(2, 0, 3) == 0
    assert count_pure_classes(2, -1, 3) == 0
    assert count_pure_classes(2, 3, 3) == 0    # cannot generate rank 3


def test_count_pure_max_rank_always_unique():
    # k = r - 1, table 1's pure-7 row, counted by Burnside for every p
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(2, 7):
            assert count_pure_classes(p, r - 1, r) == 1


def test_count_unramified_examples():
    assert count_unramified_classes(2, 4, 2) == 1
    assert count_unramified_classes(2, 0, 2) == 1
    assert count_unramified_classes(2, 2, 2) == 2
    assert count_unramified_classes(3, 5, 2) == 0


def test_counts_validate_inputs_before_their_shortcuts():
    with pytest.raises(PreconditionError):
        count_unramified_classes(2, 0, -1)   # k = 0 would answer 1
    with pytest.raises(PreconditionError):
        count_unramified_classes(4, 2, 2)
    with pytest.raises(PreconditionError):
        count_pure_classes(4, 0, 0)          # k < 1 would answer 1


def test_unramified_adjudication_flags_discrepancy():
    for p, rho in ((2, 2), (3, 2), (2, 3)):
        adj = unramified_adjudication(p, rho)
        assert adj.computed_unique_ranks == (0, 1, 2 * rho - 1, 2 * rho)
        assert not adj.agrees
        assert "disagree" in adj.note


def test_unramified_adjudication_matches_the_witt_loop():
    # the closed-form rank sets against Witt's count at every rank
    for rho in range(400):
        adj = unramified_adjudication(2, rho)
        ranks = range(2 * rho + 1)
        assert adj.computed_unique_ranks == tuple(
            k for k in ranks if genvec.witt_kernel_orbit_count(rho, k) == 1), rho
        assert adj.stated_unique_ranks == tuple(
            k for k in ranks if k in {0, 1, rho - 1, rho}), rho


def test_count_classes_no_action_cases():
    assert count_classes(EAActionSpec(2, 1, 0, 1)).total == 0
    assert count_classes(EAActionSpec(2, 5, 1, 2)).total == 0
    assert count_classes(EAActionSpec(5, 1, 0, 3)).total == 1


def test_count_classes_unramified_full_rank():
    report = count_classes(EAActionSpec(2, 4, 2, 0))
    assert report.total == 1 and report.method == "witt"


def test_count_classes_mixed_is_exact():
    # (1; 2^5) at rank 2: h(2,0,1) e(2,2,5) + h(2,1,1) e(2,1,5) + h(2,2,1) e(2,0,5)
    # = 1*1 + 1*0 + 1*0, one genuine class, as the closed form says
    report = count_classes(EAActionSpec(2, 2, 1, 5))
    assert report.total == 1
    assert report.method == "burnside+witt" and report.flags == ()
    assert report.e_used == ((2, 1),) and report.h_used == ((0, 1),)
    assert is_unique_action(EAActionSpec(2, 2, 1, 5))


def test_count_classes_mixed_ingredient_beyond_rank_cap():
    assert count_classes(EAActionSpec(3, 1, 1, 6)).total == 2
    # only the k = 2 term is nonzero, and its e(3,40,41) is the maximal-rank
    # ingredient: past the cost cap but closed-form (one class)
    report = count_classes(EAActionSpec(3, 42, 1, 41))
    assert report.total == 1
    assert report.e_used == ((40, 1),) and report.h_used == ((2, 1),)
    assert report.flags == ()
    assert report.method == "closed-form+witt"
    # below the cap the same kind of term, e(3,8,9), is counted by Burnside
    report = count_classes(EAActionSpec(3, 10, 1, 9))
    assert (report.total, report.e_used, report.method) == (1, ((8, 1),), "burnside+witt")


def test_count_classes_pure_and_unramified_payloads():
    report = count_classes(EAActionSpec(3, 1, 0, 6))
    assert (report.total, report.method, report.flags) == (2, "burnside", ())
    report = count_classes(EAActionSpec(3, 6, 0, 7))
    assert (report.total, report.method, report.flags) == (1, "burnside", ())
    # past the burnside steps cap, table 1's pure-7 row answers in closed form
    report = count_classes(EAActionSpec(3, 40, 0, 41))
    assert (report.total, report.method, report.flags) == (1, "closed-form", ())
    report = count_classes(EAActionSpec(2, 3, 2, 0))
    assert (report.total, report.method, report.flags) == (1, "witt", ())
    # h beyond the kernel oracle's box is the same closed form, with the same name
    report = count_classes(EAActionSpec(7, 2, 2, 0))
    assert (report.total, report.method, report.flags) == (2, "witt", ())
    report = count_classes(EAActionSpec(2, 1, 0, 3))   # r odd over p = 2: no term
    assert (report.total, report.method, report.flags) == (0, "closed-form", ())
    assert count_classes(EAActionSpec(5, 3, 0, 9)).total == 143_045
    with pytest.raises(CapExceededError, match="burnside steps cap"):
        count_classes(EAActionSpec(5, 3, 0, 5000))


def _mixed_orbit_count(p, n, rho, r):
    """Direct enumeration: orbits of admissible n-dimensional row spaces of
    F_p^{2 rho} + Z_r under Sp on the handle columns, adjacent swaps of the
    period columns and the point-push shear a_1 -> a_1 + c_1."""
    h = 2 * rho
    W = np.zeros((h + r - 1, h + r), dtype=np.int64)
    W[:h, :h] = np.eye(h, dtype=np.int64)
    W[h:, h:] = orbits._zero_sum_hyperplane_basis(p, r)
    M = orbits._enumerate_subspaces(p, W, n)
    M = M[(M[:, :, h:] != 0).any(axis=1).all(axis=1)]
    if len(M) == 0:
        return 0

    def sp(g):
        def move(batch):
            S = batch.astype(np.int64)
            S[:, :, :h] = (S[:, :, :h] @ g) % p
            return S
        return move

    def swap(c):
        def move(batch):
            S = batch.copy()
            S[:, :, [c, c + 1]] = S[:, :, [c + 1, c]]
            return S
        return move

    def shear(batch):
        S = batch.astype(np.int64)
        S[:, :, 0] = (S[:, :, 0] + S[:, :, h]) % p
        return S

    def keys(batch):
        # whole RREF rows as byte strings: n * (2 rho + r) base-p digits
        # outgrow the 63-bit packed keys
        R = np.ascontiguousarray(orbits.batch_rref(batch, p).reshape(len(batch), -1))
        return R.view(np.dtype((np.void, R.shape[1])))[:, 0]

    moves = [sp(g) for g in orbits.sp_generators(rho, p)]
    moves += [swap(c) for c in range(h, h + r - 1)] + [shear]
    return fp.orbit_components(keys(M), (keys(move(M)) for move in moves))[0]


MIXED_BOX = [(p, n, rho, r) for p in (2, 3, 5) for rho in (1, 2) for r in range(2, 7)
             for n in range(1, 2 * rho + r)]


def test_count_classes_matches_direct_enumeration():
    ran = 0
    for p, n, rho, r in MIXED_BOX:
        if orbits.gaussian_binomial(2 * rho + r - 1, n, p) > 20_000:
            continue
        want = _mixed_orbit_count(p, n, rho, r)
        assert count_classes(EAActionSpec(p, n, rho, r)).total == want, (p, n, rho, r)
        ran += 1
    assert ran == 117


def test_count_classes_agrees_with_is_unique_action():
    ran = 0
    # the mixed box, and its (n, rho, r) for p in {7, 11, 13}, which no oracle reaches
    sizes = sorted({spec[1:] for spec in MIXED_BOX})
    for p, n, rho, r in MIXED_BOX + [(p, *size) for p in (7, 11, 13) for size in sizes]:
        spec = EAActionSpec(p, n, rho, r)
        genus = ea_genus(spec)
        if genus.denominator != 1 or genus < 2:
            continue
        ran += 1
        assert (count_classes(spec).total == 1) == is_unique_action(spec), spec
    assert ran == 356


#: the printed uniqueness rows (table 2 cases 1-14), each a condition on
#: (p, n, rho, r) that applies when actions exist at all
PRINTED_UNIQUE_ROWS = (
    lambda p, n, rho, r: rho == 0 and n == r - 1,
    lambda p, n, rho, r: r == 0 and n == 1,
    lambda p, n, rho, r: r == 0 and rho >= 1 and n == 2 * rho,
    lambda p, n, rho, r: r == 2 and n == 1 and rho >= 1,
    lambda p, n, rho, r: r >= 2 and n == r + 2 * rho - 1,
    lambda p, n, rho, r: p == 5 and r == 3 and n == 1,
    lambda p, n, rho, r: p == 2 and n == 1 and r >= 2 and r % 2 == 0,
    lambda p, n, rho, r: p == 3 and n == 1 and r == 3,
    lambda p, n, rho, r: p == 3 and n == 1 and r == 4,
    lambda p, n, rho, r: p == 3 and n == 1 and r == 5,
    lambda p, n, rho, r: p == 3 and n == 1 and r == 7,
    lambda p, n, rho, r: r == 0 and rho >= 1 and n == 2 * rho - 1,
    lambda p, n, rho, r: p == 2 and rho == 0 and r == 5 and n == 3,
    lambda p, n, rho, r: p == 2 and r == 5 and n == 2,
)


def _unique_grid():
    for p in (2, 3, 5, 7, 11, 13):
        for rho in range(9):
            for r in range(11):
                for n in range(1, 2 * rho + r + 1):
                    genus = ea_genus(EAActionSpec(p, n, rho, r))
                    if genus.denominator == 1 and genus >= 2:
                        yield p, n, rho, r


def test_rank_split_extends_the_printed_rows_by_two_families():
    printed, derived, families = set(), set(), set()
    for p, n, rho, r in _unique_grid():
        if not genvec.no_actions_exist(n, rho, r) and any(
                row(p, n, rho, r) for row in PRINTED_UNIQUE_ROWS):
            printed.add((p, n, rho, r))
        if is_unique_action(EAActionSpec(p, n, rho, r)):
            derived.add((p, n, rho, r))
        # (rho; p^2) with n in {2, 2 rho}, (rho; 2^3) with n in {2, 3, 2 rho + 1}
        if (r == 2 and n in (2, 2 * rho)) or (p == 2 and r == 3 and n in (2, 3, 2 * rho + 1)):
            families.add((p, n, rho, r))
    assert len(printed) == 740
    assert printed <= derived
    assert derived - printed == families
    assert len(families) == 113


def test_no_pure_vectors_matches_the_bfs():
    for p in (2, 3, 5):
        for k in range(1, 4):
            for r in range(7):
                zero = orbits.count_pure_orbits_bfs(p, k, r) == 0
                assert genvec.no_pure_vectors(p, k, r) == zero, (p, k, r)
    assert not genvec.no_pure_vectors(2, 0, 0) and genvec.no_pure_vectors(2, 0, 2)
    assert genvec.no_pure_vectors(3, -1, 0)
    assert genvec.no_pure_vectors(2, 1, 5) and not genvec.no_pure_vectors(3, 1, 5)


def test_table_one_agrees_with_the_count_on_a_grid():
    # p <= 13, k <= 5, r <= 12: far past the pure box; CI runs k <= 8, r <= 16
    instances, pairs, mismatches = check_grid(5, 12)
    assert mismatches == []
    assert (instances, pairs) == (265, 222)


def test_count_classes_raises_where_table_one_disagrees(monkeypatch):
    # e(7, 1, 3) = 2 by Burnside: a table 1 row that names it is contradicted at runtime
    monkeypatch.setattr(genvec, "pure_unique_row",
                        lambda p, n, r: "pure-x" if (p, n, r) == (7, 1, 3) else None)
    with pytest.raises(AssertionError, match=r"e\(7, 1, 3\) = 2 contradicts table 1"):
        count_classes(EAActionSpec(7, 1, 0, 3))


@pytest.mark.parametrize("changed,e", [((7, 1, 3), 2), ((2, 3, 5), 1)])
def test_the_grid_fails_on_a_wrong_table_one_row(monkeypatch, changed, e):
    # (7, 1, 3) gains a row although e = 2; (2, 3, 5) loses pure-2 although e = 1
    row = genvec.pure_unique_row

    def wrong_row(p, n, r):
        if (p, n, r) != changed:
            return row(p, n, r)
        return None if row(p, n, r) else "pure-x: p=7, n=1, r=3"

    monkeypatch.setattr(genvec, "pure_unique_row", wrong_row)
    mismatches = check_grid(3, 5)[2]
    assert [mismatch[:4] for mismatch in mismatches] == [(*changed, e)]


def test_is_unique_action_examples():
    assert is_unique_action(EAActionSpec(2, 4, 0, 5))     # n = r - 1
    assert is_unique_action(EAActionSpec(2, 2, 1, 5))     # (rho;2^5), n=2
    assert not is_unique_action(EAActionSpec(3, 1, 1, 6))
    assert not is_unique_action(EAActionSpec(2, 5, 1, 2))  # no actions at all
    with pytest.raises(OutOfDomainError):
        is_unique_action(EAActionSpec(2, 1, 0, 2))        # genus 0
    with pytest.raises(OutOfDomainError):
        is_unique_action(EAActionSpec(2, 1, 1, 3))        # genus not integral


def test_unique_rules_report():
    # one label naming the surviving rank split and the pure row behind it
    assert unique_action_rules(EAActionSpec(2, 1, 2, 2)) == (
        "unique: h(k=0)=1, e(j=1)=1 (pure-1: p=2, n=1, r even)",)
    assert unique_action_rules(EAActionSpec(3, 4, 2, 2)) == (
        "unique: h(k=3)=1, e(j=1)=1 (pure-6: n=1, r=2)",)
    assert unique_action_rules(EAActionSpec(2, 3, 2, 0)) == (
        "unique: h(k=3)=1, e(j=0)=1 (j=r=0)",)
    assert unique_action_rules(EAActionSpec(3, 1, 1, 6)) == ()


def test_build_pair_worked_cases():
    v1, v2 = build_inequivalent_pair(3, 1, 6)
    assert multiset_character(v1) == (6,)
    assert multiset_character(v2) == (3, 3)
    v1, v2 = build_inequivalent_pair(2, 2, 6)
    assert list(v1.elliptic) == [(1, 0), (1, 0), (0, 1), (0, 1), (0, 1), (0, 1)]
    assert list(v2.elliptic) == [(1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1)]
    v1, v2 = build_inequivalent_pair(5, 1, 4)
    assert validate(v1) and validate(v2)
    assert multiset_character(v1) != multiset_character(v2)


def test_build_pair_rejects_unique_rows():
    with pytest.raises(PreconditionError):
        build_inequivalent_pair(5, 1, 3)
    with pytest.raises(PreconditionError):
        build_inequivalent_pair(2, 1, 6)
    with pytest.raises(PreconditionError):
        build_inequivalent_pair(3, 2, 3)   # r = n + 1
    with pytest.raises(PreconditionError):
        build_inequivalent_pair(2, 1, 7)   # no vectors at all
    with pytest.raises(PreconditionError):
        build_inequivalent_pair(3, 3, 3)   # r < n + 1


def test_build_pair_whole_small_box():
    from eag.genvec import pure_unique_row
    # the pinned box counts stand in for the BFS, which test_orbits ties to them
    pinned = {(p, k, r): count for p, k, r, count in PURE_BOX_COUNTS}
    for p in (2, 3, 5):
        for n in range(1, 5):
            for r in range(n + 1, 8):
                if pure_unique_row(p, n, r) is not None:
                    continue
                if p == 2 and n == 1:
                    continue
                v1, v2 = build_inequivalent_pair(p, n, r)
                assert validate(v1) and validate(v2), (p, n, r)
                assert multiset_character(v1) != multiset_character(v2), (p, n, r)
                assert pinned[(p, n, r)] >= 2, (p, n, r)


def test_pair_larger_primes_and_ranks():
    # past the oracles' boxes the constructions still validate
    for p, n, r in [(7, 1, 3), (7, 1, 8), (11, 1, 12), (7, 2, 9), (11, 3, 6),
                    (13, 4, 7), (7, 1, 15), (13, 1, 14), (11, 1, 23)]:
        v1, v2 = build_inequivalent_pair(p, n, r)
        assert validate(v1) and validate(v2), (p, n, r)
        assert multiset_character(v1) != multiset_character(v2), (p, n, r)


def test_count_caps_raise():
    # a row past the burnside steps cap, before any work: (r + 1)^2 steps for its one row
    with pytest.raises(CapExceededError, match="above the burnside steps cap"):
        count_pure_classes(7, 2, 5000)
    assert count_pure_classes(7, 2, 5) == 39
    # h is Witt's closed form for every p and rho: no cap
    assert count_unramified_classes(5, 2, 4) == 2
    assert count_unramified_classes(13, 5, 9) == genvec.witt_kernel_orbit_count(9, 5)
