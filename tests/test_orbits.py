import itertools
import random
import time

import numpy as np
import pytest

from eag import errors, fp, genvec, orbits
from eag.errors import CapExceededError, PreconditionError
from eag.genvec import count_classes
from eag.surfaces import EAActionSpec

from box_pins import PURE_BOX_COUNTS
import burnside_walk
from burnside_walk import (character_powers, class_matrix, class_profile, class_sum_rows,
                           fixed_multiset_rows, gl_conjugacy_classes, part_walk_weights,
                           product_form_row, weighted_rows)


def test_gaussian_binomial():
    assert orbits.gaussian_binomial(4, 2, 2) == 35
    assert orbits.gaussian_binomial(6, 3, 2) == 1395
    assert orbits.gaussian_binomial(6, 2, 5) == 508431
    assert orbits.gaussian_binomial(3, 0, 3) == 1
    assert orbits.gaussian_binomial(3, 4, 3) == 0


def test_batch_rref_matches_exact_rref():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        mats = rng.integers(0, p, size=(200, 3, 6))
        reduced = orbits.batch_rref(mats, p)
        for raw, got in zip(mats, reduced):
            want = fp.rref([tuple(row) for row in raw.tolist()], p)
            got_rows = tuple(tuple(r) for r in got.tolist() if any(r))
            assert got_rows == want


# (2, 12, 1): the pivot pattern (0,) alone holds 2^11 subspaces, two blocks
@pytest.mark.parametrize("p,n,k", [(2, 4, 2), (3, 4, 1), (3, 4, 3), (5, 3, 2), (2, 6, 0),
                                   (2, 12, 1)])
@pytest.mark.parametrize("basis", ["identity", "zero-sum"])
def test_enumerate_subspaces(p, n, k, basis):
    if basis == "identity":
        W = np.eye(n, dtype=np.int64)
    else:
        W = orbits._zero_sum_hyperplane_basis(p, n + 1)
    M = orbits._enumerate_subspaces(p, W, k)
    assert M.shape == (orbits.gaussian_binomial(n, k, p), k, W.shape[1])
    assert max(len(b) for b in orbits._subspace_blocks(p, W, k)) <= orbits.SUBSPACE_BLOCK
    assert (orbits.batch_rref(M, p) == M).all()
    keys = fp._pack_keys(M, p)
    assert len(np.unique(keys)) == len(keys)
    # every row spans a subspace of the row space of W
    stacked = np.concatenate([M, np.broadcast_to(W, (len(M),) + W.shape)], axis=1)
    assert (orbits.batch_rref(stacked, p)[:, n:] == 0).all()


def test_enumerate_subspaces_needs_an_identity_block():
    # the zero-sum basis e_i - e_(i+1) spans the same plane but is not [I | X]
    W = np.array([[1, 2, 0], [0, 1, 2]], dtype=np.int64)
    with pytest.raises(PreconditionError):
        orbits._enumerate_subspaces(3, W, 1)


# hand-derived counts: the (p=3, k=1, r=6) value comes from the two line
# types (all-equal vs balanced) and (p=2, k=2, r=6) from the two coordinate
# partitions {4,2,0} and {2,2,2}
HAND_VALUES = [
    ((2, 1, 4), 1), ((2, 1, 6), 1), ((3, 1, 3), 1), ((3, 1, 6), 2),
    ((2, 2, 4), 1), ((2, 2, 5), 1), ((2, 2, 6), 2), ((5, 1, 3), 1),
    ((2, 3, 5), 1), ((3, 3, 4), 1), ((5, 2, 3), 1), ((3, 1, 2), 1),
]


@pytest.mark.parametrize("pkr,value", HAND_VALUES)
def test_pure_orbit_counts_hand_checked(pkr, value):
    p, k, r = pkr
    assert orbits.count_pure_orbits_bfs(p, k, r) == value


@pytest.mark.parametrize("p,k,r,count", PURE_BOX_COUNTS)
def test_pure_box_counts_pinned(p, k, r, count):
    # the cached call is the one acceptance criterion 01 makes
    assert orbits.count_pure_orbits_bfs(p, k, r) == count


@pytest.mark.parametrize("p,k,r,count", PURE_BOX_COUNTS)
def test_pure_box_counts_burnside(p, k, r, count):
    assert genvec.count_pure_orbits_burnside(p, k, r) == count


def _canonical_instances_outside_the_box():
    """(p, k, r) with p <= 13, k <= 3, r <= 10 that only the canonical oracle reaches."""
    found = []
    for p in (2, 3, 5, 7, 11, 13):
        for k in (1, 2, 3):
            for r in range(k + 1, 11):
                if not orbits.pure_canonical_feasible(p, k, r):
                    continue
                try:
                    orbits.check_pure_caps(p, k, r)
                except CapExceededError:
                    found.append((p, k, r))
    return found


def test_burnside_matches_canonical_outside_the_box():
    instances = _canonical_instances_outside_the_box()
    assert {(2, 3, 10), (3, 2, 10), (13, 1, 9)} <= set(instances)
    assert len(instances) == 38
    for p, k, r in instances:
        assert genvec.count_pure_orbits_burnside(p, k, r) == \
            orbits.count_pure_orbits_canonical(p, k, r), (p, k, r)


def _class_reps(k, p):
    return np.stack([class_matrix(blocks, p) for _, blocks in gl_conjugacy_classes(k, p)])


def _class_row(blocks, p, r):
    return list(genvec._fixed_multiset_row(class_profile(blocks, p, r), p, r))


def test_fixed_multisets_python_ints_match_int64():
    # the walk counts in Python ints (object dtype) or in int64
    for p, k, r in [(5, 2, 7), (3, 3, 6), (2, 4, 8)]:
        reps = _class_reps(k, p)
        wide = fixed_multiset_rows(reps, p, r, object)
        assert wide.shape == (len(reps), r + 1)
        assert (wide == fixed_multiset_rows(reps, p, r, np.int64)).all()


def _fixed_by_enumeration(g, p, t):
    """Zero-sum t-multisets of nonzero vectors that g maps to themselves, counted one by one."""
    k = len(g)
    digits = p ** np.arange(k)
    vecs = (np.arange(p ** k)[:, None] // digits) % p
    image = ((vecs @ g.T) % p @ digits).tolist()
    count = 0
    for multiset in itertools.combinations_with_replacement(range(1, p ** k), t):
        if (vecs[list(multiset)].sum(axis=0) % p == 0).all() and \
                tuple(sorted(image[c] for c in multiset)) == multiset:
            count += 1
    return count


@pytest.mark.parametrize("k,p", [(1, 5), (2, 2), (2, 3), (3, 2)])
def test_fixed_multiset_rows_match_enumeration_class_by_class(k, p):
    # pins the closed form for each class and each cut r, not just the
    # class-size-weighted totals
    for _, blocks in gl_conjugacy_classes(k, p):
        rep = class_matrix(blocks, p)
        want = [_fixed_by_enumeration(rep, p, t) for t in range(7)]
        for r in range(1, 7):
            assert _class_row(blocks, p, r) == want[:r + 1], (rep.tolist(), r)


@pytest.mark.parametrize("k,p", [(4, 5), (3, 7), (2, 13), (5, 3), (6, 2)])
def test_class_rows_match_the_walk(k, p):
    reps = _class_reps(k, p)
    walked = fixed_multiset_rows(reps, p, 8, object)
    for (_, blocks), rep, row in zip(gl_conjugacy_classes(k, p), reps, walked):
        for r in range(2, 9):
            assert _class_row(blocks, p, r) == row[:r + 1].tolist(), (rep.tolist(), r)


@pytest.mark.parametrize("k,p", [(2, 3), (3, 2), (2, 5), (3, 3), (4, 2)])
def test_fixed_multiset_rows_depend_only_on_the_short_cycle_subspace(k, p):
    # classes with equal profiles have equal walked rows, and a class
    # whose d_1 .. d_r are all 0 fixes the empty multiset alone
    classes = gl_conjugacy_classes(k, p)
    reps = _class_reps(k, p)
    walked = fixed_multiset_rows(reps, p, 7, np.int64)
    for r in range(2, 8):
        rows = {}
        for (_, blocks), rep, row in zip(classes, reps, walked[:, :r + 1].tolist()):
            profile = class_profile(blocks, p, r)
            assert rows.setdefault(profile, row) == row, (rep.tolist(), r, profile)
            if not any(profile[0]):
                assert row == [1] + [0] * r, (rep.tolist(), r)
        assert len(rows) < len(classes)


def test_short_cycle_subspace_is_the_kernel_sum():
    # d_L, read from the blocks, against ker(g^L - 1) found by enumeration
    for k, p in [(2, 3), (3, 2), (2, 5), (3, 3)]:
        for _, blocks in gl_conjugacy_classes(k, p):
            rep = class_matrix(blocks, p)
            for r in range(1, 8):
                dims, unipotent = class_profile(blocks, p, r)
                assert len(unipotent) == dims[0]
                power = np.eye(k, dtype=np.int64)
                for L in range(1, r + 1):
                    power = power @ rep % p
                    kernel = _null_space(power - np.eye(k, dtype=np.int64), p)
                    assert len(kernel) == p ** dims[L - 1], (rep.tolist(), r, L)


def _null_space(A, p):
    """{v : A v = 0} over F_p, by enumeration (small k only)."""
    k = len(A)
    vecs = (np.arange(p ** k)[:, None] // p ** np.arange(k)) % p
    return [tuple(v) for v in vecs[(A @ vecs.T % p == 0).all(axis=0)].tolist()]


def _kernel_basis(A, p):
    """A basis of {v : A v = 0} over F_p, from the reduced row echelon form of A."""
    reduced = fp.rref(A.tolist(), p)
    pivots = [row.index(next(a for a in row if a)) for row in reduced]
    basis = []
    for free in (c for c in range(A.shape[1]) if c not in pivots):
        v = [0] * A.shape[1]
        v[free] = 1
        for row, pivot in zip(reduced, pivots):
            v[pivot] = -row[free] % p
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(-1, A.shape[1])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lucas_lemma_on_jordan_blocks(p):
    # N_L = 1 + J + ... + J^(L-1) is nonzero on ker(J^L - 1), J the unipotent
    # Jordan block of size m, exactly when m >= the p-part of L
    for m in range(1, 10):
        J = np.eye(m, dtype=np.int64) + np.eye(m, k=1, dtype=np.int64)
        power, N = np.eye(m, dtype=np.int64), np.zeros((m, m), dtype=np.int64)
        for L in range(1, 13):
            N = (N + power) % p
            power = power @ J % p
            kernel = _kernel_basis(power - np.eye(m, dtype=np.int64), p)
            assert ((power @ kernel.T - kernel.T) % p == 0).all()
            assert (N @ kernel.T % p).any() == (m >= genvec._p_part(L, p)), (m, L)


def test_gl_4_13_short_cycle_classes_and_out_of_box_counts():
    # 14,365 of the 28,548 classes of GL(4, 13) have d_1 = ... = d_6 = 0
    classes = gl_conjugacy_classes(4, 13)
    empty = sum(not any(class_profile(blocks, 13, 6)[0]) for _, blocks in classes)
    assert (len(classes), empty) == (28_548, 14_365)
    assert genvec.count_pure_orbits_burnside(7, 2, 5) == 39
    assert genvec.count_pure_orbits_burnside(5, 3, 9) == 143_045


def test_large_rows_outside_the_box():
    # each took over 10 s as a cycle walk over the short-cycle subspaces
    assert genvec.count_pure_orbits_burnside(13, 4, 6) == 128
    assert genvec._multiset_rows(7, 5, 5, 6)[5][6] == 638


def test_pure_box_counts_do_not_depend_on_request_order(monkeypatch):
    # the first request for (p, k) builds its row to ROW_MIN_PERIODS,
    # which holds every r of the box, in either order
    for reverse in (False, True):
        monkeypatch.setattr(genvec, "_ROWS", {})
        for p, k, r, count in sorted(PURE_BOX_COUNTS, key=lambda pin: pin[2], reverse=reverse):
            assert genvec.count_pure_orbits_burnside(p, k, r) == count, (p, k, r)


def _record_walks(monkeypatch) -> list[tuple]:
    """Empty ``_ROWS`` and record each walk from here on: (p, ranks, r)."""
    walks = []
    real = genvec._type_weights

    def recorded(p, ranks, r):
        walks.append((p, tuple(ranks), r))
        return real(p, ranks, r)

    monkeypatch.setattr(genvec, "_ROWS", {})
    monkeypatch.setattr(genvec, "_type_weights", recorded)
    return walks


def _memo_misses() -> int:
    """The profile rows that ``_fixed_multiset_row`` has built, not read from its memo."""
    return genvec._fixed_multiset_row.cache_info().misses


def test_pure_box_walks_each_rank_set_once(monkeypatch):
    # a count walks at most once, each rank set k - 1 .. k of the box is walked
    # by one count, and a second pass over the pins takes no walk and builds no
    # profile's row
    walks = _record_walks(monkeypatch)
    pins = list(PURE_BOX_COUNTS)
    random.Random(34).shuffle(pins)
    for p, k, r, count in pins:
        before = len(walks)
        assert genvec.count_pure_orbits_burnside(p, k, r) == count, (p, k, r)
        assert len(walks) - before <= 1, (p, k, r)
    sets = [(p, ranks) for p, ranks, _ in walks]
    assert sorted(sets) == sorted({(p, tuple(range(max(k - 1, 1), k + 1))) for p, k, _, _ in pins})
    misses = _memo_misses()
    for p, k, r, count in pins:
        assert genvec.count_pure_orbits_burnside(p, k, r) == count, (p, k, r)
    assert len(walks) == len(sets) and _memo_misses() == misses


def test_a_count_takes_one_walk(monkeypatch):
    # e(5, j, 7) for j = 1 .. 4 reads the rows of ranks 1 .. 4: one walk to
    # rank 4 builds all four, and the same count again reads them with no walk
    walks = _record_walks(monkeypatch)
    report = count_classes(EAActionSpec(5, 4, 2, 7))
    assert report.e_used == ((4, 268), (3, 789), (2, 204), (1, 6))
    assert walks == [(5, (1, 2, 3, 4), 8)]
    assert count_classes(EAActionSpec(5, 4, 2, 7)) == report
    assert len(walks) == 1
    # rank sets that overlap walk once each and share their profiles' rows:
    # ranks 2 and 3, after ranks 1, 2 and 3, 4, build no row
    walks = _record_walks(monkeypatch)
    genvec._fixed_multiset_row.cache_clear()
    for k in (2, 4):
        genvec.count_pure_orbits_burnside(5, k, 7)
    misses = _memo_misses()
    assert genvec.count_pure_orbits_burnside(5, 3, 7) == 789
    assert [ranks for _, ranks, _ in walks] == [(1, 2), (3, 4), (2, 3)]
    assert _memo_misses() == misses
    # kept rows answer no request past their periods: under a cap of 30,000
    # ranks 3 and 4 take 14,740 steps to r = 9 and 48,467 to r = 16, so their
    # rows kept to t = 8 answer r = 8, r = 9 rebuilds them to t = 9 alone,
    # and r = 16 is refused
    monkeypatch.setitem(errors.CAPS, "burnside steps", 30_000)
    assert genvec.count_pure_orbits_burnside(5, 4, 8) == 11_173
    assert genvec.count_pure_orbits_burnside(5, 4, 9) == 629_870
    assert [(ranks, r) for _, ranks, r in walks[3:]] == [((3, 4), 9)]
    with pytest.raises(CapExceededError, match="above the burnside steps cap of 30000"):
        genvec.count_pure_orbits_burnside(5, 4, 16)
    assert len(genvec._ROWS[5, 3, 4][4]) == 10


def test_a_refused_count_builds_no_row(monkeypatch):
    # (3, 4, 1, 6) reads e(3, j, 6) for j = 2, 3, 4, and table 1 names none of
    # them: one walk, then exit 4.  (3, 5, 1, 6) reads j = 3, 4, 5, where
    # e(3, 5, 6) = 1 is table 1's row pure-7: ranks 2 .. 5 take 13,140 steps
    # to R = 8 periods and ranks 2 .. 4 take 5,778, so under a cap of 5,000 the
    # retry at the lower ranks is refused too: one walk for each rank set
    walks = _record_walks(monkeypatch)
    monkeypatch.setattr(genvec, "_fixed_multiset_row", None)  # a row built would raise TypeError
    monkeypatch.setitem(errors.CAPS, "burnside steps", 5_000)
    with pytest.raises(CapExceededError, match="above the burnside steps cap of 5000"):
        count_classes(EAActionSpec(3, 4, 1, 6))
    assert [ranks for _, ranks, _ in walks] == [(1, 2, 3, 4)]
    with pytest.raises(CapExceededError, match="above the burnside steps cap of 5000"):
        count_classes(EAActionSpec(3, 5, 1, 6))
    assert [ranks for _, ranks, _ in walks[1:]] == [(2, 3, 4, 5), (2, 3, 4)]
    assert genvec._ROWS == {}


def test_a_refused_walk_is_not_charged_to_the_retry(monkeypatch):
    # under a cap of 10,000 ranks 2 .. 5 (13,140 steps) are refused and
    # ranks 2 .. 4 (5,778) answer alone: the top rank is table 1's
    walks = _record_walks(monkeypatch)
    monkeypatch.setitem(errors.CAPS, "burnside steps", 10_000)
    report = count_classes(EAActionSpec(3, 5, 1, 6))
    assert (report.total, report.method) == (18, "burnside+closed-form+witt")
    assert [ranks for _, ranks, _ in walks] == [(2, 3, 4, 5), (2, 3, 4)]


@pytest.mark.parametrize("cap", [14_000, 15_000, 17_000])
def test_admission_does_not_depend_on_the_kept_rows(monkeypatch, cap):
    # count_classes(5, 4, 2, 9) reads ranks 1 .. 4 (16,340 steps to r = 9),
    # and e(5, 4, 9) ranks 3 and 4 (14,740): under a cap of 15,000 a warm
    # process, holding the rows of the pure count, charged only ranks 1 and 2
    monkeypatch.setitem(errors.CAPS, "burnside steps", cap)

    def verdict():
        try:
            return count_classes(EAActionSpec(5, 4, 2, 9)).total
        except CapExceededError:
            return None

    monkeypatch.setattr(genvec, "_ROWS", {})
    cold = verdict()
    monkeypatch.setattr(genvec, "_ROWS", {})
    try:
        assert genvec.count_pure_orbits_burnside(5, 4, 9) == 629_870
    except CapExceededError:
        assert cap < 14_740
    assert verdict() == cold
    assert (cold is None) == (cap < 16_340)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 2), (5, 2), (13, 2)])
def test_shorter_rows_are_prefixes_of_longer_ones(p, k):
    # the cache serves r from a row built for any R > r; p = 2 has
    # unipotent blocks of sizes 1, 2 and 4 (Lucas), p = 13 only of size 1
    longest = genvec._burnside_rows(p, [k], 16)[k]
    for r in range(16):
        assert genvec._burnside_rows(p, [k], r)[k] == longest[:r + 1], (p, k, r)


def test_large_object_dtype_burnside_sum():
    # the sums pass 2^63 (the identity alone fixes C(13^3 + 8, 10)
    # multisets of size 10), which Python ints hold exactly
    assert genvec.count_pure_orbits_burnside(13, 3, 10) == 34_330_061_746_244


def test_e_13_5_7_without_class_enumeration():
    # GL(5, 13) has 371,112 classes, which took 9 s and 171 MB to list and sum
    start = time.process_time()
    assert genvec.count_pure_orbits_burnside(13, 5, 7) == 332
    assert time.process_time() - start < 1.0


def _rank_weights(weights, ranks) -> dict[int, dict[tuple, int]]:
    """{k: {profile: class size}} for each rank, from ``_type_weights``' sizes by profile."""
    return {k: {key: sizes[i] for key, sizes in weights.items() if sizes[i]}
            for i, k in enumerate(ranks)}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_type_sum_class_equation(p):
    # the class sizes, summed type by type, give |GL(k, p)| whatever r
    # makes short: r = 0 leaves every irreducible long
    for r in (0, 4, 10):
        weights = genvec._type_weights(p, range(1, 7), r)
        for k, sizes in _rank_weights(weights, range(1, 7)).items():
            assert sum(sizes.values()) == fp.gl_order(k, p), (k, r)


def test_type_rows_match_the_class_sum():
    # every rank's weights and rows M(p, k, 0..r), from one walk for all of
    # them, against the sum over the listed classes and the per-rank walk,
    # each rank built for its own r <= 10
    for p in (2, 3, 5, 7, 11, 13):
        ranks = [k for k in range(1, 5) if p ** k <= 30_000]
        want = {k: class_sum_rows(p, k, 10) for k in ranks}
        for r in range(11):
            weights = genvec._type_weights(p, ranks, r)
            rows = genvec._burnside_rows(p, ranks, r)
            for k in ranks:
                assert _rank_weights(weights, ranks)[k] == part_walk_weights(p, k, r), (p, k, r)
                assert list(rows[k]) == want[k][:r + 1], (p, k, r)


# (5, 4, 8) is also checked by the cycle walk; the other three lie past it
# and past the class-sum oracle (k <= 4)
TYPE_SUM_ROWS = [(5, 4, 8), (3, 8, 10), (2, 12, 13), (13, 5, 8)]


@pytest.mark.parametrize("p,k,r", TYPE_SUM_ROWS)
def test_series_recurrence_matches_the_product_form(p, k, r):
    # every profile of the row: the Euler-transform recurrence against the
    # product of (1 - x^s)^(-a_s) factors, negative a_s included
    negative = 0
    for profile in genvec._type_weights(p, [k], r):
        assert list(genvec._fixed_multiset_row(profile, p, r)) == product_form_row(profile, p, r), profile
        negative += any(a < 0 for _, power in character_powers(profile, p, r) for a in power)
    assert negative


@pytest.mark.parametrize("p,k,r", TYPE_SUM_ROWS)
def test_type_weights_match_the_part_walk(p, k, r):
    # every rank up to k from one walk against its own walk, one _with_block
    # per part, key for key, and each rank's row against the oracle's weights
    ranks = range(1, k + 1)
    weights = genvec._type_weights(p, ranks, r)
    rows = genvec._burnside_rows(p, ranks, r)
    for j, sizes in _rank_weights(weights, ranks).items():
        oracle = part_walk_weights(p, j, r)
        assert sizes == oracle, (p, j, r)
        assert list(rows[j]) == weighted_rows(oracle, p, j, r), (p, j, r)


def test_burnside_divisibility_catches_a_wrong_short_count(monkeypatch):
    # (d, e) = (2, 4) is x^2 + 1 over F_3: one more of it leaves one fewer
    # long quadratic, so the sizes still sum to |GL(k, 3)| and the rows are
    # wrong from t = 4 at every rank k >= 2; one more x + 1 leaves -1 long
    # linear ones, and the class equation fails at every rank.  The cache
    # builds to r = 8, where x^2 + 1 is also short and the class equation
    # fails first, so the rows for r = 7 are built directly
    real = genvec._short_types
    assert real(3, 2, 7) == ((1, 1, 1), (1, 2, 1), (2, 4, 1))
    monkeypatch.setattr(genvec, "_ROWS", {})
    for bumped, match in [((2, 4), r"\{2: \[4\], 3: \[4, 5, 6, 7\], 4: \[4, 5, 6, 7\]\} are not "
                                   r"multiples"),
                          ((1, 2), r"do not sum to its order for k in \[1, 2, 3, 4\]")]:
        monkeypatch.setattr(genvec, "_short_types", lambda p, k, r: tuple(
            (d, e, n + ((d, e) == bumped)) for d, e, n in real(p, k, r)))
        with pytest.raises(AssertionError, match=match):
            genvec._burnside_rows(3, range(1, 5), 7)
        with pytest.raises(AssertionError):
            genvec.count_pure_orbits_burnside(3, 2, 7)
        assert genvec._ROWS == {}


def test_burnside_divisibility_catches_a_wrong_class_size(monkeypatch):
    real = gl_conjugacy_classes
    classes = real(2, 3)
    size, blocks = classes[0]
    assert any(class_profile(blocks, 3, 7)[0])  # the tampered class fixes more than {}
    wrong = ((size + 1, blocks),) + classes[1:]
    monkeypatch.setattr(burnside_walk, "gl_conjugacy_classes",
                        lambda k, p: wrong if (k, p) == (2, 3) else real(k, p))
    # the row built for r = 7 checks every t <= 7, r = 5 among them
    with pytest.raises(AssertionError, match=r"t = \[.*\b5\b.*\] are not multiples"):
        class_sum_rows(3, 2, 7)
    with pytest.raises(AssertionError, match="not multiples"):
        class_sum_rows(3, 2, 5)


def _closed_form_mismatches():
    """Check both closed-form moves against ``batch_rref`` of the moved batch.

    Runs every (p, k, r) with p in {2, 3, 5}, 2 <= r <= 7, 1 <= k < r and at
    most 20,000 k-subspaces of the zero-sum hyperplane that has admissible
    subspaces; returns those instances and the (move, p, k, r) that differ.
    """
    checked, bad = [], []
    for p in (2, 3, 5):
        for r in range(2, 8):
            for k in range(1, r):
                if orbits.gaussian_binomial(r - 1, k, p) > 20_000:
                    continue
                M = orbits._enumerate_subspaces(p, orbits._zero_sum_hyperplane_basis(p, r), k)
                M = M[(M != 0).any(axis=1).all(axis=1)]
                if len(M) == 0:
                    continue
                checked.append((p, k, r))
                swapped = M.copy()
                swapped[:, :, [0, 1]] = swapped[:, :, [1, 0]]
                if not np.array_equal(orbits._swap01_rref(M, p),
                                      orbits.batch_rref(swapped, p)):
                    bad.append(("swap", p, k, r))
                if not np.array_equal(orbits._cycle_rref(M, p),
                                      orbits.batch_rref(np.roll(M, 1, axis=2), p)):
                    bad.append(("cycle", p, k, r))
    return checked, bad


def test_closed_form_moves_match_batch_rref():
    checked, bad = _closed_form_mismatches()
    assert bad == []
    assert {(2, 1, 2), (3, 1, 2), (5, 1, 2)} <= set(checked)
    assert {(p, r - 1, r) for p in (2, 3) for r in range(2, 8)} <= set(checked)
    assert len(checked) == 54


def test_closed_form_oracle_catches_a_wrong_scale(monkeypatch):
    # a mutant that scales by c[i0] in place of its inverse; only p = 5 has
    # a unit that is not its own inverse, so only p = 5 can show it
    monkeypatch.setattr(orbits, "_inverse_table", lambda p: np.arange(p, dtype=np.int16))
    checked, bad = _closed_form_mismatches()
    assert any(move == "cycle" for move, *_ in bad)
    assert all(p == 5 for _, p, k, r in bad)


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5) for k in (1, 2, 3, 4)
                                 if p ** k <= 25])
def test_zero_sum_walk_is_the_filtered_multisets(p, k):
    # the forced-last array against every r-multiset of nonzero codes, kept
    # when its vectors sum to 0, in lexicographic order
    found = 0
    for r in range(2, 7):
        multisets = np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(1, p ** k), r)),
            dtype=np.int64).reshape(-1, r)
        zero = np.ones(len(multisets), dtype=bool)
        for i in range(k):  # coordinate i of code c is c // p^i mod p
            zero &= (multisets // p ** i % p).sum(axis=1) % p == 0
        got = orbits._zero_sum_multisets(p, k, r)
        assert got.shape == (int(zero.sum()), r), (p, k, r)
        assert np.array_equal(got, multisets[zero]), (p, k, r)
        found += len(got)
    assert found


def test_pure_canonical_catches_an_image_outside_the_walk(monkeypatch):
    # the zero matrix sends every multiset to zero vectors, which no key has
    gl = orbits._general_linear(1, 3)
    monkeypatch.setattr(orbits, "_general_linear",
                        lambda k, p: np.concatenate([gl, np.zeros((1, 1, 1), dtype=gl.dtype)]))
    with pytest.raises(AssertionError, match="image missing from enumeration"):
        orbits.count_pure_orbits_canonical.__wrapped__(3, 1, 4)


def test_pure_canonical_keys_fit_past_r_base_q_digits():
    # the multiplicity keys fit 63 bits where r base-p^k digits would not:
    # 3^40, 2^64 and 7^23 all pass 2^63
    for p, k, r in [(3, 1, 40), (2, 1, 64), (7, 1, 23)]:
        assert (p ** k) ** r >= 2 ** 63 and orbits.pure_canonical_feasible(p, k, r)
        assert orbits.count_pure_orbits_canonical(p, k, r) == \
            genvec.count_pure_orbits_burnside(p, k, r), (p, k, r)


def test_pure_canonical_agrees_with_bfs():
    grid = [(2, k, r) for k in (1, 2, 3) for r in range(2, 8)] + \
           [(3, k, r) for k in (1, 2) for r in range(2, 8)] + \
           [(5, 1, r) for r in range(2, 8)] + \
           [(5, 2, r) for r in range(3, 6)]
    checked = 0
    for p, k, r in grid:
        if k > r - 1:
            continue
        if not orbits.pure_canonical_feasible(p, k, r):
            continue
        assert orbits.count_pure_orbits_canonical(p, k, r) == \
            orbits.count_pure_orbits_bfs(p, k, r), (p, k, r)
        checked += 1
    assert checked >= 20


def test_pure_caps():
    with pytest.raises(CapExceededError):
        orbits.count_pure_orbits_bfs(7, 1, 4)
    with pytest.raises(CapExceededError):
        orbits.count_pure_orbits_bfs(5, 3, 9)
    with pytest.raises(CapExceededError):
        orbits.count_pure_orbits_canonical(5, 3, 7)


def test_kernel_orbits_three_ways():
    for p in (2, 3):
        for rho in (1, 2):
            for k in range(0, 2 * rho + 1):
                bfs = orbits.count_kernel_orbits_bfs(p, k, rho)
                witt = genvec.witt_kernel_orbit_count(rho, k)
                assert bfs == witt, (p, rho, k)
                if orbits.kernel_canonical_feasible(p, rho):
                    assert orbits.count_kernel_orbits_canonical(p, k, rho) == witt


def test_kernel_orbits_rho3():
    checked = 0
    for p in (2, 3, 5):
        for k in range(0, 7):
            try:
                orbits.check_unramified_caps(p, k, 3)
            except CapExceededError:
                continue
            assert orbits.count_kernel_orbits_bfs(p, k, 3) == \
                genvec.witt_kernel_orbit_count(3, k), (p, k)
            checked += 1
    # p = 5 keeps k in {0, 1, 5, 6}; k = 1 and k = 5 rely on the complement
    assert checked == 18


@pytest.mark.parametrize("block", [1, 97, 10 ** 9])
def test_kernel_canonical_marking_stops_exactly(monkeypatch, block):
    # every feasible (p, k, rho) with p <= 5 and rho <= 2; one element per
    # block over the 51,840 of Sp(4, 3) takes about 16 s of CPU, so block 1
    # skips it
    instances = [(p, k, rho) for p in (2, 3, 5) for rho in (1, 2)
                 if orbits.kernel_canonical_feasible(p, rho)
                 and (block > 1 or len(orbits.sp_group(rho, p)) <= 720)
                 for k in range(2 * rho + 1)]
    assert (2, 2, 2) in instances and ((3, 2, 2) in instances) == (block > 1)
    monkeypatch.setattr(orbits, "ORBIT_MARK_BLOCK", block)
    orbits.count_kernel_orbits_canonical.cache_clear()
    try:
        for p, k, rho in instances:
            assert orbits.count_kernel_orbits_canonical(p, k, rho) == \
                genvec.witt_kernel_orbit_count(rho, k), (p, k, rho)
    finally:
        orbits.count_kernel_orbits_canonical.cache_clear()


def test_kernel_canonical_blocks_are_strided(monkeypatch):
    # each block group[b::stride] meets every first row: the one orbit of
    # the 40 lines of F_3^4 is seen in one block, and the first of the two
    # orbits of planes gets the whole group before the second starts
    sizes = []
    batch_rref = orbits.batch_rref

    def counted(mats, p):
        sizes.append(len(mats))
        return batch_rref(mats, p)

    monkeypatch.setattr(orbits, "batch_rref", counted)
    order = len(orbits.sp_group(2, 3))
    stride = -(-order // orbits.ORBIT_MARK_BLOCK)
    assert orbits.count_kernel_orbits_canonical.__wrapped__(3, 3, 2) == 1
    assert len(sizes) == 1 and sizes[0] == len(range(0, order, stride))
    sizes.clear()
    assert orbits.count_kernel_orbits_canonical.__wrapped__(3, 2, 2) == 2
    assert len(sizes) > stride and sum(sizes[:stride]) == order
    assert max(sizes) <= orbits.ORBIT_MARK_BLOCK


def test_kernel_canonical_whole_space_needs_no_group(monkeypatch):
    # k = 0 leaves the whole space as the one kernel, and k = 2 rho the zero
    # subspace: neither needs the group
    monkeypatch.setattr(orbits, "sp_group", None)
    for p, rho in [(2, 1), (3, 2), (13, 1)]:
        assert orbits.count_kernel_orbits_canonical.__wrapped__(p, 0, rho) == 1
        assert orbits.count_kernel_orbits_canonical.__wrapped__(p, 2 * rho, rho) == 1


def test_kernel_canonical_catches_an_image_outside_the_enumeration(monkeypatch):
    # a row reduction that leaves a scaled row gives keys no subspace has
    monkeypatch.setattr(orbits, "batch_rref", lambda mats, p: (2 * mats) % p)
    with pytest.raises(AssertionError, match="missing from enumeration"):
        orbits.count_kernel_orbits_canonical.__wrapped__(3, 1, 1)


def test_kernel_caps():
    with pytest.raises(CapExceededError):
        orbits.count_kernel_orbits_bfs(2, 2, 4)
    with pytest.raises(CapExceededError):
        orbits.count_kernel_orbits_canonical(3, 2, 3)


def _one_shot_components(keys, image_keys):
    """Reference: one scipy graph holding the edges of every move at once."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    U = np.sort(keys)
    src = np.searchsorted(U, keys)
    dst = np.concatenate([src] + [np.searchsorted(U, nk) for nk in image_keys])
    g = coo_matrix((np.ones(len(dst), dtype=np.int8),
                    (np.tile(src, len(image_keys) + 1), dst)), shape=(len(U), len(U)))
    count, labels = connected_components(g, directed=False)
    return count, labels[src]


def test_orbit_components_matches_one_shot_graph():
    rng = np.random.default_rng(8)
    for _ in range(300):
        B = int(rng.integers(1, 80))
        keys = rng.choice(10 ** 6, size=B, replace=False).astype(np.uint64)
        images = []
        for _ in range(int(rng.integers(0, 5))):
            # a move that fixes most objects and sends the rest anywhere
            image = keys.copy()
            moved = rng.random(B) < rng.random() * 0.3
            image[moved] = keys[rng.integers(0, B, size=int(moved.sum()))]
            images.append(image)
        count, labels = fp.orbit_components(keys, iter(images))
        want_count, want_labels = _one_shot_components(keys, images)
        assert count == want_count
        # the same labels, not just the same partition
        assert np.array_equal(labels, want_labels)


def test_move_blocks_leave_counts_unchanged(monkeypatch):
    pure = [(3, 2, 5), (2, 3, 6), (5, 1, 5)]
    kernel = [(2, 2, 2), (3, 1, 2), (3, 2, 2)]

    def counts():
        return ([orbits.count_pure_orbits_bfs.__wrapped__(*c) for c in pure],
                [orbits.count_kernel_orbits_bfs.__wrapped__(*c) for c in kernel])

    whole = counts()
    monkeypatch.setattr(orbits, "MOVE_BLOCK", 7)
    assert counts() == whole
    assert whole == ([orbits.count_pure_orbits_canonical(*c) for c in pure],
                     [genvec.witt_kernel_orbit_count(rho, k) for p, k, rho in kernel])


def test_orbit_components_long_chain_and_one_cycle():
    # a path whose nodes alternate between the two ends of the key range
    # takes two hooking rounds and a long pointer jump; labels follow the
    # least key
    B = 200_000
    keys = np.arange(B, dtype=np.uint64) * np.uint64(3)
    order = np.empty(B, dtype=np.int64)
    order[0::2], order[1::2] = np.arange((B + 1) // 2), B - 1 - np.arange(B // 2)
    chain = keys.copy()
    chain[order[:-1]] = keys[order[1:]]
    count, labels = fp.orbit_components(keys, [chain])
    assert count == 1 and not labels.any()
    # one cycle through all keys in a random order takes 11 rounds
    perm = np.random.default_rng(16).permutation(B)
    cycle = np.empty_like(keys)
    cycle[perm] = keys[np.roll(perm, -1)]
    count, labels = fp.orbit_components(keys[::-1].copy(), [cycle[::-1].copy()])
    assert count == 1 and not labels.any()
    # two chains, split by key parity, over two moves: labels by least key
    step = keys.copy()
    step[:-2] = keys[2:]
    count, labels = fp.orbit_components(keys, [step, keys])
    assert count == 2 and np.array_equal(labels, np.arange(B) % 2)
