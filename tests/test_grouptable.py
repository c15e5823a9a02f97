import itertools
import math
import random
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from eag import cli, genvec, grouptable as gt
from eag.errors import CAPS, CapExceededError, PreconditionError
from eag.fp import _pack_keys, orbit_components
from eag.surfaces import Signature, riemann_hurwitz_genus

from table_file import dumps


def test_table_construction_rejects_bad_tables():
    with pytest.raises(PreconditionError):
        gt.GroupTable([[0, 1], [1, 1]])            # not a latin square
    with pytest.raises(PreconditionError):
        gt.GroupTable([[1, 0], [0, 1]])            # 0 is not the identity
    # a latin square with identity that is not associative
    rps = [[0, 1, 2, 3, 4],
           [1, 0, 3, 4, 2],
           [2, 4, 0, 1, 3],
           [3, 2, 4, 0, 1],
           [4, 3, 1, 2, 0]]
    with pytest.raises(PreconditionError):
        gt.GroupTable(rps)


def test_catalog_orders():
    assert gt.cyclic(10).order == 10
    assert gt.dihedral(4).order == 8
    assert gt.symmetric(4).order == 24
    assert gt.alternating(4).order == 12
    assert gt.alternating(5).order == 60
    assert gt.by_name("C2xC4").order == 8
    assert gt.by_name("S3").order == 6


def test_by_name_caps_the_order_before_building():
    cap = CAPS["group order"]
    assert gt.by_name("C2xC2xC4xC4").order == 64 <= cap
    assert gt.by_name("D3xS3").order == 36 and gt.by_name(f"C{cap}").order == cap
    for name in ("C100000", "C2xC100000", "A5xA5", f"C{cap + 1}"):
        with pytest.raises(CapExceededError, match=f"above the group order cap of {cap}"):
            gt.by_name(name)
    for name in ("C0", "D0", "Q8", "S5", "C2x", ""):
        with pytest.raises(PreconditionError):
            gt.by_name(name)


def test_element_orders_and_inverses():
    c6 = gt.cyclic(6)
    assert c6.element_orders == (1, 6, 3, 2, 3, 6)
    for a in range(6):
        assert c6.mul(a, c6.inv(a)) == 0
    d4 = gt.dihedral(4)
    assert sorted(d4.element_orders) == [1, 2, 2, 2, 2, 2, 4, 4]


@pytest.mark.parametrize("group,count", [
    (gt.cyclic(10), 4),
    (gt.by_name("C2xC2"), 6),
    (gt.cyclic(1), 1),
    (gt.symmetric(3), 6),
    (gt.dihedral(4), 8),
    (gt.alternating(4), 24),
])
def test_automorphism_counts(group, count):
    autos = gt.automorphisms(group)
    assert autos.shape == (count, group.order)
    for alpha in autos.tolist():
        assert alpha[0] == 0
        assert sorted(alpha) == list(range(group.order))


def test_automorphism_cap():
    with pytest.raises(CapExceededError):
        gt.automorphisms(gt.by_name("C2xC2xC4xC4"))


def test_closure_matches_product_closure():
    # closure walks from the identity by the given elements only; the
    # reference multiplies every pair of elements seen until nothing is new
    rng = random.Random(8)
    for g in (gt.symmetric(4), gt.alternating(4), gt.dihedral(6), gt.by_name("C2xC4")):
        for _ in range(50):
            elements = rng.sample(range(g.order), rng.randint(0, 3))
            want = set(elements) | {0}
            while more := {g.mul(a, b) for a in want for b in want} - want:
                want |= more
            assert g.closure(elements) == want


def test_braid_move_abelian_is_transposition():
    c6 = gt.cyclic(6)
    v = gt.TableVector(c6, (2, 3, 1))
    w = gt.braid_move(v, 1)
    assert w.elliptic == (3, 2, 1)
    assert gt.braid_move(w, 1).elliptic == v.elliptic


def test_braid_move_preserves_product_and_periods():
    rng = random.Random(21)
    for g in (gt.symmetric(3), gt.dihedral(4), gt.cyclic(10)):
        for _ in range(300):
            r = rng.randint(3, 6)
            c = [rng.randrange(1, g.order) for _ in range(r - 1)]
            c.append(g.inv(g.product(c)))
            if 0 in c:
                continue
            v = gt.TableVector(g, tuple(c))
            for i in range(1, r):
                w = gt.braid_move(v, i)
                assert w.product() == v.product() == 0
                assert sorted(w.periods()) == sorted(v.periods())
                if gt.validate_table_vector(v):
                    assert gt.validate_table_vector(w)


def test_braid_move_bounds():
    v = gt.TableVector(gt.cyclic(4), (1, 1, 1, 1))
    with pytest.raises(PreconditionError):
        gt.braid_move(v, 0)
    with pytest.raises(PreconditionError):
        gt.braid_move(v, 4)


def test_count_orbits_known_values():
    assert gt.count_orbits(gt.cyclic(10), Signature(0, (2, 5, 10))) == 1
    assert gt.count_orbits(gt.cyclic(5), Signature(0, (5, 5, 5))) == 1
    assert gt.count_orbits(gt.cyclic(2), Signature(0, (2, 2, 2, 2))) == 1


def test_count_orbits_rejects_positive_genus():
    with pytest.raises(PreconditionError):
        gt.count_orbits(gt.cyclic(2), Signature(1, (2, 2)))


def test_count_orbits_matches_elementary_abelian_counter():
    cases = [(2, 1, 4), (2, 1, 6), (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 7),
             (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 1, 6), (5, 1, 3), (5, 1, 4),
             (2, 3, 4), (2, 3, 5), (2, 3, 6), (3, 2, 3), (3, 2, 4), (3, 2, 5)]
    for p, n, r in cases:
        table = elementary_abelian(p, n)
        got = gt.count_orbits(table, Signature(0, (p,) * r))
        want = genvec.count_pure_classes(p, n, r)
        assert got == want, (p, n, r)


def _partition(g, sig):
    """The orbits as frozensets of tuples, ordered by their least tuple: the
    states of ``_orbit_graph`` grouped by the labels of the orbit engine."""
    S, keys, images = gt._orbit_graph(g, sig)
    count, labels = orbit_components(keys, images)
    return [frozenset(map(tuple, S[labels == c].tolist())) for c in range(count)]


def _naive_orbits(g, sig):
    """Reference partition: a python BFS applying every braid move and every
    automorphism to each enumerated tuple."""
    states = set(map(tuple, gt._enumerate_tuples(g, sig.periods).tolist()))
    autos = gt.automorphisms(g).tolist()
    orbits, seen = [], set()
    for start in sorted(states):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            s = frontier.pop()
            v = gt.TableVector(g, s)
            images = [gt.braid_move(v, i).elliptic for i in range(1, len(s))]
            images += [tuple(alpha[c] for c in s) for alpha in autos]
            for t in images:
                assert t in states
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


@pytest.mark.parametrize("name,sig,count", [
    ("S3", (2, 2, 2, 2), 1),
    ("D4", (2, 2, 2, 4), 1),
    ("C2xC4", (2, 2, 4, 4), 3),
    ("A4", (2, 3, 3), 1),
])
def test_orbit_partition_matches_naive_bfs(name, sig, count):
    g = gt.by_name(name)
    want = _naive_orbits(g, Signature(0, sig))
    got = _partition(g, Signature(0, sig))
    assert len(want) == count
    assert sorted(got, key=min) == want


#: the ``eag orbits`` calls of a desk session and more catalog groups
DESK_ORBIT_CASES = [
    ("x".join([f"C{p}"] * n), (p,) * r)
    for p, n, r in [(2, 1, 4), (2, 1, 6), (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 7),
                    (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 1, 6), (5, 1, 3), (5, 1, 4),
                    (2, 3, 4), (2, 3, 5), (2, 3, 6), (3, 2, 3), (3, 2, 4), (3, 2, 5)]
] + [
    ("A5", (2, 3, 5)), ("A5", (2, 2, 2, 3)), ("S4", (2, 3, 4)), ("D6", (2, 2, 2, 2, 2)),
    ("C2xC4", (2, 2, 4, 4)), ("C10", (2, 5, 10)), ("S3", (2, 2, 2, 2)),
    ("D4", (2, 2, 2, 4)), ("A4", (3, 3, 3, 3)), ("D5", (2, 2, 5)), ("C3xC3", (3, 3, 3, 3)),
    ("A5", (3, 3, 5)), ("S4", (3, 4, 4)), ("C4xC4", (4, 4, 4, 4)), ("C2xC2xC3", (2, 6, 6)),
]


def _all_automorphism_orbits(g, sig):
    """The partition with one edge per tuple to the least key of its orbit
    under every automorphism, next to the braid-move edges."""
    S = gt._enumerate_tuples(g, sig.periods)
    images = [_pack_keys(np.array([gt.braid_move(gt.TableVector(g, tuple(s)), i).elliptic
                                   for s in S.tolist()]), g.order)
              for i in range(1, len(sig.periods))]
    autos = gt.automorphisms(g)
    images.append(np.min([_pack_keys(alpha[S], g.order) for alpha in autos], axis=0))
    count, labels = orbit_components(_pack_keys(S, g.order), images)
    return [frozenset(map(tuple, S[labels == c].tolist())) for c in range(count)]


@pytest.mark.parametrize("name,sig", DESK_ORBIT_CASES)
def test_generator_edges_match_every_automorphism(name, sig):
    g = gt.by_name(name)
    want = _all_automorphism_orbits(g, Signature(0, sig))
    assert _partition(g, Signature(0, sig)) == want


def test_orbit_sizes_sum_to_the_enumerated_states():
    # the orbits are disjoint and cover the states, which are distinct
    for name, sig in DESK_ORBIT_CASES:
        g = gt.by_name(name)
        states = gt._enumerate_tuples(g, sig)
        orbits = _partition(g, Signature(0, sig))
        assert sum(len(orbit) for orbit in orbits) == len(states), name
        assert len(frozenset().union(*orbits)) == len(states), name
        assert all(len(s) == len(sig) for orbit in orbits for s in orbit), name


#: peak bytes that count_orbits allocates per state: 82 measured on the call
#: below (the tuples, their keys, and the orbit engine's arrays for one image)
BYTES_PER_STATE = 100


def test_count_orbits_bytes_per_state():
    g, sig = gt.by_name("C2xC2xC2"), Signature(0, (2,) * 7)
    # a first call loads and compiles what numpy imports lazily, once
    assert gt.count_orbits(g, Signature(0, (2,) * 4)) == 1
    assert len(gt._enumerate_tuples(g, sig.periods)) == 99_120
    tracemalloc.start()
    try:
        count = gt.count_orbits(g, sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 4
    assert peak < BYTES_PER_STATE * 99_120


def _closure(perms, n):
    """Every composite of the permutations of range(n), by a python
    breadth-first search."""
    seen = frontier = {tuple(range(n))}
    while frontier:
        frontier = {tuple(gen[x] for x in beta) for beta in frontier for gen in perms} - seen
        seen |= frontier
    return seen


@pytest.mark.parametrize("name", sorted({name for name, _ in DESK_ORBIT_CASES}
                                        | {"C1", "C2xC2xC2xC2", "S3xC3"}))
def test_automorphism_group_generators_generate_aut(name):
    g = gt.by_name(name)
    autos = set(map(tuple, gt.automorphisms(g).tolist()))
    gens = [tuple(alpha.tolist()) for alpha in gt.automorphism_group_generators(g)]
    assert set(gens) <= set(autos) and len(set(gens)) == len(gens)
    assert _closure(gens, g.order) == autos
    if name == "C2xC2xC2xC2":
        assert len(autos) == 20160


def test_count_orbits_c2_to_the_4_by_generator_edges():
    # 504,000 tuples and |Aut| = 20,160: the bound holds only while Aut(G)
    # costs a few passes over the tuples, not one per automorphism
    start = time.process_time()
    got = gt.count_orbits(elementary_abelian(2, 4), Signature(0, (2,) * 6))
    assert time.process_time() - start < 30
    assert got == genvec.count_pure_classes(2, 4, 6) == 2


def test_count_orbits_state_cap(monkeypatch):
    # the candidates bound the states, so the cap on them is the state cap
    monkeypatch.setitem(CAPS, "tuple candidates", 100)
    with pytest.raises(CapExceededError, match="above the tuple candidates cap of 100"):
        gt.count_orbits(gt.by_name("C2xC2xC2"), Signature(0, (2,) * 6))


def test_count_orbits_invariant_under_relabeling():
    rng = random.Random(4)
    g = gt.cyclic(10)
    base = gt.count_orbits(g, Signature(0, (2, 5, 10)))
    for _ in range(3):
        perm = [0] + rng.sample(range(1, 10), 9)
        inv = [0] * 10
        for i, x in enumerate(perm):
            inv[x] = i
        relabeled = gt.GroupTable(
            [[inv[g.mul(perm[a], perm[b])] for b in range(10)] for a in range(10)])
        assert gt.count_orbits(relabeled, Signature(0, (2, 5, 10))) == base


# ---------------------------------------------------------------------------
# the paper's sphere-quotient and kernel lemmas, checked on concrete tables


def elementary_abelian(p: int, n: int) -> gt.GroupTable:
    g = gt.cyclic(p)
    for _ in range(n - 1):
        g = gt.direct_product(g, gt.cyclic(p))
    return g


def center(g: gt.GroupTable) -> tuple[int, ...]:
    return tuple(a for a in range(g.order)
                 if all(g.mul(a, b) == g.mul(b, a) for b in range(g.order)))


def is_normal(g: gt.GroupTable, elements) -> bool:
    s = set(elements)
    return (0 in s and all(g.mul(a, g.inv(b)) in s for a in s for b in s)
            and all(g.conj(a, x) in s for a in s for x in range(g.order)))


@dataclass(frozen=True)
class KPattern:
    """Recognised sphere quotient: cyclic, dihedral, or a Platonic group."""

    kind: str          # "C", "D", "A4", "S4", "A5"
    n: int | None      # the subscript for C_n / D_n; None otherwise
    profile: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.n}" if self.n is not None else self.kind


def classify_k_pattern(orders) -> KPattern | None:
    """Match a multiset of nontrivial image orders to a sphere quotient.

    Exactly two nontrivial images of equal order n give C_n; exactly three
    give D_n (2,2,n), A4 (2,3,3), S4 (2,3,4) or A5 (2,3,5).
    """
    prof = tuple(sorted(orders))
    if any(o < 2 for o in prof):
        return None
    if len(prof) == 2 and prof[0] == prof[1]:
        return KPattern("C", prof[0], prof)
    if len(prof) == 3:
        if prof[0] == 2 and prof[1] == 2:
            return KPattern("D", prof[2], prof)
        if prof == (2, 3, 3):
            return KPattern("A4", None, prof)
        if prof == (2, 3, 4):
            return KPattern("S4", None, prof)
        if prof == (2, 3, 5):
            return KPattern("A5", None, prof)
    return None


def compatible_generator_orders(p: int, image_order: int) -> set[int]:
    """Possible orders of a canonical generator with the given image order.

    Torsion below the quotient all has order p, so a trivial image forces
    order p and a nontrivial image of order a forces order a or a*p.
    """
    if image_order < 1:
        raise PreconditionError("image order must be >= 1")
    if image_order == 1:
        return {p}
    return {image_order, image_order * p}


def order_profiles_equal_kernels(profile1, profile2) -> bool:
    """Kernel-equality criterion: equal image-order profiles, componentwise.

    Two epimorphisms onto the same sphere quotient have equal kernels
    exactly when every canonical generator has the same image order under
    both; ``test_profile_criterion_matches_explicit_kernels`` confirms this
    on concrete tables by comparing actual kernels.
    """
    p1, p2 = tuple(profile1), tuple(profile2)
    if len(p1) != len(p2):
        raise PreconditionError("order profiles have different lengths")
    return p1 == p2


def normal_subgroup_signature(g: gt.GroupTable, sig: Signature, elliptic,
                              subgroup) -> Signature:
    """Signature of a normal subgroup's action, from the overgroup's data.

    Each elliptic entry c of order m whose image in G/A has order b
    contributes [G:A]/b branch points of period m/b (none when m = b).  The
    subgroup orbit genus is recovered from the shared surface genus.
    """
    sub = frozenset(subgroup)
    if not is_normal(g, sub):
        raise PreconditionError("subgroup is not normal")
    if len(elliptic) != sig.r:
        raise PreconditionError("elliptic entries do not match the signature")
    index = g.order // len(sub)
    periods = []
    for c in elliptic:
        m = g.element_orders[c]
        b, x = 1, c
        while x not in sub:
            x = g.mul(x, c)
            b += 1
        if m != b:
            periods.extend([m // b] * (index // b))
    sigma = riemann_hurwitz_genus(g.order, sig)
    sub_order = len(sub)
    branch_term = sum(1 - Fraction(1, m) for m in periods)
    rho = (sigma - 1 - Fraction(sub_order, 2) * branch_term) / sub_order + 1
    if rho.denominator != 1 or rho < 0:
        raise PreconditionError(f"inconsistent subgroup data: orbit genus {rho}")
    return Signature(int(rho), tuple(sorted(periods)))


def test_classify_k_pattern():
    assert str(classify_k_pattern([2, 3, 4])) == "S4"
    assert str(classify_k_pattern([4, 2, 3])) == "S4"
    assert str(classify_k_pattern([7, 7])) == "C7"
    assert str(classify_k_pattern([2, 2, 9])) == "D9"
    assert str(classify_k_pattern([2, 3, 3])) == "A4"
    assert str(classify_k_pattern([2, 3, 5])) == "A5"
    assert classify_k_pattern([2, 2, 2, 3]) is None
    assert classify_k_pattern([2, 3]) is None
    assert classify_k_pattern([2]) is None
    assert classify_k_pattern([1, 4, 4]) is None


def test_compatible_generator_orders():
    assert compatible_generator_orders(5, 1) == {5}
    assert compatible_generator_orders(5, 2) == {2, 10}
    assert compatible_generator_orders(2, 2) == {2, 4}
    with pytest.raises(PreconditionError):
        compatible_generator_orders(5, 0)


def test_order_profiles_equal_kernels_basic():
    assert order_profiles_equal_kernels((1, 2, 2, 5), (1, 2, 2, 5))
    assert not order_profiles_equal_kernels((1, 2, 2, 5), (2, 1, 2, 5))
    with pytest.raises(PreconditionError):
        order_profiles_equal_kernels((2, 2), (2, 2, 2))


def _sphere_epimorphisms(k, periods, expected_kind):
    """Image tuples with orders dividing the periods, identity product,
    generating K, whose nontrivial entries form the sphere-quotient pattern
    (two of them for a cyclic quotient, three otherwise)."""
    out = []
    for images in itertools.product(range(k.order), repeat=len(periods)):
        if any(periods[i] % k.element_orders[images[i]] for i in range(len(periods))):
            continue
        if k.product(images) != 0:
            continue
        if not k.generates([x for x in images if x]):
            continue
        nontrivial = [k.element_orders[x] for x in images if x]
        pattern = classify_k_pattern(nontrivial)
        if pattern is None or pattern.kind != expected_kind:
            continue
        out.append(images)
    return out


def test_profile_criterion_matches_explicit_kernels():
    # on concrete sphere quotients, equality of image-order profiles is the
    # same as an automorphism of K relating the image tuples
    for k, periods, kind in [
        (gt.cyclic(2), (2, 2, 10, 10), "C"),
        (gt.cyclic(3), (3, 3, 3), "C"),
        (gt.cyclic(5), (5, 5, 10), "C"),
        (gt.symmetric(3), (2, 2, 3, 2), "D"),
        (gt.dihedral(5), (2, 2, 5), "D"),
    ]:
        epis = _sphere_epimorphisms(k, periods, kind)
        assert epis
        autos = gt.automorphisms(k).tolist()
        for e1 in epis:
            for e2 in epis:
                profiles_equal = order_profiles_equal_kernels(
                    tuple(k.element_orders[x] for x in e1),
                    tuple(k.element_orders[x] for x in e2))
                related = any(tuple(a[x] for x in e1) == e2 for a in autos)
                assert profiles_equal == related, (e1, e2)


def _hyperelliptic_states(g, sig):
    """States whose subgroup generated by some central involution has a
    genus-0 quotient."""
    out = []
    involutions = [z for z in center(g) if g.element_orders[z] == 2]
    for state in map(tuple, gt._enumerate_tuples(g, sig.periods).tolist()):
        ordered_sig = Signature(0, tuple(g.element_orders[c] for c in state))
        for z in involutions:
            sub = normal_subgroup_signature(g, ordered_sig, state, (0, z))
            if sub.orbit_genus == 0:
                out.append(state)
                break
    return out


def test_hyperelliptic_actions_form_one_orbit():
    catalog = [
        (gt.cyclic(2), Signature(0, (2,) * 6)),
        (gt.by_name("C2xC2"), Signature(0, (2,) * 5)),
        (gt.by_name("C2xC2"), Signature(0, (2,) * 6)),
        (gt.cyclic(4), Signature(0, (2, 2, 4, 4))),
        (gt.dihedral(4), Signature(0, (2, 2, 2, 4))),
    ]
    for g, sig in catalog:
        hyper = set(_hyperelliptic_states(g, sig))
        assert hyper, (g, sig)
        orbits = _partition(g, sig)
        touching = [orbit for orbit in orbits if orbit & hyper]
        assert len(touching) == 1, (g, sig)
        # the hyperelliptic states are a union of orbits, hence one full orbit
        assert hyper == set(touching[0]) & hyper and hyper.issubset(touching[0])


def test_normal_subgroup_signature_examples():
    c4 = gt.cyclic(4)
    assert normal_subgroup_signature(c4, Signature(0, (2, 2, 4, 4)),
                                     (2, 2, 1, 3), (0, 2)) == \
        Signature(0, (2,) * 6)
    v = gt.by_name("C2xC2")
    assert normal_subgroup_signature(v, Signature(0, (2,) * 5),
                                     (1, 1, 1, 2, 3), (0, 1)) == \
        Signature(0, (2,) * 6)
    with pytest.raises(PreconditionError):
        normal_subgroup_signature(gt.symmetric(3), Signature(0, (2, 2, 3)),
                                  (3, 4, 1), (0, 3))  # <(0 1)> is not normal


def test_table_file_roundtrip(tmp_path):
    g = gt.dihedral(5)
    path = tmp_path / "d5.tab"
    path.write_text(dumps(g), encoding="utf-8")
    back = gt.GroupTable.loads(path.read_text(encoding="utf-8"))
    assert np.array_equal(back.array, g.array)
    with pytest.raises(PreconditionError):
        gt.GroupTable.loads("3\n0 1 2\n1 2 0\n")   # wrong entry count
    with pytest.raises(PreconditionError):
        gt.GroupTable.loads("2\n0 1\n1 x\n")       # non-integer token
    with pytest.raises(PreconditionError):
        gt.GroupTable.loads("2\n0 1\n1 1\n")       # not a latin square


def _automorphisms_all_pairs(g):
    """Brute force: every map fixed by order-preserving images of a generating
    set, kept when it is a bijection that respects all |G|^2 products."""
    gens, span = [], g.closure([])
    for a in range(g.order):
        if a not in span:
            gens.append(a)
            span = g.closure(gens)
    words = {0: ()}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for i, a in enumerate(gens):
                y = g.mul(x, a)
                if y not in words:
                    words[y] = words[x] + (i,)
                    new.append(y)
        frontier = new
    out = []
    same_order = [[b for b in range(g.order) if g.element_orders[b] == g.element_orders[a]]
                  for a in gens]
    for images in itertools.product(*same_order):
        mapped = []
        for x in range(g.order):
            y = 0
            for i in words[x]:
                y = g.mul(y, images[i])
            mapped.append(y)
        if len(set(mapped)) == g.order and all(
                mapped[g.mul(a, b)] == g.mul(mapped[a], mapped[b])
                for a in range(g.order) for b in range(g.order)):
            out.append(tuple(mapped))
    return sorted(out)


@pytest.mark.parametrize("name", ["C2", "C10", "S3", "S4", "A4", "A5", "D4", "D6",
                                  "C2xC4", "C2xC2xC2", "C3xC3"])
def test_automorphisms_match_all_pairs_oracle(name):
    # the oracle's list is sorted: the rows come in lexicographic order
    g = gt.by_name(name)
    assert list(map(tuple, gt.automorphisms(g).tolist())) == _automorphisms_all_pairs(g)


@pytest.mark.parametrize("name", ["S4", "A4", "A5", "D6", "C2xC4", "C2xC2xC2"])
def test_generates_each_matches_generates(name):
    g = gt.by_name(name)
    rng = random.Random(16)
    for k in range(5):
        rows = [[rng.randrange(g.order) for _ in range(k)] for _ in range(200)]
        want = [g.generates(row) for row in rows]
        got = g.generates_each(np.array(rows, dtype=np.int64).reshape(len(rows), k))
        assert got.tolist() == want, (name, k)
        if k == 4:
            assert any(want) and not all(want)


def _brute_force_tuples(g, periods):
    """Every r-tuple of elements, kept when its orders are an arrangement of
    the periods, its product is the identity and it generates."""
    want = sorted(periods)
    return {t for t in itertools.product(range(g.order), repeat=len(periods))
            if sorted(g.element_orders[c] for c in t) == want
            and g.product(t) == 0 and g.generates(t)}


@pytest.mark.parametrize("name,sig", [
    ("C2xC4", (2, 2, 4, 4)), ("S3", (2, 2, 2, 2)), ("D4", (2, 2, 2, 4)),
    ("A4", (2, 3, 3)), ("C6", (2, 3, 6)), ("C2xC2", (2, 2, 2)), ("C5", (5,)),
])
def test_enumerate_tuples_matches_brute_force(name, sig, monkeypatch):
    g = gt.by_name(name)
    want = _brute_force_tuples(g, sig)
    got = gt._enumerate_tuples(g, sig)
    assert got.dtype == np.uint8 and got.shape == (len(want), len(sig))
    assert set(map(tuple, got.tolist())) == want
    # blocks of a few rows, reused under many leading entries, give the same rows
    monkeypatch.setattr(gt, "TUPLE_BLOCK", 3)
    assert np.array_equal(gt._enumerate_tuples(g, sig), got)


def test_automorphism_generators_are_cheap():
    # A5 is generated by an involution and an element of order 3: 15 x 20
    # candidate images, where a greedy set of three would cost 4,500
    g = gt.alternating(5)
    gens = gt._automorphism_generators(g)
    assert g.generates(gens)
    assert sorted(g.element_orders[a] for a in gens) == [2, 3]


def test_automorphism_candidate_cap():
    # Aut(C2^5) = GL(5, 2): 31^5 candidate images of a basis, none built
    start = time.process_time()
    cap = CAPS["automorphism candidates"]
    with pytest.raises(CapExceededError,
                       match=f"{31 ** 5}, above the automorphism candidates cap of {cap}"):
        gt.automorphisms(elementary_abelian(2, 5))
    assert time.process_time() - start < 2
    assert len(gt.automorphisms(elementary_abelian(2, 4))) == 20160


def test_automorphism_candidate_cap_exits_4(monkeypatch, capsys):
    monkeypatch.setitem(CAPS, "automorphism candidates", 10)
    assert cli.main(["orbits", "--group", "A5", "--sig", "(0;2,3,5)"]) == cli.EXIT_CAP
    assert "above the automorphism candidates cap of 10" in capsys.readouterr().err


def test_caps_hold_with_a_warm_memo(monkeypatch, capsys):
    # A5's table and Aut(G) generators are kept after one call; every cap is
    # still checked on the next, and names itself
    argv = ["orbits", "--group", "A5", "--sig", "(0;2,3,5)"]
    assert cli.main(argv) == 0 and '"orbits": 1' in capsys.readouterr().out
    assert "_automorphism_group_generators" in vars(gt.by_name("A5"))
    for cap, value in [("automorphism candidates", 10), ("automorphism search order", 59),
                       ("group order", 59)]:
        with monkeypatch.context() as patch:
            patch.setitem(CAPS, cap, value)
            assert cli.main(argv) == cli.EXIT_CAP
            assert f"above the {cap} cap of {value}" in capsys.readouterr().err
    with monkeypatch.context() as patch:
        test_automorphism_candidate_cap_exits_4(patch, capsys)


def test_catalog_names_share_one_read_only_table():
    g = gt.by_name("C2xC2")
    assert g is gt.by_name("C02 x C2")
    size = gt._catalog_group.cache_info().currsize
    for name in ("C100000", "A5xA5", "Q8", "C2x", f"C{CAPS['group order'] + 1}"):
        with pytest.raises((CapExceededError, PreconditionError)):
            gt.by_name(name)
    assert gt._catalog_group.cache_info().currsize == size
    for array in (g.array, g.inverse):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 0
    # a kept generator of Aut(G) is read-only too, and a fresh list each call
    gens = gt.automorphism_group_generators(g)
    gens.clear()
    alpha = gt.automorphism_group_generators(g)[0]
    with pytest.raises(ValueError, match="read-only"):
        alpha[1] = 0


def test_desk_orbit_counts_warm_equal_cold():
    def count(name, sig):
        return gt.count_orbits(gt.by_name(name), Signature(0, sig))

    cold = []
    for name, sig in DESK_ORBIT_CASES:
        gt._catalog_group.cache_clear()
        assert "_automorphism_group_generators" not in vars(gt.by_name(name))
        cold.append(count(name, sig))
    for name, sig in DESK_ORBIT_CASES:
        count(name, sig)
    misses = gt._catalog_group.cache_info().misses
    warm = [count(name, sig) for name, sig in DESK_ORBIT_CASES]
    # every group was kept, with its Aut(G) generators
    assert gt._catalog_group.cache_info().misses == misses
    assert all("_automorphism_group_generators" in vars(gt.by_name(name))
               for name, _ in DESK_ORBIT_CASES)
    assert warm == cold


@pytest.mark.parametrize("name,sig,cap", [
    ("C2xC2xC2xC2xC2xC2", "(0;2,2,2,2,2,2,2,2)", "order 60"),  # order 64
    ("C2xC2xC2xC2xC2", "(0;2,2,2,2,2,2)", "candidate"),       # Aut = GL(5, 2)
    ("C64", "(0;2,2)", "order 60"),                             # no generating tuple
])
def test_automorphism_caps_come_before_any_tuple(monkeypatch, capsys, name, sig, cap):
    def no_tuples(*args):
        raise AssertionError("tuples enumerated before Aut(G)'s caps")

    monkeypatch.setattr(gt, "_enumerate_tuples", no_tuples)
    assert cli.main(["orbits", "--group", name, "--sig", sig]) == cli.EXIT_CAP
    cap = "automorphism candidates" if cap == "candidate" else "automorphism search order"
    assert f"above the {cap} cap of {CAPS[cap]}" in capsys.readouterr().err


def _listed_candidates(g, periods):
    """The candidates of ``_enumerate_tuples``, one arrangement at a time."""
    if len(periods) < 2 or not all(o in g.element_orders for o in periods):
        return 0
    return sum(math.prod(g.element_orders.count(o) for o in arrangement[:-1])
               for arrangement in gt._arrangements(periods))


@pytest.mark.parametrize("name,sig", DESK_ORBIT_CASES + [
    ("A5", (2, 3, 5, 5)), ("A5", (2, 2, 3, 3)), ("S4", (2, 3, 3, 4, 4)), ("C2xC4", (2,) * 12),
    ("C2xC4", (2, 3, 4)), ("C6", (5, 2, 3)), ("C5", (5,)), ("C1", (2, 2)), ("D4", (4, 2)),
])
def test_candidate_count_matches_the_arrangements(name, sig):
    g = gt.by_name(name)
    assert gt._candidate_count(g, sig) == _listed_candidates(g, sig)


def test_count_orbits_is_0_without_states():
    # every entry of order 2 in C2xC4 lies in the Klein subgroup
    assert gt.count_orbits(gt.by_name("C2xC4"), Signature(0, (2,) * 6)) == 0
    assert gt.count_orbits(gt.by_name("C4"), Signature(0, (2, 4, 4, 4))) == 0


@pytest.mark.parametrize("sig,cap", [
    ((2,) * 15, "candidate tuples"),  # 3^14 candidates
    ((2,) * 21, "pack"),              # 8^21 = 2^63
    ((2,) * 40, "pack"),
    ((2,) * 20, "candidate tuples"),  # 8^20 = 2^60: the keys pack
])
def test_tuple_caps_come_before_any_tuple(monkeypatch, capsys, sig, cap):
    def no_tuples(*args):
        raise AssertionError("tuples enumerated before the caps")

    monkeypatch.setattr(gt, "_enumerate_tuples", no_tuples)
    argv = ["orbits", "--group", "C2xC4", "--sig", str(Signature(0, sig)).replace(" ", "")]
    assert cli.main(argv) == cli.EXIT_CAP
    err = capsys.readouterr().err
    name = "key values" if cap == "pack" else "tuple candidates"
    assert cap in err and f"above the {name} cap of {CAPS[name]}" in err


def test_count_orbits_at_the_candidate_cap(monkeypatch):
    # the cap admits a call of exactly as many candidates as its value
    g, sig = gt.by_name("C2xC2xC2"), Signature(0, (2,) * 7)
    monkeypatch.setitem(CAPS, "tuple candidates", 7 ** 6)
    assert gt.count_orbits(g, sig) == 4
    monkeypatch.setitem(CAPS, "tuple candidates", 7 ** 6 - 1)
    with pytest.raises(CapExceededError, match=f"candidate tuples: {7 ** 6}, above"):
        gt.count_orbits(g, sig)
