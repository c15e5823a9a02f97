"""Generic finite groups given by Cayley tables.

Used for desk-scale verification of results about normal extensions: braid
moves on genus-0 generating tuples, brute-forced automorphism groups, orbit
counts of generating vectors, and the quotient-pattern and order-profile
criteria for sphere quotients.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceededError, PreconditionError
from .fp import _pack_keys
from .orbits import orbit_components
from .surfaces import Signature, riemann_hurwitz_genus

AUTOMORPHISM_ORDER_CAP = 60
ORBIT_STATE_CAP = 2_000_000


class GroupTable:
    """A finite group as a multiplication table; index 0 is the identity.

    Associativity, identity and inverses are all verified at construction,
    so downstream code can trust the table blindly.
    """

    def __init__(self, table, names=None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise PreconditionError("empty table")
        for row in table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise PreconditionError("table is not square over valid indices")
        for i in range(n):
            if table[0][i] != i or table[i][0] != i:
                raise PreconditionError("index 0 is not an identity")
        for i in range(n):
            if sorted(table[i]) != list(range(n)) or \
               sorted(table[j][i] for j in range(n)) != list(range(n)):
                raise PreconditionError("table rows/columns are not permutations")
        for a in range(n):
            for b in range(n):
                tab = table[a][b]
                for c in range(n):
                    if table[tab][c] != table[a][table[b][c]]:
                        raise PreconditionError("table is not associative")
        self.table = table
        self.order = n
        self.names = tuple(names) if names else tuple(f"g{i}" for i in range(n))
        self.inverse = tuple(table[a].index(0) for a in range(n))
        orders = []
        for a in range(n):
            k, x = 1, a
            while x != 0:
                x = table[x][a]
                k += 1
            orders.append(k if a else 1)
        self.element_orders = tuple(orders)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, b: int) -> int:
        """b^-1 a b"""
        return self.mul(self.mul(self.inv(b), a), b)

    def product(self, elements) -> int:
        out = 0
        for x in elements:
            out = self.mul(out, x)
        return out

    def closure(self, elements) -> frozenset:
        """Subgroup generated by ``elements``: breadth-first from the identity
        by right multiplication (in a finite group the monoid is the group)."""
        gens = set(elements)
        seen = {0}
        frontier = [0]
        while frontier:
            new = []
            for a in frontier:
                for b in gens:
                    c = self.table[a][b]
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
            frontier = new
        return frozenset(seen)

    def generates(self, elements) -> bool:
        return len(self.closure(elements)) == self.order

    def center(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.order)
                     if all(self.mul(a, b) == self.mul(b, a) for b in range(self.order)))

    def is_subgroup(self, elements) -> bool:
        s = set(elements)
        return 0 in s and all(self.mul(a, self.inv(b)) in s for a in s for b in s)

    def is_normal(self, elements) -> bool:
        s = set(elements)
        return self.is_subgroup(s) and all(
            self.conj(a, g) in s for a in s for g in range(self.order))

    def __str__(self) -> str:
        return f"GroupTable(order={self.order})"

    # ------------------------------------------------------------------
    # serialization: first line the order, then one row of indices per line

    def dumps(self) -> str:
        lines = [str(self.order)]
        lines += [" ".join(str(x) for x in row) for row in self.table]
        return "\n".join(lines) + "\n"

    @staticmethod
    def loads(text: str) -> "GroupTable":
        toks = text.split()
        if not toks:
            raise PreconditionError("empty table file")
        try:
            n, *vals = (int(t) for t in toks)
        except ValueError as exc:
            raise PreconditionError(f"table file holds a non-integer token: {exc}") from None
        if len(vals) != n * n:
            raise PreconditionError(f"expected {n * n} entries after the order line")
        return GroupTable([vals[i * n:(i + 1) * n] for i in range(n)])


# ---------------------------------------------------------------------------
# catalog


def cyclic(n: int) -> GroupTable:
    return GroupTable([[(i + j) % n for j in range(n)] for i in range(n)],
                      names=[f"r{i}" for i in range(n)])


def dihedral(n: int) -> GroupTable:
    """Dihedral group with rotation order n (group order 2n)."""
    if n < 1:
        raise PreconditionError("rotation order must be >= 1")

    def mul(a, b):
        k1, f1 = a % n, a // n
        k2, f2 = b % n, b // n
        k = (k1 + (k2 if f1 == 0 else -k2)) % n
        return ((f1 + f2) % 2) * n + k

    names = [f"r{i}" for i in range(n)] + [f"sr{i}" for i in range(n)]
    return GroupTable([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)], names)


def _perm_group(perms) -> GroupTable:
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply q, then p
        return tuple(p[q[i]] for i in range(len(p)))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return GroupTable(table, names=[str(list(p)) for p in perms])


def symmetric(m: int) -> GroupTable:
    if m > 5:
        raise CapExceededError("symmetric groups supported up to degree 5")
    return _perm_group(itertools.permutations(range(m)))


def alternating(m: int) -> GroupTable:
    if m > 5:
        raise CapExceededError("alternating groups supported up to degree 5")

    def sign(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    return _perm_group(p for p in itertools.permutations(range(m)) if sign(p) == 1)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    index = {ab: i for i, ab in enumerate(pairs)}
    table = [[index[(g.mul(a1, a2), h.mul(b1, b2))] for (a2, b2) in pairs]
             for (a1, b1) in pairs]
    names = [f"({g.names[a]},{h.names[b]})" for (a, b) in pairs]
    return GroupTable(table, names)


def elementary_abelian(p: int, n: int) -> GroupTable:
    g = cyclic(p)
    for _ in range(n - 1):
        g = direct_product(g, cyclic(p))
    return g


CATALOG = {
    "C": cyclic,
    "D": dihedral,
}


def by_name(name: str) -> GroupTable:
    """Catalog lookup: C<n>, D<n>, A4, S4, A5, and x-products like C2xC4."""
    name = name.strip()
    if "x" in name:
        parts = name.split("x")
        g = by_name(parts[0])
        for part in parts[1:]:
            g = direct_product(g, by_name(part))
        return g
    if name in ("A4", "A5"):
        return alternating(int(name[1]))
    if name in ("S3", "S4"):
        return symmetric(int(name[1]))
    if name.startswith(("C", "D")) and name[1:].isdigit():
        return CATALOG[name[0]](int(name[1:]))
    raise PreconditionError(f"unknown group name {name!r}")


# ---------------------------------------------------------------------------
# generating tuples and braid moves


@dataclass(frozen=True)
class TableVector:
    """Genus-0 generating tuple over a Cayley-table group."""

    group: GroupTable
    elliptic: tuple[int, ...]

    def periods(self) -> tuple[int, ...]:
        return tuple(self.group.element_orders[c] for c in self.elliptic)

    def product(self) -> int:
        return self.group.product(self.elliptic)


def validate_table_vector(v: TableVector) -> bool:
    g = v.group
    if any(c == 0 for c in v.elliptic):
        return False
    if v.product() != 0:
        return False
    return g.generates(v.elliptic)


def braid_move(v: TableVector, i: int) -> TableVector:
    """Swap-and-conjugate move at position i (1-based, 1 <= i < r).

    (..., c_i, c_{i+1}, ...) becomes (..., c_{i+1}, c_{i+1}^-1 c_i c_{i+1}, ...);
    the full product and the period multiset are preserved exactly.
    """
    r = len(v.elliptic)
    if not 1 <= i < r:
        raise PreconditionError(f"braid position {i} out of range 1..{r - 1}")
    g = v.group
    c = list(v.elliptic)
    a, b = c[i - 1], c[i]
    c[i - 1], c[i] = b, g.conj(a, b)
    return TableVector(g, tuple(c))


def automorphisms(g: GroupTable) -> list[tuple[int, ...]]:
    """All automorphisms, as permutations of element indices.

    Backtracking over images of a minimal generating sequence, with element
    orders as the pruning invariant.
    """
    if g.order > AUTOMORPHISM_ORDER_CAP:
        raise CapExceededError(
            f"automorphism search capped at order {AUTOMORPHISM_ORDER_CAP}")
    gens: list[int] = []
    span = g.closure(gens)
    for a in range(g.order):
        if a not in span:
            gens.append(a)
            span = g.closure(gens)
            if len(span) == g.order:
                break
    if not gens:  # trivial group
        return [(0,)]

    # express every element as a fixed word in the generators
    words: dict[int, tuple[int, ...]] = {0: ()}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for gi, a in enumerate(gens):
                y = g.mul(x, a)
                if y not in words:
                    words[y] = words[x] + (gi,)
                    new.append(y)
        frontier = new
    if len(words) != g.order:
        raise AssertionError("the chosen generators do not reach every element")

    by_order: dict[int, list[int]] = {}
    for a in range(g.order):
        by_order.setdefault(g.element_orders[a], []).append(a)

    autos = []
    for images in itertools.product(*(by_order[g.element_orders[a]] for a in gens)):
        mapped = []
        for x in range(g.order):
            y = 0
            for gi in words[x]:
                y = g.mul(y, images[gi])
            mapped.append(y)
        if len(set(mapped)) != g.order:
            continue
        # every element is a product of generators, so f(x a) = f(x) f(a) for
        # all x and every generator a makes f a homomorphism
        ok = all(mapped[g.mul(x, a)] == g.mul(mapped[x], images[gi])
                 for gi, a in enumerate(gens) for x in range(g.order))
        if ok:
            autos.append(tuple(mapped))
    return autos


def _enumerate_tuples(g: GroupTable, periods: tuple[int, ...], cap: int):
    """All valid ordered tuples whose period sequence is any arrangement of
    the given multiset."""
    r = len(periods)
    by_order: dict[int, list[int]] = {}
    for a in range(1, g.order):
        by_order.setdefault(g.element_orders[a], []).append(a)
    want = sorted(periods)
    for o in set(want):
        if o not in by_order:
            return set()
    states: set[tuple[int, ...]] = set()

    def extend(prefix, remaining, prod):
        if len(states) > cap:
            raise CapExceededError(f"tuple enumeration exceeded {cap} states")
        if len(prefix) == r - 1:
            last = g.inv(prod)
            if last != 0 and g.element_orders[last] in remaining and \
               g.generates(prefix + (last,)):
                states.add(prefix + (last,))
            return
        for o in sorted(set(remaining)):
            rest = list(remaining)
            rest.remove(o)
            for c in by_order[o]:
                extend(prefix + (c,), rest, g.mul(prod, c))

    extend((), want, 0)
    return states


def generating_vector_orbits(g: GroupTable, sig: Signature,
                             cap: int = ORBIT_STATE_CAP) -> tuple[frozenset, ...]:
    """Orbit partition of valid generating tuples under Aut(G) + braid moves.

    Genus-0 signatures only: the braid moves at every position generate the
    whole induced action there (the cyclic rotation is their composite).
    Tuples are keyed as base-|G| integers, which must fit in 63 bits.
    """
    if sig.orbit_genus != 0:
        raise PreconditionError("orbit counting supports genus-0 signatures only")
    states = list(_enumerate_tuples(g, sig.periods, cap))
    if not states:
        return ()
    dtype = np.min_scalar_type(g.order)  # uint8 for most tables keeps the copies small
    S = np.array(states, dtype=dtype)
    T = np.array(g.table, dtype=dtype)
    inv = np.array(g.inverse, dtype=dtype)
    images = []
    for i in range(1, len(sig.periods)):
        # braid_move at position i: (a, b) -> (b, b^-1 a b)
        a, b = S[:, i - 1], S[:, i]
        moved = S.copy()
        moved[:, i - 1], moved[:, i] = b, T[T[inv[b], a], b]
        images.append(_pack_keys(moved, g.order))
    # one edge to the least key of each Aut-orbit joins what Aut(G) joins
    autos = np.array(automorphisms(g), dtype=dtype)
    images.append(functools.reduce(np.minimum,
                                   (_pack_keys(alpha[S], g.order) for alpha in autos)))
    count, labels = orbit_components(_pack_keys(S, g.order), images)
    orbits: list[list] = [[] for _ in range(count)]
    for s, label in zip(states, labels.tolist()):
        orbits[label].append(s)
    return tuple(frozenset(o) for o in orbits)


def count_orbits(g: GroupTable, sig: Signature, cap: int = ORBIT_STATE_CAP) -> int:
    """Number of orbits of valid generating vectors under Aut(G) + braid moves."""
    return len(generating_vector_orbits(g, sig, cap))


# ---------------------------------------------------------------------------
# sphere-quotient patterns and the order-profile criterion


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
    both; tests confirm this on concrete tables by comparing actual kernels.
    """
    p1, p2 = tuple(profile1), tuple(profile2)
    if len(p1) != len(p2):
        raise PreconditionError("order profiles have different lengths")
    return p1 == p2


def normal_subgroup_signature(g: GroupTable, sig: Signature, elliptic,
                              subgroup) -> Signature:
    """Signature of a normal subgroup's action, from the overgroup's data.

    Each elliptic entry c of order m whose image in G/A has order b
    contributes [G:A]/b branch points of period m/b (none when m = b).  The
    subgroup orbit genus is recovered from the shared surface genus.
    """
    sub = frozenset(subgroup)
    if not g.is_normal(sub):
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
