"""Generic finite groups given by Cayley tables.

Used for desk-scale verification of results about normal extensions: braid
moves on genus-0 generating tuples, automorphism groups from the images of
a generating sequence, and orbit counts of generating vectors as the
number of components of a graph with one edge per braid move and one per
generator of Aut(G), with no partition built.  Subgroups come from one
boolean mask closure per tuple, and the orbit count and the generators of
Aut(G) from ``fp.orbit_components``.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import reprlib

import numpy as np

from .errors import CAPS, PreconditionError, require_within
from .fp import _pack_keys, orbit_components
from .record import Record
from .surfaces import Signature

#: most candidate tuples ``_enumerate_tuples`` builds at once
TUPLE_BLOCK = 2 ** 16
#: most products (ab)c that one associativity check compares
ASSOCIATIVITY_BLOCK = 2 ** 20


class GroupTable:
    """A finite group as a multiplication table; index 0 is the identity.

    Associativity, identity and inverses are all verified at construction,
    so downstream code can trust the table blindly.  ``array`` holds the
    table as a numpy array of the smallest unsigned dtype, and ``inverse``
    each element's inverse in the same dtype; both are read-only, as
    ``by_name`` hands one table to every caller.
    """

    def __init__(self, table):
        rows = [list(row) for row in table]
        n = len(rows)
        if n == 0:
            raise PreconditionError("empty table")
        for row in rows:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise PreconditionError("table is not square over valid indices")
        T = np.array(rows, dtype=np.min_scalar_type(n))
        elems = np.arange(n)
        if (T[0] != elems).any() or (T[:, 0] != elems).any():
            raise PreconditionError("index 0 is not an identity")
        if (np.sort(T, axis=1) != elems).any() or (np.sort(T, axis=0) != elems[:, None]).any():
            raise PreconditionError("table rows/columns are not permutations")
        # (ab)c against a(bc), for a block of a at a time
        step = max(1, ASSOCIATIVITY_BLOCK // (n * n))
        for a in range(0, n, step):
            if not np.array_equal(T[T[a:a + step]], T[a:a + step][:, T]):
                raise PreconditionError("table is not associative")
        self.array = T
        self.order = n
        self.inverse = np.argmin(T, axis=1).astype(T.dtype)  # a b = 0, the least entry
        T.flags.writeable = self.inverse.flags.writeable = False
        orders, power, k = np.zeros(n, dtype=np.int64), elems, 1
        while not orders.all():
            orders[(power == 0) & (orders == 0)] = k
            power, k = T[power, elems], k + 1
        self.element_orders = tuple(orders.tolist())

    # what depends on the group alone, found by the module functions on a first
    # call and kept; the caps on Aut(G)'s search are checked on every call
    # (``_search_space``), kept or not

    @functools.cached_property
    def _automorphism_generators(self) -> tuple[int, ...]:
        return tuple(_automorphism_generators(self))

    @functools.cached_property
    def _automorphism_group_generators(self) -> tuple[np.ndarray, ...]:
        return tuple(_generating_automorphisms(automorphisms(self)))

    def mul(self, a: int, b: int) -> int:
        return int(self.array[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, a: int, b: int) -> int:
        """b^-1 a b"""
        return self.mul(self.mul(self.inv(b), a), b)

    def product(self, elements) -> int:
        return functools.reduce(self.mul, elements, 0)

    def _closure_masks(self, rows) -> np.ndarray:
        """The subgroup each row of an (S, k) batch of elements generates, as
        an (S, order) boolean mask.

        Breadth-first from the identity by right multiplication (in a finite
        group the monoid is the group), on one mask M per row: y lies in M c
        exactly when y c^-1 lies in M, so each right multiplication is a
        gather.  A row leaves the loop once its mask is the whole group or a
        sweep over its entries adds nothing.
        """
        n = self.order
        rows = np.asarray(rows)
        divide = self.array[:, self.inverse].T  # divide[c, y] = y c^-1
        masks = np.zeros((len(rows), n), dtype=bool)
        masks[:, 0] = True
        live, mask = np.arange(len(rows)), masks
        while len(live):
            # offset + divide[c] indexes the flattened masks, one row of n each
            offset = np.arange(len(live))[:, None] * n
            before = mask.sum(axis=1)
            for c in rows[live].T:
                mask |= mask.ravel().take(offset + divide[c])
            masks[live] = mask
            size = mask.sum(axis=1)
            grew = (size != before) & (size != n)
            live, mask = live[grew], mask[grew]
        return masks

    def closure(self, elements) -> frozenset:
        """Subgroup generated by ``elements``."""
        rows = np.array([list(elements)], dtype=np.int64)
        return frozenset(np.flatnonzero(self._closure_masks(rows)[0]).tolist())

    def generates(self, elements) -> bool:
        return len(self.closure(elements)) == self.order

    def generates_each(self, rows) -> np.ndarray:
        """Whether each row of an (S, k) batch of elements generates the group."""
        return self._closure_masks(rows).all(axis=1)

    @staticmethod
    def loads(text: str) -> "GroupTable":
        """Parse a table file: the order, then the n^2 entries, row by row.

        Raises CapExceededError past the ``group order`` cap from the order
        token alone, before the entries are read, and past the ``digits`` cap
        before int() reads that token.
        """
        toks = text.split(maxsplit=1)
        if not toks:
            raise PreconditionError("empty table file")
        require_within("digits", len(toks[0]), "the digits of the table's order")
        try:
            n = int(toks[0])
            require_within("group order", n, "the table's order")
            vals = [int(t) for t in toks[1].split()] if len(toks) > 1 else []
        except ValueError as exc:
            raise PreconditionError(f"table file holds a non-integer token: {exc}") from None
        if len(vals) != n * n:
            raise PreconditionError(f"expected {n * n} entries after the order line")
        return GroupTable([vals[i * n:(i + 1) * n] for i in range(n)])


# ---------------------------------------------------------------------------
# catalog


def cyclic(n: int) -> GroupTable:
    return GroupTable([[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral(n: int) -> GroupTable:
    """Dihedral group with rotation order n (group order 2n)."""
    if n < 1:
        raise PreconditionError("rotation order must be >= 1")

    def mul(a, b):
        k1, f1 = a % n, a // n
        k2, f2 = b % n, b // n
        k = (k1 + (k2 if f1 == 0 else -k2)) % n
        return ((f1 + f2) % 2) * n + k

    return GroupTable([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)])


def _perm_group(perms) -> GroupTable:
    """The permutations in sorted order, p q applying q first."""
    P = np.array(sorted(perms))
    m, d = P.shape
    composed = P[np.arange(m)[:, None, None], P[None, :, :]]  # [a, b, i] = P[a, P[b, i]]
    table = np.searchsorted(_pack_keys(P, d), _pack_keys(composed.reshape(-1, d), d))
    return GroupTable(table.reshape(m, m).tolist())


def symmetric(m: int) -> GroupTable:
    require_within("permutation degree", m, "the degree of S_m")
    return _perm_group(itertools.permutations(range(m)))


def alternating(m: int) -> GroupTable:
    require_within("permutation degree", m, "the degree of A_m")

    def sign(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    return _perm_group(p for p in itertools.permutations(range(m)) if sign(p) == 1)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """G x H, with the pair (a, b) at index a |H| + b."""
    m = h.order
    table = g.array.astype(np.int64)[:, None, :, None] * m + h.array[None, :, None, :]
    return GroupTable(table.reshape(g.order * m, g.order * m).tolist())


def _catalog_entry(name: str) -> tuple:
    """(order, constructor, argument) of the catalog group ``name``."""
    digits, limit = name[1:].lstrip("0"), CAPS["digits"]
    # int() refuses a number past the digit limit; 10^limit is below it, and past every cap
    m = (int(digits) if len(digits) <= limit else 10 ** limit) if digits.isdigit() else 0
    if name in ("S3", "S4"):
        return math.factorial(m), symmetric, m
    if name in ("A4", "A5"):
        return math.factorial(m) // 2, alternating, m
    if name[:1] in ("C", "D") and m >= 1:
        return (m, cyclic, m) if name[0] == "C" else (2 * m, dihedral, m)
    raise PreconditionError(f"unknown group name {name!r}")


@functools.lru_cache(maxsize=32)
def _catalog_group(entries: tuple) -> GroupTable:
    """The direct product of the parsed catalog ``entries``, built once per process."""
    return functools.reduce(direct_product, (build(m) for _, build, m in entries))


def by_name(name: str) -> GroupTable:
    """Catalog lookup: C<n>, D<n>, S3, S4, A4, A5, and x-products like C2xC4.

    Raises CapExceededError past the ``group order`` cap before building a
    table.  Names that parse alike (``C2xC2``, ``C02 x C2``) share one
    read-only table, kept with its Aut(G) generators for later calls.
    """
    entries = tuple(_catalog_entry(part.strip()) for part in name.split("x"))
    require_within("group order", math.prod(order for order, _, _ in entries),
                   f"the order of {reprlib.repr(name)}")
    return _catalog_group(entries)


# ---------------------------------------------------------------------------
# generating tuples and braid moves


class TableVector(Record):
    """Genus-0 generating tuple over a Cayley-table group."""

    _fields = ("group", "elliptic")

    def __init__(self, group: GroupTable, elliptic: tuple[int, ...]):
        vars(self).update(group=group, elliptic=elliptic)

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


def _cartesian(arrays, dtype) -> np.ndarray:
    """Rows of the cartesian product of 1-d arrays, in lexicographic order."""
    total = math.prod(len(a) for a in arrays)
    out = np.empty((total, len(arrays)), dtype=dtype)
    repeat = total
    for j, a in enumerate(arrays):
        repeat //= len(a)
        out[:, j] = np.tile(np.repeat(a, repeat), total // (len(a) * repeat))
    return out


def _automorphism_generators(g: GroupTable) -> list[int]:
    """A generating sequence with few candidate images.

    An automorphism sends each generator to an element of the same order, so
    the candidates number the product of those class sizes.  The cheapest
    single generator or generating pair wins, the first in index order on a
    tie; a group that needs more generators takes them greedily, each the
    first element outside the span so far.
    """
    counts = collections.Counter(g.element_orders)

    def cost(gens):
        return math.prod(counts[g.element_orders[a]] for a in gens)

    for size in (1, 2):
        tuples = np.array(list(itertools.combinations(range(1, g.order), size)),
                          dtype=np.int64).reshape(-1, size)
        found = tuples[g.generates_each(tuples)].tolist()
        if found:
            return min(found, key=cost)
    gens: list[int] = []
    span = g.closure(gens)
    for a in range(g.order):
        if a not in span:
            gens.append(a)
            span = g.closure(gens)
    return gens


def _search_space(g: GroupTable):
    """The generating sequence of Aut(G)'s search and each generator's
    candidate images, the elements of its order.

    Raises CapExceededError past the ``automorphism search order`` cap
    before the sequence is sought, and past the ``automorphism candidates``
    cap; both are checked on every call, the sequence kept on ``g`` or not.
    """
    require_within("automorphism search order", g.order, "the order of G")
    gens = g._automorphism_generators
    orders = np.array(g.element_orders)
    choices = [np.flatnonzero(orders == orders[a]) for a in gens]
    require_within("automorphism candidates", math.prod(len(c) for c in choices),
                   "the candidate images of Aut(G)'s search")
    return gens, choices


def automorphisms(g: GroupTable) -> np.ndarray:
    """All automorphisms, as an (|Aut|, |G|) array of permutations of element
    indices, its rows in lexicographic order.

    Every tuple of images of a generating sequence, with element orders
    preserved, is one candidate row.  Each element is a fixed word in the
    generators, evaluated on all rows at once by table lookups; the rows
    that are bijective homomorphisms are kept.  Raises CapExceededError
    past the caps of ``_search_space``, before any candidate is built.
    """
    gens, choices = _search_space(g)
    T = g.array
    images = _cartesian(choices, T.dtype)
    # mapped[:, x]: the image of x, by its word x = y gens[i] with y reached first
    mapped = np.zeros((len(images), g.order), dtype=T.dtype)
    reached, frontier = {0}, [0]
    while frontier:
        new = []
        for y in frontier:
            for i, a in enumerate(gens):
                x = g.mul(y, a)
                if x not in reached:
                    reached.add(x)
                    mapped[:, x] = T[mapped[:, y], images[:, i]]
                    new.append(x)
        frontier = new
    if len(reached) != g.order:
        raise AssertionError("the chosen generators do not reach every element")
    keep = (np.sort(mapped, axis=1) == np.arange(g.order)).all(axis=1)
    # every element is a product of generators, so f(x a) = f(x) f(a) for
    # all x and every generator a makes f a homomorphism
    for i, a in enumerate(gens):
        keep &= (mapped[:, T[:, a]] == T[mapped, images[:, i, None]]).all(axis=1)
    autos = mapped[keep]
    return autos[np.lexsort(autos.T[::-1])]  # lexsort's last key is its first


def automorphism_group_generators(g: GroupTable) -> list[np.ndarray]:
    """A generating set of Aut(G), as read-only permutations of element
    indices: those of ``_generating_automorphisms``, found on the first call
    for ``g`` and kept, with the caps of ``_search_space`` checked on every
    call."""
    _search_space(g)
    return list(g._automorphism_group_generators)


def _generating_automorphisms(autos: np.ndarray) -> list[np.ndarray]:
    """A generating set of Aut(G), from its automorphisms in sorted order.

    Walks ``autos`` and keeps the first one outside the subgroup that those
    kept so far generate, until that subgroup is all of Aut(G).  The
    subgroup is the identity's component of the graph on the ranks of the
    automorphisms that joins each beta to alpha after beta, alpha[beta], for
    every kept alpha (``orbit_components``); a composite is ranked by the
    bytes of its row.
    """
    # one byte per entry, so the rows sort bytewise too
    row = np.dtype((np.void, autos.shape[1] * autos.itemsize))
    keys = autos.view(row).ravel()
    ranks = np.arange(len(autos))
    gens: list[np.ndarray] = []
    images: list[np.ndarray] = []  # the rank of alpha[beta] for each beta, per kept alpha
    while True:
        count, labels = orbit_components(ranks, images)
        if count == 1:
            return gens
        # the identity sorts first; a copy, so the kept generator holds no other row
        gens.append(autos[np.argmax(labels != labels[0])].copy())
        gens[-1].flags.writeable = False
        images.append(np.searchsorted(keys, gens[-1][autos].view(row).ravel()))


def _arrangements(periods):
    """The distinct orderings of a multiset, in lexicographic order."""
    if not periods:
        yield ()
        return
    for o in sorted(set(periods)):
        rest = list(periods)
        rest.remove(o)
        for tail in _arrangements(rest):
            yield (o,) + tail


def _enumerate_tuples(g: GroupTable, periods: tuple[int, ...]) -> np.ndarray:
    """All valid ordered tuples whose period sequence is any arrangement of
    the given multiset, as an (S, r) array of the smallest dtype.

    Per arrangement, the first r - 1 entries run over the elements of their
    orders and the last is forced: the inverse of their product, kept when
    its order is the last period.  The trailing entries form one block of
    at most TUPLE_BLOCK rows, built once and reused under each choice of the
    leading ones; each block's survivors pass ``generates_each`` at once.
    """
    r = len(periods)
    T = g.array
    orders = np.array(g.element_orders)
    by_order = {o: np.flatnonzero(orders[1:] == o) + 1 for o in set(periods)}
    if r < 2 or not all(len(c) for c in by_order.values()):
        return np.zeros((0, r), dtype=T.dtype)
    blocks = []
    for arrangement in _arrangements(periods):
        choices = [by_order[o] for o in arrangement[:-1]]
        split, size = len(choices), 1
        while split and size * len(choices[split - 1]) <= TUPLE_BLOCK:
            split -= 1
            size *= len(choices[split])
        tail = _cartesian(choices[split:], T.dtype)
        tail_product = np.zeros(len(tail), dtype=T.dtype)
        for column in tail.T:
            tail_product = T[tail_product, column]
        for head in itertools.product(*choices[:split]):
            last = g.inverse[T[g.product(head), tail_product]]
            ok = orders[last] == arrangement[-1]
            rows = np.empty((int(ok.sum()), r), dtype=T.dtype)
            rows[:, :split] = head
            rows[:, split:-1] = tail[ok]
            rows[:, -1] = last[ok]
            blocks.append(rows[g.generates_each(rows)])
    return np.concatenate(blocks)


def _candidate_count(g: GroupTable, periods: tuple[int, ...]) -> int:
    """The candidate tuples of ``_enumerate_tuples``, with no arrangement listed:
    (r-1)! m_o / prod m_q! arrangements end in the period o, m_q periods being q,
    and each runs its first r - 1 entries over the elements of their orders."""
    sizes, mult = collections.Counter(g.element_orders), collections.Counter(periods)
    if len(periods) < 2 or not all(sizes[o] for o in mult):
        return 0
    denominator = math.prod(map(math.factorial, mult.values()))
    product = math.prod(sizes[q] ** m for q, m in mult.items())
    return sum(math.factorial(len(periods) - 1) * m // denominator * (product // sizes[o])
               for o, m in mult.items())


def _orbit_graph(g: GroupTable, sig: Signature):
    """The Schreier graph of Aut(G) + braid moves on the valid generating tuples:
    the states, an (S, r) array, their base-|G| keys, and the image keys, one
    array per braid move and per generator of Aut(G), each built when read.
    Genus 0 only: there the braid moves generate the whole induced action (the
    cyclic rotation is their composite).  Every cap raises before any tuple is
    built: Aut(G)'s, then the ``key values`` and ``tuple candidates`` caps."""
    if sig.orbit_genus != 0:
        raise PreconditionError("orbit counting supports genus-0 signatures only")
    automorphism_gens = automorphism_group_generators(g)
    r = len(sig.periods)
    require_within("key values", g.order ** r,
                   f"the values of a key packed from {r} base-{g.order} digits")
    require_within("tuple candidates", _candidate_count(g, sig.periods), "the candidate tuples")
    S = _enumerate_tuples(g, sig.periods)
    T, inv = g.array, g.inverse

    def braid(i):
        # braid_move at position i: (a, b) -> (b, b^-1 a b)
        a, b = S[:, i - 1], S[:, i]
        moved = S.copy()
        moved[:, i - 1], moved[:, i] = b, T[T[inv[b], a], b]
        return moved

    moves = itertools.chain(map(braid, range(1, r)), (alpha[S] for alpha in automorphism_gens))
    # map holds no moved tuples once their keys are packed
    return S, _pack_keys(S, g.order), map(functools.partial(_pack_keys, base=g.order), moves)


def count_orbits(g: GroupTable, sig: Signature) -> int:
    """Number of orbits of valid generating vectors under Aut(G) + braid moves:
    the components of ``_orbit_graph``, 0 when there is no state."""
    return orbit_components(*_orbit_graph(g, sig)[1:])[0]  # one image held at a time
