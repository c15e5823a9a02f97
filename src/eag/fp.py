"""Exact linear algebra over the prime field F_p, and the orbit engine.

Scalars are plain int residues in [0, p).  Only small primes are accepted
(p <= 13); everything in the classification lives there and the bound keeps
multiplicative closures enumerable.  A vector is a tuple of ints.  No class
of GL(n, p) is listed; ``_centraliser_order`` gives their sizes.

``orbit_components`` is the one orbit engine, under ``grouptable`` and the
BFS oracles of ``eag.orbits``; ``group_closure``, the generic matrix-group
closure the tests check the oracles' Sp and GL against, dedupes by the
same packed keys (``_pack_keys``).  These take numpy arrays and import
numpy in their bodies, so importing this module loads none.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import PreconditionError, require_within

if TYPE_CHECKING:  # the engine and the closure import numpy in their bodies
    import numpy as np

PRIME_CAP = 13
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin: with p - 1 = d 2^s and d odd, an odd p passes
    the base a when a^d = 1 or a^(d 2^j) = -1 mod p for some j < s."""
    require_within("primality", p, "p tested for primality")
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or p - 1 in (pow(a, d << j, p) for j in range(s)) for a in _BASES)


def check_prime(p: int) -> int:
    if p > PRIME_CAP:  # first, so that no huge modulus is tested
        raise PreconditionError(f"modulus {p} exceeds the supported bound {PRIME_CAP}")
    if not is_prime(p):
        raise PreconditionError(f"modulus {p} is not prime")
    return p


def rref(rows, p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_p; zero rows are dropped.

    The result is the canonical representative of the row space, which makes
    it usable directly as a subspace key in orbit searches.  Entries may be
    numpy integers; they are taken as Python ints, which ``pow(x, -1, p)``
    needs.
    """
    mat = [[int(a) for a in r] for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    piv = 0
    for c in range(ncols):
        sel = None
        for i in range(piv, len(mat)):
            if mat[i][c] % p:
                sel = i
                break
        if sel is None:
            continue
        mat[piv], mat[sel] = mat[sel], mat[piv]
        inv = pow(mat[piv][c], -1, p)
        mat[piv] = [a * inv % p for a in mat[piv]]
        for i in range(len(mat)):
            if i != piv and mat[i][c] % p:
                f = mat[i][c] % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[piv])]
        piv += 1
        if piv == len(mat):
            break
    return tuple(tuple(r) for r in mat[:piv] if any(r))


def vector_span_rank(rows, p: int) -> int:
    """Dimension of the span of ``rows`` (vectors or matrix rows) over F_p."""
    return len(rref(rows, p))


def gl_order(n: int, p: int) -> int:
    """|GL(n, p)| = prod_{i < n} (p^n - p^i)."""
    order = 1
    for i in range(n):
        order *= p ** n - p ** i
    return order


@lru_cache(maxsize=None)
def _partitions(n: int, largest: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n into parts <= largest, parts in decreasing order."""
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(min(n, largest), 0, -1)
                 for rest in _partitions(n - first, first))


@lru_cache(maxsize=None)
def _centraliser_order(part: tuple[int, ...], q: int) -> int:
    """c_lambda(q) = q^{sum lambda'_i^2} prod_i phi_{m_i}(1/q), as an integer.

    phi_m(t) = (1 - t)(1 - t^2)...(1 - t^m); each factor 1 - q^-j is
    written (q^j - 1) / q^j, and sum lambda'_i^2 >= sum m_i (m_i + 1) / 2
    keeps the power of q whole.
    """
    conj = [sum(1 for x in part if x > i) for i in range(part[0])]
    mults = [part.count(m) for m in set(part)]
    order = q ** (sum(c * c for c in conj) - sum(m * (m + 1) // 2 for m in mults))
    for m in mults:
        for j in range(1, m + 1):
            order *= q ** j - 1
    return order


def _pack_keys(digits: np.ndarray, base: int) -> np.ndarray:
    """Encode each item of a batch as one integer key.

    Item i is ``digits[i]`` read as base-``base`` digits in C order, most
    significant first, so keys sort like the items do.  Raises
    CapExceededError past the ``key values`` cap, when a key would not fit
    in 63 bits.
    """
    import numpy as np
    flat = digits.reshape(len(digits), math.prod(digits.shape[1:]))  # also for no items
    nd = flat.shape[1]
    require_within("key values", base ** nd,
                   f"the values of a key packed from {nd} base-{base} digits")
    # Horner over the digit columns keeps one uint64 array, not a widened batch
    keys = np.zeros(len(flat), dtype=np.uint64)
    for j in range(nd):
        keys *= np.uint64(base)
        keys += flat[:, j].astype(np.uint64)
    return keys


def orbit_components(keys: np.ndarray, image_keys) -> tuple[int, np.ndarray]:
    """Orbits of a finite set closed under some moves, as graph components.

    ``keys`` holds one distinct integer key per object; each array of
    ``image_keys``, an iterable read once, holds, for every object in the
    same order, the key of its image under one move.  Returns the number of
    orbits and each object's orbit label in ``range(count)``, labels
    numbered by least key.

    Nodes are the ranks of the keys, and the components come from hooking
    and pointer jumping (Shiloach and Vishkin, J. Algorithms 3, 1982), one
    move's edges at a time.  Throughout, ``root[x] <= x`` and ``root[x]``
    lies in the same component as ``x``.  Each round hooks the larger root
    of every edge onto the smaller one, keeping the least candidate, then
    jumps pointers until ``root[root] == root`` and drops the edges whose
    ends now share a root.  At the end the root of a component is its least
    node, which is its least key.
    """
    import numpy as np
    B = len(keys)
    U = np.sort(keys)
    src = np.searchsorted(U, keys).astype(np.int32)
    root = np.arange(B, dtype=np.int32)
    for nk in image_keys:
        ids = np.searchsorted(U, nk)
        if not (U[np.minimum(ids, B - 1)] == nk).all():
            raise AssertionError("neighbour missing from enumeration")
        a, b = root[src], root[ids]
        while (apart := a != b).any():
            a, b = a[apart], b[apart]
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while not np.array_equal(jumped := root[root], root):
                root = jumped
            a, b = root[a], root[b]
    is_root = root == np.arange(B, dtype=np.int32)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root[src]]


def group_closure(gens, p: int) -> np.ndarray:
    """Full multiplicative closure of a set of invertible matrices over F_p.

    Returns the elements as an (N, n, n) int64 array in lexicographic order.
    Raises CapExceededError once the closure grows past the ``elements`` cap,
    or when p^(n^2) >= 2^63 and keys would not fit in 63 bits.

    The search runs on codes: a vector v is the code sum_j v_j p^(n-1-j),
    each generator g is the permutation of the p^n codes that v -> v g
    induces, and a matrix is the codes of its rows, so M g is the lookup
    perm_g[rows].  Codes are held in the smallest unsigned dtype for p^n
    of them.  Keys read the row codes as base-p^n digits and sort like the
    matrices; at the end they are decoded once to row codes, and those
    through the code table to the matrices.
    """
    import numpy as np
    check_prime(p)
    gens = [np.asarray(g, dtype=np.int64) % p for g in gens]
    if not gens:
        return np.zeros((0, 0, 0), dtype=np.int64)
    n = len(gens[0])
    for g in gens:
        if g.shape != (n, n):
            raise PreconditionError("generators must be square matrices of equal size")
        if vector_span_rank(g, p) != n:
            raise PreconditionError("generators must be invertible")
    q = p ** n
    code = np.min_scalar_type(q - 1)  # the smallest unsigned dtype for a code
    weights = p ** np.arange(n - 1, -1, -1)
    frontier = weights[None].astype(code)  # the identity: row i is e_i, with code p^(n-1-i)
    seen = _pack_keys(frontier, q)  # raises before any table when keys overflow
    vecs = (np.arange(q)[:, None] // weights) % p  # row c: the vector with code c
    # perms[g, c]: the code of v_c g
    perms = np.stack([(vecs @ g % p @ weights).astype(code) for g in gens])
    row_weights = np.uint64(q) ** np.arange(n - 1, -1, -1, dtype=np.uint64)

    def row_codes(keys):
        return (keys[:, None] // row_weights % np.uint64(q)).astype(code)

    # breadth-first by right multiplication; in a finite group the monoid the
    # generators span is already the group
    while len(frontier):
        keys = np.sort(_pack_keys(perms[:, frontier].reshape(-1, n), q))
        pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
        fresh = keys[(seen[pos] != keys) & np.append(True, keys[1:] != keys[:-1])]
        frontier = row_codes(fresh)
        # two sorted runs: the stable sort merges them
        seen = np.sort(np.concatenate([seen, fresh]), kind="stable")
        require_within("elements", len(seen), "the matrix closure's elements")
    return vecs[row_codes(seen)]
