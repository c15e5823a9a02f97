"""Orbit-counting engines used by the class-counting operations.

Every production orbit count runs on one engine, ``orbit_components``:
objects become distinct integer keys, each move maps every object to the
key of its image, and the orbits are the connected components.  It counts

* purely ramified: admissible k-subspaces of the zero-sum hyperplane of
  F_p^r under S_r permuting coordinates;
* unramified: kernels in F_p^{2 rho} under Sp(2 rho, p);
* Cayley-table orbits (``grouptable.generating_vector_orbits``): genus-0
  generating tuples under the braid moves and Aut(G).  Aut(G) adds one
  edge per tuple, to the least key of its Aut-orbit; t and alpha(t) share
  that key, so this one edge joins what |Aut(G)| edges per tuple would.

Sp(2 rho, p) preserves the symplectic form, so W -> W^perp (the complement
under the form) is an equivariant bijection between d- and
(2 rho - d)-subspaces.  The kernel count therefore enumerates the smaller
of the two dimensions; that keeps the enumeration small and the packed
keys within 64 bits (a 5-dimensional kernel in F_5^6 would need 30 base-5
digits).

Independent canonical-form oracles (each unseen object marks its whole orbit
under the fully enumerated acting group, with no generators and no graph)
and the Witt closed form cross-check the engine in the test suite.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import CapExceededError
from . import fp
from .fp import _pack_keys

#: brute-force feasibility box for the purely ramified count
PURE_BRUTE_PRIMES = (2, 3, 5)
PURE_BRUTE_MAX_RANK = 4
PURE_BRUTE_MAX_PERIODS = 8

#: brute-force feasibility box for the unramified count
UNRAMIFIED_BRUTE_PRIMES = (2, 3, 5)
UNRAMIFIED_BRUTE_MAX_GENUS = 3
UNRAMIFIED_BRUTE_MAX_SUBSPACES = 100_000

def gaussian_binomial(m: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^m."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (m - i) - 1
        den *= p ** (i + 1) - 1
    if num % den:
        raise AssertionError(f"Gaussian binomial [{m} {k}]_{p} is not an integer")
    return num // den


# ---------------------------------------------------------------------------
# batched row reduction


def _inverse_table(p: int) -> np.ndarray:
    inv = np.zeros(p, dtype=np.int16)
    for a in range(1, p):
        inv[a] = pow(a, -1, p)
    return inv


def batch_rref(mats: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form of a batch of matrices over F_p.

    ``mats`` has shape (B, k, r); the result is uint8 of the same shape.
    """
    M = mats.astype(np.int16) % p
    B, k, r = M.shape
    inv = _inverse_table(p)
    piv = np.zeros(B, dtype=np.int64)
    rows = np.arange(k, dtype=np.int64)[None, :]
    for c in range(r):
        col = M[:, :, c]
        cand = (col != 0) & (rows >= piv[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        hb = np.nonzero(has)[0]
        pr = piv[hb]
        sr = cand[hb].argmax(axis=1)
        tmp = M[hb, pr, :].copy()
        M[hb, pr, :] = M[hb, sr, :]
        M[hb, sr, :] = tmp
        pivvals = M[hb, pr, c]
        M[hb, pr, :] = (M[hb, pr, :] * inv[pivvals][:, None]) % p
        colv = M[hb, :, c].copy()
        colv[np.arange(len(hb)), pr] = 0
        M[hb] = (M[hb] - colv[:, :, None] * M[hb, pr, :][:, None, :]) % p
        piv[hb] += 1
    return M.astype(np.uint8)


def _zero_sum_hyperplane_basis(p: int, r: int) -> np.ndarray:
    B = np.zeros((r - 1, r), dtype=np.int64)
    for i in range(r - 1):
        B[i, i] = 1
        B[i, i + 1] = p - 1
    return B


#: most rows of unreduced bases that ``_subspace_blocks`` builds at once
SUBSPACE_BLOCK = 1024


def _subspace_blocks(p: int, W: np.ndarray, k: int):
    """Unreduced ambient bases of all k-subspaces of the row space of ``W``.

    ``W`` (shape (d, n)) must have independent rows.  Yields int64 arrays of
    shape (B, k, n) with B <= SUBSPACE_BLOCK, one subspace per row: the RREF
    coordinates of each k-subspace of F_p^d, by pivot pattern, times ``W``.
    """
    d = W.shape[0]
    for pivots in itertools.combinations(range(d), k):
        free = [(i, j) for i in range(k) for j in range(d)
                if j > pivots[i] and j not in pivots]
        base = np.zeros((k, d), dtype=np.int64)
        for i, c in enumerate(pivots):
            base[i, c] = 1
        total = p ** len(free)
        for start in range(0, total, SUBSPACE_BLOCK):
            vals = np.arange(start, min(start + SUBSPACE_BLOCK, total), dtype=np.int64)
            mats = np.broadcast_to(base, (len(vals), k, d)).copy()
            for i, j in free:
                mats[:, i, j] = vals % p
                vals //= p
            yield np.einsum("bkd,dr->bkr", mats, W) % p


def _enumerate_subspaces(p: int, W: np.ndarray, k: int) -> np.ndarray:
    """Ambient RREFs of all k-subspaces of the row space of ``W``.

    ``W`` (shape (d, n)) must have independent rows; the result has shape
    (gaussian_binomial(d, k, p), k, n).
    """
    return np.concatenate([batch_rref(block, p) for block in _subspace_blocks(p, W, k)])


def orbit_components(keys: np.ndarray, image_keys) -> tuple[int, np.ndarray]:
    """Orbits of a finite set closed under some moves, as graph components.

    ``keys`` holds one distinct integer key per object; each array of
    ``image_keys`` holds, for every object in the same order, the key of its
    image under one move.  Returns the number of orbits and each object's
    orbit label in ``range(count)``, labels numbered by least key.

    The graph is contracted one move at a time: each move's edges join the
    components found so far, so no graph holds more than one move's edges.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    B = len(keys)
    U = np.sort(keys)
    src = np.searchsorted(U, keys)
    count, labels = B, np.arange(B)  # labels[node]: its component so far
    for nk in image_keys:
        ids = np.searchsorted(U, nk)
        if not (U[np.minimum(ids, B - 1)] == nk).all():
            raise AssertionError("neighbour missing from enumeration")
        g = coo_matrix((np.ones(B, dtype=np.int8), (labels[src], labels[ids])),
                       shape=(count, count))
        count, merged = connected_components(g, directed=False)
        labels = merged[labels]
    return int(count), labels[src]


#: most subspaces whose move images ``_subspace_orbit_count`` reduces at once
MOVE_BLOCK = 65_536


def _subspace_orbit_count(M: np.ndarray, p: int, moves, drop_first_col: bool) -> int:
    """Number of orbits of the subspaces in ``M`` under the group the moves generate.

    ``M`` holds the RREF of every subspace of one orbit-closed family, one
    per row; each move maps such a batch to (unreduced) bases of its images.
    The images are reduced and packed in blocks of MOVE_BLOCK subspaces, so
    the temporaries of ``batch_rref`` stay small next to ``M``.
    """
    def pack(batch):
        return _pack_keys(batch[:, :, 1:] if drop_first_col else batch, p)

    def image_keys(move):
        return np.concatenate([pack(batch_rref(move(M[i:i + MOVE_BLOCK]), p))
                               for i in range(0, len(M), MOVE_BLOCK)])

    return orbit_components(pack(M), (image_keys(move) for move in moves))[0]


# ---------------------------------------------------------------------------
# purely ramified count: S_r-orbits of admissible zero-sum subspaces
#
# A valid (0; p^r)-generating tuple of C_p^k, taken up to basis change of the
# target, is the same thing as its row space: a k-dimensional subspace of
# F_p^r lying inside the zero-sum hyperplane with no identically-zero
# coordinate (columns of the reduced basis are the tuple entries).  Tuple
# reordering becomes the S_r action on coordinates, so class counting is
# orbit counting of admissible subspaces under S_r.


def check_pure_caps(p: int, k: int, r: int, cap: int | None = None) -> None:
    cap = fp.DEFAULT_ELEMENT_CAP if cap is None else cap
    if p not in PURE_BRUTE_PRIMES or k > PURE_BRUTE_MAX_RANK or r > PURE_BRUTE_MAX_PERIODS:
        raise CapExceededError(
            f"(p={p}, k={k}, r={r}) is outside the brute-force box "
            f"p in {PURE_BRUTE_PRIMES}, k <= {PURE_BRUTE_MAX_RANK}, r <= {PURE_BRUTE_MAX_PERIODS}")
    est = gaussian_binomial(r - 1, k, p)
    if est > cap:
        raise CapExceededError(
            f"(p={p}, k={k}, r={r}) needs {est} subspaces, above the cap {cap}")


@lru_cache(maxsize=None)
def count_pure_orbits_bfs(p: int, k: int, r: int) -> int:
    """S_r-orbit count of admissible k-subspaces, by transposition BFS."""
    check_pure_caps(p, k, r)
    if k < 1 or k > r - 1:
        return 0
    M = _enumerate_subspaces(p, _zero_sum_hyperplane_basis(p, r), k)
    M = M[(M != 0).any(axis=1).all(axis=1)]
    if len(M) == 0:
        return 0

    def swap(c):
        def move(batch):
            # copy-then-swap keeps the batch C-contiguous for batch_rref
            S = batch.copy()
            S[:, :, [c, c + 1]] = S[:, :, [c + 1, c]]
            return S
        return move

    # admissible matrices always pivot in column 0, so the key may drop it
    return _subspace_orbit_count(M, p, [swap(c) for c in range(r - 1)],
                                 drop_first_col=True)


# canonical-form route: enumerate zero-sum spanning multisets of nonzero
# vectors and mark the orbit of each unseen one under the fully enumerated
# GL(k, p).

CANONICAL_MAX_GROUP = 600
CANONICAL_MAX_RAW = 200_000


def pure_canonical_feasible(p: int, k: int, r: int) -> bool:
    order = 1
    for i in range(k):
        order *= p ** k - p ** i
    if order > CANONICAL_MAX_GROUP:
        return False
    raw = 1
    nvec = p ** k - 1
    for i in range(r):
        raw = raw * (nvec + i) // (i + 1)
    return raw <= CANONICAL_MAX_RAW


@lru_cache(maxsize=None)
def count_pure_orbits_canonical(p: int, k: int, r: int) -> int:
    """Independent count: orbits of vector multisets under GL x S_r."""
    if k < 1 or k > r - 1:
        return 0
    if not pure_canonical_feasible(p, k, r):
        raise CapExceededError(f"canonical-form count infeasible for (p={p}, k={k}, r={r})")
    n = p ** k
    digits = p ** np.arange(k)
    vecs = (np.arange(n)[:, None] // digits) % p  # row c: the vector with code c
    decode = [tuple(v) for v in vecs.tolist()]
    add = ((vecs[:, None] + vecs[None]) % p @ digits).tolist()
    # every element g of GL(k, p) as a permutation of the codes: perms[g][c]
    # is the code of g applied to the column vector with code c
    group = fp.group_closure(fp.gl_generators(k, p), p)
    perms = (np.einsum("gij,vj->gvi", group, vecs) % p @ digits).tolist()
    # a multiset not yet seen starts a new orbit; all its images under
    # GL x S_r (sorting absorbs S_r) are then marked seen
    seen = set()
    count = 0
    for multiset in itertools.combinations_with_replacement(range(1, n), r):
        if multiset in seen:
            continue
        total = 0
        for c in multiset:
            total = add[total][c]
        if total != 0 or len(fp.rref([decode[c] for c in set(multiset)], p)) != k:
            continue
        count += 1
        seen.update(tuple(sorted(perm[c] for c in multiset)) for perm in perms)
    return count


# ---------------------------------------------------------------------------
# unramified count: Sp(2*rho, p)-orbits of kernels
#
# Epimorphisms from a genus-rho surface group onto C_p^k factor through mod-p
# homology, so classes correspond to surjections F_p^{2 rho} -> F_p^k modulo
# GL(k, p) on the target (i.e. their kernels) and the mapping class group
# image Sp(2 rho, p) on the source.


def check_unramified_caps(p: int, k: int, rho: int) -> None:
    if p not in UNRAMIFIED_BRUTE_PRIMES or rho > UNRAMIFIED_BRUTE_MAX_GENUS:
        raise CapExceededError(
            f"(p={p}, k={k}, rho={rho}) is outside the brute-force box "
            f"p in {UNRAMIFIED_BRUTE_PRIMES}, rho <= {UNRAMIFIED_BRUTE_MAX_GENUS}")
    est = gaussian_binomial(2 * rho, max(2 * rho - k, 0), p)
    if est > UNRAMIFIED_BRUTE_MAX_SUBSPACES:
        raise CapExceededError(
            f"(p={p}, k={k}, rho={rho}) needs {est} subspaces, above "
            f"{UNRAMIFIED_BRUTE_MAX_SUBSPACES}")


@lru_cache(maxsize=None)
def count_kernel_orbits_bfs(p: int, k: int, rho: int) -> int:
    """Orbit count of codimension-k subspaces of F_p^{2 rho} under Sp."""
    check_unramified_caps(p, k, rho)
    if k < 0 or k > 2 * rho:
        return 0
    n = 2 * rho
    # W -> W^perp is Sp-equivariant, so the (n - k)-dimensional kernels and
    # the k-subspaces have equally many orbits
    e = min(n - k, k)
    if e == 0:
        return 1
    M = _enumerate_subspaces(p, np.eye(n, dtype=np.int64), e)
    moves = [lambda batch, g=g: (batch @ g) % p for g in fp.sp_generators(rho, p)]
    return _subspace_orbit_count(M, p, moves, drop_first_col=False)


def witt_kernel_orbit_count(rho: int, k: int) -> int:
    """Closed form for the same orbit count.

    Orbits of d-dimensional subspaces under the symplectic group are
    classified by the rank 2t of the restricted form, with
    max(0, d - rho) <= t <= floor(d / 2); Witt extension gives transitivity
    within each class.  Independent of p.
    """
    if k < 0 or k > 2 * rho:
        return 0
    d = 2 * rho - k
    lo = max(0, d - rho)
    hi = d // 2
    return hi - lo + 1


CANONICAL_SP_MAX_GROUP = 52_000


def kernel_canonical_feasible(p: int, rho: int) -> bool:
    order = p ** (rho * rho)
    for i in range(1, rho + 1):
        order *= p ** (2 * i) - 1
    return order <= CANONICAL_SP_MAX_GROUP


@lru_cache(maxsize=None)
def count_kernel_orbits_canonical(p: int, k: int, rho: int) -> int:
    """Independent count: orbits marked whole by the full Sp closure."""
    if not kernel_canonical_feasible(p, rho):
        raise CapExceededError(f"canonical Sp count infeasible for (p={p}, rho={rho})")
    if k < 0 or k > 2 * rho:
        return 0
    d = 2 * rho - k
    if d == 0:
        return 1
    n = 2 * rho
    group = fp.group_closure(fp.sp_generators(rho, p), p)
    subspaces = _enumerate_subspaces(p, np.eye(n, dtype=np.int64), d)
    # a subspace not yet seen starts a new orbit; its whole orbit is then
    # marked seen by applying every group element to it
    seen = set()
    count = 0
    for rows, key in zip(subspaces, _pack_keys(subspaces, p).tolist()):
        if key in seen:
            continue
        count += 1
        moved = np.einsum("di,gij->gdj", rows.astype(np.int64), group) % p
        seen.update(_pack_keys(batch_rref(moved, p), p).tolist())
    return count
