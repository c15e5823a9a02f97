"""The test oracles that cross-check e and h, and nothing else.

The counts e and h are closed forms in ``eag.genvec``, and no module of
the package imports this one (``tests/test_oracle_boundary.py``).  The
oracles run only inside their own boxes, ``check_pure_caps`` and
``check_unramified_caps``, which production does not share: it bounds e by
the ``burnside steps`` cap of ``errors.CAPS``.  They run on subspaces that
``_subspace_blocks`` lists in blocks:

* ``count_pure_orbits_bfs``, the orbit engine ``fp.orbit_components`` on
  admissible k-subspaces of the zero-sum hyperplane of F_p^r under S_r
  permuting coordinates.  S_r is generated by the transposition (0 1) and
  the r-cycle, and the RREF of each image is written in closed form, with
  no row reduction;
* ``count_kernel_orbits_bfs``, the same engine on kernels in F_p^{2 rho}
  under generators of Sp(2 rho, p) (``sp_generators``);
* canonical-form counts: each unseen object marks its whole orbit under the
  fully enumerated acting group, with no generators and no graph: GL(k, p)
  by its definition, every matrix of full rank, and Sp(2 rho, p) by its
  own, every g with g J g^T = J (``sp_group``), applied in strided blocks;
  each group is built once.  The pure count walks one array of the
  zero-sum multisets (``_zero_sum_multisets``), the last entry of each
  forced by the others, and finds images by their multiplicity keys.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, PreconditionError, require_within
from . import fp
# perfbench reads Witt's count here, as orbits.witt_kernel_orbit_count
from .genvec import witt_kernel_orbit_count  # noqa: F401


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
    """The basis [I_{r-1} | -1] of the zero-sum hyperplane of F_p^r, in RREF."""
    return np.concatenate([np.eye(r - 1, dtype=np.int64),
                           np.full((r - 1, 1), p - 1, dtype=np.int64)], axis=1)


#: most subspaces that ``_subspace_blocks`` yields at once
SUBSPACE_BLOCK = 1024


def _subspace_blocks(p: int, W: np.ndarray, k: int):
    """Ambient bases of all k-subspaces of the row space of ``W``.

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
    """Ambient RREFs of all k-subspaces of the row space of ``W = [I_d | X]``.

    The result is uint8 of shape (gaussian_binomial(d, k, p), k, n).
    Each subspace is C W for its RREF coordinates C, and C W = [C | C X] is
    already in RREF, so nothing is row-reduced; any other ``W`` raises.
    """
    d = W.shape[0]
    if not np.array_equal(W[:, :d], np.eye(d, dtype=W.dtype)):
        raise PreconditionError("subspace enumeration needs a basis of the form [I | X]")
    return np.concatenate([block.astype(np.uint8) for block in _subspace_blocks(p, W, k)])


#: most subspaces whose move images ``_subspace_orbit_count`` builds at once
MOVE_BLOCK = 65_536


def _subspace_orbit_count(M: np.ndarray, p: int, moves, drop_first_col: bool) -> int:
    """Number of orbits of the subspaces in ``M`` under the group the moves generate.

    ``M`` holds the RREF of every subspace of one orbit-closed family, one
    per row; each move maps such a batch to the RREFs of its images.  The
    images are built and packed in blocks of MOVE_BLOCK subspaces, so the
    temporaries of a move stay small next to ``M``.
    """
    def pack(batch):
        return fp._pack_keys(batch[:, :, 1:] if drop_first_col else batch, p)

    def image_keys(move):
        return np.concatenate([pack(move(M[i:i + MOVE_BLOCK]))
                               for i in range(0, len(M), MOVE_BLOCK)])

    return fp.orbit_components(pack(M), (image_keys(move) for move in moves))[0]


# ---------------------------------------------------------------------------
# purely ramified count: S_r-orbits of admissible zero-sum subspaces
#
# A valid (0; p^r)-generating tuple of C_p^k, taken up to basis change of the
# target, is the same thing as its row space: a k-dimensional subspace of
# F_p^r lying inside the zero-sum hyperplane with no identically-zero
# coordinate (columns of the reduced basis are the tuple entries).  Tuple
# reordering becomes the S_r action on coordinates, so class counting is
# orbit counting of admissible subspaces under S_r.

#: enumeration box of the purely ramified BFS oracle
PURE_BRUTE_PRIMES = (2, 3, 5)
PURE_BRUTE_MAX_RANK = 4
PURE_BRUTE_MAX_PERIODS = 8
PURE_BRUTE_MAX_SUBSPACES = 10 ** 8


def check_pure_caps(p: int, k: int, r: int) -> None:
    """Raise outside the enumeration box, or when the BFS would list more
    than PURE_BRUTE_MAX_SUBSPACES subspaces of the zero-sum hyperplane."""
    if p not in PURE_BRUTE_PRIMES or k > PURE_BRUTE_MAX_RANK or r > PURE_BRUTE_MAX_PERIODS:
        raise CapExceededError(
            f"(p={p}, k={k}, r={r}) is outside the enumeration box p in {PURE_BRUTE_PRIMES}, "
            f"k <= {PURE_BRUTE_MAX_RANK}, r <= {PURE_BRUTE_MAX_PERIODS}")
    subspaces = gaussian_binomial(r - 1, k, p)
    if subspaces > PURE_BRUTE_MAX_SUBSPACES:
        raise CapExceededError(
            f"(p={p}, k={k}, r={r}) needs {subspaces} subspaces, above {PURE_BRUTE_MAX_SUBSPACES}")


def _swap01_rref(M: np.ndarray, p: int) -> np.ndarray:
    """RREF of every subspace in ``M`` after swapping coordinates 0 and 1.

    Precondition: each row of ``M`` (shape (B, k, r), uint8) is the RREF of
    an admissible subspace of the zero-sum hyperplane.  Column 0 is then
    e_0, and column 1 is either e_1 (row 1 pivots there) or a*e_0 with
    a != 0.  In the first case swapping rows 0 and 1 restores the RREF; in
    the second, scaling row 0 by 1/a does.
    """
    k, r = M.shape[1:]
    S = M[:, :, [1, 0] + list(range(2, r))]
    pivot = np.zeros(len(M), dtype=bool)
    if k >= 2:
        pivot = M[:, 1, 1] == 1
        S[pivot, 0], S[pivot, 1] = S[pivot, 1], S[pivot, 0]
    scaled = ~pivot
    inv = _inverse_table(p)[M[scaled, 0, 1]]
    S[scaled, 0] = (S[scaled, 0] * inv[:, None]) % p
    return S


def _cycle_rref(M: np.ndarray, p: int) -> np.ndarray:
    """RREF of every subspace in ``M`` after the r-cycle i -> i + 1 (mod r).

    Precondition: each row of ``M`` (shape (B, k, r), uint8) is the RREF of
    an admissible subspace of the zero-sum hyperplane.  Dropping the last
    coordinate is injective on the hyperplane, so all pivots lie in the
    first r - 1 columns and the image is ``[c | A]`` with A in RREF and
    c != 0.  With i0 the last row where c is nonzero, the RREF is row i0
    divided by c[i0], followed by every other row j, in order, minus
    c[j] / c[i0] times row i0.
    """
    B, k = M.shape[:2]
    R = np.roll(M, 1, axis=2).astype(np.int16)
    c = R[:, :, 0]
    i0 = k - 1 - (c[:, ::-1] != 0).argmax(axis=1)
    top = R[np.arange(B), i0]
    top = (top * _inverse_table(p)[top[:, 0]][:, None]) % p
    rest = (R - c[:, :, None] * top[:, None, :]) % p  # row i0 becomes zero
    out = np.empty(M.shape, dtype=np.uint8)
    out[:, 0] = top
    before = (np.arange(k - 1)[None, :] < i0[:, None])[:, :, None]
    out[:, 1:] = np.where(before, rest[:, :-1], rest[:, 1:])
    return out


@lru_cache(maxsize=None)
def count_pure_orbits_bfs(p: int, k: int, r: int) -> int:
    """S_r-orbit count of admissible k-subspaces, by BFS over (0 1) and the r-cycle."""
    fp.check_prime(p)
    check_pure_caps(p, k, r)
    if k < 1 or k > r - 1:
        return 0
    M = _enumerate_subspaces(p, _zero_sum_hyperplane_basis(p, r), k)
    M = M[(M != 0).any(axis=1).all(axis=1)]
    if len(M) == 0:
        return 0
    # admissible matrices always pivot in column 0, so the key may drop it
    moves = [lambda batch: _swap01_rref(batch, p), lambda batch: _cycle_rref(batch, p)]
    return _subspace_orbit_count(M, p, moves, drop_first_col=True)


# canonical-form route: walk the zero-sum multisets of nonzero vectors and
# mark the orbit of each unseen spanning one under the fully enumerated
# GL(k, p).

CANONICAL_MAX_GROUP = 600
CANONICAL_MAX_RAW = 200_000


def _multiset_count(m: int, t: int) -> int:
    """C(m + t - 1, t): the number of t-multisets drawn from m kinds."""
    count = 1
    for i in range(t):
        count = count * (m + i) // (i + 1)
    return count


def pure_canonical_feasible(p: int, k: int, r: int) -> bool:
    return (fp.gl_order(k, p) <= CANONICAL_MAX_GROUP
            and _multiset_count(p ** k - 1, r) <= CANONICAL_MAX_RAW)


@lru_cache(maxsize=None)
def _general_linear(k: int, p: int) -> np.ndarray:
    """GL(k, p) by its definition, every k x k matrix over F_p of full rank: sorted, read-only."""
    fp.check_prime(p)
    mats = np.arange(p ** (k * k))[:, None] // p ** np.arange(k * k - 1, -1, -1) % p
    mats = mats.reshape(-1, k, k)
    group = mats[batch_rref(mats, p)[:, -1].any(axis=1)]
    group.flags.writeable = False
    return group


def _zero_sum_multisets(p: int, k: int, r: int) -> np.ndarray:
    """The r-multisets of nonzero vectors of F_p^k that sum to 0, as the sorted
    codes sum_i v_i p^i of their vectors, one per row in lexicographic order.

    The sorted (r - 1)-multisets, the heads, are built column by column; the
    last entry, minus a head's sum, is kept when it is at least the head's
    largest, so each multiset comes from one head.  Needs r >= 2.
    """
    n = p ** k
    digits = p ** np.arange(k)
    vecs = (np.arange(n)[:, None] // digits) % p  # row c: the vector with code c
    heads = np.arange(1, n, dtype=np.min_scalar_type(n - 1))[:, None]
    for _ in range(r - 2):  # each head extended by every code from its last one up
        last = heads[:, -1].astype(np.int64)
        row = np.repeat(np.arange(len(heads)), n - last)
        code = last[row] + np.arange(len(row)) - np.searchsorted(row, row)
        heads = np.column_stack([heads[row], code.astype(heads.dtype)])
    last = -sum(vecs[column] for column in heads.T) % p @ digits  # 0 for a zero sum: fails
    keep = last >= heads[:, -1]
    return np.column_stack([heads[keep], last[keep].astype(heads.dtype)])


@lru_cache(maxsize=None)
def count_pure_orbits_canonical(p: int, k: int, r: int) -> int:
    """Independent count: orbits of vector multisets under GL x S_r.

    Each multiset of ``_zero_sum_multisets`` not yet seen has its images
    under GL(k, p) marked seen, and starts an orbit when it spans F_p^k
    (GL keeps the span).  A key, minus the multiplicities of codes 1, 2, ...
    as base-(r + 1) digits, absorbs S_r with no sort, rises with the walk,
    and fits 63 bits where r base-p^k digits may not.
    """
    if k < 1 or k > r - 1:
        return 0
    if not pure_canonical_feasible(p, k, r):
        raise CapExceededError(f"canonical-form count infeasible for (p={p}, k={k}, r={r})")
    n = p ** k
    require_within("key values", (r + 1) ** (n - 1), f"the keys of {r}-multisets of {n - 1} codes")
    digits = p ** np.arange(k)
    vecs = (np.arange(n)[:, None] // digits) % p  # row c: the vector with code c
    weight = np.append(0, (r + 1) ** np.arange(n - 2, -1, -1, dtype=np.int64))
    # moved[g, c]: the weight of g applied to the column vector with code c
    moved = weight[np.einsum("gij,vj->gvi", _general_linear(k, p), vecs) % p @ digits]
    multisets = _zero_sum_multisets(p, k, r)
    keys = -weight[multisets].sum(axis=1)
    seen = np.zeros(len(keys), dtype=bool)
    count = 0
    for i in range(len(keys)):
        if seen[i]:
            continue
        images = -moved[:, multisets[i]].sum(axis=1)
        at = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
        if not (keys[at] == images).all():
            raise AssertionError("image missing from enumeration")
        seen[at] = True
        count += fp.vector_span_rank(vecs[multisets[i]], p) == k
    return count


# ---------------------------------------------------------------------------
# unramified count: Sp(2*rho, p)-orbits of kernels
#
# Epimorphisms from a genus-rho surface group onto C_p^k factor through mod-p
# homology, so classes correspond to surjections F_p^{2 rho} -> F_p^k modulo
# GL(k, p) on the target (i.e. their kernels) and the mapping class group
# image Sp(2 rho, p) on the source.

#: enumeration box of the kernel-count oracle
UNRAMIFIED_BRUTE_PRIMES = (2, 3, 5)
UNRAMIFIED_BRUTE_MAX_GENUS = 3
UNRAMIFIED_BRUTE_MAX_SUBSPACES = 100_000


def check_unramified_caps(p: int, k: int, rho: int) -> None:
    if p not in UNRAMIFIED_BRUTE_PRIMES or rho > UNRAMIFIED_BRUTE_MAX_GENUS:
        raise CapExceededError(
            f"(p={p}, k={k}, rho={rho}) is outside the enumeration box "
            f"p in {UNRAMIFIED_BRUTE_PRIMES}, rho <= {UNRAMIFIED_BRUTE_MAX_GENUS}")
    est = gaussian_binomial(2 * rho, max(2 * rho - k, 0), p)
    if est > UNRAMIFIED_BRUTE_MAX_SUBSPACES:
        raise CapExceededError(
            f"(p={p}, k={k}, rho={rho}) needs {est} subspaces, above "
            f"{UNRAMIFIED_BRUTE_MAX_SUBSPACES}")


def standard_symplectic_form(rho: int, p: int) -> np.ndarray:
    """Alternating form J pairing coordinates (2i, 2i+1) for i < rho."""
    J = np.zeros((2 * rho, 2 * rho), dtype=np.int64)
    even = np.arange(0, 2 * rho, 2)
    J[even, even + 1] = 1
    J[even + 1, even] = p - 1
    return J


def sp_generators(rho: int, p: int) -> list[np.ndarray]:
    """Generators of Sp(2*rho, p) for the standard alternating form.

    Symplectic transvections x -> x + <x, v> v with <x, v> = x^T J v, i.e.
    the matrices I + v (Jv)^T, along the curve classes that generate the
    mapping class group image on mod-p homology: each handle's pair, plus
    the sums linking consecutive handles.
    """
    fp.check_prime(p)
    if rho < 1:
        raise PreconditionError("rho must be >= 1")
    n = 2 * rho
    J = standard_symplectic_form(rho, p)
    e = np.eye(n, dtype=np.int64)
    directions = list(e)
    for i in range(rho - 1):
        directions += [e[2 * i] + e[2 * i + 2], e[2 * i + 1] + e[2 * i + 3]]
    return [(e + np.outer(v, J @ v)) % p for v in directions]


def _sp_order(rho: int, p: int) -> int:
    """p^(rho^2) prod_{i <= rho} (p^(2i) - 1), the number of symplectic bases of F_p^{2 rho}."""
    return p ** (rho * rho) * math.prod(p ** (2 * i) - 1 for i in range(1, rho + 1))


@lru_cache(maxsize=None)
def sp_group(rho: int, p: int) -> np.ndarray:
    """Sp(2 rho, p) by its definition, each g with g J g^T = J: sorted, read-only.

    Row t of g is each vector code sum_j v_j p^(n-1-j) in increasing order
    whose pairing with every row i < t is J[i, t], so the group comes out
    sorted, as ``fp.group_closure`` of ``sp_generators`` lists it.  The
    ``elements`` cap is checked on the order before any array is built.
    """
    fp.check_prime(p)
    if rho < 1:
        raise PreconditionError("rho must be >= 1")
    require_within("elements", _sp_order(rho, p), f"the elements of Sp({2 * rho}, {p})")
    n, q = 2 * rho, p ** (2 * rho)
    J = standard_symplectic_form(rho, p)
    vecs = np.arange(q)[:, None] // p ** np.arange(n - 1, -1, -1) % p
    pairs = {value: vecs @ J @ vecs.T % p == value for value in (0, 1, p - 1)}  # by J's entry
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(q - 1))  # the codes of each partial basis
    for t in range(n):
        keep = np.ones((len(rows), q), dtype=bool)
        for i in range(t):
            keep &= pairs[J[i, t]][rows[:, i]]
        partial, code = np.nonzero(keep)
        rows = np.column_stack([rows[partial], code.astype(rows.dtype)])
    del keep, partial, code  # the last mask is freed before the decode
    group = vecs[rows]
    group.flags.writeable = False
    return group


@lru_cache(maxsize=None)
def count_kernel_orbits_bfs(p: int, k: int, rho: int) -> int:
    """Orbit count of codimension-k subspaces of F_p^{2 rho} under Sp."""
    check_unramified_caps(p, k, rho)
    if k < 0 or k > 2 * rho:
        return 0
    n = 2 * rho
    # W -> W^perp is Sp-equivariant, so the (n - k)-dimensional kernels and
    # the k-subspaces have equally many orbits; the smaller dimension keeps
    # the packed keys within 64 bits (a 5-dimensional kernel in F_5^6 would
    # need 30 base-5 digits)
    e = min(n - k, k)
    if e == 0:
        return 1
    M = _enumerate_subspaces(p, np.eye(n, dtype=np.int64), e)
    moves = [lambda batch, g=g: batch_rref(batch @ g, p) for g in sp_generators(rho, p)]
    return _subspace_orbit_count(M, p, moves, drop_first_col=False)


CANONICAL_SP_MAX_GROUP = 52_000

#: most group elements that ``count_kernel_orbits_canonical`` applies at once
ORBIT_MARK_BLOCK = 2 ** 11


def kernel_canonical_feasible(p: int, rho: int) -> bool:
    return _sp_order(rho, p) <= CANONICAL_SP_MAX_GROUP


@lru_cache(maxsize=None)
def count_kernel_orbits_canonical(p: int, k: int, rho: int) -> int:
    """Independent count: orbits marked whole by all of Sp(2 rho, p).

    A subspace not yet seen starts a new orbit, and every element of
    ``sp_group`` is applied to it to mark that orbit seen, in blocks
    ``group[b::stride]`` of at most ORBIT_MARK_BLOCK elements that together
    are the whole group.  The group is sorted, so each first row fills a run
    of |G| / (p^(2 rho) - 1) elements, and every block meets each run no
    shorter than the stride.  An image that is not an enumerated subspace
    raises, so once every enumerated subspace is seen no further orbit can
    start: the marking stops there, and every orbit but the last gets the
    whole group.
    """
    if not kernel_canonical_feasible(p, rho):
        raise CapExceededError(f"canonical Sp count infeasible for (p={p}, rho={rho})")
    if k < 0 or k > 2 * rho:
        return 0
    d = 2 * rho - k
    if d == 0 or k == 0:  # the zero subspace, or the whole space
        return 1
    n = 2 * rho
    group = sp_group(rho, p)
    stride = -(-len(group) // ORBIT_MARK_BLOCK)
    subspaces = _enumerate_subspaces(p, np.eye(n, dtype=np.int64), d)
    keys = fp._pack_keys(subspaces, p)
    enumerated = np.sort(keys)
    seen = np.zeros(len(keys), dtype=bool)
    count = 0
    for rows, rank in zip(subspaces.astype(np.int64), np.searchsorted(enumerated, keys)):
        if seen[rank]:
            continue
        count += 1
        for b in range(stride):
            moved = np.einsum("di,gij->gdj", rows, group[b::stride]) % p
            images = fp._pack_keys(batch_rref(moved, p), p)
            at = np.minimum(np.searchsorted(enumerated, images), len(enumerated) - 1)
            if not (enumerated[at] == images).all():
                raise AssertionError("image missing from enumeration")
            seen[at] = True
            if seen.all():
                break
    return count
