"""Exact linear algebra over the prime field F_p.

Scalars are plain int residues in [0, p).  Only small primes are accepted
(p <= 13); everything in the classification lives there and the bound keeps
multiplicative closures enumerable.  Vectors and matrices are immutable and
hash by content.  Closures run on numpy arrays and deduplicate by packed
integer keys (``_pack_keys``, shared with the orbit engines).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, PreconditionError

PRIME_CAP = 13

#: Default ceiling on the number of elements held by a closure or orbit
#: enumeration.  Runaway searches fail cleanly instead of exhausting memory.
DEFAULT_ELEMENT_CAP = 10 ** 8

def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p ** 0.5) + 1):
        if p % q == 0:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise PreconditionError(f"modulus {p} is not prime")
    if p > PRIME_CAP:
        raise PreconditionError(f"modulus {p} exceeds the supported bound {PRIME_CAP}")
    return p


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of F_p."""
    check_prime(p)
    if p == 2:
        return 1
    for g in range(2, p):
        seen, x = set(), 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise AssertionError("unreachable for prime p")


@dataclass(frozen=True)
class FpVector:
    """Immutable vector over F_p."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "coords", tuple(c % self.p for c in self.coords))

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "FpVector") -> "FpVector":
        if self.p != other.p or len(self) != len(other):
            raise PreconditionError("vectors must share the prime and the length")
        return FpVector(self.p, tuple((a + b) % self.p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FpVector") -> "FpVector":
        return self + (-other)

    def __neg__(self) -> "FpVector":
        return FpVector(self.p, tuple(-a % self.p for a in self.coords))

    def scale(self, c: int) -> "FpVector":
        return FpVector(self.p, tuple(a * c % self.p for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    @staticmethod
    def zero(p: int, n: int) -> "FpVector":
        return FpVector(p, (0,) * n)

    @staticmethod
    def unit(p: int, n: int, i: int) -> "FpVector":
        return FpVector(p, tuple(1 if j == i else 0 for j in range(n)))


@dataclass(frozen=True)
class FpMatrix:
    """Immutable rectangular matrix over F_p, rows stored as tuples."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        rows = tuple(tuple(a % self.p for a in row) for row in self.rows)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise PreconditionError("matrix rows have unequal lengths")
        object.__setattr__(self, "rows", rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @staticmethod
    def identity(n: int, p: int) -> "FpMatrix":
        return FpMatrix(p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __mul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.ncols != other.nrows:
            raise PreconditionError("matrix product needs a shared prime and matching sizes")
        p = self.p
        cols = tuple(zip(*other.rows))
        return FpMatrix(p, tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols)
            for row in self.rows))

    def apply(self, v: FpVector) -> FpVector:
        """Matrix acting on a column vector."""
        if self.p != v.p or self.ncols != len(v):
            raise PreconditionError("matrix and vector need a shared prime and matching sizes")
        return FpVector(self.p, tuple(
            sum(a * b for a, b in zip(row, v.coords)) % self.p for row in self.rows))

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.p, tuple(zip(*self.rows)) if self.rows else ())

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and rank(self) == self.nrows


def rref(rows, p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_p; zero rows are dropped.

    The result is the canonical representative of the row space, which makes
    it usable directly as a subspace key in orbit searches.
    """
    mat = [list(r) for r in rows]
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


def rank(m: FpMatrix) -> int:
    """Row rank over F_p by exact Gaussian elimination."""
    return len(rref(m.rows, m.p))


def vector_span_rank(vectors, p: int) -> int:
    rows = [v.coords if isinstance(v, FpVector) else tuple(v) for v in vectors]
    return len(rref(rows, p))


def gl_generators(n: int, p: int) -> list[FpMatrix]:
    """A small generating set for GL(n, p).

    For n >= 2 this is the classical trio: a transvection, the cyclic
    coordinate permutation and the diagonal matrix diag(g, 1, ..., 1) with g
    a primitive root (omitted when it is the identity, i.e. p = 2).  For
    n = 1 it is the single 1x1 matrix [g].
    """
    check_prime(p)
    if n < 1:
        raise PreconditionError("n must be >= 1")
    g = primitive_root(p)
    if n == 1:
        return [FpMatrix(p, ((g,),))]
    gens = []
    trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    trans[0][1] = 1
    gens.append(FpMatrix(p, tuple(tuple(r) for r in trans)))
    cyc = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    gens.append(FpMatrix(p, tuple(tuple(r) for r in cyc)))
    if g != 1:
        diag = [[(g if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
        gens.append(FpMatrix(p, tuple(tuple(r) for r in diag)))
    return gens


def standard_symplectic_form(rho: int, p: int) -> FpMatrix:
    """Alternating form J pairing coordinates (2i, 2i+1) for i < rho."""
    n = 2 * rho
    rows = [[0] * n for _ in range(n)]
    for i in range(rho):
        rows[2 * i][2 * i + 1] = 1
        rows[2 * i + 1][2 * i] = p - 1
    return FpMatrix(p, tuple(tuple(r) for r in rows))


def symplectic_transvection(v: FpVector, J: FpMatrix) -> FpMatrix:
    """x -> x + <x, v> v  for the alternating form <x, v> = x^T J v."""
    p = v.p
    n = len(v)
    Jv = J.apply(v)
    rows = []
    for i in range(n):
        row = [v.coords[i] * Jv.coords[j] % p for j in range(n)]
        row[i] = (row[i] + 1) % p
        rows.append(tuple(row))
    return FpMatrix(p, tuple(rows))


def sp_generators(rho: int, p: int) -> list[FpMatrix]:
    """Generators of Sp(2*rho, p) for the standard alternating form.

    Symplectic transvections along the curve classes that generate the
    mapping class group image on mod-p homology: each handle's pair, plus
    the sums linking consecutive handles.
    """
    check_prime(p)
    if rho < 1:
        raise PreconditionError("rho must be >= 1")
    n = 2 * rho
    J = standard_symplectic_form(rho, p)
    directions = []
    for i in range(rho):
        directions.append(FpVector.unit(p, n, 2 * i))
        directions.append(FpVector.unit(p, n, 2 * i + 1))
    for i in range(rho - 1):
        directions.append(FpVector.unit(p, n, 2 * i) + FpVector.unit(p, n, 2 * i + 2))
        directions.append(FpVector.unit(p, n, 2 * i + 1) + FpVector.unit(p, n, 2 * i + 3))
    return [symplectic_transvection(v, J) for v in directions]


def _pack_keys(digits: np.ndarray, base: int) -> np.ndarray:
    """Encode each item of a batch as one integer key.

    Item i is ``digits[i]`` read as base-``base`` digits in C order, most
    significant first, so keys sort like the items do.  Raises
    CapExceededError when a key would not fit in 63 bits.
    """
    flat = digits.reshape(len(digits), -1)
    nd = flat.shape[1]
    if base ** nd >= 2 ** 63:
        raise CapExceededError(f"key of {nd} base-{base} digits does not pack into 63 bits")
    # Horner over the digit columns keeps one uint64 array, not a widened batch
    keys = np.zeros(len(flat), dtype=np.uint64)
    for j in range(nd):
        keys *= np.uint64(base)
        keys += flat[:, j].astype(np.uint64)
    return keys


def group_closure(gens, cap: int | None = None) -> np.ndarray:
    """Full multiplicative closure of a set of invertible matrices.

    Returns the elements as an (N, n, n) int64 array in lexicographic order.
    Raises CapExceededError once the closure grows past ``cap`` (the global
    default if unset).
    """
    gens = list(gens)
    if not gens:
        return np.zeros((0, 0, 0), dtype=np.int64)
    cap = DEFAULT_ELEMENT_CAP if cap is None else cap
    n, p = gens[0].nrows, gens[0].p
    for g in gens:
        if g.p != p or g.nrows != n or g.ncols != n:
            raise PreconditionError("generators must be square matrices of equal size")
        if not g.is_invertible():
            raise PreconditionError("generators must be invertible")
    # int16 holds every product entry: n (p - 1)^2 stays small for any n, p
    # whose matrices pack into 63-bit keys (checked on the identity first)
    G = np.array([g.rows for g in gens], dtype=np.int16)
    frontier = np.eye(n, dtype=np.int16)[None]
    levels = [frontier]
    seen = _pack_keys(frontier, p)
    # breadth-first by left multiplication; in a finite group the monoid the
    # generators span is already the group
    while len(frontier):
        cand = np.matmul(G[:, None], frontier[None]).reshape(-1, n, n)
        cand %= p
        keys, first = np.unique(_pack_keys(cand, p), return_index=True)
        pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
        fresh = seen[pos] != keys
        frontier = cand[first[fresh]]
        levels.append(frontier)
        seen = np.sort(np.concatenate([seen, keys[fresh]]))
        if len(seen) > cap:
            raise CapExceededError(f"matrix closure exceeded the cap of {cap} elements")
    els = np.concatenate(levels)
    return els[np.argsort(_pack_keys(els, p))].astype(np.int64)
