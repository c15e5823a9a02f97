"""Generating vectors for elementary abelian groups and their class counts.

A ``(rho; p^r)``-generating vector of C_p^n is a tuple of hyperbolic image
pairs and elliptic images that generates the group, has every elliptic image
of order exactly p, and satisfies the long product relation (for an abelian
target: the elliptic images sum to zero).  Topological classes of actions
correspond to orbits of such vectors under target automorphisms together
with the canonical-generator moves, which for an abelian target reduce to
GL(n, p) x S_r in the purely ramified case, GL(n, p) x Sp(2 rho, p)
through homology in the unramified case, and both plus the point-push
shears in the mixed case (see ``count_classes``).

The counts are closed forms in Python ints.  e is a Burnside sum over the
class types of GL(k, p) (``count_pure_orbits_burnside``, ``_type_weights``):
a class's fixed-multiset counts for every t <= r depend only on its
profile (``_with_block``, ``_fixed_multiset_row``), so no class is listed.
One programme serves a count: one walk gives the class types of every rank
it reads, and each distinct profile's row is built once (``_burnside_rows``).
Two caches keep the results, each keyed by what it computes: the rows of a
rank set, the longest built so far (``_multiset_rows``), and the row of a
profile (``_fixed_multiset_row``), which rank sets that overlap share.  h is
Witt's closed form (``witt_kernel_orbit_count``), and so are the ranks with
one class (``unramified_adjudication``).  The ``burnside steps`` cap bounds
each programme before any row is built, from (p, ranks, r) alone; the
oracles of ``eag.orbits`` check e in their boxes.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd
from operator import add, mul

from . import fp
from .errors import CapExceededError, OutOfDomainError, PreconditionError, require_within
from .fp import check_prime
from .record import Record
from .surfaces import EAActionSpec, ea_genus, require_nontrivial_group, validate_vector_for


class GeneratingVector(Record):
    """Images of the canonical generators in C_p^n.

    Each image is a tuple of n ints in [0, p); the constructor accepts any
    integer sequences (numpy rows included) and reduces them mod p.
    """

    _fields = ("p", "n", "hyperbolic", "elliptic")

    def __init__(self, p: int, n: int, hyperbolic, elliptic):
        check_prime(p)

        def entry(v) -> tuple[int, ...]:
            v = tuple(int(a) % p for a in v)
            if len(v) != n:
                raise PreconditionError("vector entries must live in F_p^n")
            return v

        vars(self).update(p=p, n=n, hyperbolic=tuple((entry(a), entry(b)) for a, b in hyperbolic),
                          elliptic=tuple(entry(c) for c in elliptic))

    @property
    def rho(self) -> int:
        return len(self.hyperbolic)

    @property
    def r(self) -> int:
        return len(self.elliptic)

    def spec(self) -> EAActionSpec:
        return EAActionSpec(self.p, self.n, self.rho, self.r)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "rho": self.rho,
            "hyperbolic": [[list(a), list(b)] for a, b in self.hyperbolic],
            "elliptic": [list(c) for c in self.elliptic],
        }


def validate(v: GeneratingVector) -> bool:
    """True iff generation, order and product conditions all hold."""
    return validate_vector_for(v.spec(), v)


def multiset_character(v: GeneratingVector) -> tuple[int, ...]:
    """Sorted multiplicity profile of the distinct elliptic images.

    Invariant under both target automorphisms and generator moves, so two
    vectors with different profiles lie in different classes.
    """
    counts: dict[tuple[int, ...], int] = {}
    for c in v.elliptic:
        counts[c] = counts.get(c, 0) + 1
    return tuple(sorted(counts.values()))


# ---------------------------------------------------------------------------
# closed forms: Burnside's e and Witt's h


#: the fewest periods a row M(p, k, .) is built to: one build serves all small counts
ROW_MIN_PERIODS = 8


@lru_cache(maxsize=None)
def _p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    return gcd(n, p ** n)


def _with_block(profile, d: int, e: int, m: int, p: int, r: int) -> tuple:
    """The profile of g plus a block F_p[x]/(f^m), f irreducible of degree d and order e <= r.

    A profile is ((d_1, ..., d_r), unipotent sizes), d_L = dim ker(g^L - 1).
    With L = p^a L', p not dividing L', x^L - 1 = (x^L' - 1)^(p^a) and
    x^L' - 1 is squarefree, so the block adds d * min(m, p^a) to d_L if e
    divides L'.  A unipotent block (e = 1) enters by the largest power of p
    at most min(m, r), all that ``_fixed_multiset_row`` reads of it; a block
    of order above r adds nothing.
    """
    dims, unipotent = profile
    dims = tuple(n + d * min(m, _p_part(L, p)) * (L % e == 0) for L, n in enumerate(dims, 1))
    if e == 1:
        top = max(p ** a for a in range(min(m, r).bit_length()) if p ** a <= min(m, r))
        unipotent = tuple(sorted(unipotent + (top,)))
    return dims, unipotent


def _short_types(p: int, k: int, r: int) -> tuple[tuple[int, int, int], ...]:
    """(d, e, count) for the monic irreducibles of order e <= r and degree d <= k.

    They are the minimal polynomials of the primitive e-th roots of unity,
    p not dividing e: phi(e) / d of them, of degree d = ord_e(p) (Lidl and
    Niederreiter, *Finite Fields*, Thm 3.5).
    """
    types = []
    for e in range(1, r + 1):  # e divides no p^d - 1 when p divides e
        d = next((d for d in range(1, k + 1) if (p ** d - 1) % e == 0), 0)
        if d:
            types.append((d, e, sum(gcd(i, e) == 1 for i in range(1, e + 1)) // d))
    return tuple(types)


def _type_weights(p: int, ranks, r: int) -> dict[tuple, list[int]]:
    """{profile: [the total size of the classes of GL(k, p) with it, for k in ranks]}.

    A class maps the monic irreducibles f != x to partitions lambda_f with
    sum deg f * |lambda_f| = k and has size |GL(k, p)| / prod_f
    c_{lambda_f}(p^deg f) (Green 1955; ``fp._centraliser_order``): summed
    over classes, the cycle index of GL(k, p) (J. P. S. Kung, Linear Algebra
    Appl. 36 (1981); J. Fulman, J. Group Theory 2 (1999)).  A profile reads
    f only through (deg f, ord f, m) for the parts m, when ord f <= r
    (``_with_block``).  So a dynamic programme over the ``_short_types``,
    one f at a time, carries (degree D, profile) to |GL(k, p)| sum 1 / prod c
    (a partition's blocks add to a profile what they add to the zero one);
    the long irreducibles count through their degree alone, as one series
    in z raised to their number by binary powering.  Each division is exact:
    the centraliser orders of blocks of degree D multiply to a divisor of
    |GL(D, p)|, and |GL(D, p)| |GL(k - D, p)| divides |GL(k, p)|.

    The ranks ascend.  One walk, to k = ranks[-1], serves every rank k' <= k:
    its states of degree D <= k' are those of GL(k', p), rescaled by
    |GL(k', p)| / |GL(k, p)| (exact, as prod c divides |GL(D, p)|), and k'
    reads the long series rescaled to its own order.  Each rank's sizes must
    sum to its order (the class equation).

    The ``burnside steps`` cap bounds the rows of ``ranks``: r + 1 steps a
    block added to a profile in the walk of GL(k, p), and (r + 1)^2 a
    distinct profile of each rank (``_fixed_multiset_row``).  It is checked
    before any loop over r and before each f's blocks (the walk alone), then
    before any size is summed, so that a refusal costs at most one walk.
    """
    k = ranks[-1]  # not max(ranks), which would walk a range of a billion ranks
    what = f"the steps of the Burnside rows of ranks {ranks[0]} to {k} at (p={p}, r={r})"
    blocks = [0]  # blocks[m]: the parts of the partitions of s <= m, which x - 1 walks first
    for s in range(1, k + 1):
        blocks.append(blocks[-1] + sum(map(len, fp._partitions(s, s))))
        require_within("burnside steps", (r + 1) * (blocks[-1] + r + 1), what)
    order = fp.gl_order(k, p)

    def times(a, b):  # series in z, scaled by |GL(k, p)|
        return [sum(a[i] * b[j - i] for i in range(j + 1)) // order for j in range(k + 1)]

    short = _short_types(p, k, r)
    zero = ((0,) * r, ())
    increments = {(d, e): [(d * s, *reduce(lambda key, m: _with_block(key, d, e, m, p, r), part, zero),
                            fp._centraliser_order(part, p ** d))  # (degree, dims, unipotent, c)
                           for s in range(1, k // d + 1) for part in fp._partitions(s, s)]
                  for d, e, _ in short}
    states = {(0, zero): order}
    walk = 0
    for d, e, count in short:
        for _ in range(count):
            walk += (r + 1) * sum(blocks[(k - D) // d] for D, _ in states)
            require_within("burnside steps", walk, what)
            grown = dict(states)  # f may be absent
            for (D, (dims, unipotent)), weight in states.items():
                for degree, inc, tops, centraliser in increments[d, e]:
                    if D + degree > k:
                        break
                    # unipotent or tops is (): x - 1, the one f of order 1, is walked once
                    key = D + degree, (tuple(map(add, dims, inc)), unipotent + tops)
                    grown[key] = grown.get(key, 0) + weight // centraliser
            states = grown
    irreducible = [0] * (k + 1)  # monic irreducibles of degree d, x included (Gauss)
    long = [order] + [0] * k
    for d in range(1, k + 1):
        irreducible[d] = (p ** d - sum(j * irreducible[j] for j in range(1, d) if d % j == 0)) // d
        series = [order] + [0] * k
        for s in range(1, k // d + 1):
            for part in fp._partitions(s, s):
                series[d * s] += order // fp._centraliser_order(part, p ** d)
        count = irreducible[d] - (d == 1) - sum(n for deg, _, n in short if deg == d)
        while count > 0:  # below 0, the class equation fails
            if count & 1:
                long = times(long, series)
            series, count = times(series, series), count >> 1
    # rank j has a class with the short blocks of a state of degree D <= j iff long[j - D]
    live = [sum(1 << j for j in ranks if j >= D and long[j - D]) for D in range(k + 1)]
    masks = {}  # profile -> the ranks with a class of that profile, as bits
    for D, profile in states:
        masks[profile] = masks.get(profile, 0) | live[D]
    profiles = sum(bits.bit_count() for bits in masks.values())  # each rank's distinct profiles
    require_within("burnside steps", walk + (r + 1) ** 2 * profiles, what)
    weights, wrong, square = {}, [], order * order
    for i, j in enumerate(ranks):
        scale = fp.gl_order(j, p)
        total = 0
        for (D, profile), weight in states.items():
            if D <= j and long[j - D]:
                # the state and rank j's long series, each rescaled to |GL(j, p)|, over |GL(j, p)|
                size = weight * long[j - D] * scale // square
                weights.setdefault(profile, [0] * len(ranks))[i] += size
                total += size
        if total != scale:
            wrong.append(j)
    if wrong:
        raise AssertionError(f"class sizes of GL(k, {p}) do not sum to its order for k in {wrong}")
    return weights


@lru_cache(maxsize=1)  # the rows of one programme share p and r
def _row_tables(p: int, r: int) -> tuple[tuple, tuple, tuple]:
    """For each L = 0 .. r: its p-part, its proper divisors D, and those with p not dividing L / D.

    The divisors come from a sieve.
    """
    divisors = [[] for _ in range(r + 1)]
    for D in range(1, r // 2 + 1):
        for L in range(2 * D, r + 1, D):
            divisors[L].append(D)
    return (tuple(_p_part(L, p) for L in range(r + 1)), tuple(map(tuple, divisors)),
            tuple(tuple(D for D in ds if (L // D) % p) for L, ds in enumerate(divisors)))


@lru_cache(maxsize=None)  # programmes of overlapping rank sets share their profiles' rows
def _fixed_multiset_row(profile, p: int, r: int) -> tuple[int, ...]:
    """Fix_g(t), the zero-sum t-multisets of nonzero vectors fixed by g, for t = 0 .. r.

    Read off g's profile (``_with_block``).  A fixed multiset has constant
    multiplicity on each g-cycle of vectors, and a cycle of length L through
    v sums to N_L v, N_L = 1 + g + ... + g^(L-1), in F = ker(g - 1), of
    dimension u = d_1.  Averaging over the characters phi of F,
    Fix_g(t) = p^(-u) sum_phi [x^t] prod_C (1 - zeta^phi(sum C) x^|C|)^(-1).

    Lucas (L = p^a L', p not dividing L'): on a unipotent block of size m,
    N_L is (g - 1)^(p^a - 1) times a unit on ker(g^L - 1), so it is nonzero
    there exactly when m >= p^a, onto the block's line of F; F meets no
    other block.  So phi(N_L v) is nonzero on ker(g^L - 1) exactly when
    p^a <= E(phi), the largest size of a block on whose line phi is nonzero
    (E(0) = 0), and then takes each value p^(d_L - 1) times.  As
    N_L v = (L / D) N_D v for v of exact period D, Moebius over D | L gives
    the c_L cycles of length L with each nonzero phi-sum and the c0_L with
    sum 0 (the zero vector left out), and prod_{j != 0} (1 - zeta^j y) =
    (1 - y^p) / (1 - y) turns the product into the integer series G =
    prod_L (1 - x^L)^(c_L - c0_L) (1 - x^(pL))^(-c_L) = prod_s (1 - x^s)^(-a_s)
    (``power``).  Of the phi, p^#{m <= E} - p^#{m < E} have E(phi) = E > 0.
    G follows the Euler-transform recurrence n g_n = sum_{j <= n} sigma_j g_(n-j),
    sigma_n = sum_{s | n} s a_s, exact for a_s of either sign (Sloane and
    Plouffe, *The Encyclopedia of Integer Sequences*, 1995).
    """
    dims, unipotent = profile
    parts, divisors, coprime = _row_tables(p, r)
    exact = [0] * (r + 1)  # vectors of exact period L
    for L in range(1, r + 1):
        exact[L] = p ** dims[L - 1] - sum(exact[D] for D in divisors[L])
    row = [0] * (r + 1)
    each = [0] * (r + 1)  # vectors of exact period L with one given nonzero phi-sum: none for E = 0
    for E in (0,) + tuple(sorted(set(unipotent))):
        weight = 1 if E == 0 else \
            p ** sum(m <= E for m in unipotent) - p ** sum(m < E for m in unipotent)
        power = [0] * (r + 1)  # G_phi = prod_s (1 - x^s)^(-power[s])
        for L in range(1, r + 1):
            if E:
                spread = p ** (dims[L - 1] - 1) if parts[L] <= E else 0
                each[L] = spread - sum(each[D] for D in coprime[L])
            zero = exact[L] - (p - 1) * each[L] - (L == 1)
            if zero % L or each[L] % L:
                raise AssertionError(f"vectors of period {L} do not form whole cycles")
            power[L] += (zero - each[L]) // L
            if p * L <= r:
                power[p * L] += each[L] // L
        sigma = [0] * (r + 1)  # sigma[n] = sum_{s | n} s power[s]
        for s in range(1, r + 1):
            if power[s]:
                for n in range(s, r + 1, s):
                    sigma[n] += s * power[s]
        series = [1]
        for n in range(1, r + 1):
            series.append(sum(map(mul, sigma[1:n + 1], reversed(series))) // n)
        row = [total + weight * term for total, term in zip(row, series)]
    characters = p ** len(unipotent)
    if any(total % characters for total in row):
        raise AssertionError(f"character sums {row} are not multiples of |F| = {characters}")
    return tuple(total // characters for total in row)


def _burnside_rows(p: int, ranks, r: int) -> dict[int, tuple[int, ...]]:
    """{k: M(p, k, t) for t = 0 .. r} for k in ``ranks``.

    M(p, k, t) counts GL(k, p)-orbits of zero-sum t-multisets of nonzero
    vectors.  Burnside: the class-size-weighted sum of the fixed-multiset
    counts, divided by |GL(k, p)|.  The counts of g for t <= r are read off
    its profile in closed form (``_fixed_multiset_row``: a product of powers
    of (1 - x^s), expanded by the Euler-transform recurrence), once per
    distinct profile of the ranks, and added into each rank's totals with
    that rank's class sizes (``_type_weights``, one walk for all ranks); each
    rank's entries are checked for divisibility by its order.  The class-sum
    oracle of ``tests/burnside_walk.py`` lists the classes, and its per-rank
    walk shares only ``fp._centraliser_order``, ``_with_block`` and
    ``_short_types`` with ``_type_weights``; a cycle walk checks the rows.
    """
    weights = _type_weights(p, ranks, r)  # first: it checks the cost cap
    totals = [[0] * (r + 1) for _ in ranks]
    for key, sizes in weights.items():
        fixed = _fixed_multiset_row(key, p, r)
        for i, size in enumerate(sizes):
            if size:
                totals[i] = [total + size * count for total, count in zip(totals[i], fixed)]
    orders = [fp.gl_order(k, p) for k in ranks]
    bad = {k: ts for k, row, order in zip(ranks, totals, orders)
           if (ts := [t for t in range(r + 1) if row[t] % order])}
    if bad:
        raise AssertionError(f"Burnside sums for p={p} at {{k: t}} = {bad} are not "
                             f"multiples of |GL(k, {p})|")
    return {k: tuple(total // order for total in row)
            for k, row, order in zip(ranks, totals, orders)}


#: (p, lo, hi) -> {k: M(p, k, t) for t = 0 .. R, for lo <= k <= hi}: the rows of that
#: rank set to the most periods R built so far
_ROWS: dict[tuple[int, int, int], dict[int, tuple[int, ...]]] = {}


def _multiset_rows(p: int, lo: int, hi: int, r: int) -> dict[int, tuple[int, ...]]:
    """The rows M(p, k, .) for max(lo, 1) <= k <= hi, each to at least r periods.

    A row for t <= r is a prefix of every longer one, so rows that ``_ROWS``
    keeps for the same ranks to more than r periods answer with no walk.
    Otherwise one programme builds them to R = max(r, ROW_MIN_PERIODS)
    periods (``_burnside_rows``) and replaces the kept rows.  Admission
    depends on (p, lo, hi, r) alone: kept rows were admitted at some R' >= R,
    and the charge of a programme only grows with its periods.
    """
    ranks = range(max(lo, 1), hi + 1)
    if not ranks:
        return {}
    key = p, ranks[0], hi
    rows = _ROWS.get(key)
    if rows is None or len(rows[hi]) <= r:
        rows = _ROWS[key] = _burnside_rows(p, ranks, max(r, ROW_MIN_PERIODS))
    return rows


def _pure_counts(p: int, ranks: range, r: int) -> dict[int, int]:
    """{j: e(p, j, r) = M(p, j, r) - M(p, j - 1, r)} for the ranks j >= 1, ascending: one programme."""
    if not ranks:
        return {}
    rows = _multiset_rows(p, ranks[0] - 1, ranks[-1], r)
    M = {k: row[r] for k, row in rows.items()} | {0: int(r == 0)}
    return {j: M[j] - M[j - 1] for j in ranks}


def count_pure_orbits_burnside(p: int, k: int, r: int) -> int:
    """e(p, k, r) = M(p, k, r) - M(p, k - 1, r), both by Burnside.

    e counts GL(k, p)-orbits of zero-sum r-multisets of nonzero vectors that
    span F_p^k; a multiset absorbs S_r, so these are the classes of
    (0; p^r)-generating vectors of C_p^k.  Grouping the multisets counted by
    M(p, k, r) by their span W of dimension j: GL(k, p) is transitive on the
    j-subspaces, and the stabiliser of W induces all of GL(j, p) on it, so
    the orbits with span of dimension j are e(p, j, r) many, and
    M(p, k, r) = sum_{j <= k} e(p, j, r).
    """
    if k < 1 or k > r - 1:
        return 0
    return _pure_counts(p, range(k, k + 1), r)[k]


def witt_kernel_orbit_count(rho: int, k: int) -> int:
    """h: Sp(2 rho, p)-orbits of codimension-k subspaces of F_p^{2 rho}.

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


# ---------------------------------------------------------------------------
# class counts


def count_pure_classes(p: int, k: int, r: int) -> int:
    """Number of classes of (0; p^r)-generating vectors of C_p^k.

    Counted by ``count_pure_orbits_burnside`` within the ``burnside steps``
    cap; the oracles of ``eag.orbits`` pin it inside their boxes.
    Conventions: the count is 1 for k = 0 only when r = 0, and 0 for k < 0.
    """
    check_prime(p)
    if k < 1:
        return int(k == 0 and r == 0)
    if no_pure_vectors(p, k, r):
        return 0
    return count_pure_orbits_burnside(p, k, r)


def no_pure_vectors(p: int, j: int, r: int) -> bool:
    """e(p, j, r) = 0: no r nonzero vectors of F_p^j sum to 0 and span it.

    Rank j >= 2 needs only r >= j + 1; rank 1 over F_2 also needs r even.
    """
    if j <= 0:
        return j < 0 or r != 0
    return r < j + 1 or (p == 2 and j == 1 and r % 2 == 1)


def count_unramified_classes(p: int, k: int, rho: int) -> int:
    """h(p, k, rho): classes of (rho; -)-generating vectors of C_p^k.

    Witt's closed form, valid in every characteristic (E. Artin, *Geometric
    Algebra*, ch. III); the kernel BFS and canonical Sp count are its oracles.
    """
    check_prime(p)
    if rho < 0:
        raise PreconditionError("rho must be >= 0")
    return witt_kernel_orbit_count(rho, k)


class UnramifiedAdjudication(Record):
    _fields = ("p", "rho", "computed_unique_ranks", "stated_unique_ranks", "agrees", "note")

    def __init__(self, p: int, rho: int, computed_unique_ranks: tuple[int, ...],
                 stated_unique_ranks: tuple[int, ...], agrees: bool, note: str):
        vars(self).update(p=p, rho=rho, computed_unique_ranks=computed_unique_ranks,
                          stated_unique_ranks=stated_unique_ranks, agrees=agrees, note=note)


def unramified_adjudication(p: int, rho: int) -> UnramifiedAdjudication:
    """Compare the computed unique-rank set against the classical statement.

    The computed set, where ``witt_kernel_orbit_count`` is 1, is
    authoritative: k in {0, 1, 2 rho - 1, 2 rho}, where the kernel's form
    has one possible rank.  The note records the discrepancy whenever the
    two differ (they do for every rho >= 2).
    """
    check_prime(p)
    computed = tuple(sorted(k for k in {0, 1, 2 * rho - 1, 2 * rho} if 0 <= k <= 2 * rho))
    stated = tuple(sorted(k for k in {0, 1, rho - 1, rho} if 0 <= k <= 2 * rho))
    agrees = computed == stated
    note = ("computed unique ranks match the stated ones" if agrees else
            f"stated unique ranks {stated} disagree with computed {computed}; "
            "the computed set {0, 1, 2*rho-1, 2*rho} is used throughout")
    return UnramifiedAdjudication(p, rho, computed, stated, agrees, note)


class ClassCountReport(Record):
    """Count of topological classes, with the ingredients that produced it."""

    # method: the engines of the nonzero terms, "+"-joined in this order: "burnside" (e),
    # "closed-form" (e = 1 by pure_unique_row, or no term), "witt" (h if rho >= 1)
    _fields = ("p", "n", "rho", "r", "total", "method", "e_used", "h_used", "flags")

    def __init__(self, p: int, n: int, rho: int, r: int, total: int, method: str,
                 e_used: tuple[tuple[int, int], ...] = (), h_used: tuple[tuple[int, int], ...] = (),
                 flags: tuple[str, ...] = ()):
        vars(self).update(p=p, n=n, rho=rho, r=r, total=total, method=method,
                          e_used=e_used, h_used=h_used, flags=flags)


def no_actions_exist(n: int, rho: int, r: int) -> bool:
    """Rank/period bound: the canonical images cannot generate C_p^n.

    With r >= 1 periods the product relation costs one generator, so the
    rank bound is 2*rho + r - 1; with none it is 2*rho.  A single period is
    impossible outright (its image would have to be trivial).
    """
    if r == 1:
        return True
    if r == 0:
        return n > 2 * rho
    return n > 2 * rho + r - 1


def count_classes(spec: EAActionSpec) -> ClassCountReport:
    """Total number of topological classes: sum_k h(p,k,rho) * e(p,n-k,r).

    The point-push shears (x, z) -> (x + Lz, z) carry the row space R of a
    vector in F_p^{2 rho} + Z_r to U + (0 x Z'), with U = R meet F_p^{2 rho}
    of dimension k (up to Sp) and Z' the projection of R to Z_r (up to S_r).
    As h(p,k,0) = [k=0] and e(p,j,0) = [j=0], the same sum is the pure and
    the unramified count.
    """
    require_nontrivial_group(spec)
    p, n, rho, r = spec.p, spec.n, spec.rho, spec.r
    if no_actions_exist(n, rho, r):
        return ClassCountReport(p, n, rho, r, 0, "closed-form",
                                flags=("no-actions-for-these-parameters",))
    # j = n - k past max(r - 1, 0) has e = 0 (``no_pure_vectors``); j ascends.  Ranges, not
    # lists: a count may name a billion ranks, which the cap refuses from r alone
    ranks = range(max(n - 2 * rho, 0), min(n, max(r - 1, 0)) + 1)
    # below r, only j = 0 and (p = 2, j = 1, r odd) lack pure vectors, so the rest is one range
    pure = range(next((j for j in ranks if j and not no_pure_vectors(p, j, r)), ranks.stop), ranks.stop)
    closed = range(0)
    try:  # one Burnside programme serves every e of the count
        counts = _pure_counts(p, pure, r)
    except CapExceededError:  # past the cost cap, a top rank that table 1 names still answers
        if pure_unique_row(p, pure[-1], r) is None:
            raise
        closed, counts = pure[-1:], _pure_counts(p, pure[:-1], r)  # the lower ranks, charged afresh
    e_used, h_used, engines, total = [], [], set(), 0
    for j in ranks:
        row = pure_unique_row(p, j, r)
        # e(p, 0, 0) = 1 is a convention and names no engine
        engine = "closed-form" if j in closed else "burnside" if j else ""
        e = 1 if j in closed else counts.get(j, int(j == 0 and r == 0))
        if j and (e == 1) != (row is not None):
            raise AssertionError(f"e({p}, {j}, {r}) = {e} contradicts table 1's rows")
        if e == 0:
            continue
        k = n - j
        h = count_unramified_classes(p, k, rho)
        e_used.append((j, e))
        h_used.append((k, h))
        total += h * e
        engines.update({engine, "witt" if rho else ""})
    method = "+".join(name for name in ("burnside", "closed-form", "witt")
                      if name in engines) or "closed-form"
    return ClassCountReport(p, n, rho, r, total, method, e_used=tuple(reversed(e_used)),
                            h_used=tuple(reversed(h_used)))


# ---------------------------------------------------------------------------
# uniqueness classification (closed form)


def pure_unique_row(p: int, n: int, r: int) -> str | None:
    """Which purely ramified unique-class row (p, n, r) matches, if any."""
    if p == 2 and n == 1 and r >= 2 and r % 2 == 0:
        return "pure-1: p=2, n=1, r even"
    if p == 2 and n == 3 and r == 5:
        return "pure-2: p=2, n=3, r=5"
    if p == 2 and n == 2 and r in (4, 5):
        return "pure-3: p=2, n=2, r in {4,5}"
    if p == 3 and n == 1 and r in (3, 4, 5, 7):
        return "pure-4: p=3, n=1, r in {3,4,5,7}"
    if p == 5 and n == 1 and r == 3:
        return "pure-5: p=5, n=1, r=3"
    if n == 1 and r == 2:
        return "pure-6: n=1, r=2"
    if n >= 1 and r == n + 1:
        return "pure-7: n=r-1"
    return None


def unique_action_rules(spec: EAActionSpec) -> tuple[str, ...]:
    """The rank split that makes the action unique, as one label (empty if none).

    count_classes sums h(p,k,rho) * e(p,n-k,r) >= 0 over 0 <= k <= 2 rho,
    and h >= 1 on that whole range.  So the count is 1 iff exactly one rank
    j = n - k has e(p,j,r) != 0, and there e = 1 (pure_unique_row, or
    j = r = 0) and h = 1 (Witt's closed form).
    """
    p, n, rho, r = spec.p, spec.n, spec.rho, spec.r
    # e(p,j,r) = 0 once j >= r, so the scan stops there
    live = [j for j in range(max(0, n - 2 * rho), min(n, r) + 1)
            if not no_pure_vectors(p, j, r)]
    if n < 1 or len(live) != 1:
        return ()
    j = live[0]
    row = "j=r=0" if j == 0 else pure_unique_row(p, j, r)
    if row is None or witt_kernel_orbit_count(rho, n - j) != 1:
        return ()
    return (f"unique: h(k={n - j})=1, e(j={j})=1 ({row})",)


def require_admissible_genus(spec: EAActionSpec):
    require_nontrivial_group(spec)
    g = ea_genus(spec)
    if g.denominator != 1:
        raise OutOfDomainError(
            f"{spec} has non-integral genus {g}: no such action exists")
    if g < 2:  # a negative genus may pass the int-to-str limit, so it is not shown
        shown = f"genus {g} < 2" if g >= 0 else "a negative genus"
        raise OutOfDomainError(f"{spec} has {shown}, outside the classification")
    return int(g)


def is_unique_action(spec: EAActionSpec) -> bool:
    """Closed-form uniqueness decision for genus >= 2 parameters."""
    require_admissible_genus(spec)
    return bool(unique_action_rules(spec))


# ---------------------------------------------------------------------------
# explicit inequivalent pairs (purely ramified non-unique parameters)


def _pair_from_image_lists(p: int, n: int, first, second):
    v1 = GeneratingVector(p, n, hyperbolic=(), elliptic=first)
    v2 = GeneratingVector(p, n, hyperbolic=(), elliptic=second)
    if not (validate(v1) and validate(v2)):
        raise AssertionError("constructed pair fails validation")
    if multiset_character(v1) == multiset_character(v2):
        raise AssertionError("constructed pair has equal multiset characters")
    return v1, v2


def build_inequivalent_pair(p: int, n: int, r: int):
    """Two valid, inequivalent (0; p^r)-generating vectors of C_p^n.

    Follows the constructive case analysis that proves the purely ramified
    classification: the two vectors returned always differ in multiset
    character, certifying that (p, n, r) admits at least two classes.
    """
    check_prime(p)
    if n < 1:
        raise PreconditionError("target rank must be >= 1")
    if r < n + 1:
        raise PreconditionError(f"no (0;p^{r}) vectors generate rank {n}")
    row = pure_unique_row(p, n, r)
    if row is not None:
        raise PreconditionError(f"(p={p}, n={n}, r={r}) has a unique class ({row})")
    if p == 2 and n == 1:
        # r odd here (even r is a unique row): the images sum to X != 0
        raise PreconditionError(f"(p=2, n=1, r={r}) admits no vectors at all")

    import numpy as np  # the unit vectors below; no CLI path builds a pair
    X = list(np.eye(n, dtype=np.int64))

    if n >= 3:
        first = X[:n] + [X[0]] * (r - n - 1)
        first.append(-sum([(r - n) * X[0]] + X[1:n]))
        x01 = X[0] + X[1]
        second = X[:n] + [x01] * (r - n - 1)
        second.append(-sum([(r - n) * x01] + X[2:n]))
        return _pair_from_image_lists(p, n, first, second)

    if n == 2 and p != 2:
        x0, x1 = X
        x01 = x0 + x1
        first = [x0, x1] + [x0] * (r - 3) + [-((r - 2) * x0 + x1)]
        if (r - 2) % p and (r - 1) % p:
            second = [x0, x1] + [x01] * (r - 3) + [-(r - 2) * x01]
        elif (r - 2) % p == 0:
            second = [x0, x1] + [2 * x01] * (r - 3) + [x01]
        else:  # p divides r - 1
            if r == 4:
                second = [x0, x1, -x0, -x1]
            else:
                second = [x0, x1] + [x01] * (r - 4) + [x0, x0 + 2 * x1]
        return _pair_from_image_lists(p, n, first, second)

    if n == 2 and p == 2:
        x0, x1 = X
        x01 = x0 + x1
        if r % 2 == 0:
            first = [x0, x0] + [x1] * (r - 2)
            second = [x0, x0, x1, x1] + [x01] * (r - 4)
        else:
            first = [x0, x0, x0, x1] + [x01] * (r - 4)
            second = [x0, x1] + [x01] * (r - 2)
        return _pair_from_image_lists(p, n, first, second)

    if n != 1:
        raise AssertionError(f"rank {n} escaped the constructive case analysis")
    x = X[0]
    if p == 3:
        m = r % 3
        if m == 0:
            first = [x] * r
            second = [2 * x] * (r - 3) + [x] * 3
        elif m == 1:
            first = [x] * (r - 2) + [2 * x] * 2
            second = [x] * (r - 5) + [2 * x] * 5
        else:
            first = [x] * (r - 1) + [2 * x]
            second = [x] * (r - 4) + [2 * x] * 4
        return _pair_from_image_lists(p, n, first, second)

    if p <= 3:
        raise AssertionError(f"C_{p} escaped the constructive case analysis")
    if (r - 1) % p == 0:
        first = [x] * (r - 3) + [2 * x] * 2 + [-2 * x]
        second = [x] * (r - 2) + [2 * x, -r * x]
    elif r % p == 0:
        first = [x] * (r - 1) + [-(r - 1) * x]
        second = [x] * (r - 2) + [4 * x, -2 * x]
    elif (r + 1) % p == 0:
        first = [x] * (r - 1) + [-(r - 1) * x]
        second = [x] * (r - 2) + [4 * x, -(r + 2) * x]
    else:
        first = [x] * (r - 1) + [-(r - 1) * x]
        second = [x] * (r - 2) + [2 * x, -r * x]
    return _pair_from_image_lists(p, n, first, second)
