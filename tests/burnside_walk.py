"""Oracles for the Burnside sum of ``genvec``: the listed classes of GL(k, p), a per-rank walk and a cycle walk.

``genvec._type_weights`` gives the total size of the classes of GL(k, p)
with each profile without listing any class, for every rank k up to the
largest a count reads from one walk.  ``gl_conjugacy_classes`` lists the
classes, by a sieve for the irreducible polynomials, and
``class_sum_rows`` sums over them: it shares only
``fp._centraliser_order`` and the per-block formula ``genvec._with_block``
with the type sum.

``genvec._fixed_multiset_row`` reads each class's fixed-multiset counts off
its profile in closed form.  The cycle walk counts them from the matrices
instead (``class_matrix`` builds one per class), over the p^k codes of
F_p^k, and shares no step with it.

Past the walk's box, two oracles check the two loops of the type sum
against their direct forms: ``product_form_row`` multiplies out each
character's series factor by factor, where production runs the
Euler-transform recurrence, and ``part_walk_weights`` walks GL(k, p)
alone from the zero state for each rank k, adding a partition's blocks one
part at a time, where production walks once for every rank and adds each
partition's increment once.
"""

from functools import lru_cache

import numpy as np

from eag.errors import PreconditionError
from eag.fp import _centraliser_order, _partitions, check_prime, gl_order
from eag.genvec import _fixed_multiset_row, _p_part, _short_types, _with_block
from eag.orbits import _multiset_count


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Product over F_p of two polynomials given as coefficients, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@lru_cache(maxsize=None)
def _monic_irreducibles(d: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Monic irreducible polynomials of degree d over F_p other than x, by a sieve."""
    def monic(deg):
        return [tuple(c // p ** i % p for i in range(deg)) + (1,) for c in range(p ** deg)]

    reducible = {_poly_mul(a, b, p) for e in range(1, d // 2 + 1)
                 for a in monic(e) for b in monic(d - e)}
    return tuple(f for f in monic(d) if f not in reducible and f != (0, 1))


@lru_cache(maxsize=None)
def gl_conjugacy_classes(n: int, p: int) -> tuple[tuple[int, tuple], ...]:
    """Every conjugacy class of GL(n, p) as a (size, blocks) pair.

    A class is a map f -> lambda_f from the monic irreducible polynomials
    f != x to partitions with sum deg f * |lambda_f| = n (Macdonald,
    *Symmetric Functions and Hall Polynomials*, ch. IV; Green 1955).  Its
    blocks are the pairs (f, m), one for every part m of every lambda_f:
    the class holds the block-diagonal matrix of the companion matrices of
    the f^m.  Its size is |GL(n, p)| / prod_f c_{lambda_f}(p^{deg f}) (see
    ``fp._centraliser_order``), and the sizes are checked to sum to |GL(n, p)|.
    """
    check_prime(p)
    if n < 1:
        raise PreconditionError("n must be >= 1")
    irreducibles = [f for d in range(1, n + 1) for f in _monic_irreducibles(d, p)]
    order = gl_order(n, p)
    classes = []

    def extend(start, budget, blocks, centraliser):
        if budget == 0:
            classes.append((order // centraliser, blocks))
            return
        for i in range(start, len(irreducibles)):
            f = irreducibles[i]
            d = len(f) - 1
            if d > budget:
                break  # irreducibles are listed by degree
            for size in range(1, budget // d + 1):
                for part in _partitions(size, size):
                    extend(i + 1, budget - d * size, blocks + tuple((f, m) for m in part),
                           centraliser * _centraliser_order(part, p ** d))

    extend(0, n, (), 1)
    if sum(size for size, _ in classes) != order:
        raise AssertionError(f"class sizes of GL({n}, {p}) do not sum to its order")
    return tuple(classes)


@lru_cache(maxsize=None)
def _short_order(f: tuple[int, ...], p: int, r: int) -> int:
    """ord(f), the least L with f | x^L - 1, when it is at most r; else 0."""
    one = (1,) + (0,) * (len(f) - 2)
    power = one
    for L in range(1, r + 1):  # power: x^L modulo f
        top = power[-1]
        power = tuple((a - top * c) % p for a, c in zip((0,) + power[:-1], f))
        if power == one:
            return L
    return 0


def class_profile(blocks, p: int, r: int) -> tuple:
    """The profile that ``genvec._fixed_multiset_row`` reads, of the class with ``blocks``.

    Each block (f, m) with ord f <= r, found by powering x modulo f, enters
    by ``genvec._with_block``.
    """
    profile = ((0,) * r, ())
    for f, m in blocks:
        order = _short_order(f, p, r)
        if order:
            profile = _with_block(profile, len(f) - 1, order, m, p, r)
    return profile


def weighted_rows(weights: dict[tuple, int], p: int, k: int, r: int) -> list[int]:
    """M(p, k, t) for t = 0 .. r: each profile's ``_fixed_multiset_row`` times its classes' size.

    Every entry is checked for divisibility by |GL(k, p)|.
    """
    totals = [0] * (r + 1)
    for key, size in weights.items():
        totals = [total + size * fixed for total, fixed in zip(totals, _fixed_multiset_row(key, p, r))]
    order = gl_order(k, p)
    bad = [t for t in range(r + 1) if totals[t] % order]
    if bad:
        raise AssertionError(f"class sums for (p={p}, k={k}) at t = {bad} are not "
                             f"multiples of |GL({k}, {p})|")
    return [total // order for total in totals]


def class_sum_rows(p: int, k: int, r: int) -> list[int]:
    """M(p, k, t) for t = 0 .. r, by Burnside over the listed classes of GL(k, p).

    Classes with equal profiles share one ``_fixed_multiset_row``.
    """
    weights = {}  # profile -> the total size of its classes
    for size, blocks in gl_conjugacy_classes(k, p):
        key = class_profile(blocks, p, r)
        weights[key] = weights.get(key, 0) + size
    return weighted_rows(weights, p, k, r)


def character_powers(profile, p: int, r: int) -> list[tuple[int, list[int]]]:
    """(weight, a) for each E of ``genvec._fixed_multiset_row``'s character sum.

    The characters phi with E(phi) = E, ``weight`` of them, see the series
    prod_s (1 - x^s)^(-a_s); the cycle counts come from a Moebius sum over
    the divisors of each L, found by trial division.
    """
    dims, unipotent = profile
    exact = [0] * (r + 1)  # vectors of exact period L
    for L in range(1, r + 1):
        exact[L] = p ** dims[L - 1] - sum(exact[D] for D in range(1, L) if L % D == 0)
    out = []
    for E in (0,) + tuple(sorted(set(unipotent))):
        weight = 1 if E == 0 else \
            p ** sum(m <= E for m in unipotent) - p ** sum(m < E for m in unipotent)
        each = [0] * (r + 1)  # vectors of exact period L with one given nonzero phi-sum
        power = [0] * (r + 1)
        for L in range(1, r + 1):
            spread = p ** (dims[L - 1] - 1) if _p_part(L, p) <= E else 0
            each[L] = spread - sum(each[D] for D in range(1, L) if L % D == 0 and (L // D) % p)
            zero = exact[L] - (p - 1) * each[L] - (L == 1)
            power[L] += (zero - each[L]) // L
            if p * L <= r:
                power[p * L] += each[L] // L
        out.append((weight, power))
    return out


def times_inverse_power(series: list[int], s: int, n: int) -> list[int]:
    """series * (1 - x^s)^(-n), cut at the length of series, for any integer n."""
    coefs = [1]  # [x^(js)] (1 - x^s)^(-n) = n (n + 1) ... (n + j - 1) / j!
    for j in range(1, (len(series) - 1) // s + 1):
        coefs.append(coefs[-1] * (n + j - 1) // j)
    return [sum(c * series[t - j * s] for j, c in enumerate(coefs[:t // s + 1]))
            for t in range(len(series))]


def product_form_row(profile, p: int, r: int) -> list[int]:
    """``genvec._fixed_multiset_row``, each character's series a product of factors.

    Each (1 - x^s)^(-a_s) is multiplied in by ``times_inverse_power``, from
    its binomial coefficients, in place of the recurrence.
    """
    row = [0] * (r + 1)
    for weight, power in character_powers(profile, p, r):
        series = [1] + [0] * r
        for s in range(1, r + 1):
            if power[s]:
                series = times_inverse_power(series, s, power[s])
        row = [total + weight * term for total, term in zip(row, series)]
    return [total // p ** len(profile[1]) for total in row]


def part_walk_weights(p: int, k: int, r: int) -> dict[tuple, int]:
    """``genvec._type_weights`` for one rank, with no cap: its own walk, one ``_with_block`` per part.

    The walk that production ran for each rank k on its own, before one walk
    served every rank of a count.  For every state and every partition of
    every s, the partition's parts enter the state's profile one at a time,
    where production adds the partition's increment, built once from the
    zero profile.  The long irreducibles enter as one series in the degree,
    raised to their number by binary powering.  The sizes must sum to
    |GL(k, p)|.  It shares no walk code with production: only
    ``genvec._with_block``, ``genvec._short_types`` and
    ``fp._centraliser_order``.
    """
    order = gl_order(k, p)

    def times(a, b):  # series in z, scaled by |GL(k, p)|
        return [sum(a[i] * b[j - i] for i in range(j + 1)) // order for j in range(k + 1)]

    short = _short_types(p, k, r)
    states = {(0, ((0,) * r, ())): order}
    for d, e, count in short:
        for _ in range(count):
            grown = dict(states)  # f may be absent
            for (D, profile), weight in states.items():
                for s in range(1, (k - D) // d + 1):
                    for part in _partitions(s, s):
                        key = profile
                        for m in part:
                            key = _with_block(key, d, e, m, p, r)
                        grown[D + d * s, key] = grown.get((D + d * s, key), 0) + \
                            weight // _centraliser_order(part, p ** d)
            states = grown
    irreducible = [0] * (k + 1)  # monic irreducibles of degree d, x included (Gauss)
    long = [order] + [0] * k
    for d in range(1, k + 1):
        irreducible[d] = (p ** d - sum(j * irreducible[j] for j in range(1, d) if d % j == 0)) // d
        series = [order] + [0] * k
        for s in range(1, k // d + 1):
            for part in _partitions(s, s):
                series[d * s] += order // _centraliser_order(part, p ** d)
        count = irreducible[d] - (d == 1) - sum(n for deg, _, n in short if deg == d)
        while count > 0:
            if count & 1:
                long = times(long, series)
            series, count = times(series, series), count >> 1
    weights = {}
    for (D, profile), weight in states.items():
        if long[k - D]:
            weights[profile] = weights.get(profile, 0) + weight * long[k - D] // order
    if sum(weights.values()) != order:
        raise AssertionError(f"class sizes of GL({k}, {p}) do not sum to its order")
    return weights


def class_matrix(blocks, p: int) -> np.ndarray:
    """A matrix of the class of GL(k, p) with ``gl_conjugacy_classes`` ``blocks``.

    The block-diagonal matrix of the companion matrices of f^m, for (f, m)
    in ``blocks`` (f monic, constant term first).
    """
    sizes = [(len(f) - 1) * m for f, m in blocks]
    out = np.zeros((sum(sizes),) * 2, dtype=np.int64)
    at = 0
    for (f, m), d in zip(blocks, sizes):
        g = (1,)
        for _ in range(m):
            g = _poly_mul(g, f, p)
        out[at + np.arange(1, d), at + np.arange(d - 1)] = 1
        out[at:at + d, at + d - 1] = [-c % p for c in g[:d]]
        at += d
    return out


def _fixed_point_ways(p: int, q: int, r: int) -> tuple[list[int], list[int]]:
    """t-multisets of nonzero vectors of F_p^f, q = p^f, for t <= r, by their sum.

    Returns (zero, each): ``zero[t]`` of them sum to 0 and ``each[t]`` sum to
    any one given nonzero vector, as GL(f, p) is transitive on those.  By
    characters: a nonzero functional takes each value p^(f-1) times on
    F_p^f, so it weights the nonzero vectors as (1 - x)(1 - x^p)^(-p^(f-1));
    zero[t] is [x^t] of (1 - x)^(-(p^f - 1)) plus p^f - 1 times that, over p^f.
    """
    if q == 1:
        return [int(t == 0) for t in range(r + 1)], [0] * (r + 1)
    pushed = [_multiset_count(q // p, u // p) if u % p == 0 else 0 for u in range(r + 1)]
    zero, each = [], []
    for t in range(r + 1):
        total = _multiset_count(q - 1, t)
        twisted = pushed[t] - (pushed[t - 1] if t else 0)
        zero.append((total + (q - 1) * twisted) // q)
        each.append((total - zero[t]) // (q - 1))
    return zero, each


def fixed_multiset_rows(reps: np.ndarray, p: int, r: int, dtype) -> np.ndarray:
    """Zero-sum t-multisets of nonzero vectors fixed by g, for each g in ``reps`` and t <= r.

    ``reps`` is a stack of C elements of GL(k, p); entry [c, t] of the
    (C, r + 1) result is Fix_g(t) for g = reps[c], counted in ``dtype``
    (np.int64, or object for Python ints).  A fixed multiset has constant
    multiplicity on each g-cycle of vectors, so only cycles of length <= r
    can carry it.  One walk of r steps over the (C, p^k) block of codes
    (code 0 is the zero vector) gives every short cycle with its length and
    least code; a second walk over those least codes alone gives the code
    of each cycle's vector sum.

    If g^L v = v, the cycle sum S = sum_{i<L} g^i v has gS = S, so every
    cycle sum, and every sum of a fixed multiset, lies in the fixed space
    F = ker(g - 1): the codes the walk gives length 1.  A knapsack over
    (size <= r, sum in F) then counts the choices of multiplicities: it
    starts from the multisets of fixed vectors (``_fixed_point_ways`` on F),
    and the longer cycles enter grouped by (length, sum), as n cycles of one
    group can carry T copies in all in C(n + T - 1, T) ways.  A cycle longer
    than t cannot enter size t, so the knapsack cut at r holds every t <= r.
    """
    C, k = reps.shape[:2]
    n = p ** k
    digits = p ** np.arange(k)
    codes = np.arange(n, dtype=np.int32)
    vecs = (codes[:, None] // digits) % p
    perms = np.zeros((C, n), dtype=np.int32)  # perms[c, v]: the code of reps[c] v
    for i in range(k):
        perms += (reps[:, i] @ vecs.T % p * digits[i]).astype(np.int32)
    pos, least = np.tile(codes, (C, 1)), np.tile(codes, (C, 1))
    length = np.zeros((C, n), dtype=np.int32)
    for L in range(1, r + 1):
        np.minimum(least, pos, out=least)
        pos = np.take_along_axis(perms, pos, axis=1)
        length[(pos == codes) & (length == 0)] = L
    # one code per cycle of length 2..r: its least, walked once more for the sum
    cls, at = np.nonzero((length > 1) & (least == codes))
    lens = length[cls, at]
    acc = np.zeros((len(at), k), dtype=np.int64)
    for L in range(r):
        acc += vecs[at] * (L < lens)[:, None]
        at = perms[cls, at]
    # the cycles of class c, grouped by (length, sum), are groups[bounds[c]:bounds[c + 1]]
    groups, sizes = np.unique((cls * (r + 1) + lens) * n + acc % p @ digits, return_counts=True)
    bounds = np.searchsorted(groups, np.arange(C + 1) * (r + 1) * n)
    fixed_cls, fixed_codes = np.nonzero(length == 1)
    fixed_bounds = np.searchsorted(fixed_cls, np.arange(C + 1))
    seeds = {}  # _fixed_point_ways by |F|
    out = np.empty((C, r + 1), dtype=dtype)
    for c in range(C):
        fixed = fixed_codes[fixed_bounds[c]:fixed_bounds[c + 1]]  # F, ascending from 0
        if len(fixed) not in seeds:
            seeds[len(fixed)] = _fixed_point_ways(p, len(fixed), r)
        zero, each = seeds[len(fixed)]
        # ways[t, i]: multiplicities on the cycles so far with size t and sum fixed[i]
        ways = np.empty((r + 1, len(fixed)), dtype=dtype)
        ways[:, 1:] = np.array(each, dtype=dtype)[:, None]
        ways[:, 0] = zero
        for group, count in zip(groups[bounds[c]:bounds[c + 1]].tolist(),
                                sizes[bounds[c]:bounds[c + 1]].tolist()):
            L, s = divmod(group % ((r + 1) * n), n)
            i = np.searchsorted(fixed, s)
            if i == len(fixed) or fixed[i] != s:
                raise AssertionError("cycle sum outside the fixed space")
            # step[i]: the index of fixed[i] - s, which F holds with s
            back = step = np.searchsorted(fixed, (vecs[fixed] - vecs[s]) % p @ digits)
            new = ways.copy()
            coef = 1
            for T in range(1, r // L + 1):
                coef = coef * (count + T - 1) // T
                new[T * L:] += coef * ways[:r + 1 - T * L, back]
                back = step[back]
            ways = new
        out[c] = ways[:, 0]
    return out
