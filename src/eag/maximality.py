"""Maximality of unique elementary abelian actions.

A unique action of C_p^n is maximal when no C_p^(n+1) action on the same
surface contains it.  The decision runs in two independent tracks: a closed
form driven by divisibility and rank obstructions plus explicit extension
constructions, and an exhaustive search over the row spaces of candidate
overgroup vectors.  Disagreement between the tracks is treated as a hard error
by the test suite, never resolved silently.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError, require_within
from .fp import vector_span_rank  # noqa: F401 -- perfbench's tracer tests read it here
from .genvec import GeneratingVector, require_admissible_genus, unique_action_rules
from .record import Record
from .surfaces import EAActionSpec, ea_genus, solve_extension_params, subgroup_signature


class ExtensionWitness(Record):
    """A concrete index-p extension: overgroup vector plus embedded subgroup."""

    _fields = ("n_spec", "vector", "subgroup_basis")

    def __init__(self, n_spec: EAActionSpec, vector: GeneratingVector,
                 subgroup_basis: tuple[tuple[int, ...], ...]):
        vars(self).update(n_spec=n_spec, vector=vector, subgroup_basis=subgroup_basis)


class MaximalityVerdict(Record):
    _fields = ("spec", "maximal", "witness", "rule")

    def __init__(self, spec: EAActionSpec, maximal: bool, witness: ExtensionWitness | None,
                 rule: str):
        vars(self).update(spec=spec, maximal=maximal, witness=witness, rule=rule)


def frobenius_representable(p: int, rho: int) -> tuple[int, int] | None:
    """Smallest-a pair with rho = a p + b (p-1)/2 + 1, a >= -1, b >= 0.

    Decides non-maximality of the unramified cyclic case for odd p; the
    numerical-semigroup gap structure leaves only finitely many
    non-representable rho per prime.
    """
    if p % 2 == 0:
        raise PreconditionError("the representability criterion applies to odd p")
    if rho < 2:
        raise PreconditionError("rho must be >= 2")
    return next(_frobenius_pairs(p, rho), None)


def _frobenius_pairs(p: int, rho: int):
    """Every pair (a, b) with rho = a p + b (p-1)/2 + 1, a >= -1, b >= 0, by rising a."""
    half = (p - 1) // 2
    a = -1
    while a * p <= rho - 1:
        rem = rho - 1 - a * p
        if rem >= 0 and rem % half == 0:
            yield a, rem // half
        a += 1


def _require_witness_size(spec: EAActionSpec) -> None:
    # checked before any arithmetic: an index-p extension's overgroup vector has
    # 2 tau + s <= 2 rho + r + 2 entries (the most at tau = 0) of n + 1 ints
    require_within("witness ints", (spec.n + 1) * (2 * spec.rho + spec.r + 2),
                   "a witness's (n + 1)(2 rho + r + 2) ints")


def _verified(spec: EAActionSpec, n_spec: EAActionSpec, vector: GeneratingVector,
              basis) -> ExtensionWitness:
    basis = tuple(tuple(a % spec.p for a in b) for b in basis)
    if len(basis) != spec.n:
        raise AssertionError(f"witness subgroup has wrong rank for {spec}")
    try:  # it validates the vector and the basis's independence
        got = subgroup_signature(n_spec, vector, basis)
    except PreconditionError as exc:
        raise AssertionError(f"witness invalid for {spec}: {exc}") from exc
    if got != spec.sig:
        raise AssertionError(f"witness round-trip failed for {spec}: got {got}")
    if ea_genus(n_spec) != ea_genus(spec):
        raise AssertionError(f"witness genus mismatch for {spec}")
    return ExtensionWitness(n_spec, vector, basis)


def _units(n: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _add(*vectors) -> tuple[int, ...]:
    return tuple(map(sum, zip(*vectors)))


def _zero_pairs(n: int, tau: int):
    return (((0,) * n, (0,) * n),) * tau


def _witness_p2(spec: EAActionSpec) -> ExtensionWitness:
    # p = 2, r even, n <= 2 rho + r/2: overgroup C_2^(n+1) with
    # (0; 2^(2 rho + 2 + r/2)), subgroup H = <first n units>, z the last unit.
    # The r/2 entries in H give H its r branch points.  The 2 rho + 2 entries
    # h + z outside H are the branch points of the double cover X/H -> X/G of
    # the sphere, so X/H has genus rho.  The last h closes the sum (-x = x).
    n, rho, half = spec.n, spec.rho, spec.r // 2
    units = _units(n + 1)
    H, z, zero = units[:n], units[n], (0,) * (n + 1)
    inside = (H + [H[0]] * half)[:half]
    hs = [zero] + H[half:]
    hs += [zero] * (2 * rho + 1 - len(hs))
    hs.append(_add(*inside, *hs))
    vec = GeneratingVector(2, n + 1, hyperbolic=(), elliptic=inside + [_add(h, z) for h in hs])
    return _verified(spec, EAActionSpec(2, n + 1, 0, len(vec.elliptic)), vec, H)


def _witness_unramified_cyclic_odd(spec: EAActionSpec) -> ExtensionWitness | None:
    # (rho;-) with n = 1, p odd: overgroup C_p^2 with (a+1; p^b) for the first
    # pair of _frobenius_pairs that admits a vector, subgroup <y> holding no
    # elliptic entry.  b = 1 never does (one entry cannot have product 1);
    # b in {0, 2} needs a hyperbolic pair to reach y.
    p, x, y = spec.p, (1, 0), (0, 1)
    for a, b in _frobenius_pairs(p, spec.rho):
        tau = a + 1
        if b == 1 or (b < 3 and tau < 1):
            continue
        if b == 0:
            hyperbolic, elliptic = ((x, y),) + _zero_pairs(2, tau - 1), ()
        elif b == 2:
            hyperbolic, elliptic = (((1, 1), (1, 1)),) * tau, (x, (-1, 0))
        else:
            # b - 2 copies of x, closed by two entries outside <y>
            tail = [(-1, 1), (2, -1)] if (b - 1) % p == 0 else [(1, 1), (1 - b, -1)]
            hyperbolic, elliptic = _zero_pairs(2, tau), [x] * (b - 2) + tail
        vec = GeneratingVector(p, 2, hyperbolic, elliptic)
        return _verified(spec, EAActionSpec(p, 2, tau, b), vec, (y,))
    return None


def _witness_three_periods_cyclic_p3(spec: EAActionSpec) -> ExtensionWitness:
    # (rho; 3^3) with n = 1: images (y, c, c', x, ..., x), c + c' = -y - rho x
    rho, y = spec.rho, (0, 1)
    pair = ([(1, -1), (-1, 0)], [(1, 1), (1, 1)], [(-1, 1), (-1, 1)])[rho % 3]
    vec = GeneratingVector(3, 2, hyperbolic=(), elliptic=[y, *pair] + [(1, 0)] * rho)
    return _verified(spec, EAActionSpec(3, 2, 0, rho + 3), vec, (y,))


FROBENIUS_CORNER_RULE = (
    "non-maximal by the representability criterion, but every "
    "representation forces a single-period overgroup signature, which "
    "admits no abelian vector: no witness can exist")


def is_maximal(spec: EAActionSpec) -> MaximalityVerdict:
    """Closed-form maximality verdict for a unique action (genus >= 2).

    Past the ``witness ints`` cap it raises CapExceededError at once.
    Constructions come first: one p = 2 family (r even, n <= 2 rho + r/2)
    and (rho;3^3) with n = 1, each with p | r, then the unramified cyclic
    case for odd p, decided by representability of rho.  Every other unique
    action is maximal by one of three obstructions, the strongest first:

    1. p does not divide r.  The subgroup of an index-p overgroup holding m
       of its elliptic entries has p m branch points, so no extension
       parameters exist.
    2. The rank bound n = 2 rho + max(r - 1, 0).  Every extension signature
       (tau; p^s) then has 2 tau + max(s - 1, 0) <= n, too few generators
       for rank n + 1.  Only p = 2 with r in {0, 2} escapes it, and there
       n <= 2 rho + r/2, so the p = 2 construction has already extended it.
    3. (rho;-) with n = 2 rho - 1 and p odd.  The same count gives
       2 tau + max(s - 1, 0) < 2 rho = n + 1 for every extension signature.
    """
    _require_witness_size(spec)
    require_admissible_genus(spec)
    if not unique_action_rules(spec):
        raise PreconditionError(f"{spec} is not a unique action; maximality undefined")
    p, n, rho, r = spec.p, spec.n, spec.rho, spec.r

    def extends(witness, rule):
        return MaximalityVerdict(spec, False, witness, rule)

    def obstructed(rule):
        return MaximalityVerdict(spec, True, None, rule)

    if p == 2 and r % 2 == 0 and n <= 2 * rho + r // 2:
        return extends(_witness_p2(spec), "non-maximal: p=2, r even, n<=2*rho+r/2")
    if p == 3 and r == 3 and n == 1:
        return extends(_witness_three_periods_cyclic_p3(spec), "non-maximal: (rho;3^3) n=1")
    if r == 0 and n == 1:
        rep = frobenius_representable(p, rho)
        if rep is None:
            return obstructed("maximal: rho is not representable as a*p + b*(p-1)/2 + 1")
        witness = _witness_unramified_cyclic_odd(spec)
        return extends(witness, f"non-maximal: rho representable with (a, b) = {rep}"
                       if witness is not None else FROBENIUS_CORNER_RULE)
    if r % p:
        return obstructed("maximal: p does not divide r (an index-p overgroup "
                          "gives its subgroup p*m branch points)")
    if n == 2 * rho + max(r - 1, 0):
        return obstructed("maximal: n=2*rho+max(r-1,0) is full rank (rank bound)")
    if r == 0 and n == 2 * rho - 1:
        return obstructed("maximal: (rho;-) n=2*rho-1, p odd (rank bound)")
    raise AssertionError(f"unique action {spec} escaped the maximality dispatch")


# ---------------------------------------------------------------------------
# independent search track
#
# Write an overgroup vector of C_p^(n+1) with signature (tau; p^s) as the
# (n+1) x (2 tau + s) matrix A whose columns are its entries.  Its row space
# R is admissible: dim R = n + 1, R lies in V = F_p^(2 tau) + Z_s (Z_s the
# zero-sum hyperplane), and no Z-coordinate vanishes on all of R.  A
# hyperplane H = ker(phi) of C_p^(n+1) is the codeword v = phi A of R, and
# the elliptic entry c_j lies in H exactly when v_j = 0.  So the (l, m) split
# of an extension parameter asks for an admissible R holding a codeword with
# exactly m zero Z-coordinates.  GL(2 tau, p) x S_s x F_p^* preserves
# admissibility and zero patterns, so v is taken up to that group, and the R
# holding v are U + <v> for the n-subspaces U of a complement of <v> in V.


class SearchOutcome(Record):
    """Result of the exhaustive witness search.

    status is "found" (witness attached) or "none" (every candidate row
    space enumerated, no witness exists).
    """

    _fields = ("status", "witness")

    def __init__(self, status: str, witness: ExtensionWitness | None):
        vars(self).update(status=status, witness=witness)


def search_extension_witness(spec: EAActionSpec) -> SearchOutcome:
    """Exhaustively search for an index-p extension of the given action.

    For each candidate overgroup signature, tries every codeword v up to
    symmetry and each row space R through it; the first admissible R is built
    into a witness with v as the last row, so the subgroup is the hyperplane
    "last coordinate 0".  Raises CapExceededError past the ``witness ints`` cap,
    or once the R rejected, over all codewords, pass the ``elements`` cap.
    """
    _require_witness_size(spec)
    sigma = require_admissible_genus(spec)
    p, n = spec.p, spec.n
    rejected = 0
    for ep in solve_extension_params(p, spec.rho, spec.r):
        tau, s = ep.tau, ep.s
        if s == 1 or n + 1 > 2 * tau + max(s - 1, 0):
            continue
        n_spec = EAActionSpec(p, n + 1, tau, s)
        if ea_genus(n_spec) != sigma:
            continue
        for v in _codewords(p, tau, ep.l, ep.m):
            for rows in _row_spaces(p, tau, s, n, v):
                # v's zero Z-coordinates are its m zeros after the hyperbolic part
                if all(any(row[z] for row in rows) for z in range(2 * tau, 2 * tau + ep.m)):
                    return SearchOutcome("found", _row_space_witness(spec, n_spec, [*rows, v]))
                rejected += 1
                require_within("elements", rejected, "the row spaces the witness search rejected")
    return SearchOutcome("none", None)


def _codewords(p: int, tau: int, l: int, m: int):
    """Codewords up to GL(2 tau, p) x S_s x F_p^*, as rows of F_p^(2 tau + l + m).

    The hyperbolic part is 0 or e_1; the Z-part is m zeros followed by a
    sorted nonzero l-tuple that sums to 0 and is least among its multiples.
    """
    heads = [[0] * (2 * tau)] + ([[1] + [0] * (2 * tau - 1)] if tau else [])
    for tail in itertools.combinations_with_replacement(range(1, p), l):
        if sum(tail) % p or tail != min(tuple(sorted(c * t % p for t in tail))
                                        for c in range(1, p)):
            continue
        for head in heads:
            if any(head) or tail:
                yield tuple(head + [0] * m + list(tail))


def _row_spaces(p: int, tau: int, s: int, n: int, v: tuple[int, ...]):
    """Bases of the n-subspaces U of a complement of <v> in V, one at a time.

    V's echelon basis is the units on the hyperbolic part and e_i - e_(i+1)
    on Z_s; without the row leading at v's first nonzero coordinate it spans
    a complement of <v>.  U runs over RREF coefficients a on those rows, by
    pivot pattern, the first free entry least significant, and a row of U is
    a on the hyperbolic part and a_i - a_(i-1) on Z_s.
    """
    h, first = 2 * tau, next(i for i, a in enumerate(v) if a)
    basis = [i for i in range(h + max(s - 1, 0)) if i != first]
    for pivots in itertools.combinations(basis, n):
        free = [(i, k) for i, c in enumerate(pivots) for k in basis if k > c and k not in pivots]
        for vals in itertools.product(range(p), repeat=len(free)):
            coeffs = [[0] * c + [1] + [0] * (h + s - 1 - c) for c in pivots]
            for (i, k), value in zip(free, reversed(vals)):
                coeffs[i][k] = value
            yield [a[:h] + [(x - y) % p for x, y in zip(a[h:], [0] + a[h:])] for a in coeffs]


def _row_space_witness(spec: EAActionSpec, n_spec: EAActionSpec, rows):
    p, tau = spec.p, n_spec.rho
    cols = list(zip(*rows))
    vec = GeneratingVector(p, spec.n + 1,
                           hyperbolic=[(cols[2 * i], cols[2 * i + 1]) for i in range(tau)],
                           elliptic=cols[2 * tau:])
    # the identity above makes every admissible R a witness: a failed round
    # trip is a bug, and _verified raises on it
    return _verified(spec, n_spec, vec, _units(spec.n + 1)[:spec.n])
