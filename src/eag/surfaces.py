"""Signatures, the genus formula, and index-p extension bookkeeping.

A signature ``(rho; m_1, ..., m_r)`` records the orbit genus of the quotient
and the branching orders of the quotient map; ``(rho; -)`` is the unramified
case.  Genus computations return exact rationals so that search code can
filter inadmissible parameter tuples by integrality instead of catching
errors.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import OutOfDomainError, PreconditionError, require_within
from .fp import check_prime, rref, vector_span_rank
from .record import Record

_SIG_RE = re.compile(r"^\(\s*(\d+)\s*;\s*(-|\d+(?:\s*,\s*\d+)*)\s*\)$")


class Signature(Record):
    """Orbit genus plus ordered branching periods.

    Periods keep their given order for display, but signatures compare and
    hash as multisets: permuting the periods gives the same signature.
    """

    _fields = ("orbit_genus", "periods")

    def __init__(self, orbit_genus: int, periods: tuple[int, ...] = ()):
        if orbit_genus < 0:
            raise PreconditionError("orbit genus must be >= 0")
        periods = tuple(int(m) for m in periods)
        if any(m < 2 for m in periods):
            raise PreconditionError("branching periods must be >= 2")
        vars(self).update(orbit_genus=orbit_genus, periods=periods)

    @property
    def r(self) -> int:
        return len(self.periods)

    def period_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.periods))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (self.orbit_genus == other.orbit_genus
                and self.period_multiset() == other.period_multiset())

    def __hash__(self) -> int:
        return hash((self.orbit_genus, self.period_multiset()))

    def __str__(self) -> str:
        if not self.periods:
            return f"({self.orbit_genus}; -)"
        return f"({self.orbit_genus}; " + ",".join(str(m) for m in self.periods) + ")"

    @staticmethod
    def parse(text: str) -> "Signature":
        m = _SIG_RE.match(text.strip())
        if not m:
            raise PreconditionError(f"cannot parse signature {text!r}")
        body = m.group(2)
        tokens = [m.group(1)] + ([] if body == "-" else [t.strip() for t in body.split(",")])
        # before int(), which refuses a number past the digit limit with a ValueError
        require_within("digits", max(map(len, tokens)), "the digits of a signature number")
        return Signature(int(tokens[0]), tuple(map(int, tokens[1:])))


class EAActionSpec(Record):
    """Parameters of an elementary abelian action: C_p^n with signature (rho; p^r)."""

    _fields = ("p", "n", "rho", "r")

    def __init__(self, p: int, n: int, rho: int, r: int):
        check_prime(p)
        if n < 0 or rho < 0 or r < 0:
            raise PreconditionError("n, rho, r must all be >= 0")
        vars(self).update(p=p, n=n, rho=rho, r=r)

    @property
    def sig(self) -> Signature:
        return Signature(self.rho, (self.p,) * self.r)

    def __str__(self) -> str:
        # (rho; p^r), not the signature, whose r periods may not fit in memory
        periods = f"{self.p}^{self.r}" if self.r else "-"
        return f"C_{self.p}^{self.n} acting with ({self.rho}; {periods})"


def require_nontrivial_group(spec: EAActionSpec) -> None:
    """Refuse n < 1: C_p^0 is the trivial group, outside the classification."""
    if spec.n < 1:
        raise OutOfDomainError(f"C_{spec.p}^0 is the trivial group: C_p^n needs n >= 1")


class ExtensionParams(Record):
    """Candidate quotient data (tau; p^s) for an index-p overgroup action."""

    _fields = ("tau", "s", "l", "m")

    def __init__(self, tau: int, s: int, l: int, m: int):
        if s != l + m:
            raise PreconditionError("s must equal l + m")
        vars(self).update(tau=tau, s=s, l=l, m=m)


def riemann_hurwitz_genus(group_order: int, sig: Signature) -> Fraction:
    """Surface genus: 1 + |G|(rho - 1) + (|G|/2) * sum(1 - 1/m_i).

    Returned exactly; a non-integral value signals an inadmissible signature.
    """
    if group_order < 1:
        raise PreconditionError("group order must be >= 1")
    total = Fraction(0)
    for m in sig.periods:
        total += 1 - Fraction(1, m)
    return 1 + group_order * (sig.orbit_genus - 1) + Fraction(group_order, 2) * total


def ea_genus(spec: EAActionSpec) -> Fraction:
    """Genus of the C_p^n action, for every n >= 0: 1 + p^n(rho - 1) + r p^n (p-1) / 2p."""
    p, q = spec.p, spec.p ** spec.n
    return 1 + q * (spec.rho - 1) + Fraction(spec.r * q * (p - 1), 2 * p)


def genus_is_admissible(spec: EAActionSpec) -> bool:
    g = ea_genus(spec)
    return g.denominator == 1 and g >= 2


def subgroup_signature(n_spec: EAActionSpec, gen_vec, subgroup_basis) -> Signature:
    """Signature of a subgroup's action, given the overgroup's generating vector.

    For elementary abelian N acting with (tau; p^s) and A <= N spanned by
    ``subgroup_basis``, the subgroup acts with (rho; p^((|N|/|A|) m)) where m
    counts elliptic entries inside A, l = s - m, and
    rho - 1 = (|N|/|A|)(tau - 1) + (|N| / 2|A|) * l * (1 - 1/p).
    """
    p = n_spec.p
    reduced = rref(subgroup_basis, p)
    a_rank = len(reduced)
    if a_rank != len(subgroup_basis):
        raise PreconditionError("subgroup basis is not independent")
    if a_rank > n_spec.n:
        raise PreconditionError("subgroup basis larger than the ambient group")
    if not validate_vector_for(n_spec, gen_vec):
        raise PreconditionError("generating vector is not valid for the overgroup")
    index = p ** (n_spec.n - a_rank)
    # a reduced row is 1 at its pivot and every other row 0 there, so c lies
    # in A iff c minus c[pivot_i] times row i, summed over i, is 0 mod p; that
    # difference is 0 at every pivot column by construction, so only the free
    # columns are checked
    pivots = [next(j for j, a in enumerate(row) if a) for row in reduced]
    free = [k for k in range(n_spec.n) if k not in pivots]
    m = sum(1 for c in gen_vec.elliptic
            if not any((c[k] - sum(c[j] * row[k] for j, row in zip(pivots, reduced))) % p
                       for k in free))
    l = n_spec.r - m
    rho_minus_1 = (index * (n_spec.rho - 1)
                   + Fraction(index, 2) * l * (1 - Fraction(1, p)))
    rho = rho_minus_1 + 1
    if rho.denominator != 1 or rho < 0:
        raise PreconditionError(
            f"inconsistent input: subgroup orbit genus comes out as {rho}")
    return Signature(int(rho), (p,) * (index * m))


def validate_vector_for(n_spec: EAActionSpec, gen_vec) -> bool:
    """Generation, order and product conditions for an abelian target."""
    p, n = n_spec.p, n_spec.n
    if gen_vec.p != p or gen_vec.n != n:
        return False
    if len(gen_vec.hyperbolic) != n_spec.rho or len(gen_vec.elliptic) != n_spec.r:
        return False
    if not all(any(c) for c in gen_vec.elliptic):
        return False
    if any(sum(col) % p for col in zip(*gen_vec.elliptic)):
        return False
    everything = list(gen_vec.elliptic)
    for a, b in gen_vec.hyperbolic:
        everything.extend((a, b))
    return vector_span_rank(everything, p) == n


def solve_extension_params(p: int, rho: int, r: int) -> list[ExtensionParams]:
    """All (tau, s, l, m) with s = l + m, r = p m and
    2 rho - 2 = 2 p (tau - 1) + l (p - 1); empty when p does not divide r.

    The solutions are purely arithmetic; admissibility of the overgroup
    action (genus, generation) is the caller's business.
    """
    check_prime(p)
    if rho < 0 or r < 0:
        raise PreconditionError("rho and r must be >= 0")
    if r % p != 0:
        return []
    m = r // p
    out = []
    for tau in range(0, rho + 2):
        num = 2 * rho - 2 - 2 * p * (tau - 1)
        if num < 0:
            break
        if num % (p - 1) != 0:
            continue
        l = num // (p - 1)
        out.append(ExtensionParams(tau=tau, s=l + m, l=l, m=m))
    return sorted(out, key=lambda e: (e.tau, e.l))
