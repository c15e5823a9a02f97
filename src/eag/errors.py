"""Exception hierarchy shared across the library, and the feasibility caps.

The CLI maps these onto exit codes: usage errors -> 1, OutOfDomainError -> 2,
PreconditionError -> 3, CapExceededError -> 4.  Every size cap of the CLI is
an entry of ``CAPS``, and ``require_within`` is the one check that raises
CapExceededError for it.
"""

from __future__ import annotations

import math
import sys


class EagError(Exception):
    """Base class for all library errors."""


class OutOfDomainError(EagError):
    """Parameters outside the classification domain (surface genus < 2)."""


class PreconditionError(EagError):
    """A mathematical precondition of the requested operation fails."""


class CapExceededError(EagError):
    """An enumeration would exceed the configured feasibility caps."""


#: The largest size each cap admits; the README's cap table says what each
#: bounds, which subcommands reach it and when it is checked.
CAPS = {
    "group order": 128,  # of a Cayley table that grouptable builds or reads
    "automorphism search order": 60,  # of a group whose automorphisms are searched
    "automorphism candidates": 2 ** 16,  # the candidate image tuples of that search
    "tuple candidates": 2_000_000,  # and states of eag orbits: some 6 s and 250 MB
    "key values": 2 ** 63 - 1,  # base^digits of a key that fp._pack_keys packs
    "permutation degree": 5,  # of the catalog's symmetric and alternating groups
    "witness ints": 5 * 10 ** 5,  # of a maximality witness, and periods of unique
    "ambient dimension": 20,  # n of eag fermat: one kernel, O(n^3) steps on numbers capped by digits
    # Miller-Rabin to the first 13 prime bases is proven below this + 1 (Sorenson and
    # Webster, Math. Comp. 86 (2017))
    "primality": 3_317_044_064_679_887_385_961_980,
    "elements": 10 ** 8,  # of a closure, and the row spaces the witness search rejects
    "burnside steps": 14_000_000,  # of the Burnside programme of one count: e(13, 8, 16) takes 8.7M
    "digits": sys.get_int_max_str_digits() or 4300,  # Python's limit at import, or 4,300
}


def require_within(cap: str, size: int, what: str) -> None:
    """Raise CapExceededError, naming the cap, its value and ``size``, when
    ``size`` passes ``CAPS[cap]``, the one source of every cap's value."""
    value = CAPS[cap]
    if size > value:
        # past 10^30 a size is shown by a power of ten below it, which no digit limit refuses
        shown = (size if size < 10 ** 30
                 else f"at least 10^{int(math.log10(2) * size.bit_length()) - 1}")
        raise CapExceededError(f"{what}: {shown}, above the {cap} cap of {value}")
