"""Table 1 of the paper, the purely ramified unique actions, checked by the count.

On the grid of primes p <= 13, ranks 1 <= k <= kmax and r <= rmax periods,
``genvec.count_pure_orbits_burnside`` gives e(p, k, r), the number of
classes of (0; p^r)-generating vectors of C_p^k.  The closed forms must
agree with it:

* e = 0 exactly where ``genvec.no_pure_vectors`` holds;
* e = 1 exactly where ``genvec.pure_unique_row`` names a row;
* where e >= 2, ``genvec.build_inequivalent_pair`` returns two valid
  vectors whose multiset characters differ: a second witness, independent
  of the count, that the action is not unique.

Run as a script, ``python tests/uniqueness_grid.py KMAX RMAX`` checks the
grid and prints its instances (the (p, k, r) where ``no_pure_vectors`` is
false) and its CPU seconds; it exits 1 on any mismatch.
"""

import sys
import time

from eag import genvec
from eag.errors import PreconditionError
from eag.surfaces import EAActionSpec

PRIMES = (2, 3, 5, 7, 11, 13)


def _pair_mismatch(p: int, k: int, r: int) -> str | None:
    try:
        pair = genvec.build_inequivalent_pair(p, k, r)
    except (AssertionError, PreconditionError) as exc:
        return f"no inequivalent pair: {exc}"
    if not all(genvec.validate(v) and v.spec() == EAActionSpec(p, k, 0, r) for v in pair):
        return "an invalid vector in the pair"
    if len({genvec.multiset_character(v) for v in pair}) != 2:
        return "a pair with equal multiset characters"
    return None


def check_grid(kmax: int, rmax: int) -> tuple[int, int, list[tuple]]:
    """(instances, pairs built, mismatches) on the grid up to kmax and rmax.

    A mismatch is (p, k, r, e, what went wrong).
    """
    instances, pairs, mismatches = 0, 0, []
    for p in PRIMES:
        for k in range(1, kmax + 1):
            # r descends, so that the rows M(p, j, .) of ranks k - 1 and k are built once, to
            # rmax: an ascending sweep would walk them again at each r past ROW_MIN_PERIODS
            for r in range(rmax, -1, -1):
                e = genvec.count_pure_orbits_burnside(p, k, r)
                if genvec.no_pure_vectors(p, k, r):
                    if e:
                        mismatches.append((p, k, r, e, "no_pure_vectors, but e != 0"))
                    continue
                instances += 1
                row = genvec.pure_unique_row(p, k, r)
                if e == 0:
                    mismatches.append((p, k, r, e, "e = 0, but no_pure_vectors is false"))
                elif (e == 1) != (row is not None):
                    mismatches.append((p, k, r, e, f"pure_unique_row gives {row!r}"))
                elif e >= 2:
                    pairs += 1
                    if (wrong := _pair_mismatch(p, k, r)) is not None:
                        mismatches.append((p, k, r, e, wrong))
    return instances, pairs, mismatches


if __name__ == "__main__":
    kmax, rmax = map(int, sys.argv[1:3])
    instances, pairs, mismatches = check_grid(kmax, rmax)
    print(f"table 1 against the Burnside count, p <= 13, k <= {kmax}, r <= {rmax}: "
          f"{instances} instances, {pairs} inequivalent pairs, {len(mismatches)} mismatches, "
          f"{time.process_time():.1f} s CPU")
    for mismatch in mismatches:
        print("mismatch:", mismatch)
    sys.exit(1 if mismatches else 0)
