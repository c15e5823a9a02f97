"""Regenerate reference.json: the instance lists of the three workloads and
the answers the program gave when the benchmark was defined.

The lists are stored rather than recomputed on every run, so that a later
change to a cap, a feasibility test or a classification rule cannot change
the work the benchmark measures.  Every recorded answer is cross-checked
here before it is written.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

from eag import genvec, grouptable, maximality, orbits
from eag.errors import CapExceededError
from eag.surfaces import EAActionSpec, Signature, genus_is_admissible

OUT = Path(__file__).resolve().parent / "reference.json"

# Left out for run length only.  (5,3,7) takes about 45 s on its own; (5,4,7)
# runs the same enumeration and batch_rref path in about 12 s.
PURE_BOX_SKIP = {(5, 3, 7)}
# (3, k=3, rho=3) takes about 10 s on its own; (3,2,3) and (3,4,3) run the
# same pure-python kernel BFS.
KERNEL_BFS_SKIP = {(3, 3, 3)}
# (3, k=2, rho=2) takes about 10 s on its own; (3,1,2) runs the same
# minimisation over the Sp(4,3) closure.
KERNEL_CANONICAL_SKIP = {(3, 2, 2)}

# acceptance criterion 11's grid for the canonical pure count
PURE_GRID = ([(2, k, r) for k in (1, 2, 3) for r in range(2, 8)]
             + [(3, k, r) for k in (1, 2) for r in range(2, 8)]
             + [(5, 1, r) for r in range(2, 8)] + [(5, 2, r) for r in range(3, 6)])

# test_count_orbits_matches_elementary_abelian_counter's cases, as (p, n, r)
EA_ORBITS = [(2, 1, 4), (2, 1, 6), (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 7),
             (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 1, 6), (5, 1, 3), (5, 1, 4),
             (2, 3, 4), (2, 3, 5), (2, 3, 6), (3, 2, 3), (3, 2, 4), (3, 2, 5)]

CATALOG_ORBITS = [("A5", "(0;2,3,5)"), ("A5", "(0;2,2,2,3)"), ("S4", "(0;2,3,4)"),
                  ("D6", "(0;2,2,2,2,2)"), ("C2xC4", "(0;2,2,4,4)"),
                  ("C10", "(0;2,5,10)")]


def pure_box() -> list[list[int]]:
    rows = []
    for p in (2, 3, 5):
        for n in range(1, 5):
            for r in range(n + 1, 8):
                if (p, n, r) in PURE_BOX_SKIP or not genus_is_admissible(EAActionSpec(p, n, 0, r)):
                    continue
                count = genvec.count_classes(EAActionSpec(p, n, 0, r)).total
                if (count == 1) != (genvec.pure_unique_row(p, n, r) is not None):
                    raise AssertionError(f"unique-row rule disagrees at {(p, n, r)}")
                if orbits.pure_canonical_feasible(p, n, r) and \
                        orbits.count_pure_orbits_canonical(p, n, r) != count:
                    raise AssertionError(f"canonical count disagrees at {(p, n, r)}")
                rows.append([p, n, r, count])
    return rows


def kernel_instances() -> tuple[list[list[int]], list[list[int]]]:
    bfs, canonical = [], []
    for p in (2, 3, 5):
        for rho in (1, 2, 3):
            for k in range(0, 2 * rho + 1):
                try:
                    orbits.check_unramified_caps(p, k, rho)
                except CapExceededError:
                    pass
                else:
                    if (p, k, rho) not in KERNEL_BFS_SKIP:
                        bfs.append([p, k, rho])
                if orbits.kernel_canonical_feasible(p, rho) and \
                        (p, k, rho) not in KERNEL_CANONICAL_SKIP:
                    canonical.append([p, k, rho])
    return bfs, canonical


def pure_grid() -> list[list[int]]:
    return [[p, k, r] for p, k, r in PURE_GRID
            if k <= r - 1 and orbits.pure_canonical_feasible(p, k, r)]


def desk_specs() -> list[list]:
    """Unique admissible specs, with the maximality verdict, and whether it
    is the corner where a non-maximal verdict has no witness."""
    rows = []
    for p in (2, 3, 5, 7):
        for rho in range(0, 9):
            for r in range(0, 11):
                for n in range(1, 2 * rho + r + 1):
                    spec = EAActionSpec(p, n, rho, r)
                    if not genus_is_admissible(spec) or not genvec.is_unique_action(spec):
                        continue
                    verdict = maximality.is_maximal(spec)
                    corner = verdict.rule == maximality.FROBENIUS_CORNER_RULE
                    rows.append([p, n, rho, r, verdict.maximal, corner])
    return rows


def catalog_orbits() -> list[list]:
    return [[name, sig, grouptable.count_orbits(grouptable.by_name(name), Signature.parse(sig))]
            for name, sig in CATALOG_ORBITS]


def main() -> None:
    bfs, canonical = kernel_instances()
    ref = {
        "pure_box": pure_box(),
        "kernel_bfs": bfs,
        "kernel_canonical": canonical,
        "pure_grid": pure_grid(),
        "desk_specs": desk_specs(),
        "ea_orbits": [list(c) for c in EA_ORBITS],
        "catalog_orbits": catalog_orbits(),
    }
    OUT.write_text(json.dumps(ref, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {OUT.name}: " + ", ".join(f"{k}={len(v)}" for k, v in ref.items()))


if __name__ == "__main__":
    main()
