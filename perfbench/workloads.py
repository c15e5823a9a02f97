"""The benchmark's workloads: call lists built from a seed, and answer checks.

A workload is a list of calls that one client issues one after another (a
closed loop with a single client).  The seed fixes the call order and the
random rationals of the ``fermat`` calls; the program receives only the
generated arguments.  Instance lists and recorded answers live in
``reference.json`` (see ``reference.py``).

Why each workload was chosen:

* ``pure-box``: ``genvec.count_classes`` over the purely ramified box, the
  numpy subspace BFS that Burnside counting or a smaller S_r move set would
  cut.  ``maximality``, ``grouptable`` and ``hyperfermat`` stay idle.
* ``kernel-oracles``: the "two independent algorithms" work of the test
  suite.  It is python-object heavy (``fp.rref``, ``fp.group_closure`` for
  Sp(4,3)) and calls ``batch_rref`` many times on mid-size batches, so a
  ``batch_rref`` change tuned for ``pure-box`` shows its cost here.
* ``desk-session``: the user-facing mix through ``eag.cli.main``.
  ``grouptable`` and ``hyperfermat`` take most of the wall time, while
  ``maximality``, ``genvec`` and ``cli`` make up most calls.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from eag import cli, genvec, orbits
from eag.surfaces import EAActionSpec

WORKLOADS = ("pure-box", "kernel-oracles", "desk-session")

REFERENCE = Path(__file__).resolve().parent / "reference.json"

FERMAT_CALLS = 60


@dataclass(frozen=True)
class Call:
    """One call: ``op`` names what to run on ``args``; ``check`` says how to
    judge the answer (a rule name followed by its data)."""

    op: str
    args: tuple
    check: tuple


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _spec_argv(p, n, rho, r) -> list[str]:
    return ["--p", str(p), "--n", str(n), "--rho", str(rho), "--r", str(r)]


def _fermat_params(rng: random.Random, n: int) -> list[Fraction]:
    # Heights stay small: with numerators up to 40 and denominators up to 12
    # about one n=6 line in a hundred has intersection coordinates spanning
    # more than six orders of magnitude, and the smoothness sampler then never
    # accepts a point (a known defect of hyperfermat, left to the program).
    w: list[Fraction] = []
    while len(w) < n + 1:
        f = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if f not in w:
            w.append(f)
    return w


def build_calls(workload: str, seed: int, ref: dict) -> list[Call]:
    """The workload's call list in the order the seed fixes."""
    rng = random.Random(seed)
    calls: list[Call] = []
    if workload == "pure-box":
        for p, n, r, count in ref["pure_box"]:
            calls.append(Call("count_classes", (p, n, 0, r), ("pure", p, n, r, count)))
    elif workload == "kernel-oracles":
        for p, k, rho in ref["kernel_bfs"]:
            calls.append(Call("count_unramified_classes", (p, k, rho), ("witt", rho, k)))
        for p, k, rho in ref["kernel_canonical"]:
            calls.append(Call("count_kernel_orbits_canonical", (p, k, rho), ("witt", rho, k)))
        for p, k, r in ref["pure_grid"]:
            calls.append(Call("count_pure_orbits_bfs", (p, k, r), ("pair", p, k, r)))
            calls.append(Call("count_pure_orbits_canonical", (p, k, r), ("pair", p, k, r)))
    elif workload == "desk-session":
        for w in (1, 2, 3, 4):
            calls.append(Call("cli", ("tables", "--which", str(w), "--format", "csv"),
                              ("golden", w)))
        for p, n, rho, r, maximal, corner in ref["desk_specs"]:
            calls.append(Call("cli", ("unique", *_spec_argv(p, n, rho, r)), ("unique",)))
            calls.append(Call("cli", ("maximal", *_spec_argv(p, n, rho, r), "--search"),
                              ("maximal", maximal, corner)))
        for p, n, r in ref["ea_orbits"]:
            group = "x".join([f"C{p}"] * n)
            sig = "(0;" + ",".join([str(p)] * r) + ")"
            calls.append(Call("cli", ("orbits", "--group", group, "--sig", sig),
                              ("ea", p, n, r)))
        for name, sig, count in ref["catalog_orbits"]:
            calls.append(Call("cli", ("orbits", "--group", name, "--sig", sig),
                              ("orbits", count)))
        for i in range(FERMAT_CALLS):
            n, p = 3 + i % 4, (3, 5, 7)[i % 3]
            w = [str(f) for f in _fermat_params(rng, n)]
            # "--w=" keeps argparse from reading a leading minus as an option
            calls.append(Call("cli", ("fermat", "--p", str(p), "--n", str(n),
                                      "--w=" + ",".join(w)), ("fermat", *w)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(calls)
    return calls


def execute(call: Call):
    """Run one call and return its answer.

    Functions are looked up on their modules at call time, so that tracing
    wrappers installed on those modules see the call.
    """
    if call.op == "cli":
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(call.args))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()
    if call.op == "count_classes":
        return genvec.count_classes(EAActionSpec(*call.args)).total
    if call.op == "count_unramified_classes":
        return genvec.count_unramified_classes(*call.args)
    return getattr(orbits, call.op)(*call.args)


class _Wrong(Exception):
    """An answer that contradicts its check."""


def _payload(answer) -> dict:
    code, out = answer
    if code != 0:
        raise _Wrong(f"exit code {code}")
    return json.loads(out)


def _check_one(call: Call, answer, root: Path) -> None:
    """Raise _Wrong, or any error the answer provokes, if the answer is wrong."""
    rule, *data = call.check
    if rule == "pure":
        p, n, r, count = data
        if answer != count:
            raise _Wrong(f"count {answer}, recorded {count}")
        if (answer == 1) != (genvec.pure_unique_row(p, n, r) is not None):
            raise _Wrong("count disagrees with the unique-row rule")
    elif rule == "witt":
        rho, k = data
        want = orbits.witt_kernel_orbit_count(rho, k)
        if answer != want:
            raise _Wrong(f"count {answer}, Witt closed form {want}")
    elif rule == "golden":
        code, out = answer
        want = (root / "golden" / f"table{data[0]}.csv").read_text(encoding="utf-8")
        if code != 0 or out != want:
            raise _Wrong(f"exit code {code}; output differs from golden/")
    elif rule == "unique":
        if _payload(answer)["unique"] is not True:
            raise _Wrong("recorded as unique")
    elif rule == "maximal":
        maximal, corner = data
        payload = _payload(answer)
        status = payload["search"]["status"]
        if payload["maximal"] != maximal:
            raise _Wrong(f"maximal={payload['maximal']}, recorded {maximal}")
        # acceptance criterion 04: a maximal verdict pairs with an empty
        # search, a non-maximal one with a found (or capped) witness search,
        # except in the corner where no witness can exist
        agree = status == "none" if (maximal or corner) else status in ("found", "capped")
        if not agree or (status == "found" and payload["search"]["witness"] is None):
            raise _Wrong(f"verdict maximal={maximal} but search status {status}")
    elif rule == "ea":
        p, n, r = data
        got, want = _payload(answer)["orbits"], genvec.count_pure_classes(p, n, r)
        if got != want:
            raise _Wrong(f"{got} orbits, count_pure_classes gives {want}")
    elif rule == "orbits":
        got = _payload(answer)["orbits"]
        if got != data[0]:
            raise _Wrong(f"{got} orbits, recorded {data[0]}")
    elif rule == "fermat":
        payload = _payload(answer)
        want = [[float(Fraction(x)), 0.0] for x in data]
        if payload["lambdas"] != want:
            raise _Wrong("branch parameters differ from w")
        if any(c["residual"] != 0 for c in payload["residue_checks"]):
            raise _Wrong("nonzero residue identity")
        if not payload["smoothness"]["passed"]:
            raise _Wrong("smoothness check failed")
    elif rule != "pair":
        raise ValueError(f"unknown check {rule!r}")


def check_answers(calls: list[Call], answers: list, errors: dict[int, str],
                  root: Path) -> dict[int, str]:
    """Reasons, by call index, for every call that raised or answered wrongly.

    ``errors`` holds the calls that raised.  The two calls of a ``pair``
    check must give equal answers; when they differ both count as wrong.
    """
    failed = dict(errors)
    pairs: dict[tuple, list[int]] = {}
    for i, call in enumerate(calls):
        if i in failed:
            continue
        if call.check[0] == "pair":
            pairs.setdefault(call.check, []).append(i)
        try:
            _check_one(call, answers[i], root)
        except Exception as exc:  # a wrong or malformed answer
            failed[i] = f"{' '.join(map(str, call.args))}: {type(exc).__name__}: {exc}"
    for members in pairs.values():
        if len({answers[i] for i in members}) > 1:
            for i in members:
                failed[i] = f"{calls[i].op}{calls[i].args}: the two counts disagree"
    return failed
