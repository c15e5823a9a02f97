"""Command-line front end.

Subcommands mirror the library: ``unique``, ``count``, ``maximal``,
``orbits``, ``tables`` and ``fermat``.  Every machine-readable payload
carries ``"schema": "eag/1"``.  Exit codes: 0 success, 1 usage error, 2
out-of-domain parameters (genus below 2), 3 mathematical precondition
failure, 4 feasibility cap exceeded.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import genvec, hyperfermat, maximality, tables
from .errors import CapExceededError, OutOfDomainError, PreconditionError
from .surfaces import EAActionSpec, Signature, ea_genus

SCHEMA = "eag/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _render(payload: dict, fmt: str) -> str:
    keys = sorted(payload)
    try:
        if fmt == "json":
            return json.dumps(payload, sort_keys=True, indent=2, default=str)
        if fmt == "markdown":
            return "\n".join(f"- **{key}**: {payload[key]}" for key in keys)
        if fmt == "csv":
            row = ",".join('"' + str(payload[k]).replace('"', '""') + '"' for k in keys)
            return ",".join(keys) + "\n" + row
    except ValueError as exc:
        # an int past Python's int-to-str digit limit, such as a huge genus
        raise CapExceededError(f"payload cannot be printed: {exc}") from exc
    raise UsageError(f"unknown format {fmt!r}")


def _add_spec_args(sub):
    sub.add_argument("--p", type=int, required=True, help="prime")
    sub.add_argument("--n", type=int, required=True, help="rank of the group C_p^n")
    sub.add_argument("--rho", type=int, required=True, help="orbit genus of the quotient")
    sub.add_argument("--r", type=int, required=True, help="number of branch points")
    sub.add_argument("--format", default="json", choices=("json", "markdown", "csv"))


def _spec(args) -> EAActionSpec:
    return EAActionSpec(args.p, args.n, args.rho, args.r)


def cmd_unique(args, out) -> int:
    spec = _spec(args)
    unique = genvec.is_unique_action(spec)
    payload = {
        "schema": SCHEMA, "command": "unique",
        "p": spec.p, "n": spec.n, "rho": spec.rho, "r": spec.r,
        "signature": str(spec.sig), "periods": list(spec.sig.periods),
        "genus": int(ea_genus(spec)),
        "unique": unique, "rules": list(genvec.unique_action_rules(spec)),
    }
    print(_render(payload, args.format), file=out)
    return EXIT_OK


def cmd_count(args, out) -> int:
    spec = _spec(args)
    report = genvec.count_classes(spec)
    payload = {"schema": SCHEMA, "command": "count", **report.to_json_dict()}
    if spec.r == 0 and spec.n >= 1:
        adj = genvec.unramified_adjudication(spec.p, spec.rho)
        payload["unramified_unique_ranks"] = list(adj.computed_unique_ranks)
        payload["unramified_note"] = adj.note
    print(_render(payload, args.format), file=out)
    return EXIT_OK


def cmd_maximal(args, out) -> int:
    spec = _spec(args)
    verdict = maximality.is_maximal(spec)
    payload = {"schema": SCHEMA, "command": "maximal", **verdict.to_json_dict()}
    if args.search:
        outcome = maximality.search_extension_witness(spec)
        payload["search"] = {
            "status": outcome.status,
            "witness": outcome.witness.to_json_dict() if outcome.witness else None,
        }
    print(_render(payload, args.format), file=out)
    return EXIT_OK


def cmd_orbits(args, out) -> int:
    from . import grouptable  # it loads numpy, which no other subcommand needs at once
    if bool(args.group) == bool(args.table):
        raise UsageError("provide exactly one of --group or --table")
    if args.group:
        g = grouptable.by_name(args.group)
        name = args.group
    else:
        g = grouptable.GroupTable.loads(_read_input(args.table, "--table"))
        name = str(Path(args.table).name)
    sig = Signature.parse(args.sig)
    orbits_found = grouptable.count_orbits(g, sig)
    payload = {
        "schema": SCHEMA, "command": "orbits", "group": name,
        "group_order": g.order, "signature": str(sig),
        "periods": list(sig.periods), "orbits": orbits_found,
    }
    print(_render(payload, args.format), file=out)
    return EXIT_OK


def cmd_tables(args, out) -> int:
    which = args.which
    if args.write_golden:
        root = Path(args.write_golden)
        root.mkdir(parents=True, exist_ok=True)
        for w in (1, 2, 3, 4):
            (root / f"table{w}.csv").write_text(tables.render_csv(w), encoding="utf-8")
        print(f"wrote table1..table4 CSVs to {root}", file=out)
        return EXIT_OK
    if which is None:
        raise UsageError("--which is required unless --write-golden is given")
    if args.format == "csv":
        print(tables.render_csv(which), file=out, end="")
    elif args.format == "json":
        payload = {"schema": SCHEMA, "command": "tables", "which": which,
                   "title": tables.TABLE_TITLES[which],
                   "rows": tables.render_json_rows(which)}
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
    else:
        print(tables.render_markdown(which), file=out, end="")
    return EXIT_OK


def _read_input(path: str, option: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read {option} {path!r}: {exc}") from exc


def _parse_scalar(tok: str):
    tok = tok.strip()
    if tok in ("inf", "oo", "infinity"):
        return "inf"
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        z = complex(tok)
        if cmath.isfinite(z):
            return z
    except ValueError:
        pass
    raise UsageError(f"{tok!r} is not a finite rational or complex number")


def _load_c_rows(path: str) -> list:
    try:
        data = json.loads(_read_input(path, "--c-file"))
        rows = [[complex(re, im) for re, im in row] for row in data["C"]]
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(
            f'--c-file must hold {{"C": [[[re, im], ...], ...]}}: {exc!r}') from exc
    if not all(cmath.isfinite(z) for row in rows for z in row):
        raise UsageError("--c-file entries must be finite")
    return rows


def _parse_scalar_list(text: str) -> list:
    return [_parse_scalar(tok) for tok in text.split(",") if tok.strip()]


def cmd_fermat(args, out) -> int:
    if bool(args.w) == bool(args.c_file):
        raise UsageError("provide exactly one of --w or --c-file")
    if args.w:
        w = _parse_scalar_list(args.w)
        if "inf" in w:
            raise UsageError("--w entries must be finite")
        if len(set(w)) != len(w):
            raise UsageError("--w entries must be pairwise distinct")
        if len(w) != args.n + 1:
            raise UsageError(f"--w needs n+1 = {args.n + 1} entries")
        line = hyperfermat.vandermonde_line(w)
        default_pins = tuple(w[:3])
    else:
        line = hyperfermat.LineMatrix.of(_load_c_rows(args.c_file))
        default_pins = (0, 1, "inf")
    if line.n != args.n:
        raise UsageError(f"line matrix has ambient dimension {line.n}, not {args.n}")
    spec = hyperfermat.HyperFermatSpec(args.p, args.n, line)
    pins = tuple(_parse_scalar_list(args.pins)) if args.pins else default_pins
    if len(pins) != 3:
        raise UsageError("--pins needs exactly three values")
    branch = hyperfermat.branch_points(line, pins)
    residue_checks = []
    if args.w:
        for s in range(args.n - 1):
            residue_checks.append(
                {"s": s, "residual": float(hyperfermat.residue_identity_check(w, s))})
    payload = {
        "schema": SCHEMA, "command": "fermat",
        "p": args.p, "n": args.n,
        "C": line.to_json(),
        "generic": True,
        "genus": int(spec.genus),
        "lambdas": [pt.to_json() for pt in branch.points],
        "pins": [pt.to_json() for pt in branch.pins],
        "residue_checks": residue_checks,
        "smoothness": hyperfermat.smoothness_certificate(line),
    }
    print(_render(payload, args.format), file=out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="eag", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("unique", help="is the action unique up to equivalence?")
    _add_spec_args(s)
    s.set_defaults(func=cmd_unique)

    s = subs.add_parser("count", help="count topological classes of actions")
    _add_spec_args(s)
    s.set_defaults(func=cmd_count)

    s = subs.add_parser("maximal", help="decide maximality of a unique action")
    _add_spec_args(s)
    s.add_argument("--search", action="store_true",
                   help="also run the independent extension search")
    s.set_defaults(func=cmd_maximal)

    s = subs.add_parser("orbits", help="orbit count over a Cayley-table group")
    s.add_argument("--group", help="catalog name, e.g. C10, D4, S3, A5, C2xC4")
    s.add_argument("--table", help="path to a Cayley table file")
    s.add_argument("--sig", required=True, help='signature, e.g. "(0;2,5,10)"')
    s.add_argument("--format", default="json", choices=("json", "markdown", "csv"))
    s.set_defaults(func=cmd_orbits)

    s = subs.add_parser("tables", help="render the classification tables")
    s.add_argument("--which", type=int, choices=(1, 2, 3, 4))
    s.add_argument("--format", default="markdown", choices=("json", "markdown", "csv"))
    s.add_argument("--write-golden", metavar="DIR",
                   help="regenerate the golden CSVs into DIR")
    s.set_defaults(func=cmd_tables)

    s = subs.add_parser("fermat", help="construct and verify a hyper-Fermat curve")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--w", help="comma-separated distinct parameters (rational or complex)")
    s.add_argument("--c-file", help="JSON file with a C matrix ([[re,im],...] rows)")
    s.add_argument("--pins", help="three pin values, e.g. 0,1,inf")
    s.add_argument("--format", default="json", choices=("json", "markdown", "csv"))
    s.set_defaults(func=cmd_fermat)
    parser.commands = subs.choices  # subcommand name -> its own parser
    return parser


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    # argparse keeps no state between parses, so one parser serves every call
    return build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """The full parser's namespace for argv, from one parse.

    A known subcommand's own parser reads the rest of argv, as the full
    parser would hand it on; anything else (no arguments, -h, an unknown
    command) goes through the full parser for its messages.
    """
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so that the
        # interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OutOfDomainError as exc:
        print(f"out of domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CapExceededError as exc:
        print(f"feasibility cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
