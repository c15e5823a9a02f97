"""Command-line front end.

Subcommands mirror the library: ``unique``, ``count``, ``maximal``,
``orbits``, ``tables`` and ``fermat``.  Every machine-readable payload
carries ``"schema": "eag/1"``.  Exit codes: 0 success, 1 usage error, 2
out-of-domain parameters (genus below 2), 3 mathematical precondition
failure, 4 feasibility cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

# each cmd_* imports its own engine in its body: a process loads what its subcommand runs
from .errors import CAPS, CapExceededError, OutOfDomainError, PreconditionError, require_within
from .record import Record
from .surfaces import EAActionSpec, Signature, require_nontrivial_group

SCHEMA = "eag/1"

EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _render(answer, fmt: str) -> str:
    """What a subcommand's answer prints: finished text as it is, or a payload, a dict
    or a function called here to build one, in the format ``fmt`` with one newline."""
    if isinstance(answer, str):
        return answer
    try:
        payload = answer() if callable(answer) else answer
        if fmt == "json":
            return _json(payload) + "\n"
        items = sorted(_plain(payload).items())
        if fmt == "markdown":
            return "".join(f"- **{key}**: {value}\n" for key, value in items)
        if fmt == "csv":
            return (",".join(key for key, _ in items) + "\n"
                    + ",".join('"' + str(value).replace('"', '""') + '"' for _, value in items) + "\n")
    except (ValueError, OverflowError) as exc:
        # an int past Python's int-to-str digit limit, such as a huge genus, or a
        # rational past the float range
        raise CapExceededError(f"payload cannot be printed: {exc}") from exc
    raise UsageError(f"unknown format {fmt!r}")


def _record_dict(record: Record) -> dict:
    """A record's payload: its fields by name, or a generating vector's own dict,
    which adds the derived rho."""
    return (record.to_json_dict() if hasattr(record, "to_json_dict")
            else dict(zip(record._fields, record._values())))


def _plain(x):
    """``x`` with every record a dict and every tuple a list, all the way down: the
    values whose ``str()`` the markdown and csv formats print."""
    if isinstance(x, Record):
        x = _record_dict(x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _json(x, indent: str = "\n") -> str:
    """``json.dumps(x, sort_keys=True, indent=2, default=str)`` byte for byte, types
    tried in json's order, without the slow pure-Python encoder that ``indent`` selects;
    a record is written as its ``_record_dict``."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return {None: "null", True: "true", False: "false"}[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return ("NaN" if x != x else "Infinity" if x == math.inf
                else "-Infinity" if x == -math.inf else float.__repr__(x))
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        items = [_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(x, dict):
        for k in x:
            if not (isinstance(k, (str, int, float)) or k is None):
                raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        items = [encode_basestring_ascii(k if isinstance(k, str) else _json(k)) + ": "
                 + _json(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(x, Record):
        return _json(_record_dict(x), indent)
    return _json(str(x), indent)


def _int(token: str) -> int:
    """int(token) for an integer option.  A token longer than the digits cap
    exits 4 by that cap, as a number of --sig does, before int() reads it;
    on the normal path only its length is compared."""
    if len(token) > CAPS["digits"]:
        require_within("digits", len(token), "the digits of an integer option")
    return int(token)


_int.__name__ = "int"  # argparse names the type when int() refuses a token: "invalid int value"


def _add_spec_args(sub):
    sub.add_argument("--p", type=_int, required=True, help="prime")
    sub.add_argument("--n", type=_int, required=True, help="rank of the group C_p^n")
    sub.add_argument("--rho", type=_int, required=True, help="orbit genus of the quotient")
    sub.add_argument("--r", type=_int, required=True, help="number of branch points")
    sub.add_argument("--format", default="json", choices=("json", "markdown", "csv"))


def _spec(args) -> EAActionSpec:
    spec = EAActionSpec(args.p, args.n, args.rho, args.r)
    # count, unique and maximal refuse the trivial group alike, before any cap
    require_nontrivial_group(spec)
    return spec


def cmd_unique(args) -> dict:
    from . import genvec
    spec = _spec(args)
    # before the periods or the genus is built: no more periods than a witness may hold
    # ints, and no more digits than a genus of modulus at most p^n (rho + r + 2) may have
    # (an n past 10^300 passes any limit alone, and would overflow a float)
    require_within("witness ints", spec.r, "r, the periods the payload lists")
    digits = int(min(spec.n, 10 ** 300) * math.log10(spec.p) + math.log10(spec.rho + spec.r + 2)) + 1
    require_within("digits", digits, "the digits the genus may have")
    sig = spec.sig
    genus = genvec.require_admissible_genus(spec)
    rules = genvec.unique_action_rules(spec)
    return {
        "schema": SCHEMA, "command": "unique",
        "p": spec.p, "n": spec.n, "rho": spec.rho, "r": spec.r,
        "signature": str(sig), "periods": sig.periods,
        "genus": genus, "unique": bool(rules), "rules": rules,
    }


def cmd_count(args) -> dict:
    from . import genvec
    spec = _spec(args)
    payload = {"schema": SCHEMA, "command": "count", **_record_dict(genvec.count_classes(spec))}
    if spec.r == 0:
        adj = genvec.unramified_adjudication(spec.p, spec.rho)
        payload["unramified_unique_ranks"] = adj.computed_unique_ranks
        payload["unramified_note"] = adj.note
    return payload


def cmd_maximal(args) -> dict:
    from . import maximality
    spec = _spec(args)
    payload = {"schema": SCHEMA, "command": "maximal", **_record_dict(maximality.is_maximal(spec))}
    if args.search:
        payload["search"] = maximality.search_extension_witness(spec)
    return payload


def cmd_orbits(args) -> dict:
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
    return {
        "schema": SCHEMA, "command": "orbits", "group": name,
        "group_order": g.order, "signature": str(sig),
        "periods": sig.periods, "orbits": grouptable.count_orbits(g, sig),
    }


def cmd_tables(args):
    """The table's payload for json, and finished text otherwise."""
    from . import tables
    which = args.which
    if args.write_golden:
        root = Path(args.write_golden)
        root.mkdir(parents=True, exist_ok=True)
        for w in (1, 2, 3, 4):
            (root / f"table{w}.csv").write_text(tables.render_csv(w), encoding="utf-8")
        return f"wrote table1..table4 CSVs to {root}\n"
    if which is None:
        raise UsageError("--which is required unless --write-golden is given")
    if args.format == "json":
        return {"schema": SCHEMA, "command": "tables", "which": which,
                "title": tables.TABLE_TITLES[which], "rows": tables.TABLES[which]()}
    return (tables.render_csv if args.format == "csv" else tables.render_markdown)(which)


def _read_input(path: str, option: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read {option} {path!r}: {exc}") from exc


def _fraction(text: str) -> Fraction:
    """A decimal or a/b token read exactly.  Its numerator and denominator
    have at most its length plus its exponent in digits, and that bound
    passes the digits cap before Fraction builds 10^exponent."""
    exponent = text.upper().partition("E")[2].lstrip("+-").replace("_", "").lstrip("0")[:7]
    # seven exponent digits pass the cap; Fraction reads no token whose exponent is no number
    require_within("digits", len(text) + (int(exponent) if exponent.isdecimal() else 0),
                   "the digits of a number")
    return Fraction(text)


def _parse_scalar(tok: str):
    """"inf" for inf, oo or infinity in any case, or the token as an exact
    GaussianRational: a complex token a+bj is two decimals, each read exactly."""
    from .cx import GaussianRational
    tok = tok.strip()
    if tok.lower() in ("inf", "oo", "infinity"):
        return "inf"
    try:
        try:
            return GaussianRational(_fraction(tok))
        except ValueError:
            complex(tok)  # the grammar of a+bj and (a+bj), on which the split below relies
        body = tok.strip("()").strip()
        if body[-1] not in "jJ":  # a real number in parentheses
            return GaussianRational(_fraction(body))
        body = body[:-1]
        cut = max((i for i, ch in enumerate(body)
                   if ch in "+-" and body[i - 1:i] not in ("e", "E")), default=0)
        im = body[cut:]
        return GaussianRational(_fraction(body[:cut] or "0"),
                                _fraction(im + "1" if im in ("", "+", "-") else im))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{tok!r} is not a finite rational or complex number") from None


def _load_c_rows(path: str) -> list:
    from .cx import GaussianRational
    try:
        data = json.loads(_read_input(path, "--c-file"), parse_float=_fraction, parse_int=_fraction)
        rows = [[GaussianRational(re, im) for re, im in row] for row in data["C"]]
        # every number was read by _fraction; NaN, Infinity and other JSON values were not
        if any(type(part) is not Fraction for row in rows for x in row for part in (x.re, x.im)):
            raise TypeError("an entry is not a pair of finite numbers")
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(
            f'--c-file must hold {{"C": [[[re, im], ...], ...]}}: {exc!r}') from exc
    return rows


def _parse_scalar_list(text: str) -> list:
    return [_parse_scalar(tok) for tok in text.split(",") if tok.strip()]


def cmd_fermat(args):
    """The function that builds fermat's payload, called where it is rendered."""
    from . import hyperfermat
    if bool(args.w) == bool(args.c_file):
        raise UsageError("provide exactly one of --w or --c-file")
    require_within("ambient dimension", args.n, "n")
    if args.w:
        w = _parse_scalar_list(args.w)
        if "inf" in w:
            raise UsageError("--w entries must be finite")
        if len(set(w)) != len(w):
            raise UsageError("--w entries must be pairwise distinct")
        if len(w) != args.n + 1:
            raise UsageError(f"--w needs n+1 = {args.n + 1} entries")
        # C holds the powers w^(n-2), whose digits the kernel's work grows with; with no
        # entry (n = -1), vandermonde_line refuses the line as it does n = 0 and n = 1
        digits = max((int(k.bit_length() * math.log10(2)) + 1 for x in w
                      for part in (x.re, x.im) for k in (part.numerator, part.denominator)), default=0)
        require_within("digits", (args.n - 2) * digits, "the digits of the powers of w in C")
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
    smoothness = hyperfermat.smoothness_certificate(line)

    def pair(x):  # a GaussianRational as its two floats
        return [float(x.re), float(x.im)]

    def point(pt):
        return "inf" if pt.is_infinity() else pair(pt.value())

    def payload():  # built in _render, where a rational past the float range exits 4
        return {
            "schema": SCHEMA, "command": "fermat",
            "p": args.p, "n": args.n,
            "C": [[pair(x) for x in row] for row in line.rows],
            "generic": True,
            "genus": int(spec.genus),
            "lambdas": [point(pt) for pt in branch.points],
            "pins": [point(pt) for pt in branch.pins],
            "residue_checks": residue_checks,
            "smoothness": smoothness,
        }

    return payload


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
    s.add_argument("--which", type=_int, choices=(1, 2, 3, 4))
    s.add_argument("--format", default="markdown", choices=("json", "markdown", "csv"))
    s.add_argument("--write-golden", metavar="DIR",
                   help="regenerate the golden CSVs into DIR")
    s.set_defaults(func=cmd_tables)

    s = subs.add_parser("fermat", help="construct and verify a hyper-Fermat curve")
    s.add_argument("--p", type=_int, required=True)
    s.add_argument("--n", type=_int, required=True)
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
        sys.stdout.write(_render(args.func(args), args.format))
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so that the
        # interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
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
