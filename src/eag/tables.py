"""The four classification tables, with desk-scale confirmation columns.

Table 1: purely ramified parameters with a unique class of vectors.
Table 2: all parameters with a unique action (genus >= 2).
Table 3: unique actions that are always maximal.
Table 4: unique actions that are never maximal.

Each row carries a deterministic desk check: a small instance run through
the Burnside and Witt counts, the closed-form classifiers, and (for tables
3-4) the independent extension search.  Rendering is cached per process.
"""

from __future__ import annotations

from functools import lru_cache

from . import genvec, maximality
from .record import Record
from .surfaces import EAActionSpec


class TableRow(Record):
    _fields = ("case", "signature", "conditions", "desk_check", "note")

    def __init__(self, case: str, signature: str, conditions: str, desk_check: str,
                 note: str = ""):
        vars(self).update(case=case, signature=signature, conditions=conditions,
                          desk_check=desk_check, note=note)


def _e(p, n, r):
    return genvec.count_pure_classes(p, n, r)


def _h(p, n, rho):
    return genvec.count_unramified_classes(p, n, rho)


def _count(p, n, rho, r):
    return genvec.count_classes(EAActionSpec(p, n, rho, r)).total


def _unique(p, n, rho, r):
    return genvec.is_unique_action(EAActionSpec(p, n, rho, r))


def _maximal_check(p, n, rho, r) -> str:
    spec = EAActionSpec(p, n, rho, r)
    verdict = maximality.is_maximal(spec)
    search = maximality.search_extension_witness(spec)
    tag = "maximal" if verdict.maximal else "non-maximal"
    # a maximal verdict pairs with an empty search, a non-maximal one with a
    # found witness, except in the corner where no witness can exist
    empty = verdict.maximal or verdict.rule == maximality.FROBENIUS_CORNER_RULE
    agree = search.status == ("none" if empty else "found")
    extra = f"; search={search.status}"
    inst = f"(p={p},n={n},rho={rho},r={r})"
    return f"{inst}: {tag}{extra}{'' if agree else ' DISAGREES'}"


@lru_cache(maxsize=None)
def table1() -> tuple[TableRow, ...]:
    rows = [
        ("1", "(0;2^r)", "r even, n=1, p=2", f"e(2,1,6)={_e(2, 1, 6)}"),
        ("2", "(0;2^5)", "r=5, n=3, p=2", f"e(2,3,5)={_e(2, 3, 5)}"),
        ("3", "(0;2^r)", "r in {4,5}, n=2, p=2",
         f"e(2,2,4)={_e(2, 2, 4)}, e(2,2,5)={_e(2, 2, 5)}"),
        ("4", "(0;3^r)", "r in {3,4,5,7}, n=1, p=3",
         f"e(3,1,4)={_e(3, 1, 4)}, e(3,1,7)={_e(3, 1, 7)}"),
        ("5", "(0;5^3)", "r=3, n=1, p=5", f"e(5,1,3)={_e(5, 1, 3)}"),
        ("6", "(0;p^2)", "r=2, n=1, any p",
         f"e(3,1,2)={_e(3, 1, 2)} (ingredient only: genus 0)"),
        ("7", "(0;p^(n+1))", "r=n+1, any n, any p",
         f"e(3,3,4)={_e(3, 3, 4)}, e(5,2,3)={_e(5, 2, 3)}"),
    ]
    return tuple(TableRow(c, s, cond, chk) for c, s, cond, chk in rows)


@lru_cache(maxsize=None)
def table2() -> tuple[TableRow, ...]:
    rows = [
        ("1", "(0;p^r)", "n=r-1",
         f"count(2,4,0,5)={_count(2, 4, 0, 5)}, unique={_unique(2, 4, 0, 5)}", ""),
        ("2", "(rho;-)", "n=1", f"h(2,1,rho=2)={_h(2, 1, 2)}, unique={_unique(2, 1, 2, 0)}", ""),
        ("3", "(rho;-)", "n=2*rho", f"h(2,4,rho=2)={_h(2, 4, 2)}, unique={_unique(2, 4, 2, 0)}", ""),
        ("4", "(rho;p^2)", "n=1, rho>=1",
         f"count(3,1,1,2)={_count(3, 1, 1, 2)}, unique={_unique(3, 1, 1, 2)}", ""),
        ("5", "(rho;p^r)", "n=r+2*rho-1",
         f"count(3,4,1,3)={_count(3, 4, 1, 3)}, unique={_unique(3, 4, 1, 3)}", ""),
        ("6", "(rho;5^3)", "n=1", f"e(5,1,3)={_e(5, 1, 3)}, unique={_unique(5, 1, 0, 3)}", ""),
        ("7", "(rho;2^r)", "n=1, r even", f"e(2,1,6)={_e(2, 1, 6)}, unique={_unique(2, 1, 0, 6)}", ""),
        ("8", "(rho;3^3)", "n=1",
         f"unique={_unique(3, 1, 1, 3)} (rho>=1: the rho=0 instance has genus 1)", ""),
        ("9", "(rho;3^4)", "n=1", f"e(3,1,4)={_e(3, 1, 4)}, unique={_unique(3, 1, 0, 4)}", ""),
        ("10", "(rho;3^5)", "n=1", f"e(3,1,5)={_e(3, 1, 5)}, unique={_unique(3, 1, 0, 5)}", ""),
        ("11", "(rho;3^7)", "n=1", f"e(3,1,7)={_e(3, 1, 7)}, unique={_unique(3, 1, 0, 7)}", ""),
        ("12", "(rho;-)", "n=2*rho-1", f"h(2,3,rho=2)={_h(2, 3, 2)}, unique={_unique(2, 3, 2, 0)}", ""),
        ("13", "(0;2^5)", "n=3", f"e(2,3,5)={_e(2, 3, 5)}, unique={_unique(2, 3, 0, 5)}", ""),
        ("14", "(rho;2^5)", "n=2", f"e(2,2,5)={_e(2, 2, 5)}, unique={_unique(2, 2, 0, 5)}", ""),
        ("15", "(rho;p^2)", "n in {2,2*rho}, rho>=1",
         f"count(3,2,2,2)={_count(3, 2, 2, 2)}, count(3,4,2,2)={_count(3, 4, 2, 2)}, "
         f"unique={_unique(3, 2, 2, 2) and _unique(3, 4, 2, 2)}",
         "h(p,n-1,rho)=1 times e(p,1,2)=1 is the only nonzero term of the rank split"),
        ("16", "(rho;2^3)", "n in {2,3,2*rho+1}, rho>=1",
         f"count(2,2,2,3)={_count(2, 2, 2, 3)}, count(2,3,2,3)={_count(2, 3, 2, 3)}, "
         f"count(2,5,2,3)={_count(2, 5, 2, 3)}, "
         f"unique={_unique(2, 2, 2, 3) and _unique(2, 3, 2, 3) and _unique(2, 5, 2, 3)}",
         "h(2,n-2,rho)=1 times e(2,2,3)=1 is the only nonzero term of the rank split"),
    ]
    return tuple(TableRow(c, s, cond, chk, note) for c, s, cond, chk, note in rows)


@lru_cache(maxsize=None)
def table3() -> tuple[TableRow, ...]:
    rows = [
        ("1", "(0;p^r)", "n=r-1", _maximal_check(2, 4, 0, 5), ""),
        ("2", "(rho;-)", "n=2*rho, p!=2", _maximal_check(3, 4, 2, 0), ""),
        ("3", "(rho;p^2)", "n=1, p!=2", _maximal_check(3, 1, 1, 2), ""),
        ("4", "(rho;p^r)", "n=r+2*rho-1, p*r!=4", _maximal_check(3, 4, 1, 3), ""),
        ("5", "(rho;5^3)", "n=1", _maximal_check(5, 1, 1, 3), ""),
        ("6", "(rho;3^4)", "n=1", _maximal_check(3, 1, 1, 4), ""),
        ("7", "(rho;3^4)", "n=1", "see case 6",
         "duplicate of case 6; treated as one row"),
        ("8", "(rho;3^5)", "n=1", _maximal_check(3, 1, 1, 5), ""),
        ("9", "(rho;3^7)", "n=1", _maximal_check(3, 1, 1, 7), ""),
        ("10", "(0;2^5)", "n=3", _maximal_check(2, 3, 0, 5), ""),
        ("11", "(rho;2^5)", "n=2", _maximal_check(2, 2, 1, 5), ""),
        ("12", "(rho;p^2)", "n in {2,2*rho}, p!=2",
         f"{_maximal_check(3, 2, 2, 2)}; {_maximal_check(5, 4, 2, 2)}", ""),
        ("13", "(rho;2^3)", "n in {2,3,2*rho+1}",
         f"{_maximal_check(2, 2, 2, 3)}; {_maximal_check(2, 3, 2, 3)}; "
         f"{_maximal_check(2, 5, 2, 3)}", ""),
    ]
    return tuple(TableRow(c, s, cond, chk, note) for c, s, cond, chk, note in rows)


@lru_cache(maxsize=None)
def table4() -> tuple[TableRow, ...]:
    rows = [
        ("1", "(rho;-)", "n=2*rho, p=2", _maximal_check(2, 4, 2, 0), ""),
        ("2", "(rho;2^2)", "n=1", _maximal_check(2, 1, 2, 2), ""),
        ("3", "(rho;2^2)", "n=2*rho+1", _maximal_check(2, 3, 1, 2),
         "condition often quoted as n=2*rho-1; the extension "
         "construction requires n=2*rho+1 (see README)"),
        ("4", "(rho;2^r)", "n=1, r even", _maximal_check(2, 1, 1, 4), ""),
        ("5", "(rho;3^3)", "n=1", _maximal_check(3, 1, 1, 3), ""),
        ("6", "(rho;-)", "n=2*rho-1, p=2", _maximal_check(2, 3, 2, 0), ""),
        ("7", "(rho;2^2)", "n in {2,2*rho}",
         f"{_maximal_check(2, 2, 2, 2)}; {_maximal_check(2, 4, 2, 2)}", ""),
    ]
    return tuple(TableRow(c, s, cond, chk, note) for c, s, cond, chk, note in rows)


TABLES = {1: table1, 2: table2, 3: table3, 4: table4}

TABLE_TITLES = {
    1: "Purely ramified parameters with a unique class",
    2: "Unique group actions",
    3: "Maximal unique group actions",
    4: "Non-maximal unique group actions",
}


def render_csv(which: int) -> str:
    rows = TABLES[which]()
    out = ["case,signature,conditions,desk_check,note"]
    for row in rows:
        fields = [row.case, row.signature, row.conditions, row.desk_check, row.note]
        out.append(",".join('"' + f.replace('"', '""') + '"' for f in fields))
    return "\n".join(out) + "\n"


def render_markdown(which: int) -> str:
    rows = TABLES[which]()
    out = [f"### Table {which}: {TABLE_TITLES[which]}", "",
           "| case | signature | conditions | desk check | note |",
           "|---|---|---|---|---|"]
    for row in rows:
        out.append(f"| {row.case} | {row.signature} | {row.conditions} | "
                   f"{row.desk_check} | {row.note} |")
    return "\n".join(out) + "\n"
