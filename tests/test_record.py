"""The package's value classes: plain frozen records on ``eag.record.Record``.

Each record keeps what a frozen dataclass gave it: equality by its fields
and only within its class, a hash consistent with that equality, no
assignment or deletion, copies and pickles equal to the original, and a
``Name(field=value, ...)`` repr, pinned here byte for byte as the dataclass
form printed it.  ``GaussianRational`` keeps its own equality, numeric hash
and repr.
"""

import ast
import copy
import importlib
import inspect
import pickle
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eag import genvec, grouptable, hyperfermat, maximality, tables
from eag.cx import ONE, ZERO, GaussianRational, Mobius, ProjPoint
from eag.record import Record
from eag.surfaces import EAActionSpec, ExtensionParams, Signature

SRC = Path(__file__).resolve().parent.parent / "src" / "eag"


def _records():
    """{class name: (a record, one of the same class that differs from it)}."""
    line = hyperfermat.vandermonde_line([0, 1, 2, 3])
    group = grouptable.cyclic(3)
    verdict = maximality.is_maximal(EAActionSpec(2, 1, 1, 4))  # non-maximal, by a witness
    half = GaussianRational(Fraction(1, 2), Fraction(-3))
    vector = genvec.GeneratingVector
    return {
        "Signature": (Signature(0, (2, 3, 5)), Signature(0, (2, 3, 7))),
        "EAActionSpec": (EAActionSpec(2, 3, 0, 5), EAActionSpec(2, 3, 1, 5)),
        "ExtensionParams": (ExtensionParams(1, 3, 1, 2), ExtensionParams(0, 3, 1, 2)),
        "GeneratingVector": (vector(2, 2, [((1, 0), (0, 0))], [(0, 1), (0, 1)]),
                             vector(2, 2, [((1, 0), (0, 1))], [(0, 1), (0, 1)])),
        "UnramifiedAdjudication": (genvec.unramified_adjudication(3, 2),
                                   genvec.unramified_adjudication(3, 1)),
        "ClassCountReport": (genvec.count_classes(EAActionSpec(3, 2, 1, 3)),
                             genvec.count_classes(EAActionSpec(3, 2, 0, 3))),
        "ExtensionWitness": (verdict.witness,
                             maximality.is_maximal(EAActionSpec(2, 1, 0, 6)).witness),
        "MaximalityVerdict": (verdict, maximality.is_maximal(EAActionSpec(3, 4, 2, 0))),
        "SearchOutcome": (maximality.search_extension_witness(EAActionSpec(2, 1, 0, 10)),
                          maximality.search_extension_witness(EAActionSpec(5, 1, 2, 3))),
        "GaussianRational": (half, GaussianRational(Fraction(1, 2))),
        "ProjPoint": (ProjPoint.finite(half), ProjPoint.infinity()),
        "Mobius": (Mobius(ONE, half, ZERO, ONE), Mobius(ONE, ZERO, ZERO, ONE)),
        "LineMatrix": (line, hyperfermat.vandermonde_line([0, 1, 2, 4])),
        "BranchSet": (hyperfermat.branch_points(line, [0, 1, "inf"]),
                      hyperfermat.branch_points(line, [0, 2, "inf"])),
        "HyperFermatSpec": (hyperfermat.HyperFermatSpec(3, 3, line),
                            hyperfermat.HyperFermatSpec(5, 3, line)),
        "SmoothnessReport": (hyperfermat.SmoothnessReport(3, 3, 2, 0.0, 2, 1e-9, (), 7),
                             hyperfermat.SmoothnessReport(3, 3, 2, 0.0, 2, 1e-9, ("x",), 7)),
        "TableVector": (grouptable.TableVector(group, (1, 1, 1)),
                        grouptable.TableVector(group, (1, 2))),
        "TableRow": (tables.TableRow("a", "(0; p^r)", "p odd", "ok"),
                     tables.TableRow("a", "(0; p^r)", "p odd", "ok", "n")),
    }


RECORDS = _records()

#: the reprs that the frozen dataclasses printed for RECORDS' first members, a
#: Cayley table's address written as 0x
REPRS = {
    "Signature": "Signature(orbit_genus=0, periods=(2, 3, 5))",
    "EAActionSpec": "EAActionSpec(p=2, n=3, rho=0, r=5)",
    "ExtensionParams": "ExtensionParams(tau=1, s=3, l=1, m=2)",
    "GeneratingVector": ("GeneratingVector(p=2, n=2, hyperbolic=(((1, 0), (0, 0)),), "
                         "elliptic=((0, 1), (0, 1)))"),
    "UnramifiedAdjudication": (
        "UnramifiedAdjudication(p=3, rho=2, computed_unique_ranks=(0, 1, 3, 4), "
        "stated_unique_ranks=(0, 1, 2), agrees=False, note='stated unique ranks (0, 1, 2) "
        "disagree with computed (0, 1, 3, 4); the computed set {0, 1, 2*rho-1, 2*rho} is "
        "used throughout')"),
    "ClassCountReport": (
        "ClassCountReport(p=3, n=2, rho=1, r=3, total=2, method='burnside+witt', "
        "e_used=((2, 1), (1, 1)), h_used=((0, 1), (1, 1)), flags=())"),
    "ExtensionWitness": (
        "ExtensionWitness(n_spec=EAActionSpec(p=2, n=2, rho=0, r=6), "
        "vector=GeneratingVector(p=2, n=2, hyperbolic=(), "
        "elliptic=((1, 0), (1, 0), (0, 1), (0, 1), (0, 1), (0, 1))), "
        "subgroup_basis=((1, 0),))"),
    "MaximalityVerdict": (
        "MaximalityVerdict(spec=EAActionSpec(p=2, n=1, rho=1, r=4), maximal=False, "
        "witness=ExtensionWitness(n_spec=EAActionSpec(p=2, n=2, rho=0, r=6), "
        "vector=GeneratingVector(p=2, n=2, hyperbolic=(), "
        "elliptic=((1, 0), (1, 0), (0, 1), (0, 1), (0, 1), (0, 1))), "
        "subgroup_basis=((1, 0),)), rule='non-maximal: p=2, r even, n<=2*rho+r/2')"),
    "SearchOutcome": (
        "SearchOutcome(status='found', witness=ExtensionWitness("
        "n_spec=EAActionSpec(p=2, n=2, rho=0, r=7), vector=GeneratingVector(p=2, n=2, "
        "hyperbolic=(), elliptic=((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 1), (0, 1))), "
        "subgroup_basis=((1, 0),)))"),
    "GaussianRational": "(1/2-3i)",
    "ProjPoint": "ProjPoint(num=(1/2-3i), den=(1+0i))",
    "Mobius": "Mobius(a=(1+0i), b=(1/2-3i), c=(0+0i), d=(1+0i))",
    "LineMatrix": ("LineMatrix(rows=(((1+0i), (1+0i), (1+0i), (1+0i)), "
                   "((0+0i), (1+0i), (2+0i), (3+0i))))"),
    "BranchSet": (
        "BranchSet(points=(ProjPoint(num=(0+0i), den=(1+0i)), "
        "ProjPoint(num=(1+0i), den=(1+0i)), ProjPoint(num=(1+0i), den=(0+0i)), "
        "ProjPoint(num=(-3/2+0i), den=(1/2+0i))), u1=ProjPoint(num=(3/2+0i), den=(1+0i)))"),
    "HyperFermatSpec": ("HyperFermatSpec(p=3, n=3, line=LineMatrix(rows=(((1+0i), (1+0i), "
                        "(1+0i), (1+0i)), ((0+0i), (1+0i), (2+0i), (3+0i)))))"),
    "SmoothnessReport": (
        "SmoothnessReport(p=3, n=3, samples=2, max_equation_residual=0.0, "
        "min_jacobian_rank=2, max_minor_identity_error=1e-09, failures=(), seed=7)"),
    "TableVector": ("TableVector(group=<eag.grouptable.GroupTable object at 0x>, "
                    "elliptic=(1, 1, 1))"),
    "TableRow": ("TableRow(case='a', signature='(0; p^r)', conditions='p odd', "
                 "desk_check='ok', note='')"),
}


def _record_classes():
    """Every class of ``src/eag`` that derives from Record, by name."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"eag.{path.stem}")
        for name, value in vars(module).items():
            if (inspect.isclass(value) and issubclass(value, Record) and value is not Record
                    and value.__module__ == module.__name__):
                found[name] = value
    return found


def _rebuilt(record):
    """The record built again from its fields, passed by keyword."""
    return type(record)(**{name: getattr(record, name) for name in record._fields})


def test_every_record_class_is_covered():
    assert set(_record_classes()) == set(RECORDS) == set(REPRS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_the_constructor_parameters(name):
    cls = _record_classes()[name]
    assert list(cls._fields) == list(inspect.signature(cls.__init__).parameters)[1:]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash_follow_the_fields(name):
    record, other = RECORDS[name]
    again = _rebuilt(record)
    assert again is not record and again == record and not again != record
    assert hash(again) == hash(record) and len({record, again}) == 1
    assert record != other and not record == other
    assert len({record, other}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_of_another_class_with_equal_fields_is_unequal(name):
    record = RECORDS[name][0]
    twin_class = type("Twin", (Record,), {"_fields": record._fields})
    twin = object.__new__(twin_class)
    vars(twin).update(vars(record))
    assert record != twin and twin != record
    assert not record == twin and not twin == record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_and_deletion_raise(name):
    record = RECORDS[name][0]
    before = dict(vars(record))
    for field in (*record._fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert vars(record) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_and_pickles_are_equal(name):
    record = RECORDS[name][0]
    copies = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    if name == "TableVector":
        # a Cayley table compares by identity, so only a shallow copy keeps it
        assert copies[0] == record
        for twin in copies[1:]:
            assert twin.elliptic == record.elliptic
            assert np.array_equal(twin.group.array, record.group.array)
        return
    for twin in copies:
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
        assert vars(twin) == vars(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_reprs_are_the_dataclass_reprs(name):
    assert re.sub(r" at 0x[0-9a-f]+", " at 0x", repr(RECORDS[name][0])) == REPRS[name]


def test_the_hyper_fermat_genus_is_no_field():
    spec = RECORDS["HyperFermatSpec"][0]
    assert spec.genus == hyperfermat.hyper_fermat_genus(3, 3) and "genus" not in repr(spec)
    other = _rebuilt(spec)
    vars(other)["genus"] = Fraction(-1)  # equality and hash read the fields alone
    assert other == spec and hash(other) == hash(spec)


def test_no_module_imports_dataclasses():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")]
    assert found == []
