import json
import time

import numpy as np
import pytest

from eag import cli, genvec, maximality as mx, orbits
from eag.errors import CAPS, CapExceededError, OutOfDomainError, PreconditionError
from eag.genvec import GeneratingVector, is_unique_action, validate
from eag.surfaces import (EAActionSpec, Signature, ea_genus, solve_extension_params,
                          subgroup_signature)


def _verify_witness(spec, witness):
    assert witness is not None
    assert witness.n_spec.n == spec.n + 1
    assert validate(witness.vector)
    assert subgroup_signature(witness.n_spec, witness.vector,
                              witness.subgroup_basis) == spec.sig
    assert ea_genus(witness.n_spec) == ea_genus(spec)


def _argv(p, n, rho, r):
    return ["maximal", "--p", str(p), "--n", str(n), "--rho", str(rho), "--r", str(r)]


def test_frobenius_representable_examples():
    assert mx.frobenius_representable(3, 5) == (-1, 7)
    assert mx.frobenius_representable(7, 5) is None
    assert mx.frobenius_representable(3, 2) is not None
    with pytest.raises(PreconditionError):
        mx.frobenius_representable(2, 5)
    with pytest.raises(PreconditionError):
        mx.frobenius_representable(5, 1)


@pytest.mark.parametrize("call", [genvec.count_classes, is_unique_action, mx.is_maximal,
                                  mx.search_extension_witness])
def test_the_library_refuses_the_trivial_group(call):
    # C_2^0 with (2; -) has genus 2, so only n >= 1 keeps it out: count_classes said 1
    # class by witt, and the search found a witness
    with pytest.raises(OutOfDomainError, match="needs n >= 1"):
        call(EAActionSpec(2, 0, 2, 0))


def test_known_verdict_examples():
    assert mx.is_maximal(EAActionSpec(2, 3, 0, 5)).maximal
    v = mx.is_maximal(EAActionSpec(2, 1, 3, 2))
    assert not v.maximal
    # the p = 2 construction: one entry x in H = <x>, then the 2 rho + 2
    # entries h + y with h = 0, ..., 0 and a closing h = x
    assert v.witness.n_spec == EAActionSpec(2, 2, 0, 9)
    assert list(v.witness.vector.elliptic) == [(1, 0)] + [(0, 1)] * 7 + [(1, 1)]
    assert mx.is_maximal(EAActionSpec(7, 1, 2, 0)).maximal


def test_rejects_non_unique_specs():
    with pytest.raises(PreconditionError):
        mx.is_maximal(EAActionSpec(3, 1, 1, 6))


def test_witness_shapes_match_the_constructions():
    # (rho;3^3) n=1 with rho = 1 mod 3: images (y, xy, xy, x, ..., x)
    w = mx.is_maximal(EAActionSpec(3, 1, 4, 3)).witness
    assert w.n_spec == EAActionSpec(3, 2, 0, 7)
    assert list(w.vector.elliptic) == \
        [(0, 1), (1, 1), (1, 1)] + [(1, 0)] * 4
    # rho = 0 mod 3 and rho = 2 mod 3 branches
    w = mx.is_maximal(EAActionSpec(3, 1, 3, 3)).witness
    assert list(w.vector.elliptic)[:3] == [(0, 1), (1, 2), (2, 0)]
    w = mx.is_maximal(EAActionSpec(3, 1, 2, 3)).witness
    assert list(w.vector.elliptic)[:3] == [(0, 1), (2, 1), (2, 1)]
    # the p = 2 construction: overgroup (0; 2^(2*rho + 2 + r/2)) of rank n + 1
    for rho in (1, 2, 3):
        w = mx.is_maximal(EAActionSpec(2, 2 * rho + 1, rho, 2)).witness
        assert w.n_spec == EAActionSpec(2, 2 * rho + 2, 0, 2 * rho + 3)
    # r/2 > n: the entries in H pad with its first unit x, and the closing
    # h is their sum
    w = mx.is_maximal(EAActionSpec(2, 1, 1, 6)).witness
    assert w.n_spec == EAActionSpec(2, 2, 0, 7)
    assert list(w.vector.elliptic) == [(1, 0)] * 3 + [(0, 1)] * 3 + [(1, 1)]
    w = mx.is_maximal(EAActionSpec(2, 1, 1, 4)).witness
    assert w.n_spec == EAActionSpec(2, 2, 0, 6)
    assert list(w.vector.elliptic) == [(1, 0)] * 2 + [(0, 1)] * 4
    # n > r/2: the units left over sit in the entries h + z
    w = mx.is_maximal(EAActionSpec(2, 3, 1, 2)).witness
    assert w.n_spec == EAActionSpec(2, 4, 0, 5)
    assert list(w.vector.elliptic) == [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1),
                                       (0, 0, 1, 1), (1, 1, 1, 1)]
    assert w.subgroup_basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def test_every_nonmaximal_verdict_ships_a_valid_witness():
    specs = [
        EAActionSpec(2, 1, 2, 2), EAActionSpec(2, 1, 3, 2), EAActionSpec(2, 1, 4, 2),
        EAActionSpec(2, 1, 1, 4), EAActionSpec(2, 1, 2, 6), EAActionSpec(2, 1, 0, 8),
        EAActionSpec(3, 1, 1, 3), EAActionSpec(3, 1, 2, 3), EAActionSpec(3, 1, 4, 3),
        EAActionSpec(2, 4, 2, 0), EAActionSpec(2, 6, 3, 0),
        EAActionSpec(2, 3, 2, 0), EAActionSpec(2, 5, 3, 0),
        EAActionSpec(2, 3, 1, 2), EAActionSpec(2, 5, 2, 2), EAActionSpec(2, 7, 3, 2),
        EAActionSpec(2, 1, 2, 0), EAActionSpec(2, 1, 5, 0),
        EAActionSpec(2, 2, 1, 2), EAActionSpec(2, 2, 3, 2), EAActionSpec(2, 6, 3, 2),
        EAActionSpec(3, 1, 3, 0), EAActionSpec(3, 1, 6, 0),
        EAActionSpec(5, 1, 5, 0), EAActionSpec(7, 1, 7, 0), EAActionSpec(13, 1, 13, 0),
    ]
    for spec in specs:
        verdict = mx.is_maximal(spec)
        assert not verdict.maximal, spec
        _verify_witness(spec, verdict.witness)


def test_frobenius_corner_has_no_witness():
    # representable only through b = 1, whose overgroup signature is
    # inadmissible: the verdict follows the criterion, the witness is absent
    for spec in (EAActionSpec(5, 1, 3, 0), EAActionSpec(7, 1, 4, 0)):
        verdict = mx.is_maximal(spec)
        assert not verdict.maximal
        assert verdict.witness is None
        assert "no witness" in verdict.rule
        # and indeed no extension exists
        assert mx.search_extension_witness(spec).status == "none"


def test_search_agrees_with_closed_form():
    cases = [
        EAActionSpec(2, 4, 0, 5), EAActionSpec(5, 1, 1, 3), EAActionSpec(3, 1, 2, 4),
        EAActionSpec(3, 1, 1, 5), EAActionSpec(3, 1, 1, 7), EAActionSpec(2, 3, 0, 5),
        EAActionSpec(2, 2, 2, 5), EAActionSpec(3, 4, 2, 0), EAActionSpec(3, 3, 2, 0),
        EAActionSpec(3, 1, 1, 2), EAActionSpec(5, 1, 1, 2), EAActionSpec(3, 4, 1, 3),
        EAActionSpec(2, 1, 2, 2), EAActionSpec(2, 1, 1, 4), EAActionSpec(3, 1, 1, 3),
        EAActionSpec(2, 4, 2, 0), EAActionSpec(2, 3, 2, 0), EAActionSpec(2, 3, 1, 2),
        EAActionSpec(2, 1, 3, 0), EAActionSpec(3, 1, 3, 0), EAActionSpec(7, 1, 2, 0),
    ]
    for spec in cases:
        verdict = mx.is_maximal(spec)
        outcome = mx.search_extension_witness(spec)
        if verdict.maximal:
            assert outcome.status == "none", spec
        else:
            assert outcome.status == "found", spec
            _verify_witness(spec, outcome.witness)


def test_search_raises_when_an_admissible_row_space_fails_the_round_trip(monkeypatch):
    # every admissible row space is a witness; a failed round trip is a bug
    # the search must report, not a candidate to skip
    monkeypatch.setattr(mx, "subgroup_signature", lambda *args: Signature(0, ()))
    with pytest.raises(AssertionError, match="round-trip"):
        mx.search_extension_witness(EAActionSpec(2, 1, 3, 2))


def test_witness_round_trip_failure_raises(monkeypatch):
    # a construction whose round trip fails is a bug, never a reason to fall
    # back to "no witness can exist"
    monkeypatch.setattr(mx, "subgroup_signature", lambda *args: Signature(0, ()))
    with pytest.raises(AssertionError, match="round-trip"):
        mx.is_maximal(EAActionSpec(3, 1, 2, 0))


def test_unramified_cyclic_odd_closed_form():
    # a witness exists iff some pair (a, b) of rho = a p + b (p-1)/2 + 1 has
    # b != 1 and either b >= 3 or a >= 0 (a hyperbolic pair in the overgroup)
    witnessed = corners = 0
    for p in (3, 5, 7, 11, 13):
        for rho in range(2, 61):
            spec = EAActionSpec(p, 1, rho, 0)
            pairs = list(mx._frobenius_pairs(p, rho))
            admits = any(b != 1 and (b >= 3 or a >= 0) for a, b in pairs)
            verdict = mx.is_maximal(spec)
            assert verdict.maximal == (not pairs), spec
            assert (verdict.witness is not None) == admits, spec
            assert (verdict.rule == mx.FROBENIUS_CORNER_RULE) == (bool(pairs) and not admits), spec
            if admits:
                _verify_witness(spec, verdict.witness)
                witnessed += 1
            else:
                corners += bool(pairs)
    assert witnessed > 200 and corners >= 2


def test_search_witness_differs_but_roundtrips():
    # the search may settle on a different overgroup signature than the
    # construction; both must round-trip
    spec = EAActionSpec(2, 1, 3, 2)
    built = mx.is_maximal(spec).witness
    found = mx.search_extension_witness(spec).witness
    _verify_witness(spec, built)
    _verify_witness(spec, found)


def test_is_maximal_witness_entry_point():
    spec = EAActionSpec(3, 1, 2, 3)
    _verify_witness(spec, mx.is_maximal(spec).witness)


def test_unramified_cyclic_p2_small_genus():
    # r = 0: the unit x of H sits in the second entry x + y, then zeros, and
    # the closing entry is x + y again
    spec = EAActionSpec(2, 1, 2, 0)
    v = mx.is_maximal(spec)
    _verify_witness(spec, v.witness)
    assert v.witness.n_spec == EAActionSpec(2, 2, 0, 6)
    assert list(v.witness.vector.elliptic) == [(0, 1), (1, 1), (0, 1), (0, 1), (0, 1), (1, 1)]


def _unique_specs(primes, rs=range(11)):
    # every unique spec with rho <= 8 and the given primes and branch counts
    for p in primes:
        for rho in range(9):
            for r in rs:
                for n in range(1, 2 * rho + r + 1):
                    spec = EAActionSpec(p, n, rho, r)
                    genus = ea_genus(spec)
                    if genus.denominator == 1 and genus >= 2 and is_unique_action(spec):
                        yield spec


def test_p2_even_r_non_maximal_iff_within_the_construction():
    # the p = 2 construction reaches every n <= 2 rho + r/2; every other
    # p = 2 unique action with r even sits at the rank bound n = 2 rho + r - 1
    extended = maximal = 0
    for spec in _unique_specs((2,), range(0, 11, 2)):
        n, rho, r = spec.n, spec.rho, spec.r
        verdict = mx.is_maximal(spec)
        outcome = mx.search_extension_witness(spec)
        if n <= 2 * rho + r // 2:
            assert not verdict.maximal, spec
            assert verdict.witness.n_spec == EAActionSpec(2, n + 1, 0, 2 * rho + 2 + r // 2)
            _verify_witness(spec, verdict.witness)
            assert outcome.status == "found", spec
            extended += 1
        else:
            assert verdict.maximal and n == 2 * rho + r - 1, spec
            assert outcome.status == "none", spec
            maximal += 1
    assert (extended, maximal) == (87, 35)


def test_rank_split_families_are_decided():
    # (rho; p^2) with n in {2, 2 rho} and (rho; 2^3) with n in {2, 3, 2 rho + 1},
    # unique by the rank split but in none of the printed rows
    extended = maximal = 0
    for spec in _unique_specs((2, 3, 5, 7, 11, 13), (2, 3)):
        p, n, rho, r = spec.p, spec.n, spec.rho, spec.r
        if n not in ((2, 2 * rho) if r == 2 else (2, 3, 2 * rho + 1) if p == 2 else ()):
            continue
        verdict = mx.is_maximal(spec)
        outcome = mx.search_extension_witness(spec)
        if verdict.maximal:
            assert "p does not divide r" in verdict.rule, spec
            assert outcome.status == "none", spec
            maximal += 1
        else:
            assert p == 2 and r == 2, spec
            _verify_witness(spec, verdict.witness)
            assert outcome.status == "found", spec
            extended += 1
    assert (maximal, extended) == (98, 15)


def test_dispatch_covers_every_unique_action():
    # wide sweep: every unique action inside the supported prime range gets
    # a verdict, and every shipped witness verifies
    from eag.errors import OutOfDomainError

    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 13):
            for rho in range(0, 7):
                for r in range(0, 11):
                    spec = EAActionSpec(p, n, rho, r)
                    try:
                        if not is_unique_action(spec):
                            continue
                    except OutOfDomainError:
                        continue
                    verdict = mx.is_maximal(spec)
                    checked += 1
                    if r % p:
                        # obstruction 1: no index-p extension parameters at all
                        assert verdict.maximal and "p does not divide r" in verdict.rule, spec
                        assert solve_extension_params(p, rho, r) == [], spec
                    if not verdict.maximal:
                        if verdict.witness is None:
                            assert "no witness" in verdict.rule, spec
                        else:
                            _verify_witness(spec, verdict.witness)
                    # the independent search finds nothing exactly when the
                    # verdict is maximal or falls in the Frobenius corner
                    outcome = mx.search_extension_witness(spec)
                    corner = verdict.rule == mx.FROBENIUS_CORNER_RULE
                    assert (outcome.status == "none") == (verdict.maximal or corner), spec
                    if outcome.status == "found":
                        _verify_witness(spec, outcome.witness)
    assert checked >= 400


def test_search_finds_the_large_p2_extensions():
    # (rho;-) with n in {2 rho - 1, 2 rho} and (rho;2^2) with n = 2 rho + 1:
    # one overgroup signature each, with up to 3.7e80 elliptic multisets
    specs = [EAActionSpec(2, n, rho, 0) for rho in range(3, 9)
             for n in (2 * rho - 1, 2 * rho)]
    specs += [EAActionSpec(2, 2 * rho + 1, rho, 2) for rho in range(2, 9)]
    assert len(specs) == 19
    for spec in specs:
        outcome = mx.search_extension_witness(spec)
        assert outcome.status == "found", spec
        _verify_witness(spec, outcome.witness)


def test_search_cap_exits_4_at_once(monkeypatch, capsys):
    # the row spaces of (0; 2^r) grow about 4x for every 4 added to r, and
    # r = 200 would run for ages; past a low cap the search stops at once,
    # while a search that finds its witness in the first block stays found
    monkeypatch.setitem(CAPS, "elements", 4096)
    start = time.process_time()
    code = cli.main(["maximal", "--p", "2", "--n", "1", "--rho", "0", "--r", "200", "--search"])
    assert code == cli.EXIT_CAP
    assert "rejected: 4097, above the elements cap of 4096" in capsys.readouterr().err
    assert time.process_time() - start < 2.0
    with pytest.raises(CapExceededError):
        mx.search_extension_witness(EAActionSpec(2, 1, 0, 200))
    spec = EAActionSpec(2, 1, 3, 2)
    outcome = mx.search_extension_witness(spec)
    assert outcome.status == "found"
    _verify_witness(spec, outcome.witness)


def _witness_from_json(data):
    vector = data["vector"]
    return mx.ExtensionWitness(
        EAActionSpec(**data["n_spec"]),
        GeneratingVector(vector["p"], vector["n"], vector["hyperbolic"], vector["elliptic"]),
        tuple(map(tuple, data["subgroup_basis"])))


def test_search_at_rho_100000_finds_its_witness(capsys):
    # (n + 1)(2 rho + r + 2) = 400,004 ints, within the witness ints cap
    spec = EAActionSpec(3, 1, 100_000, 0)
    code = cli.main(["maximal", "--p", "3", "--n", "1", "--rho", "100000", "--r", "0", "--search"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["search"]["status"] == "found"
    for data in (payload["witness"], payload["search"]["witness"]):
        _verify_witness(spec, _witness_from_json(data))


@pytest.mark.parametrize("argv", [
    [*_argv(2, 1, 10 ** 8, 0)], [*_argv(2, 1, 10 ** 8, 0), "--search"],
    [*_argv(3, 1, 10 ** 8, 0)], [*_argv(3, 1, 10 ** 8, 0), "--search"],
    # maximal by the rank bound, and 3^n would take minutes to compute
    [*_argv(3, 2 * 10 ** 8 - 1, 10 ** 8, 0), "--search"],
])
def test_witness_size_cap_exits_4_at_once(argv, capsys):
    # at rho = 10^8 the closed-form witness alone would hold 2 * 10^8
    # entries; the cap refuses before any arithmetic
    start = time.process_time()
    assert cli.main(argv) == cli.EXIT_CAP
    err = capsys.readouterr().err
    assert err.startswith("feasibility cap exceeded: a witness's (n + 1)(2 rho + r + 2) ints")
    assert f"above the witness ints cap of {CAPS['witness ints']}" in err
    assert "Traceback" not in err
    assert time.process_time() - start < 1.0


def test_witness_size_cap_is_the_largest_overgroup_vector():
    # the p = 2 construction reaches the bound (n + 1)(2 rho + r + 2): at
    # the cap both tracks run, and two more branch points pass it
    cap = CAPS["witness ints"]
    spec = EAActionSpec(2, 1, (cap // 2 - 2) // 2, 0)
    assert (spec.n + 1) * (2 * spec.rho + 2) == cap
    witness = mx.is_maximal(spec).witness
    assert len(witness.vector.elliptic) * (spec.n + 1) == cap
    past = EAActionSpec(2, 1, spec.rho, 2)
    with pytest.raises(CapExceededError):
        mx.is_maximal(past)
    with pytest.raises(CapExceededError):
        mx.search_extension_witness(past)


def test_search_at_rho_1500_is_quick(capsys):
    # the witness is the first row space tried; a dense basis of V
    # (dimension 1,502) would cost seconds
    start = time.process_time()
    assert cli.main([*_argv(3, 1, 1500, 0), "--search"]) == 0
    assert time.process_time() - start < 0.5
    assert json.loads(capsys.readouterr().out)["search"]["status"] == "found"


def test_witness_check_reads_a_bad_witness_as_a_bug(monkeypatch):
    # subgroup_signature validates the vector and the basis; a construction
    # that fails either is a bug, also under python -O
    def refuse(*args):
        raise PreconditionError("generating vector is not valid for the overgroup")

    monkeypatch.setattr(mx, "subgroup_signature", refuse)
    for run in (mx.is_maximal, mx.search_extension_witness):
        with pytest.raises(AssertionError, match="witness invalid"):
            run(EAActionSpec(2, 1, 3, 2))


def _oracle_row_spaces(p, tau, s, n, v):
    # the dense echelon basis of V times the oracles' RREF coordinates
    basis = np.eye(2 * tau + s, dtype=np.int64)[:2 * tau + max(s - 1, 0)]
    z = np.arange(2 * tau, len(basis))
    basis[z, z + 1] = p - 1
    complement = np.delete(basis, np.flatnonzero(v)[0], axis=0)
    return [rows for block in orbits._subspace_blocks(p, complement, n)
            for rows in block.tolist()]


@pytest.mark.parametrize("p,tau,l,m,n", [(2, 0, 6, 1, 1), (2, 1, 4, 0, 2), (3, 0, 3, 2, 2),
                                         (3, 1, 2, 1, 1), (5, 0, 2, 2, 2), (2, 0, 4, 3, 3)])
def test_row_spaces_follow_the_oracle_enumeration(p, tau, l, m, n):
    # every row space, rejected or not, in the order of orbits._subspace_blocks
    for v in mx._codewords(p, tau, l, m):
        got = list(mx._row_spaces(p, tau, l + m, n, v))
        assert got == _oracle_row_spaces(p, tau, l + m, n, v), v
        assert len(got) == orbits.gaussian_binomial(2 * tau + l + m - 2, n, p)
