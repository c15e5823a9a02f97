import pytest

from eag import maximality, tables
from eag.maximality import SearchOutcome


def _search_returns(monkeypatch, status):
    monkeypatch.setattr(maximality, "search_extension_witness",
                        lambda spec: SearchOutcome(status, None))


@pytest.mark.parametrize("status", ["found"])
def test_maximal_check_accepts_non_maximal_with_witness_search(monkeypatch, status):
    _search_returns(monkeypatch, status)
    assert "DISAGREES" not in tables._maximal_check(2, 1, 1, 4)


def test_maximal_check_flags_non_maximal_with_empty_search(monkeypatch):
    _search_returns(monkeypatch, "none")
    assert tables._maximal_check(2, 1, 1, 4).endswith("search=none DISAGREES")


def test_maximal_check_frobenius_corner_pairs_with_empty_search(monkeypatch):
    # (5, 1, 3, 0) is non-maximal by the corner rule, which admits no witness
    assert "DISAGREES" not in tables._maximal_check(5, 1, 3, 0)
    _search_returns(monkeypatch, "found")
    assert "DISAGREES" in tables._maximal_check(5, 1, 3, 0)


def test_maximal_check_flags_maximal_with_found_witness(monkeypatch):
    _search_returns(monkeypatch, "found")
    assert "DISAGREES" in tables._maximal_check(2, 4, 0, 5)
