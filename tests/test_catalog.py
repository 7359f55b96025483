"""Catalog loading, validation and tamper evidence."""

import json
from pathlib import Path

import pytest

from cubicmoduli import catalog
from cubicmoduli.errors import ContractViolationError, ParseError

EXPECTED_IDS = [
    "alt4-klein",
    "alt5-sixpoint",
    "c2-sign",
    "c3-balanced",
    "c3-double",
    "c3xc3",
    "c5-regular",
    "family-43",
    "fermat-cyclic",
    "klein-four",
    "psl2-11",
    "trivial",
    "z11-klein",
    "z11-z5-klein",
    "z3-z4",
]


def test_entry_ids():
    assert catalog.entry_ids() == EXPECTED_IDS


def test_small_entries_load_and_validate():
    expected_orders = {
        "trivial": 1,
        "c2-sign": 2,
        "c3-balanced": 3,
        "c3-double": 3,
        "c3xc3": 9,
        "c5-regular": 5,
        "family-43": 9,
        "fermat-cyclic": 3,
        "klein-four": 4,
        "z3-z4": 12,
        "alt4-klein": 12,
        "alt5-sixpoint": 60,
        "z11-klein": 11,
        "z11-z5-klein": 55,
    }
    for name, order in expected_orders.items():
        group = catalog.load(name)
        assert group.order == order, name


def test_entry_text_round_trip():
    from cubicmoduli.cyclo import parse_cyclo
    from cubicmoduli.linalg import Matrix

    for name in EXPECTED_IDS:
        entry = catalog.load_entry(name)
        for g in entry.generators:
            reparsed = Matrix([
                [parse_cyclo(str(g[i, j])) for j in range(5)]
                for i in range(5)
            ])
            assert reparsed == g


def test_notes_and_descriptions_present():
    for name in EXPECTED_IDS:
        entry = catalog.load_entry(name)
        assert entry.description
        assert len(entry.notes) == len(entry.generators)
        assert all(entry.notes)


def test_unknown_entry():
    with pytest.raises(FileNotFoundError):
        catalog.load("no-such-entry")


def test_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        catalog.load(str(bad))


def test_missing_field(tmp_path):
    doc = json.loads(Path(catalog.load_entry("c2-sign").path).read_text())
    del doc["contract"]["order"]
    bad = tmp_path / "c2-broken.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        catalog.load(str(bad))


def _write_variant(tmp_path, name, change):
    doc = json.loads(Path(catalog.load_entry(name).path).read_text())
    change(doc)
    path = tmp_path / f"{name}-variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _zero_denominator_generator(doc):
    doc["generators"][0][0][0] = "1/0"


def _zero_denominator_form(doc):
    doc["contract"]["fixed_form"] = "x0^3/0"


def _no_generators(doc):
    doc["generators"], doc["notes"] = [], []


def _string_notes(doc):
    # two characters for two generators: not one note per generator
    doc["notes"] = "ab"


def _number_notes(doc):
    doc["notes"] = [1, 2]


@pytest.mark.parametrize("name, change, message", [
    ("c2-sign", _zero_denominator_generator, "division by zero"),
    ("z11-klein", _zero_denominator_form, "division by zero"),
    ("c2-sign", _no_generators, "at least one generator"),
    ("alt4-klein", _string_notes, "notes must be a list"),
    ("alt4-klein", _number_notes, "notes must be a list"),
], ids=["generator", "fixed-form", "no-generators", "string-notes",
        "number-notes"])
def test_malformed_entry_is_a_parse_error(tmp_path, name, change, message):
    with pytest.raises(ParseError, match=message):
        catalog.load_entry(_write_variant(tmp_path, name, change))


def test_each_distinct_entry_string_is_parsed_once(monkeypatch):
    real = catalog.parse_cyclo
    calls = []

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(catalog, "parse_cyclo", counted)
    for name in catalog.entry_ids():
        calls.clear()
        entry = catalog.load_entry(name)
        assert len(calls) == len(set(calls)), name
        strings = json.loads(Path(entry.path).read_text())["generators"]
        assert set(calls) == {v for g in strings for row in g for v in row}


def test_non_string_entry_is_a_parse_error(tmp_path):
    def numeric(doc):
        doc["generators"][0][0][0] = 1

    with pytest.raises(ParseError, match="expected string"):
        catalog.load_entry(_write_variant(tmp_path, "c2-sign", numeric))


def test_tampered_order(tmp_path):
    doc = json.loads(Path(catalog.load_entry("c2-sign").path).read_text())
    doc["contract"]["order"] = 3
    bad = tmp_path / "c2-tampered.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ContractViolationError) as exc:
        catalog.load(str(bad))
    assert "order" in str(exc.value)


def test_tampered_generator_breaks_character(tmp_path):
    doc = json.loads(Path(catalog.load_entry("c3-balanced").path).read_text())
    # turn the profile (1,w,w,w^2,w^2) into (1,w^2,w,w^2,w^2): same
    # order, different trace row
    rows = doc["generators"][0]
    rows[1][1] = "E(3)^2"
    bad = tmp_path / "c3-tampered.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ContractViolationError) as exc:
        catalog.load(str(bad))
    assert "traces" in str(exc.value)


def test_tampered_fixed_form(tmp_path):
    doc = json.loads(Path(catalog.load_entry("z11-klein").path).read_text())
    doc["contract"]["fixed_form"] = "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"
    bad = tmp_path / "z11-tampered.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ContractViolationError) as exc:
        catalog.load(str(bad))
    assert "fixed form" in str(exc.value)


def test_env_override(tmp_path, monkeypatch):
    doc = json.loads(Path(catalog.load_entry("c2-sign").path).read_text())
    doc["id"] = "extra-entry"
    (tmp_path / "extra-entry.json").write_text(json.dumps(doc))
    monkeypatch.setenv(catalog.ENV_VAR, str(tmp_path))
    assert "extra-entry" in catalog.entry_ids()
    assert catalog.load("extra-entry").order == 2
    # built-in entries remain visible
    assert catalog.load("c2-sign").order == 2


def test_klein_forms_fixed():
    from cubicmoduli.invariants import CubicForm
    from helpers_math import act

    klein = CubicForm.parse(
        "x0*x1^2 + x1*x2^2 + x2*x3^2 + x3*x4^2 + x4*x0^2")
    for name in ("z11-klein", "z11-z5-klein"):
        entry = catalog.load_entry(name)
        assert entry.fixed_form == klein
        for g in entry.generators:
            assert act(g, klein) == klein
