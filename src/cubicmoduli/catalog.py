"""Built-in matrix groups stored as JSON files, validated on load.

Each file records 5x5 generators in the E(n)^k text encoding together
with a contract: the group order, the traces on conjugacy class
representatives, and optionally a cubic form every generator must fix.
load() regenerates the group (a closure on integer arrays, see
`groups`) and re-checks the whole contract every time: order, class
traces, and the fixed form under each generator, whose inverse comes
from the group's tables.  A corrupted fixture fails loudly instead of
feeding silently wrong numbers into reports.  The loader takes the JSON
types as they are and coerces none: the generators, each generator and
each of its rows are arrays, each entry a string; the stored conductor
and order are integers (not a bool, float or string); the character is
an array of strings; the fixed form is a non-empty string, or absent or
null for none.  Anything else is a ParseError.  An entry holds each
generator as a tuple of rows of exact values.

A load forms no exact product when the entry strings are sums of
integers and powers E(n)^k: each E(n)^k parses to one row of the power
table, the closure and the fixed-form check (`invariants.fixed_by`) run
on integer rows; the contract reads the trace character's exact values.

The environment variable CUBICMODULI_CATALOG may name a directory of
extra entry files; entries there shadow built-in ones with the same
name.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .cyclo import parse_cyclo
from .errors import ContractViolationError, ParseError
from .groups import MatrixGroup
from .invariants import CubicForm, fixed_by

ENV_VAR = "CUBICMODULI_CATALOG"
_BUILTIN = Path(__file__).parent / "data" / "catalog"


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    conductor: int
    generators: tuple
    notes: tuple
    order: int
    character: tuple
    fixed_form: CubicForm | None
    path: str


def _search_dirs():
    dirs = []
    override = os.environ.get(ENV_VAR)
    if override:
        dirs.append(Path(override))
    dirs.append(_BUILTIN)
    return dirs


def entry_ids() -> list:
    """Names of all available entries, override directory included."""
    seen = set()
    for d in _search_dirs():
        if d.is_dir():
            seen.update(p.stem for p in d.glob("*.json"))
    return sorted(seen)


def _resolve(name: str) -> Path:
    p = Path(name)
    if p.is_file():
        return p
    for d in _search_dirs():
        q = d / f"{name}.json"
        if q.is_file():
            return q
    raise FileNotFoundError(
        f"no catalog entry or file named {name!r}; "
        f"available: {', '.join(entry_ids())}"
    )


def _integer(value, what: str) -> int:
    """value itself when it is a JSON integer; bool, float and string
    are refused, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def load_entry(name: str) -> CatalogEntry:
    """Parse one entry file; no group generation happens here."""
    path = _resolve(name)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from None
    try:
        generators = raw["generators"]
        if not (isinstance(generators, list)
                and all(isinstance(rows, list)
                        and all(isinstance(r, list) for r in rows)
                        for rows in generators)):
            raise ValueError("generators and their rows must be JSON arrays")
        if not generators:
            raise ValueError("at least one generator required")
        # a file repeats a few entry strings many times: each distinct
        # one is parsed once
        parsed = {}

        def value(text):
            if not isinstance(text, str):
                return parse_cyclo(text)  # fails with parse_cyclo's message
            if text not in parsed:
                parsed[text] = parse_cyclo(text)
            return parsed[text]

        gens = []
        for rows in generators:
            if len(rows) != 5 or any(len(r) != 5 for r in rows):
                raise ValueError("generators must be 5x5")
            gens.append(tuple(tuple(map(value, r)) for r in rows))
        if not (isinstance(raw["notes"], list)
                and all(isinstance(s, str) and s for s in raw["notes"])):
            raise ValueError("notes must be a list of non-empty strings")
        notes = tuple(raw["notes"])
        if len(notes) != len(gens):
            raise ValueError("one note per generator required")
        contract = raw["contract"]
        if not isinstance(contract, dict):
            raise ValueError("contract must be a JSON object, not "
                             f"{type(contract).__name__}")
        character = contract["character"]
        if not (isinstance(character, list)
                and all(isinstance(v, str) for v in character)):
            raise ValueError("contract character must be a list of strings")
        fixed = contract.get("fixed_form")
        if not (fixed is None or isinstance(fixed, str) and fixed):
            raise ValueError("fixed_form must be a non-empty string or "
                             f"null, not {fixed!r}")
        entry = CatalogEntry(
            id=str(raw["id"]),
            description=str(raw["description"]),
            conductor=_integer(raw["conductor"], "conductor"),
            generators=tuple(gens),
            notes=notes,
            order=_integer(contract["order"], "contract order"),
            character=tuple(character),
            fixed_form=None if fixed is None else CubicForm.parse(fixed),
            path=str(path),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: malformed entry: {e}") from None
    return entry


def validate(entry: CatalogEntry) -> MatrixGroup:
    """Generate the group and check every stored expectation."""
    group = MatrixGroup.generate(entry.generators)
    if group.conductor != entry.conductor:
        raise ContractViolationError(
            f"{entry.id}: stored conductor {entry.conductor}, entries "
            f"need {group.conductor}"
        )
    if group.order != entry.order:
        raise ContractViolationError(
            f"{entry.id}: generated order {group.order}, contract says "
            f"{entry.order}"
        )
    got = tuple(str(t) for t in group.character.values)
    if got != entry.character:
        raise ContractViolationError(
            f"{entry.id}: class traces {got} do not match the contract "
            f"{entry.character}"
        )
    if entry.fixed_form is not None:
        for i, g in enumerate(group.generator_indices):
            if not fixed_by(group, g, [entry.fixed_form]):
                raise ContractViolationError(
                    f"{entry.id}: generator {i} moves the fixed form"
                )
    return group


def load(name: str) -> MatrixGroup:
    """Load an entry by name or file path and return the validated group."""
    return validate(load_entry(name))
