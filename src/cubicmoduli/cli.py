"""Command line front end.

Subcommands:
  audit <entry|file>    full report for one group (text, json or csv)
  lattice <entry>       reports for all 2-generated subgroup classes
  invariants <entry>    basis of the invariant cubics
  catalog list          available catalog entries
  selftest              recompute the built-in golden values

Exit status: 0 on success; 1 on a golden mismatch or any package error
(failed contract, inconsistent routes, infinite or non-projectively
faithful group, a --prime the probe cannot use, a lattice group above
the subgroup scan limit), reported as one `error:` line; 2 on a usage
error (such as --trials below 1) or unknown entry.
"""

import argparse
import functools
import sys

from . import audit, catalog
from .chars import (
    commutant_dimension_from_character,
    dim_invariant_cubics,
    dim_special_subvariety,
    psl2_11_datum,
    trivial_character,
)
from .errors import CubicModuliError
from .invariants import CubicForm, invariant_basis
from .smoothprobe import singular_scan


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between
    calls, so every main() call reuses it."""
    parser = argparse.ArgumentParser(
        prog="cubicmoduli",
        description="Exact moduli and special-subvariety audits for "
                    "cubic threefolds with finite symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="full report for one group")
    p.add_argument("entry", help="catalog entry name or JSON file path")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--prime", type=int, default=None,
                   help="prime for the smoothness probe")
    p.add_argument("--seed", type=int, default=audit.DEFAULT_SEED,
                   help="probe random seed")
    p.add_argument("--trials", type=_positive_int,
                   default=audit.DEFAULT_TRIALS, help="probe sample count")

    p = sub.add_parser("lattice",
                       help="audit all 2-generated subgroup classes")
    p.add_argument("entry", help="catalog entry name or JSON file path")
    p.add_argument("--csv", action="store_true", help="CSV output")

    p = sub.add_parser("invariants",
                       help="print a basis of the invariant cubics")
    p.add_argument("entry", help="catalog entry name or JSON file path")

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=["list"])

    sub.add_parser("selftest",
                   help="recompute the built-in golden values")
    return parser


def _entry_id(name: str) -> str:
    if name.endswith(".json"):
        return name.rsplit("/", 1)[-1][:-5]
    return name


def _cmd_audit(args) -> int:
    group = catalog.load(args.entry)
    report = audit.check_criterion(
        group, group_id=_entry_id(args.entry), prime=args.prime,
        trials=args.trials, seed=args.seed,
    )
    if args.json:
        print(report.as_json())
    elif args.csv:
        d = report.as_dict()
        cols = ["group_id", "order", "dim_U", "commutant_dim",
                "dim_moduli", "dim_special", "criterion_holds"]
        print(",".join(cols))
        print(",".join("" if d[c] is None else str(d[c]).lower()
                       if isinstance(d[c], bool) else str(d[c])
                       for c in cols))
    else:
        print(report.as_text())
    return 0


def _cmd_lattice(args) -> int:
    group = catalog.load(args.entry)
    rows = audit.lattice_report(group)
    if args.csv:
        print(audit.lattice_csv(rows), end="")
    else:
        print(audit.lattice_text(rows))
    return 0


def _cmd_invariants(args) -> int:
    group = catalog.load(args.entry)
    space = invariant_basis(group)
    print(f"dimension {space.dimension}")
    for form in space.basis:
        print(str(form))
    return 0


def _cmd_catalog(args) -> int:
    for name in catalog.entry_ids():
        entry = catalog.load_entry(name)
        print(f"{name:16s} order {entry.order:4d}  {entry.description}")
    return 0


def _golden_checks():
    def node(name):
        r = audit.check_criterion(catalog.load(name), group_id=name)
        return (r.dim_moduli, r.dim_special, r.criterion_holds)

    yield ("trivial group node", lambda: node("trivial"), (10, 15, False))
    yield ("sign involution node", lambda: node("c2-sign"), (6, 9, False))
    yield ("balanced order-3 node", lambda: node("c3-balanced"),
           (4, 5, False))
    yield ("regular order-5 node", lambda: node("c5-regular"),
           (2, 3, False))
    yield ("Klein four-group node", lambda: node("klein-four"),
           (4, 6, False))
    yield ("order-11 Klein symmetry", lambda: node("z11-klein"),
           (0, 0, True))
    yield ("order-55 Klein symmetry", lambda: node("z11-z5-klein"),
           (0, 0, True))
    yield ("cyclic cover generator", lambda: node("fermat-cyclic"),
           (4, 4, True))
    yield ("doubled cube root", lambda: node("c3-double"), (1, 3, False))
    yield ("independent cube roots", lambda: node("c3xc3"), (1, 1, True))
    yield ("tetrahedral family", lambda: node("alt4-klein"), (2, 2, True))
    yield ("icosahedral family", lambda: node("alt5-sixpoint"),
           (1, 1, True))

    def family43_basis():
        space = invariant_basis(catalog.load("family-43"))
        return sorted(str(b) for b in space.basis)

    yield ("six-monomial family basis", family43_basis,
           sorted(["x0^3", "x1^3", "x2^3", "x3^3", "x4^3", "x0*x2*x3"]))

    def cone_report():
        r = audit.check_criterion(catalog.load("z3-z4"), group_id="z3-z4")
        return (r.dim_U, r.dim_moduli, r.nonempty.status)

    yield ("cone family withheld", cone_report, (7, None, "EmptyCertified"))

    def abstract_psl():
        chi = psl2_11_datum().character("chi2")
        return (
            commutant_dimension_from_character(chi),
            dim_invariant_cubics(chi),
            dim_special_subvariety(chi, trivial_character(chi.structure)),
        )

    yield ("degree-5 character products", abstract_psl, (1, 1, 0))

    def fermat_scan():
        fermat = CubicForm.parse(
            "x0^3 + x1^3 + x2^3 + x3^3 + x4^3")
        res = singular_scan(fermat, 7)
        return (res.smooth, res.points)

    yield ("Fermat cubic scan mod 7", fermat_scan, (True, 2801))

    def psl_contract():
        g = catalog.load("psl2-11")
        return g.order

    yield ("order-660 entry contract", psl_contract, 660)


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, fn, expected in _golden_checks():
        try:
            got = fn()
        except CubicModuliError as e:
            print(f"FAIL {name}: {e}")
            failures += 1
            continue
        if got == expected:
            print(f"ok   {name}")
        else:
            print(f"FAIL {name}: expected {expected}, got {got}")
            failures += 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "audit": _cmd_audit,
        "lattice": _cmd_lattice,
        "invariants": _cmd_invariants,
        "catalog": _cmd_catalog,
        "selftest": _cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CubicModuliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
