"""Command line behaviour: formats, exit codes, error paths."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cubicmoduli import catalog
from cubicmoduli.cli import main
from cubicmoduli.cyclo import cyclo
from cubicmoduli.invariants import MONOMIALS, CubicForm
from cubicmoduli.linalg import split_primes

# `invariants <e>` for every catalog entry, byte for byte: the printed
# echelon bases are part of the contract
INVARIANTS_OUTPUT = json.loads(
    (Path(__file__).parent / "invariants_output.json").read_text())


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "alt4-klein" in out
    assert "psl2-11" in out
    assert "order  660" in out


def test_invariants_output_fixture_covers_the_catalog():
    assert sorted(INVARIANTS_OUTPUT) == sorted(catalog.entry_ids())


@pytest.mark.parametrize("entry", catalog.entry_ids())
def test_invariants_output_is_unchanged(capsys, entry):
    assert main(["invariants", entry]) == 0
    assert capsys.readouterr().out == INVARIANTS_OUTPUT[entry]


def test_audit_text(capsys):
    assert main(["audit", "alt4-klein"]) == 0
    out = capsys.readouterr().out
    assert "dim moduli       2" in out
    assert "dim special      2" in out
    assert "criterion        True" in out


def test_audit_json(capsys):
    assert main(["audit", "c5-regular", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_moduli"] == 2
    assert doc["dim_special"] == 3
    assert doc["criterion_holds"] is False
    assert doc["provenance"]["seed"] == 0


def test_audit_json_records_rank_primes(capsys):
    assert main(["audit", "z11-klein", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # the commutant rank is certified at the first split prime for the
    # conductor 11; the diagonal family is certified by its torus
    # strata, so no probe prime is chosen
    assert doc["provenance"]["rank_primes"] == [1073741857]
    assert doc["provenance"]["prime"] is None
    assert doc["provenance"]["certificate"] == "torus-strata"
    assert doc["commutant_dim"] == 5


def test_audit_json_stable(capsys):
    assert main(["audit", "c3-balanced", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["audit", "c3-balanced", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_audit_csv(capsys):
    assert main(["audit", "trivial", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("group_id,order,dim_U,commutant_dim,"
                        "dim_moduli,dim_special,criterion_holds")
    assert lines[1] == "trivial,1,35,25,10,15,false"


def test_audit_withheld_csv(capsys):
    assert main(["audit", "z3-z4", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "z3-z4,12,7,6,,1,"


def test_invariants_output(capsys):
    assert main(["invariants", "family-43"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dimension 6"
    assert sorted(out[1:]) == sorted(
        ["x0^3", "x1^3", "x2^3", "x3^3", "x4^3", "x0*x2*x3"])


def test_lattice_text(capsys):
    assert main(["lattice", "z11-z5-klein"]) == 0
    out = capsys.readouterr().out
    assert "Z/11:Z/5" in out
    assert "=" in out


def test_lattice_csv(capsys):
    assert main(["lattice", "z11-z5-klein", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "node,order,type,dim_M,dim_Z,criterion"
    assert len(lines) == 5
    assert lines[-1].endswith("55,Z/11:Z/5,0,0,true")


def test_unknown_entry_exit_2(capsys):
    assert main(["audit", "no-such-entry"]) == 2
    assert "no catalog entry" in capsys.readouterr().err


def test_bad_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["audit", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def _with(doc, keys, value):
    """A copy of the entry document with doc[keys[0]][keys[1]]... set to
    value."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return doc


@pytest.mark.parametrize("content, message", [
    (lambda doc: json.dumps(doc).replace(
        '"E(3)"', '"' + "(" * 3000 + "E(3)" + ")" * 3000 + '"', 1).encode(),
     "nest more than 100 deep"),
    (lambda doc: json.dumps(doc).replace(
        '"E(3)"', '"' + "-" * 3000 + "E(3)" + '"', 1).encode(),
     "nest more than 100 deep"),
    (lambda doc: b"\xff\xfe" + json.dumps(doc).encode(), "not UTF-8"),
    # the contract's integers are JSON integers, not coerced from a
    # float, a bool or a string
    *((lambda doc, keys=keys, value=value: json.dumps(
        _with(doc, keys, value)).encode(), "must be an integer")
      for keys, value in [(("conductor",), 3.0), (("conductor",), 1.9),
                          (("conductor",), "3"), (("conductor",), True),
                          (("contract", "order"), 3.0),
                          (("contract", "order"), "3"),
                          (("contract", "order"), True)]),
    # a singular generator closes to a finite set with no identity power
    (lambda doc: json.dumps(_with(doc, ("generators", 0, 0, 0), "0")).encode(),
     "element order exceeds bound 1000"),
    # the contract is a JSON object, not a list or a string
    *((lambda doc, value=value: json.dumps(
        _with(doc, ("contract",), value)).encode(), "malformed entry")
      for value in (["x"], "x")),
], ids=["deep-parentheses", "deep-signs", "not-utf-8", "conductor-float",
        "conductor-fraction", "conductor-string", "conductor-bool",
        "order-float", "order-string", "order-bool", "singular-generator",
        "contract-list", "contract-string"])
def test_malformed_entry_file_is_one_line_exit_1(tmp_path, content, message):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cubicmoduli
    from cubicmoduli import catalog

    doc = json.loads(Path(catalog.load_entry("c3-balanced").path).read_text())
    path = tmp_path / "entry.json"
    path.write_bytes(content(doc))
    env = dict(os.environ,
               PYTHONPATH=str(Path(cubicmoduli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "cubicmoduli", "audit", str(path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]


def _diag(*entries):
    return [[entries[i] if i == j else "0" for j in range(5)]
            for i in range(5)]


@pytest.mark.parametrize("generator, conductor, order, character, message", [
    (_diag(*["E(3)"] * 5), 3, 3, ["5", "-5 - 5*E(3)", "5*E(3)"], "scalar"),
    ([["1", "1", "0", "0", "0"]] + _diag(*["1"] * 5)[1:], 1, 1, ["5"],
     "not a finite group element"),
], ids=["scalar", "unipotent"])
def test_package_error_is_one_line_exit_1(tmp_path, capsys, generator,
                                          conductor, order, character,
                                          message):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({
        "id": "entry",
        "description": "error path",
        "conductor": conductor,
        "generators": [generator],
        "notes": ["only generator"],
        "contract": {"order": order, "character": character},
    }))
    assert main(["audit", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]


@pytest.mark.parametrize("entry, prime, message", [
    pytest.param("trivial", "4", "4 is not prime", id="4-4 is not prime"),
    pytest.param("trivial", "1000003", "too large", id="1000003-too large"),
    # the trivial family is certified by its torus strata, so no probe
    # runs, yet the prime is still checked
    pytest.param("trivial", "33", "33 is not prime",
                 id="33-33 is not prime"),
    # a cone family: certified empty before any probe, yet the prime is
    # still checked
    pytest.param("z3-z4", "4", "4 is not prime",
                 id="z3-z4-4-4 is not prime"),
])
def test_chosen_bad_prime_is_one_line_exit_1(capsys, entry, prime, message):
    assert main(["audit", entry, "--prime", prime]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("trials", ["-3", "0", "two"])
def test_trials_must_be_positive(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "trivial", "--trials", trials])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_audit_file_path(tmp_path, capsys):
    import shutil
    from cubicmoduli import catalog

    src = catalog.load_entry("c2-sign").path
    dst = tmp_path / "copy.json"
    shutil.copy(src, dst)
    assert main(["audit", str(dst)]) == 0
    assert "dim moduli       6" in capsys.readouterr().out


AUDIT_FIELDS = ("dim_U", "commutant_dim", "dim_moduli", "dim_special",
                "criterion_holds")


def _non_diagonal_entries():
    return [e for e in catalog.entry_ids()
            if any(v for g in catalog.load_entry(e).generators
                   for i, row in enumerate(g)
                   for j, v in enumerate(row) if i != j)]


@pytest.mark.parametrize("entry", _non_diagonal_entries())
def test_audit_of_a_conjugate_with_the_split_prime_in_denominators(
        tmp_path, capsys, entry):
    # each generator g becomes D g D^-1 for D = diag(p, 1, 1, 1, 1), p
    # the first split prime of conductor 1, and the fixed form F(x)
    # becomes F(D^-1 x): entries over p, traces and numbers unchanged
    p = split_primes(1)[0]
    scale = [p, 1, 1, 1, 1]
    doc = json.loads(Path(catalog.load_entry(entry).path).read_text())
    doc["generators"] = [
        [[str(cyclo(v) * Fraction(scale[i], scale[j]))
          for j, v in enumerate(row)] for i, row in enumerate(g)]
        for g in doc["generators"]]
    fixed = doc["contract"].get("fixed_form")
    if fixed:
        form = CubicForm.parse(fixed)
        doc["contract"]["fixed_form"] = str(CubicForm(
            [c * Fraction(1, p ** MONOMIALS[m][0])
             for m, c in enumerate(form.coefficients)]))
    path = tmp_path / f"{entry}.json"
    path.write_text(json.dumps(doc))
    assert main(["audit", entry, "--json"]) == 0
    want = json.loads(capsys.readouterr().out)
    assert main(["audit", str(path), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert [got[k] for k in AUDIT_FIELDS] == [want[k] for k in AUDIT_FIELDS]


def test_module_entry_point_runs_from_a_checkout(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cubicmoduli

    env = dict(os.environ,
               PYTHONPATH=str(Path(cubicmoduli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "cubicmoduli", "selftest"], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "ok   Fermat cubic scan mod 7" in done.stdout
    assert done.stdout.rstrip().endswith("all checks passed")


def test_selftest_is_the_same_under_python_O(tmp_path):
    # no golden rests on an assert, which python -O strips
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cubicmoduli

    env = dict(os.environ,
               PYTHONPATH=str(Path(cubicmoduli.__file__).parents[1]))
    plain, optimized = (subprocess.run(
        [sys.executable, *flags, "-m", "cubicmoduli", "selftest"],
        cwd=tmp_path, env=env, capture_output=True, timeout=300)
        for flags in ([], ["-O"]))
    assert optimized.returncode == 0, optimized.stdout + optimized.stderr
    assert optimized.stdout == plain.stdout


def test_readme_library_block_and_the_top_level_names(capsys):
    import re
    from pathlib import Path

    import cubicmoduli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme,
                      re.S).group(1)
    exec(block, {})
    assert capsys.readouterr().out == "2 2 True\n"

    # the top level is the README's library block and the error the
    # command line catches
    assert cubicmoduli.__all__ == ["catalog", "check_criterion",
                                   "invariant_basis", "CubicModuliError",
                                   "__version__"]
    names = {}
    exec("from cubicmoduli import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(cubicmoduli.__all__)
    for name, value in names.items():
        assert getattr(cubicmoduli, name) is value


def test_one_parser_serves_every_call(capsys):
    from cubicmoduli import cli

    calls = [["audit", "c3xc3", "--json"], ["invariants", "c3xc3"],
             ["audit", "x", "--trials", "0"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [run(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2]
    assert "--trials" in reused[2][2]


def test_lattice_above_the_scan_limit_is_one_line_exit_1(tmp_path, capsys):
    from cubicmoduli.groups import SUBGROUP_SCAN_LIMIT, MatrixGroup
    from helpers_math import exact_elements

    # diag(E(11)) on x0, x1 and x2 in turn: an abelian group of order 1331
    gens = [_diag(*["E(11)" if i == k else "1" for i in range(5)])
            for k in range(3)]
    group = MatrixGroup.generate(gens)
    assert group.order == 1331 > SUBGROUP_SCAN_LIMIT
    elements = exact_elements(group)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "id": "big",
        "description": "above the subgroup scan limit",
        "conductor": 11,
        "generators": gens,
        "notes": ["x0", "x1", "x2"],
        "contract": {
            "order": 1331,
            "character": [str(elements[c.rep_index].trace())
                          for c in group.classes],
        },
    }))
    assert main(["lattice", str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "scan limit" in err[0]
    assert captured.out == ""
