import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ccmagma import __version__, catalog, cli, core, fixtures, structures
from ccmagma.cli import main
from ccmagma.core import format_magma, idempotents
from ccmagma.generation import generate_quasigroup

from _brute import reference_parser
from conftest import A2, F5A, Z9A

NON_MEDIAL_4_TEXT = "4\n0 1 3 2\n1 2 0 3\n3 0 2 1\n2 3 1 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.tbl"
    path.write_text(format_magma(A2))
    return str(path)


@pytest.fixture
def f5_file(tmp_path):
    path = tmp_path / "f5.tbl"
    path.write_text(format_magma(F5A))
    return str(path)


@pytest.fixture
def z9_file(tmp_path):
    path = tmp_path / "z9.tbl"
    path.write_text(format_magma(Z9A))
    return str(path)


class TestCheck:
    def test_three_idem_table(self, capsys, a2_file):
        code, report, _ = run(capsys, "check", a2_file)
        assert code == 0
        res = report["results"]
        assert res["is_ccm"] and not res["associative"]
        assert res["associative_counterexample"] == [0, 0, 1]
        assert res["idempotents"] == [0, 1, 2]
        assert res["idempotent_parity_ok"]

    def test_no_idem_table(self, capsys, tmp_path):
        path = tmp_path / "a3.tbl"
        path.write_text(format_magma(fixtures.DOUBLE_MOD3_SHIFTED))
        code, report, _ = run(capsys, "check", str(path))
        assert code == 0
        assert report["results"]["idempotents"] == []

    def test_non_medial_table_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text(NON_MEDIAL_4_TEXT)
        code, report, _ = run(capsys, "check", str(path))
        assert code == 1
        assert report["results"]["medial_counterexample"] == [0, 0, 1, 1]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("2\n0 2\n2 1\n")
        code, report, err = run(capsys, "check", str(path))
        assert code == 2
        assert "entry 2 >= order 2" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", str(tmp_path / "nope.tbl"))
        assert code == 2

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 8 GiB")])
    def test_memory_error_exit_2(self, capsys, monkeypatch, exc):
        # a raise stands in for an allocation that fails
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr("ccmagma.catalog.sampled_axiom_check", exhausted)
        assert cli.main(["catalog", "--family", "sum-R"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {str(exc) or 'out of memory'}\n"

    def test_schema_fields(self, capsys, a2_file):
        _, report, _ = run(capsys, "check", a2_file)
        assert report["schema"] == "ccmagma.report/1"
        assert set(report) == {"schema", "command", "input", "order",
                               "results", "elapsed_ms"}
        assert len(report["input"]["sha256"]) == 64


class TestClassify:
    def test_three_idem_label(self, capsys, a2_file):
        code, report, _ = run(capsys, "classify", a2_file, "--unit", "0")
        assert code == 0
        assert report["results"]["label"] == "I"
        assert report["results"]["group_invariant_factors"] == [3]

    def test_non_idempotent_unit(self, capsys, f5_file):
        code, report, _ = run(capsys, "classify", f5_file, "--unit", "1")
        assert code == 1
        assert report["error"]["kind"] == "unit-not-idempotent"

    def test_unit_out_of_range(self, capsys, f5_file):
        code, _, err = run(capsys, "classify", f5_file, "--unit", "9")
        assert code == 2
        assert "out of range" in err

    def test_invalid_table(self, capsys, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text(NON_MEDIAL_4_TEXT)
        code, report, _ = run(capsys, "classify", str(path), "--unit", "0")
        assert code == 1
        assert report["error"]["kind"] == "not-a-ccm-magma"


class TestGenerate:
    def test_deterministic_bytes(self, capsys, tmp_path):
        out1 = tmp_path / "m1.tbl"
        out2 = tmp_path / "m2.tbl"
        assert run(capsys, "generate", "--order", "5", "--seed", "7",
                   "--out", str(out1))[0] == 0
        assert run(capsys, "generate", "--order", "5", "--seed", "7",
                   "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        s1 = (tmp_path / "m1.tbl.toyoda.json").read_text()
        s2 = (tmp_path / "m2.tbl.toyoda.json").read_text()
        assert json.loads(s1)["relabeling"] == json.loads(s2)["relabeling"]

    def test_round_trips_through_check(self, capsys, tmp_path):
        out = tmp_path / "g9.tbl"
        code, report, _ = run(capsys, "generate", "--order", "9", "--seed", "1",
                              "--out", str(out))
        assert code == 0
        code, report, _ = run(capsys, "check", str(out))
        assert code == 0
        assert report["results"]["is_ccm"]

    def test_order_zero_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--order", "0",
                           "--out", str(tmp_path / "x.tbl"))
        assert code == 2
        assert "--order" in err

    def test_sidecar_rebuilds_table(self, capsys, tmp_path):
        from ccmagma.generation import ToyodaParams, toyoda_table
        from ccmagma.core import parse_magma
        out = tmp_path / "g12.tbl"
        run(capsys, "generate", "--order", "12", "--seed", "3", "--out", str(out))
        sidecar = json.loads((tmp_path / "g12.tbl.toyoda.json").read_text())
        params = ToyodaParams.from_json_dict(sidecar)
        assert toyoda_table(params) == parse_magma(out.read_text())


class TestExtractGroup:
    def test_mod5(self, capsys, f5_file):
        code, report, _ = run(capsys, "extract-group", f5_file, "--unit", "0")
        assert code == 0
        res = report["results"]
        assert res["invariant_factors"] == [5]
        assert res["group_table"] == format_magma(fixtures.cyclic_add(5))
        assert res["warning"] is None

    def test_three_idem_at_unit_one(self, capsys, a2_file):
        code, report, _ = run(capsys, "extract-group", a2_file, "--unit", "1")
        assert code == 0
        assert report["results"]["invariant_factors"] == [3]

    def test_mod9(self, capsys, z9_file):
        code, report, _ = run(capsys, "extract-group", z9_file, "--unit", "0")
        assert code == 0
        assert report["results"]["invariant_factors"] == [9]
        assert report["results"]["group_table"] == format_magma(fixtures.cyclic_add(9))

    def test_warns_on_non_idempotent_unit(self, capsys, f5_file):
        code, report, err = run(capsys, "extract-group", f5_file, "--unit", "2")
        assert code == 0
        assert report["results"]["warning"] is not None
        assert "not idempotent" in err

    def test_writes_output_file(self, capsys, f5_file, tmp_path):
        out = tmp_path / "group.tbl"
        run(capsys, "extract-group", f5_file, "--unit", "0", "--out", str(out))
        assert out.read_text() == format_magma(fixtures.cyclic_add(5))


class TestGroupProofsPerCommand:
    def test_generator_searches_per_command(self, capsys, monkeypatch, tmp_path):
        """One abelian-group proof per table: check_axioms' certificate,
        cached on the magma; internal_monoid's star and the extracted
        group are checked against its translates, and the group shares
        it, so invariant_factors proves nothing again."""
        m = next(m for seed in range(50) for m in [generate_quasigroup(64, seed)[0]]
                 if idempotents(m))
        path = tmp_path / "t64.tbl"
        path.write_text(format_magma(m))
        calls = []
        search = core._generators

        def counted(p):
            calls.append(len(p))
            return search(p)

        monkeypatch.setattr(core, "_generators", counted)
        # a module that imported the name holds its own binding
        monkeypatch.setattr(structures, "_generators", counted, raising=False)
        unit = str(idempotents(m)[0])
        counts = {}
        for argv in (["check", str(path)], ["classify", str(path), "--unit", unit],
                     ["extract-group", str(path), "--unit", unit],
                     ["relation", str(path), "--subalgebra", unit, "--unit", unit]):
            calls.clear()
            assert main(argv) == 0
            counts[argv[0]] = len(calls)
        capsys.readouterr()
        assert counts == {"check": 1, "classify": 1, "extract-group": 1, "relation": 1}


class TestClosuresPerCommand:
    @pytest.mark.parametrize("subalgebra, unit, status, kind", [
        ("0,3,6", "0", 0, None),
        ("0,3", "0", 1, "not-closed"),
        ("0,3,6", "1", 1, "bad-unit"),
        ("1,4,7", "1", 1, "bad-unit"),
    ])
    def test_one_closure_per_relation(self, capsys, monkeypatch, z9_file,
                                      subalgebra, unit, status, kind):
        """relation checks its subalgebra once and hands the checked set to
        the relation and to the transitivity criterion."""
        from ccmagma import relations
        calls = []
        closure = core.subalgebra_closure

        def counted(m, seed):
            calls.append(tuple(seed))
            return closure(m, seed)

        monkeypatch.setattr(core, "subalgebra_closure", counted)
        # a module that imported the name holds its own binding
        monkeypatch.setattr(relations, "subalgebra_closure", counted)
        code, report, _ = run(capsys, "relation", z9_file, "--subalgebra", subalgebra,
                              "--unit", unit)
        assert (code, report.get("error", {}).get("kind")) == (status, kind)
        assert len(calls) == 1, calls


class TestRelationBuiltOncePerCommand:
    @pytest.mark.parametrize("subalgebra, unit", [("0,3,6", "0"), ("0", "0"),
                                                  ("0,1,2,3,4,5,6,7,8", "3")])
    def test_one_division_table_and_one_product(self, capsys, monkeypatch, z9_file,
                                                subalgebra, unit):
        """relation builds one division table and runs one transitivity
        scan, and no difunctionality scan; the criterion's cross-check
        reuses the command's verdict."""
        from ccmagma import relations
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)
            return wrapper

        monkeypatch.setattr(relations, "_divisions",
                            counted("_divisions", relations._divisions))
        for name in ("is_transitive", "is_difunctional"):
            monkeypatch.setattr(relations.BinaryRelation, name,
                                counted(name, getattr(relations.BinaryRelation, name)))
        code, report, _ = run(capsys, "relation", z9_file, "--subalgebra", subalgebra,
                              "--unit", unit)
        assert code == 0 and report["results"]["transitivity_criterion"]
        assert sorted(calls) == ["_divisions", "is_transitive"], calls


class TestRelation:
    def test_mod3_congruence(self, capsys, z9_file):
        code, report, _ = run(capsys, "relation", z9_file,
                              "--subalgebra", "0,3,6", "--unit", "0")
        assert code == 0
        res = report["results"]
        assert res["congruence"] and res["classes"] == 3
        assert res["internal"] and res["reflexive"]
        assert res["transitivity_criterion"]
        assert res["relation"].splitlines()[0] == "9 9"

    def test_trivial_subalgebra(self, capsys, f5_file):
        code, report, _ = run(capsys, "relation", f5_file,
                              "--subalgebra", "0", "--unit", "0")
        assert code == 0
        assert report["results"]["congruence"]
        assert report["results"]["classes"] == 5

    def test_flags_derive_from_symmetry(self, capsys, monkeypatch, z9_file):
        """difunctional and congruence follow the symmetric verdict: a relation
        reported not symmetric is neither."""
        from ccmagma import relations
        monkeypatch.setattr(relations.BinaryRelation, "is_symmetric",
                            lambda self: (False, (0, 1)))
        code, report, _ = run(capsys, "relation", z9_file,
                              "--subalgebra", "0,3,6", "--unit", "0")
        res = report["results"]
        assert code == 0 and res["reflexive"] and res["transitive"]
        assert (res["symmetric"], res["difunctional"], res["congruence"]) == (False,) * 3
        assert "classes" not in res

    def test_unclosed_seed_reports_hint(self, capsys, z9_file):
        code, report, _ = run(capsys, "relation", z9_file,
                              "--subalgebra", "0,3", "--unit", "0")
        assert code == 1
        assert report["error"]["kind"] == "not-closed"
        assert report["error"]["closure_hint"] == [0, 3, 6]

    def test_bad_seed_string(self, capsys, z9_file):
        code, _, err = run(capsys, "relation", z9_file,
                           "--subalgebra", "0,x", "--unit", "0")
        assert code == 2


class TestCatalog:
    def test_listing(self, capsys):
        code, report, _ = run(capsys, "catalog")
        assert code == 0
        families = report["results"]["families"]
        ids = {f["id"] for f in families}
        assert {"harmonic-(0,1]", "midpoint-[0,1]", "affine-Z:2,0",
                "doubling-N0"} <= ids
        by_id = {f["id"]: f for f in families}
        assert by_id["midpoint-[0,1]"]["expected_label"] == "III"

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "catalog", "--family", "nope")
        assert code == 2
        assert "harmonic-(0,1]" in err

    def test_empty_family_is_unknown(self, capsys):
        code, report, err = run(capsys, "catalog", "--family", "")
        assert code == 2 and report is None
        assert "unknown family ''" in err and "harmonic-(0,1]" in err

    def test_midpoint_unit_interval(self, capsys):
        code, report, _ = run(capsys, "catalog", "--family", "midpoint-[0,1]",
                              "--samples", "8")
        assert code == 0
        res = report["results"]
        assert res["classification"] == "III"
        assert res["matches_expected"]

    def test_harmonic_formula_checks(self, capsys):
        code, report, _ = run(capsys, "catalog", "--family", "harmonic-(0,1]",
                              "--samples", "8")
        assert code == 0
        res = report["results"]
        assert res["star_formula_ok"] and res["half_has_no_inverse"]
        assert res["classification"] == "II"

    def test_doubling_naturals(self, capsys):
        code, report, _ = run(capsys, "catalog", "--family", "doubling-N0",
                              "--samples", "8")
        assert code == 0
        assert report["results"]["classification"] == "V"


class TestMalformedInputs:
    """Each exits 2 with a message on stderr, no traceback, no report."""

    def assert_usage_error(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert captured.err.strip()
        assert captured.out == ""

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_catalog_samples_not_positive(self, capsys, samples):
        self.assert_usage_error(capsys, "catalog", "--family", "midpoint-R",
                                "--samples", samples)

    def test_check_directory(self, capsys, tmp_path):
        self.assert_usage_error(capsys, "check", str(tmp_path))

    def test_check_non_utf8_table(self, capsys, tmp_path):
        path = tmp_path / "latin1.tbl"
        path.write_bytes(b"# \xe9\xe9\n1\n0\n")
        self.assert_usage_error(capsys, "check", str(path))

    def test_relation_subalgebra_out_of_range(self, capsys, z9_file):
        self.assert_usage_error(capsys, "relation", z9_file,
                                "--subalgebra", "0,99", "--unit", "0")


class TestDeterminism:
    def test_reports_identical_modulo_timing(self, capsys, z9_file):
        _, r1, _ = run(capsys, "relation", z9_file,
                       "--subalgebra", "0,3,6", "--unit", "0")
        _, r2, _ = run(capsys, "relation", z9_file,
                       "--subalgebra", "0,3,6", "--unit", "0")
        r1.pop("elapsed_ms")
        r2.pop("elapsed_ms")
        assert r1 == r2

    def test_quiet_suppresses_summary(self, capsys, a2_file):
        _, _, err = run(capsys, "--quiet", "check", a2_file)
        assert err == ""


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "a2.tbl"
        path.write_text(format_magma(A2))
        proc = subprocess.run(
            [sys.executable, "-m", "ccmagma", "--quiet", "check", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["is_ccm"]

    def test_help_exits_zero(self):
        proc = subprocess.run([sys.executable, "-m", "ccmagma", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("check", "classify", "generate", "extract-group",
                    "relation", "catalog"):
            assert sub in proc.stdout


# every public name of the ccmagma package, by the submodule that defines
# it; a submodule's own name maps to itself
PUBLIC_NAMES = {
    **dict.fromkeys(("AxiomReport", "FiniteMagma", "Homomorphism", "ParseError",
                     "check_axioms", "compose", "constant_hom", "derived_magma",
                     "format_magma", "identity_hom", "idempotent_subalgebra",
                     "idempotents", "is_homomorphism", "magma_from_function",
                     "pair_hom", "pair_index", "pair_split", "parse_magma",
                     "product_magma", "subalgebra_closure", "weak_maltsev_p"), "core"),
    **dict.fromkeys(("AssociativityReport", "ClassificationLabel", "GroupStructure",
                     "MonoidStructure", "NotIdempotentError",
                     "associativity_equivalences", "classify", "classify_finite",
                     "double", "double_table", "doubling_additivity_check",
                     "internal_group", "internal_monoid", "is_expansive",
                     "is_homogeneous", "is_symmetric", "midpoint_distributivity_check",
                     "monoid_isomorphism", "negate"), "structures"),
    **dict.fromkeys(("BinaryRelation", "KiteInput", "PullbackSpan", "build_pullback",
                     "equalizer_relation", "format_relation", "full_relation",
                     "identity_relation", "kite_theta", "parse_relation_grid",
                     "pullback_pairs", "relation_from_pairs", "subalgebra_relation",
                     "subalgebra_witnesses", "transitivity_criterion"), "relations"),
    **dict.fromkeys(("AbelianGroupSpec", "ToyodaParams", "element_orders",
                     "extract_group", "generate_quasigroup", "groups_isomorphic",
                     "idempotent_parity_audit", "invariant_factors", "toyoda_table"),
                    "generation"),
    **dict.fromkeys(("CATALOG", "ClosureError", "DomainError", "FamilyClassification",
                     "Interval", "ParametricFamily", "SampleReport", "classify_family",
                     "default_samples", "half_has_no_inverse_check",
                     "monoid_formula_check", "sampled_associativity",
                     "sampled_axiom_check"), "catalog"),
    **{m: m for m in ("core", "structures", "relations", "generation", "catalog",
                      "fixtures")},
}


def _fresh(code):
    """The JSON value a fresh interpreter prints last after running code."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# an expression for what of ccmagma and numpy an interpreter has loaded
LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ccmagma'))"


class TestImportGraph:
    """Each entry point loads only the modules it uses, each in a fresh
    interpreter: the package namespace resolves its names on first access,
    and the CLI imports each submodule in the commands that use it."""

    def test_bare_import_loads_no_submodule(self):
        assert _fresh(f"import json, sys, ccmagma; print(json.dumps({LOADED}))") == ["ccmagma"]

    @pytest.mark.parametrize("argv, loaded", [
        (["--version"], ["cli"]),
        (["check", "z9.tbl"], ["cli", "core", "generation"]),
        (["generate", "--order", "9", "--seed", "1", "--out", "g.tbl"],
         ["cli", "core", "generation"]),
        (["extract-group", "z9.tbl", "--unit", "0"], ["cli", "core", "generation"]),
        (["classify", "z9.tbl", "--unit", "0"], ["cli", "core", "generation", "structures"]),
        (["relation", "z9.tbl", "--subalgebra", "0,3,6", "--unit", "0"],
         ["cli", "core", "relations"]),
        (["catalog", "--family", "sum-R", "--samples", "4"],
         ["catalog", "cli", "core", "structures"]),
    ], ids=["version", "check", "generate", "extract-group", "classify", "relation",
            "catalog"])
    def test_command_loads(self, tmp_path, argv, loaded):
        (tmp_path / "z9.tbl").write_text(format_magma(Z9A))
        argv = [str(tmp_path / a) if a.endswith(".tbl") else a for a in argv]
        got = _fresh("import contextlib, io, json, sys\n"
                     "from ccmagma.cli import main\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    status = main({['--json', *argv]!r})\n"
                     f"print(json.dumps([status, {LOADED}]))")
        numpy = ["numpy"] if "core" in loaded else []
        assert got == [0, sorted(["ccmagma", *numpy, *(f"ccmagma.{m}" for m in loaded)])]

    def test_names_are_their_submodule_objects(self):
        # first access resolves each name in a fresh interpreter
        mismatched = _fresh(
            "import importlib, json, ccmagma\n"
            f"names = {PUBLIC_NAMES!r}\n"
            "def source(name, module):\n"
            "    mod = importlib.import_module('ccmagma.' + module)\n"
            "    return mod if name == module else getattr(mod, name)\n"
            "print(json.dumps([n for n, m in names.items()\n"
            "                  if getattr(ccmagma, n) is not source(n, m)\n"
            "                  or n not in dir(ccmagma)]))")
        assert mismatched == []
        import ccmagma
        assert ccmagma.__version__ == __version__
        assert set(ccmagma.__all__) == set(PUBLIC_NAMES)

    def test_unknown_attribute_raises(self):
        assert _fresh("import json, ccmagma\n"
                      "try:\n"
                      "    ccmagma.no_such_name\n"
                      "except AttributeError as exc:\n"
                      "    print(json.dumps(str(exc)))") == \
            "module 'ccmagma' has no attribute 'no_such_name'"


class TestGeneratePeak:
    def test_peak_stays_near_three_tables(self, tmp_path, monkeypatch, capsys):
        """generate at n = 512 holds at most 3.25 n^2 cells at once (8 bytes
        each): the table, then format_magma's object array and row lists;
        the table is built in place and no addition table stays alive."""
        n = 512
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--order", "5", "--out", "warm.tbl"]) == 0
        tracemalloc.start()
        try:
            status = main(["generate", "--order", str(n), "--out", "g.tbl"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert status == 0
        assert peak <= 3.25 * 8 * n * n, peak / (8 * n * n)


class TestSizeCaps:
    """generate --order and catalog --samples refuse a size whose arrays
    would pass cli.MAX_CELLS, before they allocate.  The cap is lowered
    here, so that no test runs a large size."""

    def test_at_the_cap_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "MAX_CELLS", 4 * 9 ** 2)
        assert main(["generate", "--order", "9", "--out", "g.tbl"]) == 0
        fam = catalog.CATALOG["sum-R"]
        monkeypatch.setattr(cli, "MAX_CELLS", (4 + 3 + len(fam.extra_samples)) ** 4)
        assert main(["catalog", "--family", "sum-R", "--samples", "4"]) == 0

    @pytest.mark.parametrize("argv, cells", [
        (["generate", "--order", "257", "--out", "g.tbl"], 4 * 257 ** 2),
        (["catalog", "--samples", "33", "--family", "logsumexp-R"],
         (33 + 3 + len(catalog.CATALOG["logsumexp-R"].extra_samples)) ** 4),
    ], ids=["generate", "catalog"])
    def test_refused_just_above_the_cap(self, tmp_path, monkeypatch, capsys, argv, cells):
        # unrefused, these two allocate about 2 MB and 20 MB
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "MAX_CELLS", cells - 1)
        tracemalloc.start()
        try:
            status = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (status, out) == (2, "")
        assert err == (f"error: {argv[1]} {argv[2]} needs about {cells} array cells, "
                       f"over the cap of {cells - 1}\n")
        assert peak < 200_000, peak
        assert list(tmp_path.iterdir()) == []


UNKNOWN_FAMILY = "".join(["error: unknown family 'nope'; known ids:\n",
                          *(f"  {known}\n" for known in catalog.CATALOG)])
NOT_IDEMPOTENT_WARNING = ("warning: unit 1 is not idempotent: the extracted group is "
                          "valid but does not come from an internal monoid\n")

# argv -> (exit status, error kind or None, stderr with the summary,
# stderr under --json); the tables are written by the tables fixture
STDERR_CASES = {
    # usage errors: no report, the same error line with and without --json
    **{" ".join(argv): (2, None, err, err) for argv, err in [
        (["classify", "f5.tbl", "--unit", "9"], "error: unit 9 out of range\n"),
        (["extract-group", "f5.tbl", "--unit", "5"], "error: unit 5 out of range\n"),
        (["generate", "--order", "0", "--out", "g.tbl"], "error: --order must be >= 1\n"),
        (["generate", "--order", "6000", "--out", "g.tbl"],
         "error: --order 6000 needs about 144000000 array cells, "
         "over the cap of 134217728\n"),
        (["catalog", "--family", "sum-R", "--samples", "200"],
         "error: --samples 200 needs about 1766100625 array cells, "
         "over the cap of 134217728\n"),
        (["relation", "z9.tbl", "--subalgebra", "0,a", "--unit", "0"],
         "error: bad --subalgebra '0,a'\n"),
        (["relation", "z9.tbl", "--subalgebra", "0,99", "--unit", "0"],
         "error: --subalgebra elements [99] out of range 0..8\n"),
        (["relation", "z9.tbl", "--subalgebra", "0", "--unit", "99"],
         "error: unit 99 out of range\n"),
        (["catalog", "--family", "nope"], UNKNOWN_FAMILY),
        (["check", "parse.tbl"], "error: line 2: entry 2 >= order 2\n"),
        (["check", "latin1.tbl"],
         "error: latin1.tbl is not UTF-8 text: 'utf-8' codec can't decode byte "
         "0xe9 in position 2: invalid continuation byte\n"),
        (["check", "missing.tbl"],
         "error: [Errno 2] No such file or directory: 'missing.tbl'\n"),
        (["classify", "f5.tbl", "--unit", "x"],
         "usage: ccmagma classify [-h] --unit UNIT path\n"
         "ccmagma classify: error: argument --unit: invalid int value: 'x'\n"),
    ]},
    # error reports: exit 1 and a summary line that --json suppresses
    **{" ".join(argv): (1, kind, summary, "") for argv, kind, summary in [
        (["classify", "bad.tbl", "--unit", "0"], "not-a-ccm-magma",
         "classify bad.tbl: input fails the axioms\n"),
        (["extract-group", "bad.tbl", "--unit", "0"], "not-a-ccm-magma",
         "extract-group bad.tbl: input fails the axioms\n"),
        (["relation", "bad.tbl", "--subalgebra", "0", "--unit", "0"], "not-a-ccm-magma",
         "relation bad.tbl: input fails the axioms\n"),
        (["classify", "f5.tbl", "--unit", "1"], "unit-not-idempotent",
         "classify f5.tbl: element 1 is not idempotent\n"),
        (["relation", "z9.tbl", "--subalgebra", "0,1", "--unit", "0"], "not-closed",
         "relation: [0, 1] is not closed; closure is [0, 1, 2, 3, 4, 5, 6, 7, 8]\n"),
        (["relation", "z9.tbl", "--subalgebra", "0,3,6", "--unit", "1"], "bad-unit",
         "relation: unit 1 is not in the subalgebra\n"),
        (["relation", "z9.tbl", "--subalgebra", "0,1,2,3,4,5,6,7,8", "--unit", "1"],
         "bad-unit", "relation: unit 1 is not idempotent\n"),
    ]},
    # successes, each command once
    **{" ".join(argv): (status, None, summary, "") for argv, status, summary in [
        (["check", "f5.tbl"], 0,
         "check f5.tbl: order 5, ccm=True, associative=False, idempotents=[0]\n"),
        (["check", "bad.tbl"], 1,
         "check bad.tbl: order 4, ccm=False, associative=False, idempotents=[0, 2]\n"),
        (["classify", "z9.tbl", "--unit", "0"], 0, "classify z9.tbl at unit 0: label I\n"),
        (["generate", "--order", "5", "--seed", "2", "--out", "g.tbl"], 0,
         "generate: wrote order-5 table to g.tbl\n"),
        (["extract-group", "z9.tbl", "--unit", "0"], 0,
         "extract-group at 0: invariant factors [9]\n"),
        (["relation", "z9.tbl", "--subalgebra", "0,3,6", "--unit", "0"], 0,
         "relation on z9.tbl with X=[0, 3, 6], e=0: congruence=True\n"),
        (["catalog"], 0, "catalog: 28 families\n"),
        (["catalog", "--family", "sum-R", "--samples", "4"], 0,
         "catalog sum-R: label I, expected I, axioms ok=True\n"),
    ]},
    # the warning is not a summary: --json keeps it
    "extract-group f5.tbl --unit 1": (
        0, None, NOT_IDEMPOTENT_WARNING + "extract-group at 1: invariant factors [5]\n",
        NOT_IDEMPOTENT_WARNING),
}


def _patch_everywhere(monkeypatch, module, name, value):
    """Replace module.name in every ccmagma namespace that binds it."""
    original = vars(module)[name]
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ccmagma") and \
                vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, value)


class _Unwritable(io.StringIO):
    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.fixture
def tables(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f5.tbl").write_text(format_magma(F5A))
    (tmp_path / "z9.tbl").write_text(format_magma(Z9A))
    (tmp_path / "bad.tbl").write_text(NON_MEDIAL_4_TEXT)
    (tmp_path / "parse.tbl").write_text("2\n0 2\n2 1\n")
    (tmp_path / "latin1.tbl").write_bytes(b"# \xe9\xe9\n1\n0\n")


class TestStderr:
    """The exact stderr and exit status of every outcome, plain and under
    --json: the golden corpus pins stdout alone."""

    @pytest.mark.parametrize("json_flag", [False, True], ids=["plain", "json"])
    @pytest.mark.parametrize("case", list(STDERR_CASES))
    def test_outcome(self, capsys, tables, case, json_flag):
        status, kind, plain_err, json_err = STDERR_CASES[case]
        code = main(["--json"] * json_flag + case.split())
        out, err = capsys.readouterr()
        assert (code, err) == (status, json_err if json_flag else plain_err)
        if status == 2:
            assert out == ""
        else:
            report = json.loads(out)
            assert (report["schema"], report["command"]) == ("ccmagma.report/1",
                                                             case.split()[0])
            assert report.get("error", {}).get("kind") == kind

    @pytest.mark.parametrize("json_flag", [False, True], ids=["plain", "json"])
    def test_not_a_group(self, capsys, monkeypatch, tables, json_flag):
        from ccmagma import generation
        _patch_everywhere(monkeypatch, generation, "extract_group", lambda m, e: None)
        code = main(["--json"] * json_flag + ["extract-group", "z9.tbl", "--unit", "0"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "" if json_flag else "extract-group: verification failed\n")
        assert json.loads(out)["error"] == {"kind": "not-a-group"}

    @pytest.mark.parametrize("exc, line", [
        (OSError(28, "No space left on device"), "error: [Errno 28] No space left on device\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["OSError", "MemoryError"])
    @pytest.mark.parametrize("json_flag", [False, True], ids=["plain", "json"])
    def test_report_write_fails(self, capsys, monkeypatch, tables, exc, line, json_flag):
        monkeypatch.setattr(sys, "stdout", _Unwritable(exc))
        code = main(["--json"] * json_flag + ["check", "f5.tbl"])
        assert (code, capsys.readouterr().err) == (2, line)


class TestEnvelope:
    """Every report of a command that loads a table names that table's path,
    the SHA-256 of its bytes and its order: successes, check's violation
    report and each error report alike."""

    ORDERS = {"f5.tbl": 5, "z9.tbl": 9, "bad.tbl": 4}

    @pytest.mark.parametrize("case, status, kind", [
        ("check f5.tbl", 0, None),
        ("check bad.tbl", 1, None),
        ("classify z9.tbl --unit 0", 0, None),
        ("classify bad.tbl --unit 0", 1, "not-a-ccm-magma"),
        ("classify f5.tbl --unit 1", 1, "unit-not-idempotent"),
        ("extract-group z9.tbl --unit 0", 0, None),
        ("extract-group bad.tbl --unit 0", 1, "not-a-ccm-magma"),
        ("extract-group z9.tbl --unit 0", 1, "not-a-group"),
        ("relation z9.tbl --subalgebra 0,3,6 --unit 0", 0, None),
        ("relation bad.tbl --subalgebra 0 --unit 0", 1, "not-a-ccm-magma"),
        ("relation z9.tbl --subalgebra 0,1 --unit 0", 1, "not-closed"),
        ("relation z9.tbl --subalgebra 0,3,6 --unit 1", 1, "bad-unit"),
    ])
    def test_input_and_order(self, capsys, monkeypatch, tables, case, status, kind):
        if kind == "not-a-group":
            from ccmagma import generation
            _patch_everywhere(monkeypatch, generation, "extract_group", lambda m, e: None)
        code, report, _ = run(capsys, *case.split())
        assert (code, report.get("error", {}).get("kind")) == (status, kind)
        path = case.split()[1]
        with open(path, "rb") as fh:
            sha256 = hashlib.sha256(fh.read()).hexdigest()
        assert report["input"] == {"path": path, "sha256": sha256}
        assert report["order"] == self.ORDERS[path]


class _Parsed(Exception):
    """Carries the Namespace that main's parser returned out of main, before
    a handler runs."""


def _parse_by_main(argv):
    """Parse argv with whatever parser main builds for it: (exit status,
    None) when argparse exits, (None, Namespace) when parsing succeeds."""
    build = cli.build_parser

    def spy(*args, **kwargs):
        parser = build(*args, **kwargs)
        parse_args = parser.parse_args

        def record(*a, **k):
            raise _Parsed(parse_args(*a, **k))
        parser.parse_args = record
        return parser

    with mock.patch.object(cli, "build_parser", spy):
        try:
            return main(argv), None
        except _Parsed as parsed:
            return None, parsed.args[0]


def _parse_by_sys_argv(argv):
    """As _parse_by_main, with argv read by main from sys.argv, the way the
    installed console script calls it."""
    with mock.patch.object(sys, "argv", ["ccmagma", *argv]):
        return _parse_by_main(None)


def _parse_by_reference(argv):
    try:
        return None, reference_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0), None


def _captured(parse, argv):
    """(exit status, stdout, stderr, Namespace fields with the handler by
    name) of one parse at an 80-column terminal."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status, ns = parse(list(argv))
    fields = None
    if ns is not None:
        fields = dict(vars(ns))
        fields["fn"] = getattr(fields["fn"], "__name__", fields["fn"])
    return status, out.getvalue(), err.getvalue(), fields


SUBCOMMANDS = ("check", "classify", "generate", "extract-group", "relation",
               "catalog")

PARSER_ARGV = [
    [], ["--help"], ["--version"], ["--help", "check"],
    ["--json", "check", "--help"],
    *([name, "--help"] for name in SUBCOMMANDS),
    # every missing required argument
    ["check"], ["classify", "t.tbl"], ["classify", "--unit", "0"],
    ["generate", "--out", "o.tbl"], ["generate", "--order", "3"],
    ["extract-group", "t.tbl"], ["extract-group", "--unit", "0"],
    ["relation", "t.tbl", "--unit", "0"], ["relation", "t.tbl", "--subalgebra", "0"],
    ["relation", "--subalgebra", "0", "--unit", "0"],
    ["classify", "t.tbl", "--unit", "a"], ["catalog", "--samples", "0"],
    ["bogus"], ["--bogus", "check", "t.tbl"], ["check", "t.tbl", "--bogus"],
    ["--js", "check", "x"],
    ["--json", "check", "x"], ["check", "x", "--json"],
    ["--quiet", "check", "x"], ["check", "--quiet", "x"],
    ["--quiet", "--json", "classify", "t.tbl", "--unit", "0"],
    ["generate", "--order", "5", "--seed", "-2", "--out", "o.tbl"],
    ["extract-group", "t.tbl", "--unit", "1", "--out", "g.tbl"],
    ["relation", "t.tbl", "--subalgebra", "0,3,6", "--unit", "0"],
    ["catalog"], ["catalog", "--family", "", "--samples", "3"],
]


class TestParser:
    """The parser main builds answers every argv as the one full build of
    the reference does: same output, status and Namespace."""

    @pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
    def test_matches_reference_parser(self, argv):
        expected = _captured(_parse_by_reference, argv)
        assert _captured(_parse_by_main, argv) == expected
        assert _captured(_parse_by_sys_argv, argv) == expected


# orders stay at 64 or below: a generated table holds order**2 cells
FUZZ_INTS = ("0", "1", "2", "3", "5", "9", "64", "-1", "-3")
FUZZ_PATHS = ("a2.tbl", "f5.tbl", "z9.tbl", "dir", "missing.tbl", "bytes.tbl")
FUZZ_VALUES = (*FUZZ_INTS, *FUZZ_PATHS, "0,3,6", "", " ", "=")
FUZZ_WORDS = (*SUBCOMMANDS, *FUZZ_VALUES, "-h", "--help", "--version", "--json",
              "--quiet", "--unit", "--order", "--seed", "--out", "--subalgebra",
              "--family", "--samples", "--", "--unit=0")
# what each subcommand takes, with the values each part is mostly drawn
# from; "path" stands for the positional
FUZZ_FORMS = {
    "check": (("path", FUZZ_PATHS),),
    "classify": (("path", FUZZ_PATHS), ("--unit", FUZZ_INTS)),
    "generate": (("--order", FUZZ_INTS), ("--seed", FUZZ_INTS), ("--out", FUZZ_PATHS)),
    "extract-group": (("path", FUZZ_PATHS), ("--unit", FUZZ_INTS), ("--out", FUZZ_PATHS)),
    "relation": (("path", FUZZ_PATHS), ("--subalgebra", ("0", "0,3,6", "1,2", "0,99")),
                 ("--unit", FUZZ_INTS)),
    "catalog": (("--family", ("", "nope")), ("--samples", FUZZ_INTS)),
}


@st.composite
def fuzz_argv(draw):
    """Half the time any words; otherwise a subcommand with most of its own
    arguments, now and then an odd value or one stray word, so that
    handlers run as well as argparse's error paths."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(FUZZ_WORDS), max_size=8))
    name = draw(st.sampled_from(SUBCOMMANDS))
    argv = [*draw(st.lists(st.sampled_from(("--json", "--quiet")), max_size=2)), name]
    for part, values in FUZZ_FORMS[name]:
        if draw(st.integers(0, 7)):
            value = draw(st.sampled_from(values if draw(st.integers(0, 7)) else FUZZ_VALUES))
            argv += [value] if part == "path" else [part, value]
    if not draw(st.integers(0, 4)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(FUZZ_WORDS)))
    return argv


class TestExitStatusFuzz:
    """The exit-status contract on drawn argv: 0, 1 or 2, no traceback, and
    stdout empty, one JSON report, or help or version text."""

    @settings(max_examples=300, deadline=None)
    @given(argv=fuzz_argv(), junk=st.binary(max_size=64))
    def test_contract(self, argv, junk):
        here = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)     # relative --out paths land in the temporary directory
            try:
                for name, magma in (("a2.tbl", A2), ("f5.tbl", F5A), ("z9.tbl", Z9A)):
                    with open(name, "w") as f:
                        f.write(format_magma(magma))
                os.mkdir("dir")
                with open("bytes.tbl", "wb") as f:
                    f.write(junk)
                expected = _captured(_parse_by_reference, argv)
                assert _captured(_parse_by_main, argv) == expected
                status, out, err, _ = _captured(lambda a: (main(a), None), argv)
            finally:
                os.chdir(here)
        assert status in (0, 1, 2)
        assert "Traceback" not in err
        if expected[0] is not None:
            assert (status, out, err) == expected[:3]
        if out and not (status == 0 and (out.startswith("usage: ccmagma")
                                          or out == f"{__version__}\n")):
            assert isinstance(json.loads(out), dict)
