"""Golden CLI corpus: every report must stay byte-identical.

A fixed set of commands runs in process through ``cli.main``: the fixture
tables, generated tables of orders 1..20, single-cell and symmetric-pair
defect copies, ``classify``/``extract-group`` at idempotent and
non-idempotent units, ``relation`` on closed and unclosed subalgebras, and
``catalog --samples 4`` for a handful of families.  Each stdout is
normalised (``elapsed_ms`` and ``input.path`` dropped, keys sorted) and
compared by SHA-256, together with the exit status, to the digests in
``golden_cli.json``.

After an intended change of output, rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from ccmagma import fixtures
from ccmagma.cli import main
from ccmagma.core import FiniteMagma, format_magma, subalgebra_closure
from ccmagma.generation import generate_quasigroup

GOLDEN = Path(__file__).with_name("golden_cli.json")

NON_MEDIAL_4 = FiniteMagma(((0, 1, 3, 2), (1, 2, 0, 3), (3, 0, 2, 1), (2, 3, 1, 0)))

CATALOG_FAMILIES = ("midpoint-[0,1]", "harmonic-(0,1]", "doubling-N0",
                    "affine-Z:2,0", "probsum-[0,1)", "cuberoot-mean-R",
                    "geometric-(0,1)", "tanh-sum-(0,1)", "doubling-R+")


def _with_cell(m: FiniteMagma, cells: dict) -> FiniteMagma:
    rows = [list(r) for r in m.table]
    for (i, j), v in cells.items():
        rows[i][j] = v
    return FiniteMagma(tuple(tuple(r) for r in rows))


def _tables() -> dict[str, FiniteMagma]:
    tables = {
        "double-mod3": fixtures.DOUBLE_MOD3,
        "double-mod3-shifted": fixtures.DOUBLE_MOD3_SHIFTED,
        "double-mod5": fixtures.DOUBLE_MOD5,
        "double-mod9": fixtures.DOUBLE_MOD9,
        "singleton": fixtures.singleton(),
        "cyclic6": fixtures.cyclic_add(6),
        "affine-mod4-2": fixtures.affine_mod(4, 2, 0),
        "non-medial4": NON_MEDIAL_4,
    }
    for n in range(1, 21):
        tables[f"gen{n}"] = generate_quasigroup(n, n)[0]
    for n in (5, 8, 12, 16):
        m = generate_quasigroup(n, n)[0]
        tables[f"gen{n}-cell"] = _with_cell(m, {(0, 1): (m.table[0][1] + 1) % n})
        v = (m.table[1][2] + 1) % n
        tables[f"gen{n}-pair"] = _with_cell(m, {(1, 2): v, (2, 1): v})
    return tables


def _units(m: FiniteMagma) -> list[int]:
    """Up to two idempotents and the first non-idempotent element."""
    idem = [i for i in m.elements() if m.table[i][i] == i]
    other = [i for i in m.elements() if m.table[i][i] != i]
    return idem[:2] + other[:1]


def _subalgebras(m: FiniteMagma, e: int) -> list[list[int]]:
    """The unit alone, a proper closed two-generated subalgebra and an
    unclosed seed when they exist, and the whole carrier."""
    closures = {x: list(subalgebra_closure(m, (e, x))) for x in m.elements()}
    out = [[e]]
    out += [c for c in closures.values() if 1 < len(c) < m.order][:1]
    out += [sorted({e, x}) for x, c in closures.items() if c != sorted({e, x})][:1]
    out.append(list(m.elements()))
    return out


def corpus(directory: Path) -> dict[str, list[str]]:
    """Case id -> argv; writes the tables into directory."""
    cases: dict[str, list[str]] = {"catalog": ["catalog"]}
    for name, m in _tables().items():
        path = directory / f"{name}.tbl"
        path.write_text(format_magma(m), encoding="utf-8")
        p = str(path)
        cases[f"check {name}"] = ["check", p]
        for u in _units(m):
            cases[f"classify {name} {u}"] = ["classify", p, "--unit", str(u)]
            cases[f"extract-group {name} {u}"] = ["extract-group", p, "--unit", str(u)]
        cases[f"classify {name} out-of-range"] = ["classify", p, "--unit", str(m.order)]
        idem = [i for i in m.elements() if m.table[i][i] == i]
        for e in idem[:1]:
            for xs in _subalgebras(m, e):
                spec = ",".join(map(str, xs))
                cases[f"relation {name} {spec} {e}"] = [
                    "relation", p, "--subalgebra", spec, "--unit", str(e)]
        if idem and len(idem) < m.order:
            other = next(i for i in m.elements() if i not in idem)
            cases[f"relation {name} all {other}"] = [
                "relation", p, "--subalgebra", ",".join(map(str, m.elements())),
                "--unit", str(other)]
    for fam in CATALOG_FAMILIES:
        cases[f"catalog {fam}"] = ["catalog", "--family", fam, "--samples", "4"]
    return cases


def _normalise(stdout: str) -> str:
    if not stdout.strip():
        return ""
    report = json.loads(stdout)
    report.pop("elapsed_ms", None)
    if isinstance(report.get("input"), dict):
        report["input"].pop("path", None)
    return json.dumps(report, sort_keys=True)


def run_corpus(directory: Path) -> dict[str, list]:
    """Case id -> [exit status, digest of the normalised stdout]."""
    out = {}
    for case, argv in corpus(directory).items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--quiet", *argv])
        digest = hashlib.sha256(_normalise(buf.getvalue()).encode()).hexdigest()
        out[case] = [code, digest[:16]]
    return out


def test_cli_reports_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_corpus(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [case for case in got if got[case] != expected[case]]
    assert not changed, f"{len(changed)} reports changed, e.g. {changed[:5]}"


def test_corpus_covers_every_outcome():
    codes = {code for code, _ in json.loads(GOLDEN.read_text(encoding="utf-8")).values()}
    assert codes == {0, 1, 2}


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_corpus(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
