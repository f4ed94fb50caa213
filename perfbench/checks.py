"""Checks of every command's report against answers computed apart from
the program: the generator's Toyoda parameters rebuilt with plain
mixed-radix arithmetic, and naive loops.  Nothing here imports ccmagma.

Each check raises CheckFailure with the command and the first mismatch.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product

FLOAT_TOL = 1e-9

# labels of the README's catalog table; geometric-(0,1) has none published
PUBLISHED_LABELS = {
    "midpoint-R": "I", "midpoint-[0,inf)": "II", "midpoint-[0,1]": "III",
    "midpoint-R+": "IV", "harmonic-(0,1]": "II", "harmonic-(1,inf)": "III",
    "harmonic-R+": "IV", "third-[-1,1]": "III", "third-[0,1]": "IV",
    "doubling-R": "I", "doubling-[0,inf)": "II", "doubling-N0": "V",
    "affine-Z:2,0": "VI", "sum-R": "I", "sum-[0,inf)": "II",
    "probsum-[0,1)": "II", "cuberoot-mean-R": "I", "cuberoot-doubling-R": "I",
}
FAMILIES_WITH_UNIT = set(PUBLISHED_LABELS) | {"geometric-(0,1)"}
LABEL_FLAGS = {  # (expansive, symmetric, monoid, group) per label
    "I": (True, True, True, True), "II": (True, False, True, False),
    "III": (False, True, False, False), "IV": (False, False, False, False),
    "V": (False, False, True, False), "VI": (False, True, True, True),
}


class CheckFailure(AssertionError):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


# ---------------------------------------------------------------------------
# tables rebuilt from the generator's parameters

def _decode(k: int, factors) -> list[int]:
    out = []
    for f in reversed(factors):
        k, r = divmod(k, f)
        out.append(r)
    return out[::-1]


def _encode(coords, factors) -> int:
    k = 0
    for f, c in zip(factors, coords):
        k = k * f + c % f
    return k


def _coords(params: dict) -> list[list[int]]:
    """Group coordinates of each label: decode(s^-1 x)."""
    sigma = params["relabeling"]
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return [_decode(k, params["invariant_factors"]) for k in inv]


def toyoda_rows(params: dict) -> list[list[int]]:
    """x op y = s(phi(s^-1 x + s^-1 y) + c) with phi multiplying each cyclic
    coordinate by its multiplier and s the relabeling."""
    fs, ms, sigma = params["invariant_factors"], params["multipliers"], params["relabeling"]
    coords = _coords(params)
    c = _decode(params["translation"], fs)
    return [[sigma[_encode([m * (a + b) + t for m, a, b, t in zip(ms, cx, cy, c)], fs)]
             for cy in coords] for cx in coords]


def group_rows(params: dict, e: int) -> list[list[int]]:
    """The group got by dividing out column e: i * j = s(s^-1 i + s^-1 j - s^-1 e)."""
    fs, sigma = params["invariant_factors"], params["relabeling"]
    coords = _coords(params)
    ce = coords[e]
    return [[sigma[_encode([a + b - u for a, b, u in zip(ci, cj, ce)], fs)]
             for cj in coords] for ci in coords]


def table_text(rows) -> str:
    return "".join([f"{len(rows)}\n"] + [" ".join(map(str, r)) + "\n" for r in rows])


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def diagonal_idempotents(rows) -> list[int]:
    return [i for i in range(len(rows)) if rows[i][i] == i]


def closure(rows, seed) -> list[int]:
    current = set(seed)
    while True:
        fresh = {rows[x][y] for x in current for y in current} - current
        if not fresh:
            return sorted(current)
        current |= fresh


# ---------------------------------------------------------------------------
# naive axiom scans: the first violation in lexicographic order

def brute_axioms(rows) -> dict:
    n = len(rows)
    r = range(n)
    comm = next(([a, b] for a, b in product(r, r) if rows[a][b] != rows[b][a]), None)
    canc = next(([a, b, c] for a, b, c in product(r, r, r)
                 if a != b and rows[a][c] == rows[b][c]), None)
    if canc is None:
        canc = next(([a, b, c] for a, b, c in product(r, r, r)
                     if a != b and rows[c][a] == rows[c][b]), None)
    med = next(([a, b, c, d] for a, b, c, d in product(r, r, r, r)
                if rows[rows[a][b]][rows[c][d]] != rows[rows[a][c]][rows[b][d]]),
               None)
    assoc = first_assoc_violation(rows)
    return {
        "commutative": comm is None, "commutative_counterexample": comm,
        "cancellative": canc is None, "cancellative_counterexample": canc,
        "medial": med is None, "medial_counterexample": med,
        "associative": assoc is None, "associative_counterexample": assoc,
        "idempotents": diagonal_idempotents(rows),
        "is_ccm": comm is None and canc is None and med is None,
    }


def first_assoc_violation(rows):
    n = len(rows)
    return next(([a, b, c] for a, b, c in product(range(n), repeat=3)
                 if rows[rows[a][b]][c] != rows[a][rows[b][c]]), None)


# ---------------------------------------------------------------------------
# per-command checks

def _load(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"stdout is not one JSON report: {exc}") from None


def expected_valid_table(entry: dict) -> dict:
    """Answers for a generated table, derived from its Toyoda parameters."""
    params = entry["params"]
    rows = toyoda_rows(params)
    idem = diagonal_idempotents(rows)
    assoc = all(m % f == 1 for m, f in
                zip(params["multipliers"], params["invariant_factors"]))
    return {
        "rows": rows, "sha256": sha256_text(table_text(rows)),
        "idempotents": idem, "associative": assoc,
        "factors": params["invariant_factors"],
        "group_text": table_text(group_rows(params, entry["unit"])),
    }


def check_valid_check(rep: dict, exp: dict) -> None:
    res = rep["results"]
    for flag in ("commutative", "cancellative", "medial", "is_ccm"):
        expect(res[flag] is True, f"{flag} should hold (Toyoda-Bruck)")
    for flag in ("commutative", "cancellative", "medial"):
        expect(res[flag + "_counterexample"] is None, f"{flag} counterexample reported")
    expect(res["associative"] == exp["associative"],
           "associative should hold exactly when every multiplier is 1")
    ce = None if exp["associative"] else first_assoc_violation(exp["rows"])
    expect(res["associative_counterexample"] == ce,
           f"associative counterexample {res['associative_counterexample']} != {ce}")
    expect(res["idempotents"] == exp["idempotents"], "idempotents differ")
    expect(res["idempotent_count"] == len(exp["idempotents"]), "idempotent count")
    expect(res["idempotent_subalgebra"] == exp["idempotents"], "idempotent subalgebra")
    expect(res["idempotent_parity_ok"] is True, "parity audit")


def check_command(cmd, code, out: str, ctx: dict) -> None:
    """Raise CheckFailure unless the report of cmd is right."""
    if cmd.kind == "catalog":
        return check_catalog(cmd.key, code, _load(out))
    entry = ctx[cmd.key]
    rep = _load(out)
    if cmd.kind.startswith("defect-"):
        expect(code == 1, f"exit {code}, expected 1 on a defective table")
        axioms = brute_axioms(entry["rows"])
        expect(not axioms["is_ccm"], "defect left a ccm-magma")
        if cmd.kind == "defect-check":
            got = {k: rep["results"][k] for k in axioms}
        else:
            expect(rep["error"]["kind"] == "not-a-ccm-magma", "error kind")
            got = rep["error"]["axioms"]
        expect(got == axioms, f"axiom report {got} != {axioms}")
        return
    expect(code == 0, f"exit {code}, expected 0")
    if "expected" not in entry:
        entry["expected"] = expected_valid_table(entry)
    exp = entry["expected"]
    if cmd.kind == "generate":
        return check_generate(cmd, rep, entry, exp)
    expect(rep["order"] == entry["order"], "order")
    expect(rep["input"]["sha256"] == exp["sha256"],
           "input hash differs from the table rebuilt from the sidecar")
    e = entry["unit"]
    if cmd.kind == "check":
        check_valid_check(rep, exp)
    elif cmd.kind == "classify":
        res = rep["results"]
        expect(e in exp["idempotents"], "unit is not idempotent")
        got = [res[k] for k in ("expansive", "symmetric", "monoid", "group")]
        expect(got == [True] * 4 and res["label"] == "I",
               f"finite table at an idempotent should be label I, got {res}")
        expect(res["group_invariant_factors"] == exp["factors"], "invariant factors")
    elif cmd.kind == "extract-group":
        res = rep["results"]
        expect(res["invariant_factors"] == exp["factors"], "invariant factors")
        expect(res["group_table"] == exp["group_text"], "group table")
        expect(res["warning"] is None, "warning at an idempotent unit")
    elif cmd.kind == "relation":
        check_relation(rep["results"], exp["rows"], entry["subalgebra"], e)
    else:
        raise CheckFailure(f"no check for kind {cmd.kind}")


def check_generate(cmd, rep: dict, entry: dict, exp: dict) -> None:
    res = rep["results"]
    with open(res["sidecar_path"], encoding="utf-8") as fh:
        sidecar = json.load(fh)
    expect(sidecar["order"] == entry["order"] and sidecar["seed"] == entry["gen_seed"],
           "sidecar order/seed")
    rows = toyoda_rows(sidecar)
    text = table_text(rows)
    with open(cmd.argv[cmd.argv.index("--out") + 1], "rb") as fh:
        written = fh.read()
    expect(written == text.encode("utf-8"),
           "written table differs from the one rebuilt from its sidecar")
    expect(res["sha256"] == sha256_text(text), "generate hash")
    expect(res["invariant_factors"] == sidecar["invariant_factors"], "factors")
    expect(res["idempotent_count"] == len(diagonal_idempotents(rows)),
           "idempotent count")
    expect(sidecar["invariant_factors"] == exp["factors"], "sidecar differs from plan")


def check_relation(res: dict, rows, sub, e: int) -> None:
    n = len(rows)
    sub = sorted(sub)
    grid = [[any(rows[a][e] == rows[x][b] for x in sub) for b in range(n)]
            for a in range(n)]
    text = "".join([f"{n} {n}\n"] + [" ".join("1" if v else "0" for v in row) + "\n"
                                     for row in grid])
    expect(res["subalgebra"] == sub and res["unit"] == e, "subalgebra/unit")
    expect(res["relation"] == text, "relation grid")
    pairs = [(a, b) for a in range(n) for b in range(n) if grid[a][b]]
    internal = all(grid[rows[a][c]][rows[b][d]] for a, b in pairs for c, d in pairs)
    reflexive = all(grid[a][a] for a in range(n))
    symmetric = all(grid[b][a] for a, b in pairs)
    transitive = all(grid[a][c] for a, b in pairs for c in range(n) if grid[b][c])
    # difunctional: any two rows are equal or disjoint
    row_sets = {frozenset(b for b in range(n) if grid[a][b]) for a in range(n)}
    difunctional = all(r1 == r2 or not (r1 & r2) for r1 in row_sets for r2 in row_sets)
    congruence = internal and reflexive and symmetric and transitive
    want = {"internal": internal, "reflexive": reflexive, "symmetric": symmetric,
            "transitive": transitive, "difunctional": difunctional,
            "congruence": congruence, "transitivity_criterion": transitive}
    got = {k: res[k] for k in want}
    expect(got == want, f"relation flags {got} != {want}")
    if congruence:
        expect(res["classes"] == len(row_sets), "class count")


def check_catalog(fid: str, code, rep: dict) -> None:
    expect(code == 0, f"exit {code}, expected 0")
    res = rep["results"]
    expect(rep["family"] == fid == res["family"], "family id")
    expect(res["m1"] and res["m2"] and res["m3"], "M1-M3 should hold")
    expect(res["closure_violations"] == 0, "closure violations")
    if res["mode"] == "float":
        expect(res["worst_residual"] <= FLOAT_TOL, "float residual above 1e-9")
    else:
        expect(res["worst_residual"] is None, "exact family with a residual")
    has_unit = fid in FAMILIES_WITH_UNIT
    expect(("classification_detail" in res) == has_unit, "classification presence")
    label = PUBLISHED_LABELS.get(fid)
    if has_unit:
        detail = res["classification_detail"]
        flags = detail["flags"]
        expect(LABEL_FLAGS[detail["label"]] == (flags["expansive"], flags["symmetric"],
                                                flags["monoid"], flags["group"]),
               "label does not match its flags")
        expect(res["classification"] == detail["label"], "two classifications differ")
    if label is not None:
        expect(res["classification"] == label,
               f"label {res['classification']} != published {label}")
        expect(res["matches_expected"] is True, "matches_expected")
    if fid == "harmonic-(0,1]":
        expect(res["star_formula_ok"] is True and harmonic_star_formula_holds(),
               "harmonic star formula")
        expect(res["half_has_no_inverse"] is True and half_has_no_inverse(),
               "1/2 has no inverse")


def harmonic_star_formula_holds(den: int = 8) -> bool:
    """s = xy/(x+y-xy) solves s op 1 = x op y for op(a, b) = 2ab/(a+b)."""
    def op(a, b):
        return 2 * a * b / (a + b)

    pts = [Fraction(k, den) for k in range(1, den + 1)]
    return all(op(x * y / (x + y - x * y), Fraction(1)) == op(x, y)
               for x in pts for y in pts)


def half_has_no_inverse() -> bool:
    """star(1/2, y) = y/(1+y) < 1 for every y in (0, 1], so never the unit."""
    half = Fraction(1, 2)
    return all(half * y / (half + y - half * y) < 1
               for y in (Fraction(k, 64) for k in range(1, 65)))
