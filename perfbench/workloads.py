"""Workload inputs: seeded plans, their materialisation on disk, and the
commands each pass runs.

A plan is plain JSON data chosen from the benchmark seed (generator seeds,
units, subalgebras, defect cells).  Materialising a plan regenerates the
tables with the program's own generator and writes every input file; that
part is what `setup_s` times, in fresh processes that are handed the plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from checks import closure, diagonal_idempotents

WORKLOADS = ("large-valid", "small-sweep", "catalog-all")

LARGE_ORDERS = (64, 64, 96, 96)
SWEEP_ORDERS = range(3, 33)
CATALOG_SAMPLES = 8
DEFECT_KINDS = ("cell", "pair", "intercalate")


@dataclass
class Command:
    argv: list[str]
    kind: str
    key: str = ""             # table key in the materialised context
    malformed: bool = False   # should exit 2; counted failed otherwise


def _generate(order: int, gen_seed: int):
    from ccmagma.generation import generate_quasigroup
    return generate_quasigroup(order, gen_seed)


def _seeded_table(order: int, base_seed: int):
    """First generator seed from base_seed on whose table has an idempotent,
    so every pass runs the same mix of commands whatever the seed."""
    for gen_seed in range(base_seed, base_seed + 1000):
        magma, params = _generate(order, gen_seed)
        idem = diagonal_idempotents(magma.table)
        if idem:
            return gen_seed, magma, params, idem[0]
    raise RuntimeError(f"no table with an idempotent at order {order}")


def defect_kind(order: int) -> str:
    """Rotate the three defect kinds over the even orders and the first two
    over the odd ones: an intercalate needs an element of order 2, which odd
    orders lack.  Order 4 never draws the intercalate, because a swap there
    can land on another medial table."""
    if order % 2 == 0:
        return DEFECT_KINDS[(order // 2 + 1) % 3]
    return DEFECT_KINDS[(order // 2) % 2]


def _defect_cells(table, kind: str, rng: random.Random) -> list[list[int]]:
    """Cells [row, col, new value] of one single defect of the given kind."""
    n = len(table)
    if kind == "intercalate":
        # t[a][a] = t[b][b] makes rows/cols a, b an intercalate; swapping its
        # two symbols keeps the table commutative and Latin
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if table[a][a] == table[b][b]]
        a, b = rng.choice(pairs)
        x, y = table[a][a], table[a][b]
        return [[a, a, y], [b, b, y], [a, b, x], [b, a, x]]
    i, j = rng.sample(range(n), 2)
    v = rng.choice([k for k in range(n) if k != table[i][j]])
    if kind == "cell":
        return [[i, j, v]]
    return [[i, j, v], [j, i, v]]


def make_plan(workload: str, seed: int) -> dict:
    """Choose every input of one workload from the benchmark seed."""
    if workload == "catalog-all":
        from ccmagma.catalog import CATALOG
        return {"workload": workload, "families": list(CATALOG)}
    if workload == "large-valid":
        tables = []
        for k, order in enumerate(LARGE_ORDERS):
            gen_seed, _, _, unit = _seeded_table(order, 1000 * seed + 100 * k)
            tables.append({"order": order, "gen_seed": gen_seed, "unit": unit})
        return {"workload": workload, "tables": tables}
    if workload == "small-sweep":
        tables = []
        for order in SWEEP_ORDERS:
            gen_seed, magma, _, unit = _seeded_table(order, 1000 * seed)
            rng = random.Random(f"{seed}:{order}")
            kind = defect_kind(order)
            tables.append({
                "order": order, "gen_seed": gen_seed, "unit": unit,
                "subalgebra": _proper_subalgebra(magma.table, unit),
                "defect": {"kind": kind,
                           "cells": _defect_cells(magma.table, kind, rng)}})
        return {"workload": workload, "tables": tables}
    raise ValueError(f"unknown workload {workload!r}")


def _proper_subalgebra(table, unit: int):
    """Closure of {unit, y} for the smallest y that keeps it proper; None at
    prime orders, where every such closure is the whole table."""
    n = len(table)
    for y in range(n):
        if y != unit:
            sub = closure(table, {unit, y})
            if len(sub) < n:
                return sub
    return None


def materialise(plan: dict, workdir: Path) -> tuple[list[Command], dict]:
    """Write every input file of the plan under workdir and return the
    commands of one pass and the context the checks need."""
    from ccmagma.core import format_magma
    workdir.mkdir(parents=True, exist_ok=True)
    workload = plan["workload"]
    if workload == "catalog-all":
        cmds = [Command(["catalog", "--family", fid,
                         "--samples", str(CATALOG_SAMPLES)], "catalog", key=fid)
                for fid in plan["families"]]
        return cmds, {}

    ctx: dict = {}
    cmds: list[Command] = []
    for spec in plan["tables"]:
        order, unit = spec["order"], spec["unit"]
        magma, params = _generate(order, spec["gen_seed"])
        key = f"{order}-{spec['gen_seed']}"
        path = workdir / f"t{key}.tbl"
        path.write_text(format_magma(magma), encoding="utf-8")
        entry = {"order": order, "gen_seed": spec["gen_seed"], "unit": unit,
                 "path": str(path), "params": params.to_json_dict()}
        ctx[key] = entry
        u = str(unit)
        if workload == "large-valid":
            cmds += [Command(["check", str(path)], "check", key),
                     Command(["classify", str(path), "--unit", u], "classify", key),
                     Command(["extract-group", str(path), "--unit", u],
                             "extract-group", key)]
            continue
        gen_out = workdir / f"g{key}.tbl"
        cmds += [Command(["generate", "--order", str(order),
                          "--seed", str(spec["gen_seed"]), "--out", str(gen_out)],
                         "generate", key),
                 Command(["check", str(path)], "check", key),
                 Command(["classify", str(path), "--unit", u], "classify", key),
                 Command(["extract-group", str(path), "--unit", u],
                         "extract-group", key)]
        if spec["subalgebra"] is not None:
            entry["subalgebra"] = spec["subalgebra"]
            cmds.append(Command(
                ["relation", str(path), "--subalgebra",
                 ",".join(map(str, spec["subalgebra"])), "--unit", u],
                "relation", key))
        rows = [list(r) for r in magma.table]
        for i, j, v in spec["defect"]["cells"]:
            rows[i][j] = v
        bad = workdir / f"d{key}.tbl"
        bad.write_text(format_magma(type(magma)(tuple(map(tuple, rows)))),
                       encoding="utf-8")
        dkey = "defect-" + key
        ctx[dkey] = {"order": order, "rows": rows}
        cmds += [Command(["check", str(bad)], "defect-check", dkey),
                 Command(["classify", str(bad), "--unit", u],
                         "defect-classify", dkey)]
    if workload == "small-sweep":
        order3 = next(v for v in ctx.values() if v["order"] == 3 and "params" in v)
        cmds += _malformed(workdir, order3)
    return cmds, ctx


def _malformed(workdir: Path, order3: dict) -> list[Command]:
    """Five malformed-input commands.  Each should exit 2 without a
    traceback; today each raises or exits 0, so each is counted failed."""
    directory = workdir / "a-directory.tbl"
    directory.mkdir(exist_ok=True)
    latin1 = workdir / "latin1.tbl"
    latin1.write_bytes(b"# \xe9\xe9\n1\n0\n")
    return [
        Command(["relation", order3["path"], "--subalgebra", "0,99",
                 "--unit", str(order3["unit"])], "malformed", malformed=True),
        Command(["catalog", "--family", "midpoint-R", "--samples", "0"],
                "malformed", malformed=True),
        Command(["check", str(directory)], "malformed", malformed=True),
        Command(["check", str(latin1)], "malformed", malformed=True),
        Command(["catalog", "--family", "midpoint-R", "--samples", "-3"],
                "malformed", malformed=True),
    ]
