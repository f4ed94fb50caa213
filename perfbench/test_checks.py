"""Self-test of the benchmark's output checks.

    python3 -m pytest perfbench/test_checks.py -q

Runs a shortened pass of each workload and shows that every report passes
its check, then corrupts one report at a time and shows the check rejects
it.  Kept out of the package's tier-1 suite (testpaths = tests).
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import CheckFailure, check_command  # noqa: E402
from run import _failed, _run_command  # noqa: E402
from speed import REFERENCE_NS, SpeedProbe  # noqa: E402
from workloads import make_plan, materialise  # noqa: E402

from ccmagma import cli  # noqa: E402

SEED = 7
QUICK_FAMILIES = ["harmonic-(0,1]", "midpoint-[0,1]", "cuberoot-mean-R",
                  "doubling-N0", "affine-Z:2,0", "harmonic-(1,inf)", "tanh-sum-(0,1)"]


def _short_plan(workload: str) -> dict:
    if workload == "catalog-all":
        return {"workload": workload, "families": QUICK_FAMILIES}
    plan = make_plan(workload, SEED)
    if workload == "large-valid":
        plan["tables"] = plan["tables"][:1]
    else:
        plan["tables"] = [t for t in plan["tables"] if t["order"] <= 10]
    return plan


@pytest.fixture(scope="module", params=["large-valid", "small-sweep", "catalog-all"])
def short_pass(request, tmp_path_factory):
    cmds, ctx = materialise(_short_plan(request.param),
                            tmp_path_factory.mktemp(request.param))
    return cmds, ctx, [_run_command(cli, c.argv) for c in cmds]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A shortened small-sweep pass as (command, outcome) pairs."""
    cmds, ctx = materialise(_short_plan("small-sweep"), tmp_path_factory.mktemp("sweep"))
    return [(c, _run_command(cli, c.argv)) for c in cmds], ctx


def test_short_pass_reports_pass_their_checks(short_pass):
    cmds, ctx, outcomes = short_pass
    for cmd, (code, out, exc) in zip(cmds, outcomes):
        if cmd.malformed:
            assert _failed(cmd, (code, out, exc)), cmd.argv
            continue
        assert exc is None, (cmd.argv, exc)
        check_command(cmd, code, out, ctx)


def _first(runs, kind, pred=lambda rep: True):
    for cmd, (code, out, _) in runs:
        if cmd.kind == kind and pred(json.loads(out)):
            return cmd, code, json.loads(out)
    raise LookupError(kind)


def _rejects(cmd, code, rep, ctx):
    with pytest.raises(CheckFailure):
        check_command(cmd, code, json.dumps(rep), ctx)


def test_flipped_flag_is_rejected(sweep):
    runs, ctx = sweep
    cmd, code, rep = _first(runs, "check")
    check_command(cmd, code, json.dumps(rep), ctx)
    for flag in ("associative", "medial", "cancellative", "idempotent_parity_ok"):
        bad = copy.deepcopy(rep)
        bad["results"][flag] = not bad["results"][flag]
        _rejects(cmd, code, bad, ctx)


def test_shifted_counterexample_is_rejected(sweep):
    runs, ctx = sweep
    for kind in ("defect-check", "defect-classify"):
        cmd, code, rep = _first(runs, kind)
        axioms = rep["results"] if kind == "defect-check" else rep["error"]["axioms"]
        key = next(k for k, v in axioms.items()
                   if k.endswith("_counterexample") and v is not None)
        axioms[key][-1] = (axioms[key][-1] + 1) % ctx[cmd.key]["order"]
        _rejects(cmd, code, rep, ctx)


def test_associative_counterexample_shift_is_rejected(sweep):
    runs, ctx = sweep
    cmd, code, rep = _first(
        runs, "check", lambda r: r["results"]["associative_counterexample"] is not None)
    rep["results"]["associative_counterexample"][-1] += 1
    _rejects(cmd, code, rep, ctx)


def test_flipped_relation_cell_is_rejected(sweep):
    runs, ctx = sweep
    cmd, code, rep = _first(runs, "relation")
    lines = rep["results"]["relation"].splitlines(keepends=True)
    cells = lines[1].split()
    cells[0] = "0" if cells[0] == "1" else "1"
    lines[1] = " ".join(cells) + "\n"
    rep["results"]["relation"] = "".join(lines)
    _rejects(cmd, code, rep, ctx)


def test_changed_label_is_rejected(sweep):
    runs, ctx = sweep
    cmd, code, rep = _first(runs, "classify")
    rep["results"]["label"] = "II"
    _rejects(cmd, code, rep, ctx)
    cmd = type(cmd)(["catalog", "--family", "midpoint-[0,1]", "--samples", "8"],
                    "catalog", key="midpoint-[0,1]")
    code, out, _ = _run_command(cli, cmd.argv)
    rep = json.loads(out)
    rep["results"]["classification"] = "II"
    rep["results"]["classification_detail"]["label"] = "II"
    _rejects(cmd, code, rep, ctx)


def test_changed_invariant_factor_is_rejected(sweep):
    runs, ctx = sweep
    for kind, field in (("extract-group", "invariant_factors"),
                        ("classify", "group_invariant_factors")):
        cmd, code, rep = _first(runs, kind)
        rep["results"][field][0] += 1
        _rejects(cmd, code, rep, ctx)


def test_wrong_exit_status_is_rejected(sweep):
    runs, ctx = sweep
    cmd, code, rep = _first(runs, "defect-check")
    with pytest.raises(CheckFailure):
        check_command(cmd, 0, json.dumps(rep), ctx)


def test_speed_scale_drops_impossible_readings():
    probe = SpeedProbe()
    probe.samples = [REFERENCE_NS, 0, 2 * REFERENCE_NS, 1, REFERENCE_NS]
    assert probe.scale(0, 5) == pytest.approx((1 + 0.5 + 1) / 3)
    assert probe.scale(1, 2, fallback=(0, 5)) == pytest.approx((1 + 0.5 + 1) / 3)
