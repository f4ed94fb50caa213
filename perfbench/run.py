"""End-to-end benchmark of the ccmagma CLI.

    python3 perfbench/run.py --workload <large-valid|small-sweep|catalog-all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  One process, one thread, one client
in a closed loop: each command is `ccmagma.cli.main(argv)` called in
process with stdout and stderr captured, and the next starts when it
returns.  The loop runs whole passes over the workload's commands while
another pass still fits in --seconds (at least one).  Times are process
CPU times scaled to a reference speed (speed.py).  Every report is checked
after the loop against answers computed apart from the program.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
See README.md in this directory.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe, cpu_time  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / "_work"
OUT_ROOT = HERE / "_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _import_package(root: Path):
    """Import ccmagma from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "ccmagma" / "__init__.py").is_file():
        raise SystemExit(f"error: no ccmagma sources under {src}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import ccmagma
    if Path(ccmagma.__file__).resolve().parent != (src / "ccmagma").resolve():
        raise SystemExit(f"error: imported ccmagma from {ccmagma.__file__}")
    return ccmagma


def _run_command(cli, argv):
    """One closed-loop request: (exit code or None, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a traceback that would reach the user
        return None, out.getvalue(), exc
    return code, out.getvalue(), None


@dataclass
class Pass:
    cpu: float                        # CPU seconds for the whole pass
    times: list[float]                # CPU seconds per command
    outcomes: list[tuple]             # (exit code, stdout, exception) per command
    marks: list[tuple[int, int]]      # speed-probe readings taken per command
    span: tuple[int, int]             # speed-probe readings taken in the pass


def _run_pass(cli, cmds, tracer=None, probe=None) -> Pass:
    """Run every command once.  A tracer also gets the wrapped calls each
    command made, in tracer.per_command."""
    mark = probe.mark if probe is not None else (lambda: 0)
    times, outcomes, marks, calls = [], [], [], []
    first = mark()
    start = cpu_time()
    for cmd in cmds:
        if tracer is not None:
            tracer.command += 1
            before = dict(tracer.calls)
        m0 = mark()
        t0 = cpu_time()
        outcome = _run_command(cli, cmd.argv)
        times.append(cpu_time() - t0)
        marks.append((m0, mark()))
        outcomes.append(outcome)
        if tracer is not None:
            calls.append({k: v - before.get(k, 0) for k, v in tracer.calls.items()
                          if v != before.get(k, 0)})
    cpu = cpu_time() - start
    if tracer is not None:
        tracer.per_command = calls
    return Pass(cpu, times, outcomes, marks, (first, mark()))


def _failed(cmd, outcome) -> bool:
    code, _, exc = outcome
    return exc is not None or (cmd.malformed and code != 2)


def _normalised(out: str):
    try:
        rep = json.loads(out)
    except json.JSONDecodeError:
        return out
    rep.pop("elapsed_ms", None)
    return rep


def _verify(cmds, passes, ctx) -> list[str]:
    """Check the first pass's reports; later passes must repeat them."""
    from checks import CheckFailure, check_command
    problems = []
    first = passes[0]
    for cmd, (code, out, exc) in zip(cmds, first):
        if exc is not None or cmd.malformed:
            continue
        try:
            check_command(cmd, code, out, ctx)
        except CheckFailure as why:
            problems.append(f"{' '.join(cmd.argv)}: {why}")
        except (KeyError, TypeError, ValueError, OSError) as why:
            problems.append(f"{' '.join(cmd.argv)}: malformed report ({why!r})")
    for later in passes[1:]:
        for cmd, a, b in zip(cmds, first, later):
            if a[0] != b[0] or _normalised(a[1]) != _normalised(b[1]):
                problems.append(f"{' '.join(cmd.argv)}: report changed between passes")
    return problems


def _probe_setup(plan_file: Path, n: int) -> list[float]:
    """CPU seconds a fresh interpreter takes from its start until it has
    imported ccmagma and materialised the plan, n times in a row, each
    scaled to the reference speed by the speed probe run inside it."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", str(plan_file)],
            cwd=os.getcwd(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        used, scale = map(float, proc.stdout.split()[-2:])
        out.append(used * scale)
    return out


def _probe(plan_file: Path) -> None:
    """Body of a setup probe: import, materialise, print the CPU time used
    since the process started and the speed scale over that interval."""
    with SpeedProbe() as probe:
        _import_package(Path.cwd())
        from workloads import materialise
        plan = json.loads(plan_file.read_text(encoding="utf-8"))
        workdir = WORK_ROOT / f"probe-{os.getpid()}"
        try:
            materialise(plan, workdir)
            used = cpu_time()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(used, probe.scale(0, probe.mark()))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _loop(cli, cmds, seconds, tracer=None, probe=None):
    """Whole rounds while another fits in `seconds`, at least one.  A round
    is one pass, or with a tracer an untraced pass then a traced one.
    Returns (untraced passes, traced passes, per-layer aggregates of each
    traced pass)."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(_run_pass(cli, cmds, probe=probe))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(_run_pass(cli, cmds, tracer, probe))
            finally:
                tracer.uninstall()
            layers.append(_layer_aggregates(tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced, layers


def _layer_aggregates(tracer) -> dict:
    return {"self_ns": dict(tracer.self_ns), "calls": dict(tracer.calls),
            "work": dict(tracer.work),
            "cli_self_ns": list(tracer.root_self_ns)}


def _layer_metrics(layer_passes, memory, overhead) -> dict:
    def med_ms(name):
        return statistics.median(p["self_ns"].get(name, 0) for p in layer_passes) / 1e6

    def calls(name):
        counts = {p["calls"].get(name, 0) for p in layer_passes}
        if len(counts) != 1:
            raise RuntimeError(f"{name} call count changed between passes: {counts}")
        return counts.pop()

    def rate(name):
        work = layer_passes[0]["work"].get(name, 0)
        secs = med_ms(name) / 1e3
        return work / secs if secs else 0.0

    cli_self = [ns for p in layer_passes for ns in p["cli_self_ns"]]
    m = {"cli.self_ms": _metric(statistics.median(cli_self) / 1e6, "ms")}
    for name in ("core.parse_magma", "core.check_axioms", "structures.internal_monoid",
                 "structures.internal_group", "structures.classify_finite",
                 "generation.generate_quasigroup", "generation.ToyodaParams",
                 "generation.toyoda_table", "generation.extract_group",
                 "generation.invariant_factors", "relations.subalgebra_relation",
                 "relations.is_internal", "relations.is_congruence",
                 "relations.transitivity_criterion", "core.subalgebra_closure",
                 "catalog.sampled_axiom_check", "catalog.classify_family"):
        m[f"{name}.ms"] = _metric(med_ms(name), "ms")
    for name in ("core.check_axioms", "structures.internal_monoid",
                 "relations.is_internal", "catalog.evaluate", "catalog.classify_family"):
        m[f"{name}.calls"] = _metric(calls(name), "count")
    m["core.parse_magma.cells_per_s"] = _metric(rate("core.parse_magma"), "1/s")
    m["core.check_axioms.quads_per_s"] = _metric(rate("core.check_axioms"), "1/s")
    m["catalog.sampled_axiom_check.quads_per_s"] = _metric(
        rate("catalog.sampled_axiom_check"), "1/s")
    for name, peak in memory.items():
        m[f"{name}.peak_alloc_mb"] = _metric(peak / 2 ** 20, "MB")
    m["trace.overhead_pct"] = _metric(overhead, "%")
    return m


def _calls_per_kind(cmds, per_command) -> dict:
    """Mean wrapped calls per command of each kind, from one traced pass."""
    out: dict = {}
    for cmd, calls in zip(cmds, per_command):
        out.setdefault(cmd.kind, []).append(calls)
    return {kind: {name: statistics.mean(c.get(name, 0) for c in runs)
                   for name in sorted({n for c in runs for n in c})}
            for kind, runs in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe is not None:
        _probe(args.probe)
        return 0

    from workloads import WORKLOADS, make_plan, materialise
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    _import_package(Path.cwd())
    from ccmagma import cli

    workdir = WORK_ROOT / f"run-{os.getpid()}"
    try:
        plan = make_plan(args.workload, args.seed)
        cmds, ctx = materialise(plan, workdir)

        if args.trace:
            from spans import MemoryTracer, Tracer
            tracer = Tracer()
            with SpeedProbe() as probe:
                plain, traced, layers = _loop(cli, cmds, args.seconds, tracer, probe)
            passes = plain + traced

            def scaled_cpu(ps):
                return statistics.median(p.cpu * probe.scale(*p.span) for p in ps)
            overhead = (scaled_cpu(traced) / scaled_cpu(plain) - 1.0) * 100.0
            memory = MemoryTracer()
            memory.install()
            try:
                _run_pass(cli, [c for c in cmds if c.kind != "catalog"])
            finally:
                memory.uninstall()
            metrics = _layer_metrics(layers, memory.peak, overhead)
            OUT_ROOT.mkdir(exist_ok=True)
            trace_file = OUT_ROOT / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "commands": [c.argv for c in cmds],
                "spans": tracer.spans,
                "calls_per_command": _calls_per_kind(cmds, tracer.per_command),
                "metrics": metrics}) + "\n", encoding="utf-8")
            print(f"trace written to {trace_file}", file=sys.stderr)
        else:
            with SpeedProbe() as probe:
                passes, _, _ = _loop(cli, cmds, args.seconds, probe=probe)
            plan_file = workdir / "plan.json"
            plan_file.write_text(json.dumps(plan), encoding="utf-8")
            setups = _probe_setup(plan_file, SETUP_PROBES)
            scaled_times = [t * probe.scale(a, b, p.span)
                            for p in passes for t, (a, b) in zip(p.times, p.marks)]
            metrics = {
                "commands_per_s": _metric(len(scaled_times) / sum(scaled_times), "1/s"),
                "command_p50_ms": _metric(statistics.median(scaled_times) * 1e3, "ms"),
                "setup_s": _metric(statistics.median(setups), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        outcomes = [p.outcomes for p in passes]
        problems = _verify(cmds, outcomes, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = len(cmds) * len(outcomes)
    failed = sum(_failed(c, o) for p in outcomes for c, o in zip(cmds, p))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
