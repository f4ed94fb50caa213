"""Command-line front end: check, classify, generate, extract-group,
relation, catalog.

Machine-readable JSON goes to stdout, a short human summary to stderr.
Exit status: 0 success, 1 property violation, 2 usage or parse error, a
size whose arrays would pass MAX_CELLS, or a command that ran out of memory.
`main(argv)` may be called in process any number of times: each call builds
only the chosen subcommand's parser and keeps no state between calls.
Only `core` and `generation` load with this module; `classify`, `relation`
and `catalog` import the rest of the library when they run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .core import (FiniteMagma, ParseError, check_axioms, format_magma,
                   idempotent_subalgebra, idempotents, parse_magma,
                   subalgebra_closure)
from .generation import (extract_group, generate_quasigroup,
                         idempotent_parity_audit, invariant_factors)

SCHEMA = "ccmagma.report/1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# the most array cells (8 bytes each) a command may plan to hold at once:
# generate holds about 4 n^2 at order n, catalog about s^4 for s samples
# (its table of products of products, over up to s^2 distinct products)
MAX_CELLS = 1 << 27


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report(command: str, **fields) -> dict:
    out = {"schema": SCHEMA, "command": command}
    out.update(fields)
    return out


def _emit(report: dict, summary: list[str], args, started: float) -> None:
    report["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not (args.quiet or args.json):
        for line in summary:
            print(line, file=sys.stderr)


def _over_cap(flag: str, value: int, cells: int) -> bool:
    """Print the refusal of a size whose arrays would pass MAX_CELLS."""
    if cells <= MAX_CELLS:
        return False
    print(f"error: {flag} {value} needs about {cells} array cells, "
          f"over the cap of {MAX_CELLS}", file=sys.stderr)
    return True


def _load(path: str) -> tuple[FiniteMagma, dict]:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    magma = parse_magma(text)
    return magma, {"path": path, "sha256": _digest(data)}


def _load_ccm(args, started: float) -> tuple[Optional[FiniteMagma], dict]:
    """Load args.path and check the axioms; when they fail, emit the
    not-a-ccm-magma report and return None for the magma."""
    magma, source = _load(args.path)
    rep = check_axioms(magma)
    if rep.is_ccm:
        return magma, source
    report = _report(args.command, input=source, order=magma.order,
                     error={"kind": "not-a-ccm-magma", "axioms": rep.to_dict()})
    _emit(report, [f"{args.command} {args.path}: input fails the axioms"],
          args, started)
    return None, source


def _cmd_check(args) -> int:
    started = time.perf_counter()
    magma, source = _load(args.path)
    rep = check_axioms(magma)
    body = rep.to_dict()
    body["idempotent_count"] = len(rep.idempotents)
    body["idempotent_parity_ok"] = idempotent_parity_audit(magma)
    if rep.is_ccm:
        body["idempotent_subalgebra"] = list(idempotent_subalgebra(magma))
    report = _report("check", input=source, order=magma.order, results=body)
    status = EXIT_OK if rep.is_ccm else EXIT_VIOLATION
    _emit(report, [f"check {args.path}: order {magma.order}, "
                   f"ccm={rep.is_ccm}, associative={rep.associative}, "
                   f"idempotents={list(rep.idempotents)}"], args, started)
    return status


def _cmd_classify(args) -> int:
    from .structures import NotIdempotentError, classify_finite
    started = time.perf_counter()
    magma, source = _load_ccm(args, started)
    if magma is None:
        return EXIT_VIOLATION
    e = args.unit
    if not 0 <= e < magma.order:
        print(f"error: unit {e} out of range", file=sys.stderr)
        return EXIT_USAGE
    try:
        label = classify_finite(magma, e)
    except NotIdempotentError as exc:
        report = _report("classify", input=source, order=magma.order,
                         error={"kind": "unit-not-idempotent", "message": str(exc)})
        _emit(report, [f"classify {args.path}: {exc}"], args, started)
        return EXIT_VIOLATION
    results = {
        "unit": e,
        "expansive": label.expansive,
        "symmetric": label.symmetric,
        "monoid": label.monoid,
        "group": label.group,
        "label": label.label,
    }
    if label.group:
        # at an idempotent unit the extracted group is the internal monoid
        results["group_invariant_factors"] = invariant_factors(
            extract_group(magma, e))
    report = _report("classify", input=source, order=magma.order, results=results)
    _emit(report, [f"classify {args.path} at unit {e}: label {label.label}"],
          args, started)
    return EXIT_OK


def _cmd_generate(args) -> int:
    started = time.perf_counter()
    if args.order < 1:
        print("error: --order must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if _over_cap("--order", args.order, 4 * args.order ** 2):
        return EXIT_USAGE
    magma, params = generate_quasigroup(args.order, args.seed)
    text = format_magma(magma)
    out = Path(args.out)
    out.write_text(text, encoding="utf-8")
    sidecar = out.with_name(out.name + ".toyoda.json")
    sidecar_body = {"order": args.order, "seed": args.seed}
    sidecar_body.update(params.to_json_dict())
    sidecar.write_text(json.dumps(sidecar_body, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    report = _report("generate", order=args.order, seed=args.seed,
                     results={"table_path": str(out),
                              "sidecar_path": str(sidecar),
                              "sha256": _digest(text.encode("utf-8")),
                              "invariant_factors": list(params.group.factors),
                              "idempotent_count": len(idempotents(magma))})
    _emit(report, [f"generate: wrote order-{args.order} table to {out}"],
          args, started)
    return EXIT_OK


def _cmd_extract_group(args) -> int:
    started = time.perf_counter()
    magma, source = _load_ccm(args, started)
    if magma is None:
        return EXIT_VIOLATION
    e = args.unit
    if not 0 <= e < magma.order:
        print(f"error: unit {e} out of range", file=sys.stderr)
        return EXIT_USAGE
    warning = None
    if magma.arr[e, e] != e:
        warning = (f"unit {e} is not idempotent: the extracted group is valid "
                   "but does not come from an internal monoid")
        print(f"warning: {warning}", file=sys.stderr)
    star = extract_group(magma, e)
    if star is None:
        report = _report("extract-group", input=source, order=magma.order,
                         error={"kind": "not-a-group"})
        _emit(report, ["extract-group: verification failed"], args, started)
        return EXIT_VIOLATION
    factors = invariant_factors(star)
    text = format_magma(star)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    results = {"unit": e, "invariant_factors": factors, "group_table": text,
               "warning": warning}
    report = _report("extract-group", input=source, order=magma.order,
                     results=results)
    _emit(report, [f"extract-group at {e}: invariant factors {factors}"],
          args, started)
    return EXIT_OK


def _cmd_relation(args) -> int:
    from .relations import format_relation, subalgebra_relation, transitivity_criterion
    started = time.perf_counter()
    magma, source = _load_ccm(args, started)
    if magma is None:
        return EXIT_VIOLATION
    try:
        seed = sorted({int(p) for p in args.subalgebra.split(",") if p.strip()})
    except ValueError:
        print(f"error: bad --subalgebra {args.subalgebra!r}", file=sys.stderr)
        return EXIT_USAGE
    outside = [x for x in seed if not 0 <= x < magma.order]
    if outside:
        print(f"error: --subalgebra elements {outside} out of range "
              f"0..{magma.order - 1}", file=sys.stderr)
        return EXIT_USAGE
    e = args.unit
    closed = subalgebra_closure(magma, seed)
    if tuple(seed) != closed:
        report = _report("relation", input=source, order=magma.order,
                         error={"kind": "not-closed", "seed": seed,
                                "closure_hint": list(closed)})
        _emit(report, [f"relation: {seed} is not closed; closure is {list(closed)}"],
              args, started)
        return EXIT_VIOLATION
    try:
        rel = subalgebra_relation(magma, seed, e)
    except ValueError as exc:
        report = _report("relation", input=source, order=magma.order,
                         error={"kind": "bad-unit", "message": str(exc)})
        _emit(report, [f"relation: {exc}"], args, started)
        return EXIT_VIOLATION
    internal, _ = rel.is_internal()
    reflexive, _ = rel.is_reflexive()
    symmetric, _ = rel.is_symmetric()
    transitive, _ = rel.is_transitive()
    difunctional, _ = rel.is_difunctional()
    congruence = internal and reflexive and symmetric and transitive
    results = {
        "subalgebra": list(seed),
        "unit": e,
        "internal": internal,
        "reflexive": reflexive,
        "symmetric": symmetric,
        "transitive": transitive,
        "difunctional": difunctional,
        "congruence": congruence,
        "transitivity_criterion": transitivity_criterion(magma, seed, e),
        "relation": format_relation(rel),
    }
    if congruence:
        results["classes"] = len(rel.classes())
    report = _report("relation", input=source, order=magma.order, results=results)
    _emit(report, [f"relation on {args.path} with X={list(seed)}, e={e}: "
                   f"congruence={congruence}"], args, started)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    from .catalog import (CATALOG, default_samples, half_has_no_inverse_check,
                          monoid_formula_check, sampled_axiom_check)
    started = time.perf_counter()
    if args.family is None:
        listing = [{"id": fam.id, "formula": fam.formula,
                    "domain": str(fam.domain), "mode": fam.mode,
                    "expected_label": fam.expected_label}
                   for fam in CATALOG.values()]
        report = _report("catalog", results={"families": listing})
        _emit(report, [f"catalog: {len(listing)} families"], args, started)
        return EXIT_OK
    fam = CATALOG.get(args.family)
    if fam is None:
        print(f"error: unknown family {args.family!r}; known ids:",
              file=sys.stderr)
        for known in CATALOG:
            print(f"  {known}", file=sys.stderr)
        return EXIT_USAGE
    # the grid k/samples, k = 0..samples, the closed ends and the extras
    s = args.samples + 3 + len(fam.extra_samples)
    if _over_cap("--samples", args.samples, s ** 4):
        return EXIT_USAGE
    sample_report = sampled_axiom_check(fam, default_samples(fam, args.samples))
    results = sample_report.to_dict()
    results["formula"] = fam.formula
    results["domain"] = str(fam.domain)
    results["mode"] = fam.mode
    if sample_report.verdict is not None:
        results["classification_detail"] = sample_report.verdict.to_dict()
    if fam.id == "harmonic-(0,1]":
        results["star_formula_ok"] = monoid_formula_check()
        results["half_has_no_inverse"] = half_has_no_inverse_check()
    report = _report("catalog", family=fam.id, results=results)
    ok = (sample_report.m1_ok and sample_report.m2_ok and sample_report.m3_ok
          and sample_report.closure_violations == 0
          and sample_report.matches_expected is not False)
    label = results.get("classification")
    _emit(report, [f"catalog {fam.id}: label {label}, "
                   f"expected {fam.expected_label}, axioms ok={ok}"],
          args, started)
    return EXIT_OK if ok else EXIT_VIOLATION


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_REQUIRED_INT = {"type": int, "required": True}
# name -> (help, handler, {argument: add_argument options})
_COMMANDS = {
    "check": ("verify the axioms of a Cayley-table file", _cmd_check,
              {"path": {}}),
    "classify": ("classification label at an idempotent unit", _cmd_classify,
                 {"path": {}, "--unit": _REQUIRED_INT}),
    "generate": ("random quasigroup in affine form", _cmd_generate,
                 {"--order": _REQUIRED_INT, "--seed": {"type": int, "default": 0},
                  "--out": {"required": True}}),
    "extract-group": ("divide out the operation into an abelian group",
                      _cmd_extract_group,
                      {"path": {}, "--unit": _REQUIRED_INT, "--out": {}}),
    "relation": ("relation induced by a subalgebra and a unit", _cmd_relation,
                 {"path": {},
                  "--subalgebra": {"required": True,
                                   "help": "comma-separated element list, e.g. 0,3,6"},
                  "--unit": _REQUIRED_INT}),
    "catalog": ("parametric family reports", _cmd_catalog,
                {"--family": {},
                 "--samples": {"type": _positive_int, "default": 16,
                               "help": "sample-grid denominator (default 16)"}}),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The full parser; given a subcommand name, the top-level parser with
    only that subcommand registered, under the same usage line."""
    parser = argparse.ArgumentParser(
        prog="ccmagma",
        description="Analyze, classify, generate and transform commutative "
                    "cancellative medial magmas.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--json", action="store_true",
                        help="machine output only (no stderr summary)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stderr summary")
    one = command in _COMMANDS
    # the metavar keeps usage lines listing every subcommand; the full build
    # needs none, and one would reword "required: command"
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(_COMMANDS) if one else None)
    for name in [command] if one else _COMMANDS:
        help_text, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first word other than a global flag names the subcommand
    parser = build_parser(next((a for a in argv if a not in ("--json", "--quiet")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:   # missing file, directory, unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
