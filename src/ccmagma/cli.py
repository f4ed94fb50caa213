"""Command-line front end: check, classify, generate, extract-group,
relation, catalog.

Machine-readable JSON goes to stdout, a short human summary to stderr.  Exit
status: 0 success, 1 property violation, 2 usage or parse error, a size whose
arrays would pass MAX_CELLS, or a command that ran out of memory.  `main(argv)`
may be called in process any number of times: each call builds only the chosen
subcommand's parser and keeps no state between calls.  `main` times each
command and writes every report, summary and error line but one: extract-group
prints its `warning:` for a unit that is not idempotent to stderr itself, under
--json and --quiet too.  A handler only computes, and returns (status, report
fields, summary) or raises _UsageError or _ErrorReport.  A command that loads a
table records its `input` and `order` in `_load`, and `main` adds them to every
report of the command, error reports included.  Each command imports what it
uses when it runs: check, generate and extract-group load `core` and
`generation`, classify adds `structures`, relation loads `core` and
`relations`, and catalog `catalog`, `core` and `structures`.  `--version`,
`--help` and argparse errors load no numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import __version__

if TYPE_CHECKING:
    from .core import FiniteMagma

SCHEMA = "ccmagma.report/1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# the most array cells (8 bytes each) a command may plan to hold at once:
# generate about 4 n^2 at order n; catalog O(u^2 + s^3 + fixed caps) for
# u <= s^2 distinct products of s samples, checked here as s^4
MAX_CELLS = 1 << 27


class _UsageError(Exception):
    """Exit 2 with one `error: <message>` line and no report."""


class _ErrorReport(Exception):
    """Exit 1 with a report; args are its fields and its summary line."""


def _check_cap(flag: str, value: int, cells: int) -> None:
    """Refuse a size whose arrays would pass MAX_CELLS."""
    if cells > MAX_CELLS:
        raise _UsageError(f"{flag} {value} needs about {cells} array cells, "
                          f"over the cap of {MAX_CELLS}")


def _load(args) -> FiniteMagma:
    """Parse the table at args.path and record its `input` and `order` as
    args.loaded, which main puts in every report of the command."""
    from .core import ParseError, parse_magma
    data = Path(args.path).read_bytes()
    try:
        magma = parse_magma(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{args.path} is not UTF-8 text: {exc}") from None
    except ParseError as exc:
        raise _UsageError(str(exc)) from None
    args.loaded = {"input": {"path": args.path, "sha256": hashlib.sha256(data).hexdigest()},
                   "order": magma.order}
    return magma


def _load_ccm(args) -> FiniteMagma:
    """_load; the not-a-ccm-magma report when the table fails the axioms."""
    from .core import check_axioms
    magma = _load(args)
    rep = check_axioms(magma)
    if not rep.is_ccm:
        raise _ErrorReport({"error": {"kind": "not-a-ccm-magma", "axioms": rep.to_dict()}},
                           f"{args.command} {args.path}: input fails the axioms")
    return magma


def _unit(args, magma: FiniteMagma) -> int:
    if not 0 <= args.unit < magma.order:
        raise _UsageError(f"unit {args.unit} out of range")
    return args.unit


def _cmd_check(args):
    from .core import check_axioms, idempotent_subalgebra
    from .generation import idempotent_parity_audit
    magma = _load(args)
    rep = check_axioms(magma)
    body = rep.to_dict()
    body["idempotent_count"] = len(rep.idempotents)
    body["idempotent_parity_ok"] = idempotent_parity_audit(magma)
    if rep.is_ccm:
        body["idempotent_subalgebra"] = list(idempotent_subalgebra(magma))
    return (EXIT_OK if rep.is_ccm else EXIT_VIOLATION,
            {"results": body},
            f"check {args.path}: order {magma.order}, ccm={rep.is_ccm}, "
            f"associative={rep.associative}, idempotents={list(rep.idempotents)}")


def _cmd_classify(args):
    from .generation import extract_group, invariant_factors
    from .structures import NotIdempotentError, classify_finite
    magma = _load_ccm(args)
    e = _unit(args, magma)
    try:
        label = classify_finite(magma, e)
    except NotIdempotentError as exc:
        raise _ErrorReport({"error": {"kind": "unit-not-idempotent", "message": str(exc)}},
                           f"classify {args.path}: {exc}")
    results = {"unit": e, **vars(label)}
    if label.group:
        # at an idempotent unit the extracted group is the internal monoid
        results["group_invariant_factors"] = invariant_factors(
            extract_group(magma, e))
    return (EXIT_OK, {"results": results},
            f"classify {args.path} at unit {e}: label {label.label}")


def _cmd_generate(args):
    from .core import format_magma, idempotents
    from .generation import generate_quasigroup
    if args.order < 1:
        raise _UsageError("--order must be >= 1")
    _check_cap("--order", args.order, 4 * args.order ** 2)
    magma, params = generate_quasigroup(args.order, args.seed)
    text = format_magma(magma)
    out = Path(args.out)
    out.write_text(text, encoding="utf-8")
    sidecar = out.with_name(out.name + ".toyoda.json")
    sidecar_body = {"order": args.order, "seed": args.seed, **params.to_json_dict()}
    sidecar.write_text(json.dumps(sidecar_body, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    results = {"table_path": str(out), "sidecar_path": str(sidecar),
               "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
               "invariant_factors": list(params.group.factors),
               "idempotent_count": len(idempotents(magma))}
    return (EXIT_OK, {"order": args.order, "seed": args.seed, "results": results},
            f"generate: wrote order-{args.order} table to {out}")


def _cmd_extract_group(args):
    from .core import format_magma
    from .generation import extract_group, invariant_factors
    magma = _load_ccm(args)
    e = _unit(args, magma)
    warning = None
    if magma.arr[e, e] != e:
        warning = (f"unit {e} is not idempotent: the extracted group is valid "
                   "but does not come from an internal monoid")
        print(f"warning: {warning}", file=sys.stderr)
    star = extract_group(magma, e)
    if star is None:
        raise _ErrorReport({"error": {"kind": "not-a-group"}},
                           "extract-group: verification failed")
    factors = invariant_factors(star)
    text = format_magma(star)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    results = {"unit": e, "invariant_factors": factors, "group_table": text,
               "warning": warning}
    return (EXIT_OK, {"results": results},
            f"extract-group at {e}: invariant factors {factors}")


def _cmd_relation(args):
    from .relations import (_NotClosed, _check_subalgebra_inputs, _induced,
                            _transitivity_criterion, format_relation)
    magma = _load_ccm(args)
    try:
        seed = sorted({int(p) for p in args.subalgebra.split(",") if p.strip()})
    except ValueError:
        raise _UsageError(f"bad --subalgebra {args.subalgebra!r}") from None
    outside = [x for x in seed if not 0 <= x < magma.order]
    if outside:
        raise _UsageError(f"--subalgebra elements {outside} out of range "
                          f"0..{magma.order - 1}")
    e = _unit(args, magma)
    try:
        xset = _check_subalgebra_inputs(magma, seed, e)
    except _NotClosed as exc:
        closure = list(exc.closure)
        raise _ErrorReport({"error": {"kind": "not-closed", "seed": seed,
                                      "closure_hint": closure}},
                           f"relation: {seed} is not closed; closure is {closure}")
    except ValueError as exc:
        raise _ErrorReport({"error": {"kind": "bad-unit", "message": str(exc)}},
                           f"relation: {exc}")
    rel = _induced(magma, xset, e)
    (internal, _), (reflexive, _), (symmetric, _), (transitive, _) = (
        rel.is_internal(), rel.is_reflexive(), rel.is_symmetric(), rel.is_transitive())
    # e in X and M1 make R reflexive, and a reflexive relation is difunctional
    # iff symmetric and transitive (Riguet): is_difunctional need not run
    difunctional = reflexive and symmetric and transitive
    congruence = internal and difunctional
    results = {"subalgebra": seed, "unit": e, "internal": internal,
               "reflexive": reflexive, "symmetric": symmetric, "transitive": transitive,
               "difunctional": difunctional, "congruence": congruence,
               "transitivity_criterion": _transitivity_criterion(magma, xset, e, transitive),
               "relation": format_relation(rel)}
    if congruence:
        results["classes"] = len(rel.classes())
    return (EXIT_OK, {"results": results},
            f"relation on {args.path} with X={seed}, e={e}: "
            f"congruence={congruence}")


def _cmd_catalog(args):
    from .catalog import (CATALOG, default_samples, half_has_no_inverse_check,
                          monoid_formula_check, sampled_axiom_check)
    if args.family is None:
        listing = [{"id": fam.id, "formula": fam.formula,
                    "domain": str(fam.domain), "mode": fam.mode,
                    "expected_label": fam.expected_label}
                   for fam in CATALOG.values()]
        return (EXIT_OK, {"results": {"families": listing}},
                f"catalog: {len(listing)} families")
    fam = CATALOG.get(args.family)
    if fam is None:
        raise _UsageError("\n  ".join([f"unknown family {args.family!r}; known ids:",
                                       *CATALOG]))
    # the grid k/samples, k = 0..samples, the closed ends and the extras
    s = args.samples + 3 + len(fam.extra_samples)
    _check_cap("--samples", args.samples, s ** 4)
    sample_report = sampled_axiom_check(fam, default_samples(fam, args.samples))
    results = sample_report.to_dict()
    results.update(formula=fam.formula, domain=str(fam.domain), mode=fam.mode)
    if sample_report.verdict is not None:
        results["classification_detail"] = sample_report.verdict.to_dict()
    if fam.id == "harmonic-(0,1]":
        results["star_formula_ok"] = monoid_formula_check()
        results["half_has_no_inverse"] = half_has_no_inverse_check()
    ok = (sample_report.m1_ok and sample_report.m2_ok and sample_report.m3_ok
          and sample_report.closure_violations == 0
          and sample_report.matches_expected is not False)
    return (EXIT_OK if ok else EXIT_VIOLATION,
            {"family": fam.id, "results": results},
            f"catalog {fam.id}: label {results.get('classification')}, "
            f"expected {fam.expected_label}, axioms ok={ok}")


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
    started = time.perf_counter()
    try:
        try:
            status, fields, summary = args.fn(args)
        except _ErrorReport as exc:
            status, (fields, summary) = EXIT_VIOLATION, exc.args
        report = {"schema": SCHEMA, "command": args.command,
                  **getattr(args, "loaded", {}), **fields,
                  "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3)}
        print(json.dumps(report, indent=2, sort_keys=True))
        if not (args.quiet or args.json):
            print(summary, file=sys.stderr)
        return status
    except (_UsageError, OSError) as exc:   # OSError: missing file, directory, unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
