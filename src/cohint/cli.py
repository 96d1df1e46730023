"""Command line interface: ``cohint <command>`` with JSON or text reports.

Commands: validate, strata, bps, verify, molien, catalog.  Exit codes:
0 success/pass, 1 validation failure, 2 verification mismatch, 3 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import replace
from fractions import Fraction

from . import integrality
from .arrangement import Stratification, enumerate_strata
from .catalog import catalog_emit, catalog_keys
from .documents import InputDocument, parse_input
from .errors import InputError, InternalCheckError, VerificationError
from .lattice import symmetry_class
from .weyl import enumerate_group

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_INTERNAL = 3

COMMANDS = ("validate", "strata", "bps", "verify", "molien", "catalog")


def _q(value):
    """JSON-friendly exact number: int when integral, 'a/b' string otherwise."""
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _default_max_degree(strat: Stratification) -> int:
    return max(s.dims.dim_v_fixed // 2 + 2 for s in strat.strata)


def _strata_section(strat: Stratification) -> list[dict]:
    rows = []
    for s in strat.strata:
        rows.append(
            {
                "index": s.index,
                "flat_dim": s.flat.dim,
                "flat_basis": [list(b) for b in s.flat.basis],
                "representative": list(s.rep),
                "zero_v_supports": [list(w) for w in s.zero_v],
                "zero_g_supports": [list(w) for w in s.zero_g],
                "dim_v_fixed": s.dims.dim_v_fixed,
                "dim_g_fixed": s.dims.dim_g_fixed,
                "d": s.dims.d_lambda,
                "r": s.dims.r_lambda,
                "orbit": strat.orbit_of[s.index],
                "w_set_stabilizer_order": strat.set_stabilizers[s.index].order,
                "w_point_stabilizer_order": strat.point_stabilizers[s.index].order,
            }
        )
    return rows


def _bps_section(strat: Stratification, orbits: Iterable[int]) -> list[dict]:
    """One row per orbit index in orbits, from its representative's BPS space."""
    sections = []
    for k in orbits:
        members = strat.orbits[k]
        s = strat.strata[members[0]]
        space = integrality.once(strat, integrality.bps_space, s)
        eps = integrality.once(strat, integrality.epsilon, s)
        sections.append(
            {
                "orbit": k,
                "orbit_members": list(members),
                "stratum": s.index,
                "dt_table": {str(i): d for i, d in sorted(space.dt_table.items())},
                "poly_degree_table": {
                    str(p): d for p, d in sorted(space.piece_dims().items())
                },
                "euler": space.euler,
                "total_dim": space.total_dim,
                "epsilon": {str(i): _q(v) for i, v in sorted(eps.values.items())},
            }
        )
    return sections


def _verify_section(strat: Stratification, max_degree: int) -> tuple[dict, bool]:
    hilbert = integrality.verify_hilbert(strat, max_degree)
    iso = integrality.verify_isomorphism(strat, max_degree)
    assoc = integrality.verify_associativity(strat)
    section = {
        "hilbert": [
            {
                "degree": r.degree,
                "target": _q(r.target),
                "total": _q(r.total),
                "match": r.match,
            }
            for r in hilbert.rows
        ],
        "isomorphism": [
            {
                "degree": r.degree,
                "target_dim": r.target_dim,
                "domain_dim": r.domain_dim,
                "image_rank": r.image_rank,
                "bijective": r.bijective,
            }
            for r in iso.rows
        ],
        "associativity": [
            {"chain": list(r.chain), "functions": r.functions, "ok": r.ok}
            for r in assoc.rows
        ],
        "hilbert_passed": hilbert.passed,
        "isomorphism_passed": iso.passed,
        "associativity_passed": assoc.passed,
    }
    return section, hilbert.passed and iso.passed and assoc.passed


def run(command: str, document: InputDocument, *, max_degree: int | None = None,
        orbit: int | None = None) -> tuple[dict, int]:
    """Execute one command on a parsed document; returns (report, exit code).

    The document is validated here, once; the one enumeration of its group,
    bounded by document.group_cap, checks that the group is finite."""
    group = document.group_data()
    rep = document.rep_data()
    warnings = group.validate()
    rep.validate(group)
    if max_degree is not None and max_degree < 0:
        raise InputError(f"max_degree: expected a nonnegative integer, got {max_degree}")
    if orbit is not None and command != "bps":
        raise InputError(f"--orbit applies only to bps, not to {command}")
    report: dict = {"command": command, "input": document.to_dict()}

    if command == "validate":
        weyl = enumerate_group(group.weyl_generators, group.rank, document.group_cap)
        sclass = symmetry_class(rep)
        report["symmetry_class"] = sclass.value
        report["warnings"] = warnings
        report["weyl_order"] = weyl.order
        if sclass.value == "not_weakly_symmetric":
            report["status"] = "validation_failed"
            report["error"] = "not weakly symmetric"
            return report, EXIT_VALIDATION
        report["status"] = "ok"
        return report, EXIT_OK

    strat = enumerate_strata(group, rep, document.group_cap)
    report["symmetry_class"] = symmetry_class(rep).value
    report["strata_count"] = len(strat.strata)
    report["orbit_count"] = len(strat.orbits)

    if command == "strata":
        report["strata"] = _strata_section(strat)
        report["status"] = "ok"
        return report, EXIT_OK

    if command == "bps":
        if orbit is not None and not 0 <= orbit < len(strat.orbits):
            raise InputError(
                f"orbit index {orbit} out of range (input has {len(strat.orbits)} orbits)"
            )
        orbits = range(len(strat.orbits)) if orbit is None else [orbit]
        report["strata"] = _strata_section(strat)
        report["bps"] = _bps_section(strat, orbits)
        report["status"] = "ok"
        return report, EXIT_OK

    degree = max_degree if max_degree is not None else (
        document.max_degree if document.max_degree is not None else _default_max_degree(strat)
    )

    if command == "molien":
        series = integrality.target_series(strat, degree)
        report["max_degree"] = degree
        report["molien"] = [_q(c) for c in series]
        report["status"] = "ok"
        return report, EXIT_OK

    if command == "verify":
        report["max_degree"] = degree
        report["bps"] = _bps_section(strat, range(len(strat.orbits)))
        section, passed = _verify_section(strat, degree)
        report["verification"] = section
        report["status"] = "ok" if passed else "verification_failed"
        return report, EXIT_OK if passed else EXIT_VERIFICATION

    raise InputError(f"unknown command '{command}'")


def _render_text(report: dict) -> str:
    """Plain-text rendering of the JSON report (same data, no extra path)."""
    lines = []
    for key in ("command", "symmetry_class", "strata_count", "orbit_count", "weyl_order",
                "max_degree", "status", "error"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    for warning in report.get("warnings", []):
        lines.append(f"warning: {warning}")
    if "strata" in report:
        lines.append("strata:")
        for s in report["strata"]:
            lines.append(
                f"  [{s['index']}] flat_dim={s['flat_dim']} rep={s['representative']} "
                f"d={s['d']} r={s['r']} orbit={s['orbit']} "
                f"|W_set|={s['w_set_stabilizer_order']} |W_point|={s['w_point_stabilizer_order']}"
            )
    if "bps" in report:
        lines.append("bps:")
        for b in report["bps"]:
            lines.append(
                f"  orbit {b['orbit']} (stratum {b['stratum']}): "
                f"dt={b['dt_table']} euler={b['euler']} total={b['total_dim']}"
            )
    if "molien" in report:
        lines.append(f"molien: {report['molien']}")
    if "verification" in report:
        v = report["verification"]
        lines.append("hilbert:")
        for r in v["hilbert"]:
            mark = "ok" if r["match"] else "MISMATCH"
            lines.append(f"  degree {r['degree']}: {r['target']} == {r['total']} {mark}")
        lines.append("isomorphism:")
        for r in v["isomorphism"]:
            mark = "ok" if r["bijective"] else "FAIL"
            lines.append(
                f"  degree {r['degree']}: target={r['target_dim']} "
                f"domain={r['domain_dim']} rank={r['image_rank']} {mark}"
            )
        lines.append("associativity:")
        for r in v["associativity"]:
            mark = "ok" if r["ok"] else "FAIL"
            lines.append(f"  chain {tuple(r['chain'])}: {r['functions']} functions {mark}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> str:
    if fmt == "text":
        return _render_text(report)
    return json.dumps(report, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohint",
        description="Exact strata, BPS spaces, refined DT invariants and "
        "integrality verification for weakly symmetric representation data.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="path to a JSON input document")
    parser.add_argument("--catalog", help="built-in input key, e.g. gl2-cotangent")
    parser.add_argument("--max-degree", type=int, default=None)
    parser.add_argument("--group-cap", type=int, default=None)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--orbit", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "catalog":
            for flag, given in (
                ("--input", args.input is not None),
                ("--orbit", args.orbit is not None),
                ("--max-degree", args.max_degree is not None),
                ("--group-cap", args.group_cap is not None),
                ("--format text", args.format == "text"),
            ):
                if given:
                    raise InputError(f"{flag} applies only to the report commands, not to catalog")
            if args.catalog:
                doc = catalog_emit(args.catalog)
                print(json.dumps(doc.to_dict(), indent=2))
            else:
                print(json.dumps({"catalog_keys": list(catalog_keys())}, indent=2))
            return EXIT_OK

        if bool(args.input) == bool(args.catalog):
            parser.error("exactly one of --input or --catalog is required")
        if args.group_cap is not None and args.group_cap < 1:
            raise InputError(f"--group-cap: expected a positive integer, got {args.group_cap}")
        if args.input:
            try:
                with open(args.input, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise InputError(f"cannot read --input {args.input}: {exc}") from exc
            doc = parse_input(text)
        else:
            doc = catalog_emit(args.catalog)
        if args.group_cap is not None:
            doc = replace(doc, group_cap=args.group_cap)
        report, code = run(
            args.command, doc, max_degree=args.max_degree, orbit=args.orbit
        )
        sys.stdout.write(_emit(report, args.format))
        return code
    except InputError as exc:
        sys.stdout.write(_emit({"status": "validation_failed", "error": str(exc)}, args.format))
        return EXIT_VALIDATION
    except VerificationError as exc:
        sys.stdout.write(_emit({"status": "verification_failed", "error": str(exc)}, args.format))
        return EXIT_VERIFICATION
    except InternalCheckError as exc:
        sys.stdout.write(_emit({"status": "internal_error", "error": str(exc)}, args.format))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
