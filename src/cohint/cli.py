"""Command line interface: ``cohint <command>`` with JSON or text reports.

Commands: validate, strata, bps, verify, molien, catalog.  Exit codes:
0 success/pass, 1 validation failure (a usage error included), 2
verification mismatch, 3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import fields, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import integrality
from .arrangement import Stratification, enumerate_strata, once, stabilizer_orders
from .catalog import catalog_emit, catalog_keys
from .documents import MAX_DEGREE, InputDocument, parse_input
from .errors import InputError, InternalCheckError
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


def _plain(row) -> dict:
    """A ledger row's fields as a dict: a Fraction as _q, a tuple as a list."""
    values = ((f.name, getattr(row, f.name)) for f in fields(row))
    return {
        k: _q(v) if isinstance(v, Fraction) else list(v) if isinstance(v, tuple) else v
        for k, v in values
    }


def _default_max_degree(strat: Stratification) -> int:
    return max(s.dims.dim_v_fixed // 2 + 2 for s in strat.strata)


def _strata_section(strat: Stratification) -> list[dict]:
    rows = []
    for s in strat.strata:
        set_order, point_order = stabilizer_orders(strat, s.index)
        rows.append(
            {
                "index": s.index,
                "flat_dim": len(s.flat),
                "flat_basis": [list(b) for b in s.flat],
                "representative": list(s.rep),
                "zero_v_supports": [list(w) for w in s.zero_v],
                "zero_g_supports": [list(w) for w in s.zero_g],
                "dim_v_fixed": s.dims.dim_v_fixed,
                "dim_g_fixed": s.dims.dim_g_fixed,
                "d": s.dims.d_lambda,
                "r": s.dims.r_lambda,
                "orbit": strat.orbit_of[s.index],
                "w_set_stabilizer_order": set_order,
                "w_point_stabilizer_order": point_order,
            }
        )
    return rows


def _bps_section(strat: Stratification, orbits: Iterable[int]) -> list[dict]:
    """One row per orbit index in orbits, from its representative's BPS space."""
    sections = []
    for k in orbits:
        members = strat.orbits[k]
        s = strat.strata[members[0]]
        space = once(strat, integrality.bps_space, s)
        eps = once(strat, integrality.epsilon, s)
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
                "epsilon": {str(i): _q(v) for i, v in sorted(eps.items())},
            }
        )
    return sections


def _verify_section(strat: Stratification, max_degree: int) -> tuple[dict, bool]:
    ledgers = {
        "hilbert": integrality.verify_hilbert(strat, max_degree),
        "isomorphism": integrality.verify_isomorphism(strat, max_degree),
        "associativity": integrality.verify_associativity(strat),
    }
    section = {
        name: [_plain(row) for row in ledger.rows]
        for name, ledger in ledgers.items()
    }
    section.update((f"{name}_passed", ledger.passed) for name, ledger in ledgers.items())
    return section, all(ledger.passed for ledger in ledgers.values())


def run(command: str, document: InputDocument, *, max_degree: int | None = None,
        orbit: int | None = None) -> tuple[dict, int]:
    """Execute one command on a parsed document; returns (report, exit code).

    The document is validated here, once; the one enumeration of its group,
    bounded by document.group_cap, checks that the group is finite."""
    document.validate()
    if max_degree is not None and max_degree < 0:
        raise InputError(f"max_degree: expected a nonnegative integer, got {max_degree}")
    if max_degree is not None and max_degree > MAX_DEGREE:
        raise InputError(f"max_degree: expected at most {MAX_DEGREE}, got {max_degree}")
    if orbit is not None and command != "bps":
        raise InputError(f"--orbit applies only to bps, not to {command}")
    if max_degree is not None and command not in ("verify", "molien"):
        raise InputError(f"--max-degree applies only to verify and molien, not to {command}")
    report: dict = {"command": command, "input": document.to_dict()}

    if command == "validate":
        weyl = enumerate_group(document.weyl_generators, document.rank, document.group_cap)
        sclass = symmetry_class(document.v_weights)
        report["symmetry_class"] = sclass.value
        report["weyl_order"] = weyl.order
        if sclass.value == "not_weakly_symmetric":
            report["status"] = "validation_failed"
            report["error"] = "not weakly symmetric"
            return report, EXIT_VALIDATION
        report["status"] = "ok"
        return report, EXIT_OK

    strat = enumerate_strata(document)
    report["symmetry_class"] = strat.symmetry_class.value
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


def _indented(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, with pad the newline and
    indentation before value's closing bracket.  json.dumps uses its C
    encoder only for compact output; this walks the dicts and lists itself
    and writes a list of ints as one join.  A key must be a str
    (encode_basestring_ascii raises TypeError on any other); a leaf other
    than a str or an int goes through json.dumps."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            items = map(int.__repr__, value)
        else:
            items = (_indented(x, inner) for x in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _emit(report: dict, fmt: str) -> str:
    if fmt == "text":
        return _render_text(report)
    return _indented(report) + "\n"


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation failure (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def main(argv=None) -> int:
    parser = _Parser(
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
    fmt = "json"
    try:
        args = parser.parse_args(argv)
        fmt = args.format
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
                listing = catalog_emit(args.catalog).to_dict()
            else:
                listing = {"catalog_keys": list(catalog_keys())}
            sys.stdout.write(_emit(listing, fmt))
            return EXIT_OK

        if bool(args.input) == bool(args.catalog):
            raise InputError("exactly one of --input or --catalog is required")
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
        sys.stdout.write(_emit(report, fmt))
        return code
    except InputError as exc:
        sys.stdout.write(_emit({"status": "validation_failed", "error": str(exc)}, fmt))
        return EXIT_VALIDATION
    except InternalCheckError as exc:
        sys.stdout.write(_emit({"status": "internal_error", "error": str(exc)}, fmt))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
