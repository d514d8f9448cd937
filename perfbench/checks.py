"""Correctness checks on reecurve reports that hold for any valid point.

Expected values come from closed forms (the order sets in
``reecurve.support`` and the degree split in ``reecurve.weierstrass``),
never from the computation under test, and no check depends on which
point a seed selects.  Each check returns a list of problems; an empty
list means the report passed.
"""

from __future__ import annotations

import json

from reecurve.params import ree_params
from reecurve.support import order_values
from reecurve.weierstrass import expected_rational_profile, rational_weight

CATALOG_INSTANCES = 452
# results of one session: order_sequence and frobenius_orders for D, E on
# two backends, D and E profiles at three points, one catalog run
SESSION_RESULTS = 8 + 6 + 1


def _options(argv: list[str]) -> dict[str, str]:
    opts = {}
    for flag, value in zip(argv[1:], argv[2:]):
        if flag.startswith("--"):
            opts[flag] = value
    return opts


def check_cli(argv: list[str], stdout: str) -> list[str]:
    """Check the JSON report of ``python -m reecurve <argv>``."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["report is not JSON"]
    command = argv[0]
    opts = _options(argv)
    if report.get("command") != command:
        return [f"report is for command {report.get('command')!r}"]
    p = ree_params(int(opts.get("--s", "1")))
    series = opts.get("--series", "D")
    problems = []
    if command == "params":
        if (int(report["q0"]), int(report["q"]), int(report["genus"])) != (
            p.q0, p.q, p.genus,
        ):
            problems.append("params differ from ree_params")
    elif command == "verify":
        summary = report["summary"]
        if int(summary["failed"]) != 0:
            problems.append(f"verify: {summary['failed']} identities failed")
        if int(summary["total"]) != CATALOG_INSTANCES:
            problems.append(f"verify: {summary['total']} instances, not {CATALOG_INSTANCES}")
    elif command == "orders":
        got = [int(v) for v in report["orders"]]
        if got != order_values(p, series):
            problems.append(f"orders {series}: {got} differs from the closed form")
    elif command == "weierstrass":
        problems += _check_profile(
            p, series, opts.get("--point", "origin"),
            int(report["weight"]), report["matches_rational_profile"],
        )
        audit = report["audit"]
        if int(audit["degree"]) != int(audit["weight_per_rational_point"]) * int(
            audit["n_rational"]
        ):
            problems.append("audit: degree is not weight x rational points")
    else:
        problems.append(f"no check for command {command!r}")
    return problems


def _check_profile(p, series: str, kind: str, weight: int, rational_profile) -> list[str]:
    if kind in ("origin", "rational"):
        problems = []
        if rational_profile is not True:
            problems.append(f"{kind} {series}: profile is not the rational profile")
        if weight != rational_weight(p, series):
            problems.append(f"{kind} {series}: weight {weight} != rational weight")
        return problems
    if weight != 0:
        return [f"generic {series}: weight {weight}, expected 0"]
    return []


def check_session(results: list[dict]) -> list[str]:
    """Check the results of one library session (see session.py)."""
    p = ree_params(1)
    problems = []
    if len(results) != SESSION_RESULTS:
        problems.append(f"session returned {len(results)} results, not {SESSION_RESULTS}")
    for r in results:
        call, series = r["call"], r.get("series")
        tag = f"{call} {series or ''} {r.get('backend') or r.get('point') or ''}"
        if call == "order_sequence":
            if r["orders"] != order_values(p, series):
                problems.append(f"{tag}: orders differ from the closed form")
        elif call == "frobenius_orders":
            if sorted(r["nus"] + [r["omitted"]]) != order_values(p, series):
                problems.append(f"{tag}: Frobenius orders plus the omitted one are not the orders")
        elif call == "vanishing_orders":
            rational = r["jorders"] == expected_rational_profile(p, series)
            problems += _check_profile(p, series, r["point"], r["weight"], rational)
        elif call == "verify_catalog":
            if r["failed"] != 0 or r["total"] != CATALOG_INSTANCES:
                problems.append(f"{tag}: {r['failed']} failed of {r['total']}")
        else:
            problems.append(f"unknown call {call!r}")
    return problems
