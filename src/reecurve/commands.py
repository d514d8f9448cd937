"""Command-line surface over the whole library.

Subcommands: params, verify, orders, support, weierstrass.  Reports are
reproducible: a fixed configuration (including the seed) produces
byte-identical JSON, so runs can be diffed.  Numeric values inside JSON
payloads are decimal strings because order values grow past 2^63 for
large s and not every JSON consumer keeps integers exact.

Exit codes: 0 success, 1 verification failure, computation error or an
output path that cannot be written, 2 usage error.

Each handler imports its own route's modules when it runs, so a command
loads only what it executes (reecurve.cli loads the whole package up
front).  Handlers read library functions through their modules at call
time, so a function replaced on its module, by a test or a tracer, is the
one called.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

# external backend names; the sampling backend is called "points" inside
_BACKENDS = {"symbolic": "symbolic", "series": "points"}


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


class _Given(argparse.Action):
    """Store the value and note the option in args.given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


# options of the commands that run a route, by name
_RUN_OPTIONS = {
    "backend": dict(choices=("symbolic", "series"), default="symbolic"),
    "seed": dict(type=int, default=None),
    "trials": dict(type=_positive, default=3),
}


def _refuse_given(args, parser, names, where: str) -> None:
    """Refuse options passed explicitly that nothing reads on this route or point."""
    for name in names:
        if name in args.given:
            parser.error(f"--{name} is not read {where}")


def _config(args, parser) -> dict:
    """The run configuration a route's report echoes.

    k and precision are fixed fields of schema 1: the sampled route's
    extension degree and no override of its series window.
    """
    if args.backend == "series" and args.seed is None:
        parser.error("the series backend needs --seed for reproducibility")
    from .params import SAMPLE_EXTENSION

    return {
        "s": args.s,
        "backend": args.backend,
        "seed": args.seed,
        "trials": args.trials,
        "k": SAMPLE_EXTENSION,
        "precision": None,
    }


def _as_strings(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_as_strings(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _as_strings(v) for k, v in obj.items()}
    return obj


def _json_text(payload: dict) -> str:
    body = dict(_as_strings(payload))
    body["schema"] = 1
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _emit(args, payload: dict, text_lines: list[str], csv_text: Optional[str]) -> None:
    if args.format == "json":
        out = _json_text(payload)
    elif args.format == "csv":
        out = csv_text if csv_text is not None else ""
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(out)
    else:
        sys.stdout.write(out)


def _params_fields(s: int) -> dict:
    from . import params

    p = params.ree_params(s)
    return {
        "s": p.s,
        "q0": p.q0,
        "q": p.q,
        "genus": p.genus,
        "n_rational": p.n_rational,
        "m": p.m_value,
    }


def _params_fit(s: int, limit: int) -> bool:
    """Whether every number of the params report at s has at most limit digits.

    n_rational = q^3 + 1 > 10^(2s), so no s >= limit fits, and no such s
    has its numbers built.
    """
    return s < limit and max(_params_fields(s).values()) < 10**limit


def cmd_params(args, parser) -> int:
    # the report writes each number in decimal, which Python refuses past
    # sys.get_int_max_str_digits() digits (0: no limit)
    limit = sys.get_int_max_str_digits()
    if limit and not _params_fit(args.s, limit):
        fits, too_long = 1, min(args.s, limit)
        while too_long - fits > 1:
            mid = (fits + too_long) // 2
            if _params_fit(mid, limit):
                fits = mid
            else:
                too_long = mid
        parser.error(
            f"--s {args.s} gives numbers longer than {limit} digits, Python's limit "
            f"for writing an int (sys.get_int_max_str_digits()); the largest s "
            f"whose report fits is {fits}"
        )
    fields = _params_fields(args.s)
    payload = {"command": "params", **fields}
    lines = [f"{k} = {v}" for k, v in fields.items()]
    csv_text = "field,value\n" + "".join(f"{k},{v}\n" for k, v in fields.items())
    _emit(args, payload, lines, csv_text)
    return 0


def cmd_verify(args, parser) -> int:
    from . import identities

    if args.backend == "symbolic":
        _refuse_given(args, parser, ("seed", "trials"), "by the exact route")
    config = _config(args, parser)
    known = {spec.key for spec in identities.IDENTITY_CATALOG}
    keys = args.identity
    if keys:
        for key in keys:
            if key not in known:
                parser.error(f"unknown identity {key!r}")
    results = identities.verify_catalog(
        args.s,
        _BACKENDS[args.backend],
        keys=keys,
        trials=args.trials,
        seed=args.seed or 0,
    )
    rows = [
        {
            "identity": r.identity,
            "instance": r.instance,
            "backend": r.backend,
            "ok": r.ok,
            "skipped": r.skipped,
            "points": r.points,
            "witness": r.witness,
        }
        for r in results
    ]
    failed = [r for r in rows if not r["ok"] and not r["skipped"]]
    skipped = [r for r in rows if r["skipped"]]
    payload = {
        "command": "verify",
        "config": config,
        "results": rows,
        "summary": {
            "total": len(rows),
            "passed": len(rows) - len(failed) - len(skipped),
            "failed": len(failed),
            "skipped": len(skipped),
        },
    }
    lines = []
    for r in rows:
        status = "skip" if r["skipped"] else ("ok" if r["ok"] else "FAIL")
        note = f"  [{r['witness']}]" if not r["ok"] and not r["skipped"] else ""
        lines.append(f"{status:4} {r['identity']:12} {r['instance']}{note}")
    lines.append(
        f"passed {payload['summary']['passed']} failed {len(failed)} "
        f"skipped {len(skipped)} of {len(rows)}"
    )
    csv_text = "identity,instance,backend,ok,skipped,points\n" + "".join(
        f"{r['identity']},{r['instance']},{r['backend']},"
        f"{str(r['ok']).lower()},{str(r['skipped']).lower()},{r['points']}\n"
        for r in rows
    )
    _emit(args, payload, lines, csv_text)
    if failed:
        witness_path = (
            Path(str(args.out) + ".witness.json")
            if args.out
            else Path("reecurve-witness.json")
        )
        witness_path.write_text(
            _json_text({"command": "verify-witness", "failures": failed})
        )
        print(f"witnesses written to {witness_path}", file=sys.stderr)
        return 1
    return 0


def cmd_orders(args, parser) -> int:
    from . import orders

    if args.backend == "symbolic":
        _refuse_given(args, parser, ("seed", "trials"), "by the exact route")
    config = _config(args, parser)
    seq = orders.order_sequence(
        args.series,
        s=args.s,
        backend=_BACKENDS[args.backend],
        trials=args.trials,
        seed=args.seed or 0,
    )
    payload = {
        "command": "orders",
        "config": config,
        "series": seq.series,
        "orders": list(seq.orders),
        "labels": list(seq.labels),
        "points": seq.points,
        "witness": list(seq.witness),
    }
    lines = [f"{args.series} order sequence, s={args.s}, backend={args.backend}"]
    lines += [
        f"eps[{i}] = {v}  ({label})"
        for i, (v, label) in enumerate(zip(seq.orders, seq.labels))
    ]
    csv_text = "position,order,label\n" + "".join(
        f"{i},{v},{label}\n"
        for i, (v, label) in enumerate(zip(seq.orders, seq.labels))
    )
    _emit(args, payload, lines, csv_text)
    return 0


def _collision_warnings(s: int) -> list[str]:
    from . import params, support

    p = params.ree_params(s)
    notes = []
    for series in ("D", "E"):
        orders = set(support.order_values(p, series))
        for ix in support.minimal_non_orders(series):
            v = params.index_value(ix, p)
            if v in orders:
                notes.append(
                    f"series {series}: non-order index {ix!r} has value {v}, "
                    f"which collides with an order at s={s}"
                )
    return notes


def cmd_support(args, parser) -> int:
    from . import support

    outdir = Path(args.out) if args.out else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    written = {}
    for kind, name in (("plain", "appendix_plain.csv"), ("mixed", "appendix_mixed.csv")):
        text = support.appendix_csv(kind)
        (outdir / name).write_text(text)
        written[name] = len(text.splitlines()) - 1
    warnings = _collision_warnings(args.s)
    payload = {
        "command": "support",
        "s": args.s,
        "files": {name: {"rows": rows} for name, rows in written.items()},
        "warnings": warnings,
    }
    lines = [f"wrote {outdir / name} ({rows} rows)" for name, rows in written.items()]
    lines += [f"warning: {w}" for w in warnings]
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.format == "json":
        sys.stdout.write(_json_text(payload))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_weierstrass(args, parser) -> int:
    from . import params, series, weierstrass

    if args.point == "origin":
        _refuse_given(args, parser, ("seed",), "at the origin")
    config = _config(args, parser)
    seed_used = None if args.point == "origin" else args.seed
    if args.point == "origin":
        pt = series.origin_point(args.s)
    elif args.point == "rational":
        pt = series.rational_point(args.s, seed=args.seed)
    else:
        pt = series.random_point(args.s, seed=args.seed, extension=config["k"])
    p = params.ree_params(args.s)
    prof = weierstrass.vanishing_orders(args.series, pt)
    audit = weierstrass.divisor_degree_audit(p, args.series)
    payload = {
        "command": "weierstrass",
        "config": config,
        "point": {"kind": args.point, "extension": pt.extension, "seed": seed_used},
        "series": args.series,
        "jorders": list(prof.jorders),
        "epsilons": list(prof.epsilons),
        "weight": prof.weight,
        "is_weierstrass": prof.weight > 0,
        "matches_rational_profile": list(prof.jorders)
        == weierstrass.expected_rational_profile(p, args.series),
        "audit": audit,
    }
    lines = [
        f"{args.series} profile at {args.point} point, s={args.s}",
        "j      = " + " ".join(str(j) for j in prof.jorders),
        "eps    = " + " ".join(str(e) for e in prof.epsilons),
        f"weight = {prof.weight}",
        f"weierstrass point: {'yes' if prof.weight > 0 else 'no'}",
        f"audit: {audit['two_g_minus_2']}*{audit['sum_orders']} + "
        f"{audit['r_plus_1']}*{audit['m']} = {audit['degree']} = "
        f"{audit['weight_per_rational_point']}*{audit['n_rational']}",
    ]
    csv_text = "position,vanishing_order,generic_order\n" + "".join(
        f"{i},{j},{e}\n"
        for i, (j, e) in enumerate(zip(prof.jorders, prof.epsilons))
    )
    _emit(args, payload, lines, csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reecurve",
        description="Exact characteristic-three curve calculus: parameters, "
        "identity verification, order sequences, support tables, and point "
        "profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, unread=(), **defaults):
        """The run options; a command leaves out those in unread.

        argparse then refuses them, and the report echoes their defaults.
        args.given names the run options passed explicitly.
        """
        sp.add_argument("--s", type=_positive, default=1, help="tower level (q = 3^(2s+1))")
        for name, spec in _RUN_OPTIONS.items():
            if name not in unread:
                sp.add_argument(f"--{name}", action=_Given, **spec)
        sp.add_argument("--format", choices=("json", "text", "csv"), default="json")
        sp.add_argument("--out", default=None)
        sp.set_defaults(
            given=frozenset(),
            **{name: _RUN_OPTIONS[name]["default"] for name in unread} | defaults,
        )

    sp = sub.add_parser("params", help="numeric invariants of the curve at level s")
    sp.add_argument("--s", type=_positive, default=1)
    sp.add_argument("--format", choices=("json", "text", "csv"), default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=cmd_params)

    sp = sub.add_parser("verify", help="run the differential identity suite")
    add_common(sp)
    sp.add_argument(
        "--identity",
        action="append",
        default=None,
        help="restrict to one identity key (repeatable)",
    )
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("orders", help="generic order sequence of a linear series")
    add_common(sp)
    sp.add_argument("--series", choices=("D", "E"), default="D")
    sp.set_defaults(handler=cmd_orders)

    sp = sub.add_parser("support", help="emit the derivative support tables")
    sp.add_argument("--s", type=_positive, default=1)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--out", default=None, help="directory for the CSV files")
    sp.set_defaults(handler=cmd_support)

    sp = sub.add_parser("weierstrass", help="vanishing profile and weight at a point")
    # profiles are always series computations at one point, so the
    # echoed backend is series and the origin needs no sampling seed
    add_common(sp, unread=("backend", "trials"), backend="series", seed=0)
    sp.add_argument("--series", choices=("D", "E"), default="D")
    sp.add_argument("--point", choices=("origin", "rational", "generic"), default="origin")
    sp.set_defaults(handler=cmd_weierstrass)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

