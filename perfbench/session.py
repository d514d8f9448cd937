"""One warm library session at s = 1, the in-process counterpart of the CLI.

    python3 perfbench/session.py --seed 0 [--trace TRACE_PREFIX]

Calls go through module attributes, so a tracer installed after import
sees them.  Prints one JSON object: the results (checked by the
benchmark) and the processor time of each group of calls.
"""

import argparse
import json
import time


def run(seed: int) -> tuple[list[dict], dict[str, float]]:
    import reecurve.identities as identities
    import reecurve.orders as orders
    import reecurve.series as series
    import reecurve.weierstrass as weierstrass

    results: list[dict] = []
    times = {"verify_s": 0.0, "orders_s": 0.0, "weierstrass_s": 0.0}
    clock = time.process_time

    for backend in ("symbolic", "points"):
        for name in ("D", "E"):
            kw = dict(s=1, backend=backend, trials=2, seed=seed)
            t0 = clock()
            seq = orders.order_sequence(name, **kw)
            frob = orders.frobenius_orders(name, **kw)
            times["orders_s"] += clock() - t0
            results.append({"call": "order_sequence", "series": name,
                            "backend": backend, "orders": list(seq.orders)})
            results.append({"call": "frobenius_orders", "series": name,
                            "backend": backend, "nus": list(frob.nus),
                            "omitted": frob.omitted_order,
                            "below_q": list(frob.below_q)})

    points = (
        ("origin", lambda: series.origin_point(1)),
        ("rational", lambda: series.rational_point(1, seed)),
        ("generic", lambda: series.random_point(1, seed, extension=6)),
    )
    for kind, make in points:
        t0 = clock()
        point = make()
        profiles = [weierstrass.vanishing_orders(name, point) for name in ("D", "E")]
        times["weierstrass_s"] += clock() - t0
        for name, prof in zip(("D", "E"), profiles):
            results.append({"call": "vanishing_orders", "series": name,
                            "point": kind, "jorders": list(prof.jorders),
                            "weight": prof.weight})

    t0 = clock()
    rows = identities.verify_catalog(1, "points", seed=seed)
    times["verify_s"] += clock() - t0
    results.append({
        "call": "verify_catalog",
        "total": len(rows),
        "failed": sum(1 for r in rows if not r.ok and not r.skipped),
        "skipped": sum(1 for r in rows if r.skipped),
    })
    return results, times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None, help="trace file prefix")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import reecurve.cli  # noqa: F401  (the whole package, as the CLI loads it)

    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        results, times = run(args.seed)
    finally:
        if tracer is not None:
            tracer.dump(args.trace, {"import_s": import_s})
    print(json.dumps({"results": results, "times": times}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
