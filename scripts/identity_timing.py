"""Time the identity catalog, identity by identity.

Useful when comparing backends: prints a per-identity wall-clock table,
slowest first, plus the overall verdict.  Backends are built once per
route and then shared.  On the points route the first key's time
includes sampling the points; each point has one expansion, and a key's
time includes building, once, the member series, shifts and lifts it is
the first to read, at depth q^2 + 1.  Later keys read them.  Each key
is its own catalog run, so the per-key runs do not share the memo of
evaluated terms: a leaf read by several keys is evaluated once in each.

    python3 scripts/identity_timing.py --s 2 --backend points --trials 3
"""

import argparse
import time

from reecurve.identities import IDENTITY_CATALOG, verify_catalog


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--s", type=int, default=1)
    ap.add_argument("--backend", choices=("symbolic", "points"), default="symbolic")
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rows = []
    failures = 0
    for spec in IDENTITY_CATALOG:
        t0 = time.time()
        res = verify_catalog(args.s, args.backend, keys=[spec.key],
                             trials=args.trials, seed=args.seed)
        dt = time.time() - t0
        bad = sum(1 for r in res if not r.ok and not r.skipped)
        skipped = sum(1 for r in res if r.skipped)
        failures += bad
        rows.append((dt, spec.key, len(res), bad, skipped))

    rows.sort(reverse=True)
    print(f"s={args.s} backend={args.backend} trials={args.trials} seed={args.seed}")
    print(f"{'identity':14} {'instances':>9} {'failed':>6} {'skipped':>7} {'secs':>8}")
    for dt, key, n, bad, skipped in rows:
        print(f"{key:14} {n:>9d} {bad:>6d} {skipped:>7d} {dt:>8.3f}")
    total = sum(r[0] for r in rows)
    print(f"total {total:.2f}s, {failures} failures")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
