"""Scan the generic order sequence of either family at any tower level.

The symbolic backend (the default) is the exact route at every level;
the points backend samples extension points instead, so there more
trials buy more confidence.  The result is compared against the
closed-form prediction of the order set.

    python3 scripts/order_scan.py --s 2 --series D
    python3 scripts/order_scan.py --s 2 --series E --backend points --trials 2 --seed 0
"""

import argparse
import time

from reecurve.orders import frobenius_orders, order_sequence
from reecurve.params import ree_params
from reecurve.support import order_values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--s", type=int, default=1)
    ap.add_argument("--series", choices=("D", "E"), default="D")
    ap.add_argument("--backend", choices=("symbolic", "points"), default="symbolic")
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--k", type=int, default=6)
    args = ap.parse_args()

    p = ree_params(args.s)
    t0 = time.time()
    seq = order_sequence(
        args.series, s=args.s, backend=args.backend,
        trials=args.trials, seed=args.seed, k=args.k,
    )
    dt = time.time() - t0
    predicted = order_values(p, args.series)

    print(f"series {args.series}, s={args.s}, q0={p.q0}, q={p.q}, backend={args.backend}")
    for i, (v, label) in enumerate(zip(seq.orders, seq.labels)):
        mark = "" if v == predicted[i] else "  <-- differs from prediction"
        print(f"  eps[{i:2d}] = {v:>9d}  ({label}){mark}")
    ok = list(seq.orders) == predicted
    print(f"matches closed form: {ok}   [{dt:.2f}s]")

    frob = frobenius_orders(args.series, s=args.s, backend=args.backend,
                            trials=args.trials, seed=args.seed, k=args.k)
    print(f"frobenius orders omit eps[{frob.omitted_index}] = {frob.omitted_order}; "
          f"orders below q: {frob.below_q}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
