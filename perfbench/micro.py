"""GF(3^m) micro-benchmarks on seeded elements, in a fresh process.

    python3 perfbench/micro.py --seed 0

For each m, field_context construction and the first-use tables
(Frobenius columns, Artin-Schreier factorisation) are timed on their own;
per-call figures are then medians over repeated loops on warm tables.
Prints one JSON object of metric name -> value.
"""

import argparse
import json
import random
import statistics
import time

DEGREES = (5, 7, 30, 42)  # base fields at s = 2, 3; extension 6 of each
ELEMENTS = 16
REPEATS = 7
LOOP_S = 0.004  # target processor time of one timed loop


def _per_call_us(fn, args: list[tuple]) -> float:
    """Median microseconds per call of fn over the argument list."""
    clock = time.process_time
    t0 = clock()
    for a in args:
        fn(*a)
    once = max(clock() - t0, 1e-6)
    loops = max(1, round(LOOP_S / once))
    samples = []
    for _ in range(REPEATS):
        t0 = clock()
        for _ in range(loops):
            for a in args:
                fn(*a)
        samples.append((clock() - t0) / (loops * len(args)))
    return statistics.median(samples) * 1e6


def bench(seed: int) -> dict[str, float]:
    from reecurve import gf

    out: dict[str, float] = {}
    clock = time.process_time
    for m in DEGREES:
        t0 = clock()
        ctx = gf.field_context(m)
        out[f"gf.context_build_s.m{m}"] = clock() - t0

        rng = random.Random(f"perfbench-micro:{seed}:{m}")
        xs = [ctx.random_element(rng) for _ in range(ELEMENTS)]
        xs = [x if not x.is_zero() else ctx.one() for x in xs]
        ys = xs[1:] + xs[:1]
        # u^3 - u = c is solvable by construction, for every m
        cs = [gf.frobenius_power(x, 1) - x for x in xs]

        t0 = clock()
        gf.frobenius_power(xs[0], 1)
        gf.solve_artin_schreier(cs[0], 3)
        out[f"gf.tables_s.m{m}"] = clock() - t0

        out[f"gf.mul_us.m{m}"] = _per_call_us(lambda a, b: a * b, list(zip(xs, ys)))
        out[f"gf.frobenius_us.m{m}"] = _per_call_us(
            gf.frobenius_power, [(x, 1) for x in xs]
        )
        out[f"gf.inverse_us.m{m}"] = _per_call_us(lambda a: a.inverse(), [(x,) for x in xs])
        out[f"gf.as_solve_us.m{m}"] = _per_call_us(
            gf.solve_artin_schreier, [(c, 3) for c in cs]
        )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(bench(args.seed), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
