"""Benchmark the compiled row-reduction kernels against the pure-Python twins.

Two views:
  * micro: raw kernel calls on random integer matrices of growing size;
  * macro: full flat enumeration, which makes one kernel call per flat.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import random
import time

from arrdmod import Arrangement, _kernel, _rref_py, classify, enumerate_flats

try:
    from arrdmod import _rref_cy
except ImportError:
    _rref_cy = None


def _time(fn, args_list, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for args in args_list:
            fn(args)
        best = min(best, time.perf_counter() - start)
    return best / len(args_list)


def micro(repeats: int) -> None:
    rng = random.Random(20240117)
    shapes = [(3, 4, 9), (6, 5, 9), (10, 8, 99), (16, 12, 999), (24, 16, 10**6)]
    print("-- micro: kernel calls on random integer matrices (best of "
          f"{repeats}, per call) --")
    header = f"{'shape':>10} {'magnitude':>10} {'op':>6} {'pure':>12} {'compiled':>12} {'speedup':>8}"
    print(header)
    for rows_n, cols_n, bound in shapes:
        mats = [
            [[rng.randint(-bound, bound) for _ in range(cols_n)] for _ in range(rows_n)]
            for _ in range(40)
        ]
        for label, op in (("rref", "rref_scaled"), ("rank", "pivot_columns")):
            pure = _time(getattr(_rref_py, op), mats, repeats)
            if _rref_cy is None:
                print(f"{rows_n}x{cols_n:<6} {bound:>10} {label:>6} {pure * 1e6:>10.1f}us {'n/a':>12}")
                continue
            comp = _time(getattr(_rref_cy, op), mats, repeats)
            print(
                f"{rows_n}x{cols_n:<6} {bound:>10} {label:>6} "
                f"{pure * 1e6:>10.1f}us {comp * 1e6:>10.1f}us {pure / comp:>7.2f}x"
            )


def _random_general_position(rng, n, m):
    while True:
        rows = []
        for _ in range(m):
            normal = [rng.randint(-6, 6) for _ in range(n)]
            if all(a == 0 for a in normal):
                break
            rows.append((normal, rng.randint(-4, 4)))
        if len(rows) != m:
            continue
        try:
            arr = Arrangement.from_coefficients(n, rows)
        except Exception:
            continue
        if classify(arr).general_position:
            return arr


def macro(repeats: int) -> None:
    rng = random.Random(7)
    arrs = [_random_general_position(rng, 4, 8) for _ in range(4)]
    arrs += [_random_general_position(rng, 3, 8) for _ in range(4)]
    backends = [("pure", _rref_py)]
    if _rref_cy is not None:
        backends.append(("compiled", _rref_cy))
    print(f"\n-- macro: enumerate_flats on 8 arrangements (best of {repeats}) --")
    results = {}
    for name, impl in backends:
        _kernel.rref_scaled = impl.rref_scaled
        _kernel.pivot_columns = impl.pivot_columns
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for arr in arrs:
                enumerate_flats(arr)
            best = min(best, time.perf_counter() - start)
        results[name] = best
        print(f"{name:>10}: {best:.3f}s")
    if len(results) == 2:
        print(f"   speedup: {results['pure'] / results['compiled']:.2f}x")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if _rref_cy is None:
        print("note: compiled kernel unavailable, showing pure timings only")
    micro(args.repeats)
    macro(args.repeats)


if __name__ == "__main__":
    main()
