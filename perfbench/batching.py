"""How many realizations a batched kernel needs before its per-call overhead
stops mattering; the sweep workloads' realization count rests on it.

    python3 perfbench/batching.py

It times one numpy step shaped like a global Dinkelbach iteration (score,
sort, prefix sum, pick the best cardinality) on (R, K=10) arrays, one thread,
and prints the time per instance for each R.  The step stands in for the
vectorised rate path that ROADMAP item 2 plans; the library has no batched
kernel yet.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import time  # noqa: E402

import numpy as np  # noqa: E402

K = 10
SIZES = (1, 2, 5, 10, 20, 50, 100, 200, 500)


def step(weight, service, roundtrip, rate):
    scores = service * (weight - rate[:, None] * roundtrip)
    ranked = -np.sort(-scores, axis=1)
    gains = np.cumsum(ranked, axis=1) - 1.1 ** np.arange(K)
    best = np.argmax(gains, axis=1)
    return gains[np.arange(len(best)), best]


def per_instance_us(size, rng):
    weight, service, roundtrip = (rng.random((size, K)) + 0.1 for _ in range(3))
    rate = rng.random(size)
    reps = max(20, 20_000 // size)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            step(weight, service, roundtrip, rate)
        best = min(best, (time.perf_counter() - start) / (reps * size))
    return 1e6 * best


def main() -> None:
    rng = np.random.default_rng(0)
    times = {size: per_instance_us(size, rng) for size in SIZES}
    floor = times[SIZES[-1]]
    print("R      us/instance  x floor")
    for size, us in times.items():
        print(f"{size:<6d} {us:11.2f}  {us / floor:7.2f}")


if __name__ == "__main__":
    main()
