"""Per-layer measurements outside the workload loop: growth exponents from
size sweeps, Dyadic kernels, and the cold start of the command.

A growth exponent is fitted between two sizes as
ln(t2 / t1) / ln(n2 / n1), with n the input size (table nodes, set members)
and t the median time over repeats: 1 means linear, 2 quadratic.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Callable

import semimeasures as sm

import gen


def median_time(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def exponent(n1: int, t1: float, n2: int, t2: float) -> float:
    return math.log(t2 / t1) / math.log(n2 / n1)


def nodes(depth: int) -> int:
    return (1 << (depth + 1)) - 1


def validate_growth(rng: random.Random, depths: tuple[int, int], repeats: int) -> float:
    """``validate`` on same-shaped strict mixtures at two depths."""
    times = []
    for d in depths:
        stage = gen.build_stage(gen.random_mixture(random.Random(rng.random()), d, 3))
        times.append(median_time(lambda: sm.validate(stage), repeats))
    return exponent(nodes(depths[0]), times[0], nodes(depths[1]), times[1])


def normalize_growth(rng: random.Random, sizes: tuple[int, int], repeats: int) -> float:
    """``prefix_free_normalize`` on n distinct strings of length 16."""
    times = []
    for n in sizes:
        members = gen.random_level(rng, n, 16)
        times.append(median_time(lambda: sm.prefix_free_normalize(members), repeats))
    return exponent(sizes[0], times[0], sizes[1], times[1])


def induce_growth(depths: tuple[int, int], repeats: int) -> float:
    """``induced_semimeasure`` of a one-pair functional at two table depths."""
    phi_pair = ("0", "1" * (depths[1] + 2))
    times = []
    for d in depths:
        times.append(median_time(
            lambda: sm.induced_semimeasure(sm.MonotoneFunctional.constant([phi_pair]), 0, d), repeats))
    return exponent(nodes(depths[0]), times[0], nodes(depths[1]), times[1])


def dyadic_kernels(rng: random.Random, depth: int, count: int, repeats: int) -> tuple[float, float]:
    """ns per ``a + b`` and per ``a < b`` on table values of presentation mixtures."""
    stage = gen.build_stage(gen.random_mixture(rng, depth, 3))
    values = [v for c in stage.components for v in c.table.values()]
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(count)]

    def add():
        for a, b in pairs:
            a + b

    def lt():
        for a, b in pairs:
            a < b

    return (median_time(add, repeats) / count * 1e9, median_time(lt, repeats) / count * 1e9)


def cold_import_ms(src: str, spawns: int) -> float:
    """Median wall time of ``python -m semimeasures.cli --help``, one process at a time."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "semimeasures.cli", "--help"], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000
