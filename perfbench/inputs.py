"""Seeded input generation for the benchmark workloads.

Inputs are made with numpy alone, never with ``seqconvex.oracle``, so a change
to the package cannot change what the benchmark feeds it.  Every function is a
pure function of its seed: the same seed gives byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

#: The families of the ``cli-reports`` corpus, cycled by slot.  Concave
#: inputs are the ones whose hull gap exceeds the EXISTS eps (exit 1 of
#: ``decompose --target convex --mode exists``).
CORPUS_FAMILIES = ("uniform", "convex-noise", "arithmetic-noise", "integer-grid", "concave-noise")

#: The families of the ``long-series`` workload, cycled by operation.
LONG_FAMILIES = ("random-walk", "arithmetic-noise", "convex-noise", "integer-grid")

#: Fixed length schedule of the ``cli-reports`` corpus.  The lengths do not
#: depend on the seed, so every seed asks for the same amount of work: 20
#: short files (10..60 entries), 12 medium (70..150) and 8 long (170..300).
CORPUS_LENGTHS = tuple(
    [int(x) for x in np.linspace(10, 60, 20).round()]
    + [int(x) for x in np.linspace(70, 150, 12).round()]
    + [int(x) for x in np.linspace(170, 300, 8).round()]
)

#: Length of every ``long-series`` input.
LONG_LENGTH = 4_000


def series(rng: np.random.Generator, family: str, m: int, noise: float = 0.5) -> np.ndarray:
    """One float64 series of length ``m`` from ``family``."""
    if family == "uniform":
        return rng.uniform(-1.0, 1.0, m)
    if family in ("convex-noise", "concave-noise"):
        # cumulative sums of sorted slopes form a convex base
        slopes = np.sort(rng.normal(0.0, 1.0, m - 1))
        base = np.concatenate(([0.0], np.cumsum(slopes))) * (10.0 / m)
        if family == "concave-noise":
            base = -base
        return base + rng.uniform(-noise / 2.0, noise / 2.0, m)
    if family == "arithmetic-noise":
        slope, intercept = rng.uniform(-1.0, 1.0, 2)
        return intercept + slope * np.arange(m) + rng.uniform(-noise / 2.0, noise / 2.0, m)
    if family == "integer-grid":
        r = int(rng.choice([2, 5]))
        return rng.integers(-r, r + 1, m).astype(float)
    if family == "random-walk":
        return np.cumsum(rng.normal(0.0, 1.0, m))
    raise ValueError(f"unknown family {family!r}")


def encode(values: np.ndarray, fmt: str) -> bytes:
    """File bytes for ``values`` in one of the formats ``load_sequence`` reads.

    ``repr`` of a float64 round-trips exactly, so the loaded sequence equals
    ``values`` bit for bit.
    """
    if fmt == "json":
        if np.all(values == np.round(values)):
            return json.dumps([int(v) for v in values]).encode()
        return json.dumps([float(v) for v in values]).encode()
    if fmt == "csv-column":
        lines = ["# benchmark input, one value per line"]
        lines += [repr(float(v)) for v in values]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "csv-row":
        return (", ".join(repr(float(v)) for v in values) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def corpus(seed: int) -> list[dict]:
    """The ``cli-reports`` corpus: one entry per file, with its raw bytes.

    Slot k has family ``CORPUS_FAMILIES[k % 5]`` and length
    ``CORPUS_LENGTHS[k]``.  Every other slot of each family runs the convex
    decomposition in EXISTS mode, the rest in FORALL mode; those convex-noise
    slots are noise-free, so the corpus holds exactly convex inputs.  The
    per-mode eps factors are drawn here as well, so the commands are fixed by
    the seed.
    """
    rng = np.random.default_rng([seed, 1])
    files = []
    for k, m in enumerate(CORPUS_LENGTHS):
        family = CORPUS_FAMILIES[k % len(CORPUS_FAMILIES)]
        first_of_pair = (k // len(CORPUS_FAMILIES)) % 2 == 0
        noise = 0.0 if (family == "convex-noise" and first_of_pair) else float(rng.uniform(0.05, 1.0))
        values = series(rng, family, m, noise)
        fmt = ("csv-column", "csv-row", "json")[k % 3]
        suffix = ".json" if fmt == "json" else ".csv"
        files.append(
            {
                "name": f"f{k:02d}-{family}-{m}{suffix}",
                "family": family,
                "values": values,
                "data": encode(values, fmt),
                "grid": 2 * m + 1,
                "eps_factor": {mode: float(rng.choice([0.5, 1.5])) for mode in ("exists", "forall")},
                "hyers_mode": "exists" if first_of_pair else "forall",
            }
        )
    return files


def long_input(seed: int, k: int) -> dict:
    """Input of the k-th ``long-series`` operation."""
    rng = np.random.default_rng([seed, 2, k])
    family = LONG_FAMILIES[k % len(LONG_FAMILIES)]
    values = series(rng, family, LONG_LENGTH, float(rng.uniform(0.05, 1.0)))
    return {
        "name": f"long{k:03d}-{family}.csv",
        "family": family,
        "values": values,
        "data": encode(values, "csv-column"),
        "eps_factor": {mode: float(rng.choice([0.5, 1.5])) for mode in ("exists", "forall")},
        "triple_seed": int(rng.integers(2**31)),
    }


def suite_seeds(seed: int):
    """Endless stream of ``verify-sweep`` base seeds."""
    rng = np.random.default_rng([seed, 3])
    while True:
        yield int(rng.integers(2**31))
