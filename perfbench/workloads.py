"""Seeded job lists for the three benchmark workloads.

A workload is one cycle of job slots: each slot is a command (or the symbolic
library job) on a chain size ``(n, L)`` with inputs drawn from the seed.  The
commands and sizes are the same for every seed; the seed only draws
couplings, observables and ``--seed`` values.  A run replays the cycle, so
each slot is timed several times on identical inputs.

This module imports nothing from pararp: inputs are plain JSON-able dicts, and
the spec files the CLI reads are written by ``materialize`` before any timing.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("rp_suite", "basis", "symbolic")

# Weight of the numpy kernel in each workload's host-speed reference
# (reference.py).  rp_suite and basis split their time between interpreter
# work and numpy/BLAS work on dense matrices; over five 30 s runs each, a
# weight of 0.4 gave them the smallest spread of jobs_per_s, job_p50_ms and
# job_p90_ms together.  symbolic builds no matrix and keeps the Python kernel
# alone.
NUMPY_WEIGHT = {"rp_suite": 0.4, "basis": 0.4, "symbolic": 0.0}

# A run replays the cycle and keeps the median of each slot's times, so a
# cycle is kept to about 5 s: a 30 s run then times every slot several times,
# spread over the run.

# rp_suite: each command on every cell, gram only where its dense Gram matrix
# has at most 32 rows (n^{L/2-1} <= 32).  At (3, 10) only trotter and baxter
# run: rp-check takes about 5 s there (check_rp builds a 31x31 Gram matrix of
# dim-243 triple products) and bounds 1.5 s, a whole cycle's worth together.
RP_CELLS = ((2, 8), (3, 6), (2, 10), (4, 6), (3, 8), (2, 12), (5, 6), (2, 14),
            (3, 10))
# Cells of dimension <= 32 get five draws per cycle, the others one: these
# Python-bound jobs are most of the slots and set the median, while the
# BLAS-bound large cells set the throughput and the 90th percentile.  The
# cycle then holds more than 100 slots, so at least 10 lie beyond the 90th
# percentile.
RP_SMALL = ((2, 8), (3, 6), (2, 10))
RP_SMALL_DRAWS = 5
RP_SKIP = {("rp-check", 3, 10), ("bounds", 3, 10)}
RP_SAMPLES = 4
BOUNDS_SAMPLES = 2

# decompose at (4, 6) is left out: like (2, 12) it enumerates 4096 dense
# dim-64 monomials (2.8 s), and one such job already fills half the cycle.
DECOMPOSE_CELLS = ((2, 8), (3, 6), (2, 10), (2, 12))
VERIFY_CELLS = tuple(
    (n, L) for n, top in ((2, 16), (3, 10), (4, 8)) for L in range(4, top + 1, 2)
)
# Light cells (decompose below 4096 basis monomials, verify-relations below
# dimension 128) repeat within a cycle so they set the median, while the
# 4096-monomial decomposition dominates the cycle's time.
DECOMPOSE_DRAWS = 2
VERIFY_REPEATS = 5

SYMBOLIC_CELLS = tuple((n, L) for L in (12, 16, 20) for n in (2, 3, 4, 5))
SYMBOLIC_DRAWS = 2  # per cell and spec kind: 48 slots
OBSERVABLE_TERMS = 24
H_MINUS_TERMS = 3
COUPLING_KEYS = 2

# Tiny grids for the benchmark's own smoke tests; same job kinds, small sizes.
TINY = {
    "rp_suite": dict(cells=((2, 4), (3, 4)), small=((2, 4),)),
    "basis": dict(decompose=((2, 4), (3, 4)), verify=((2, 4), (3, 4))),
    "symbolic": dict(cells=((2, 6), (3, 6))),
}


def _observable_exponents(rng: random.Random, n: int, L: int) -> list[int]:
    """Nonzero minus-half exponents with degree = 0 mod n (gauge invariant),
    drawn directly: free entries on the first L/2 - 1 sites, the last minus
    site fixes the degree."""
    half = L // 2
    while True:
        head = [rng.randrange(n) for _ in range(half - 1)]
        entries = head + [(-sum(head)) % n] + [0] * half
        if any(entries):
            return entries


def _coupling_keys(rng: random.Random, n: int, L: int, count: int) -> list[list[int]]:
    """Distinct nonzero minus-half exponent vectors, drawn directly rather
    than by enumerating all n^{L/2} of them."""
    half = L // 2
    keys: list[list[int]] = []
    while len(keys) < count:
        head = [rng.randrange(n) for _ in range(half)]
        if any(head) and head + [0] * half not in keys:
            keys.append(head + [0] * half)
    return keys


def general_spec(rng: random.Random, n: int, L: int) -> dict:
    """Full-form spec satisfying a reflection-positivity sign rule.

    Odd n uses all J >= 0; even n alternates between that rule and
    (-1)^degree J >= 0, each coupling's sign fixed by its degree."""
    h_minus = [
        {"coefficient": [rng.gauss(0, 0.5), rng.gauss(0, 0.5)],
         "exponents": _observable_exponents(rng, n, L)}
        for _ in range(H_MINUS_TERMS)
    ]
    alternating = n % 2 == 0 and rng.random() < 0.5
    couplings = []
    for key in _coupling_keys(rng, n, L, COUPLING_KEYS):
        j = abs(rng.gauss(0, 1.0))
        if alternating and sum(key) % 2:
            j = -j
        couplings.append({"exponents": key, "J": j})
    return {"n": n, "L": L, "h_minus": h_minus, "couplings": couplings}


def baxter_spec(rng: random.Random, n: int, L: int) -> dict:
    """Mirror-symmetric Baxter clock chain with crossing bond t_{L/2} < 0,
    which meets the RP hypotheses for every n."""
    side = [rng.uniform(0.5, 1.5) for _ in range(L // 2 - 1)]
    t = side + [-rng.uniform(0.2, 1.0)] + side[::-1]
    return {"baxter": {"n": n, "L": L, "t": t}}


def _cli(command: str, n: int, L: int, argv: list[str], spec: dict | None) -> dict:
    return {"kind": "cli", "command": command, "n": n, "L": L,
            "argv": [command] + argv, "spec": spec}


def _rp_suite_cycle(rng: random.Random, cells, small) -> list[dict]:
    jobs = []
    for n, L in cells:
        for _ in range(RP_SMALL_DRAWS if (n, L) in small else 1):
            for command in ("rp-check", "gram", "bounds", "trotter", "baxter"):
                if (command, n, L) in RP_SKIP:
                    continue
                if command == "gram" and n ** (L // 2 - 1) > 32:
                    continue
                seed = str(rng.randrange(2**31))
                if command == "rp-check":
                    argv = ["--samples", str(RP_SAMPLES), "--seed", seed]
                elif command == "bounds":
                    argv = ["--samples", str(BOUNDS_SAMPLES), "--seed", seed]
                else:
                    argv = []
                baxter = command in ("bounds", "baxter")
                spec = (baxter_spec if baxter else general_spec)(rng, n, L)
                jobs.append(_cli(command, n, L, argv, spec))
    return jobs


def _basis_cycle(rng: random.Random, decompose_cells, verify_cells) -> list[dict]:
    jobs = []
    for n, L in decompose_cells:
        for _ in range(DECOMPOSE_DRAWS if n**L < 4096 else 1):
            jobs.append(_cli("decompose", n, L, [], general_spec(rng, n, L)))
    for n, L in verify_cells:
        for _ in range(VERIFY_REPEATS if n ** (L // 2) < 128 else 1):
            jobs.append(_cli("verify-relations", n, L,
                             ["--n", str(n), "--L", str(L)], None))
    return jobs


def _symbolic_cycle(rng: random.Random, cells) -> list[dict]:
    jobs = []
    for n, L in cells:
        for baxter in (True, False):
            for _ in range(SYMBOLIC_DRAWS):
                spec = (baxter_spec if baxter else general_spec)(rng, n, L)
                # Tiny-grid chains have fewer observable monomials than 24.
                size = min(OBSERVABLE_TERMS, n ** (L // 2 - 1) - 1)
                terms = {}
                while len(terms) < size:
                    terms[tuple(_observable_exponents(rng, n, L))] = [
                        rng.gauss(0, 1.0), rng.gauss(0, 1.0)]
                observable = [{"coefficient": c, "exponents": list(e)}
                              for e, c in terms.items()]
                jobs.append({"kind": "symbolic", "command": "symbolic", "n": n,
                             "L": L, "spec": spec, "observable": observable,
                             "trace_check": n ** (L // 2) <= 64})
    return jobs


def build_jobs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's cycle of jobs, deterministic in ``seed``; ``tiny``
    swaps in small chains for the benchmark's own tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    grid = TINY[workload] if tiny else {}
    if workload == "rp_suite":
        return _rp_suite_cycle(rng, grid.get("cells", RP_CELLS),
                               grid.get("small", RP_SMALL))
    if workload == "basis":
        return _basis_cycle(rng, grid.get("decompose", DECOMPOSE_CELLS),
                            grid.get("verify", VERIFY_CELLS))
    return _symbolic_cycle(rng, grid.get("cells", SYMBOLIC_CELLS))


def materialize(jobs: list[dict], directory: str) -> None:
    """Write each CLI job's spec to a file in ``directory`` and point the
    job's argv at it."""
    for i, job in enumerate(jobs):
        if job["kind"] == "cli" and job["spec"] is not None:
            path = os.path.join(directory, f"spec-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job["spec"], fh)
            job["argv"] = job["argv"] + ["--spec", path]
