"""Seeded request lists for the benchmark's workloads.

Each request is one CLI invocation of ``cvteleport``. The lists depend only on
the workload seed. Inputs whose value sets the cost of a request (N, rbar,
sweep steps) are drawn stratified: the range is cut into equal strata and one
value is drawn inside each. Every seed then covers the whole range, and the
work per list varies little from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

DENSE_N = (20, 200)  # inclusive N range of dense_large_n
RBAR = (0.0, 6.0)
NOISE = (1.0, 2.0)  # range of the thermal noise factors n1, n2
SWEEP_STEPS = (41, 201)
SWEEP_N = (2, 10_000)  # log-uniform N range of closed_form
SWEEP_N_COUNT = 6
VERIFY_SAMPLES = 1_000_000


@dataclass(frozen=True)
class Request:
    """One CLI invocation; params holds the inputs the reference check needs."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws, one uniform in each of k equal strata of [lo, hi], shuffled."""
    out = [lo + (i + rng.random()) * (hi - lo) / k for i in range(k)]
    rng.shuffle(out)
    return out


def _spec_request(kind: str, N: int, n1: float, n2: float, rbar: float, *extra: str) -> Request:
    argv = (kind.split("_")[0], "--N", str(N), "--n1", repr(n1), "--n2", repr(n2),
            "--rbar", repr(rbar), *extra)
    return Request(kind, argv, {"N": N, "n1": n1, "n2": n2, "rbar": rbar})


def dense_large_n(seed: int, per_kind: int = 10) -> list[Request]:
    """fidelity, entanglement and localize in equal shares, each at a distinct N.

    20..200 is cut into 3 * per_kind strata of about six values; the kinds
    take turns over the strata from low N to high, so the top stratum is a
    localize request. N is drawn uniformly from the three values at the centre
    of each stratum: request cost grows as N**3 or faster, and a narrow draw
    keeps the latency percentiles steady across seeds. Per kind, rbar takes
    one value from each of per_kind strata of [0, 6]. Each N stratum gets a
    fixed rbar stratum, by a permutation that spreads rbar over the N range.
    The pairing is the same for every seed: requests near p50 and the tail
    differ in cost by about 25%, and the rbar of a localize request moves its
    cost by up to 35%, so a pairing drawn per seed would reorder them. The
    grid never pairs high N with high rbar (perfbench/README.md).
    """
    rng = random.Random(seed)
    kinds = ("fidelity", "entanglement", "localize")
    lo, hi = DENSE_N
    count = len(kinds) * per_kind
    width = (hi - lo + 1) / count
    rbar_width = (RBAR[1] - RBAR[0]) / per_kind
    requests = []
    for i in range(count):
        k, j = i % len(kinds), i // len(kinds)  # kind, and its j-th N stratum
        N = round(lo + (i + 0.5) * width) + rng.randint(-1, 1)
        # stride 3 visits every rbar stratum once while per_kind is not a multiple of 3
        rbar = RBAR[0] + ((3 * j + 3 * k) % per_kind + rng.random()) * rbar_width
        requests.append(_spec_request(kinds[k], N, rng.uniform(*NOISE), rng.uniform(*NOISE),
                                      rbar))
    rng.shuffle(requests)
    return requests


def _log_uniform_Ns(rng: random.Random, count: int) -> list[int]:
    lo, hi = (math.log(x) for x in SWEEP_N)
    Ns: set[int] = set()
    while len(Ns) < count:
        Ns.add(round(math.exp(rng.uniform(lo, hi))))
    return sorted(Ns)


def closed_form(seed: int, per_kind: int = 50) -> list[Request]:
    """sweep, optimize and optimize --method numerical in equal shares."""
    rng = random.Random(seed)
    requests = []
    for steps in _strata(rng, per_kind, SWEEP_STEPS[0], SWEEP_STEPS[1] + 1):
        steps = int(steps)
        rbar_min, rbar_max = sorted((rng.uniform(*RBAR), rng.uniform(*RBAR)))
        Ns = _log_uniform_Ns(rng, SWEEP_N_COUNT)
        n1, n2 = rng.uniform(*NOISE), rng.uniform(*NOISE)
        argv = ("sweep", "--rbar-min", repr(rbar_min), "--rbar-max", repr(rbar_max),
                "--steps", str(steps), "--N-list", ",".join(map(str, Ns)),
                "--n1", repr(n1), "--n2", repr(n2))
        requests.append(Request("sweep", argv, {
            "rbar_min": rbar_min, "rbar_max": rbar_max, "steps": steps, "N_list": Ns,
            "n1": n1, "n2": n2,
        }))
    for kind, extra in (("optimize", ()), ("optimize_numerical", ("--method", "numerical"))):
        for rbar in _strata(rng, per_kind, *RBAR):
            N = _log_uniform_Ns(rng, 1)[0]
            requests.append(_spec_request(kind, N, rng.uniform(*NOISE), rng.uniform(*NOISE),
                                          rbar, *extra))
    rng.shuffle(requests)
    return requests


def verify(seed: int, count: int = 30) -> list[Request]:
    """The README's verify invocation, each with its own drawn MC seed."""
    rng = random.Random(seed)
    return [
        Request("verify", ("verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(s)),
                {"seed": s})
        for s in rng.sample(range(1_000_000), count)
    ]


WORKLOADS = {
    "dense_large_n": dense_large_n,
    "closed_form": closed_form,
    "verify": verify,
}

# One untimed request per workload, run during set-up and kept out of the list.
WARMUPS = {
    "dense_large_n": _spec_request("fidelity", 64, 1.0, 1.0, 1.0),
    "closed_form": Request("sweep", ("sweep",), {
        "rbar_min": 0.0, "rbar_max": 2.0, "steps": 41, "N_list": [2, 3, 4, 8, 20, 50],
        "n1": 1.0, "n2": 1.0,
    }),
    "verify": Request("verify", ("verify",), {"seed": 42}),
}


def build(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](seed)
