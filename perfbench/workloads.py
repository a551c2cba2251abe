"""Seeded request streams for the benchmark workloads.

Nothing here imports twobridge: a stream depends only on the seed and on the
pools and work strata stored in ``reference.json``, and the program under
test sees nothing but the generated slopes.

Every stream is an endless sequence of *rounds*.  A run measures whole
rounds until its time is up, so each run covers complete stratified samples
and a faster program measures more rounds, not a shorter window:

* ``census`` round i takes the next CENSUS_PICKS[k] slopes of a seeded
  permutation of work stratum k, in seeded order, so every round mixes
  cheap and dear slopes in the same proportions and the run-to-run spread
  measures the program, not the luck of the draw.  A stratum that has too
  few slopes left for a round starts a fresh seeded permutation, so no slope
  repeats within a round, and none within a run until its stratum is used
  up: the one-slope CENSUS_MEMORY_PEAK stratum repeats from round 2, the
  two dearest slopes from round 3.
* ``hot_slopes`` repeats a block of HOT_BLOCK requests whose counts follow
  a Zipf law over the popular slopes exactly (largest-remainder quotas);
  the seed shuffles each block.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("census", "hot_slopes")

CENSUS_P = (5, 24)
# Slopes per round from each census stratum: the work levels 0 to 4, levels
# 5-8, the two dearest slopes, and CENSUS_MEMORY_PEAK (see README).  Five from
# level 3 and five below (1 + 2 + 2) and above (2 + 1 + 1 + 1) them put the
# median latency in the middle of five requests of like work, not on one
# request or between two levels.
CENSUS_PICKS = (1, 2, 2, 5, 2, 1, 1, 1)
# The census slope with by far the highest peak memory at the seed commit
# (257 MB; no other reaches 200 MB).  It has a stratum of its own, so every
# round draws it and peak_rss_mb does not depend on the seed.
CENSUS_MEMORY_PEAK = "11/13"
BATCH_EPS = 1e-8  # the batch subcommand's default

# Checked for kernel parity after every run: parabolic fans and a generic
# slope, each evaluated in milliseconds.
PARITY_SLOPES = ("2/5", "3/7", "2/7", "3/8")

# Popularity order of the hot set, most requested first: generic slopes and
# the three exceptional families 2/5, n/(2n+1) and 2/p.  These are the
# popular slopes (p <= 21) on which every hot subcommand succeeds at the
# seed commit; ``endinv`` fails on most slopes with p >= 10 (see README).
HOT_SLOPES = ("2/5", "3/8", "3/7", "2/7", "4/9", "2/9", "5/8", "3/5",
              "4/7", "5/7", "5/9", "7/9", "5/11", "4/11", "6/11", "7/11")
HOT_OPS = ("identity", "cusp", "longitude", "endinv")
# The subcommand of a slope's j-th request cycles through this mix: the cheap
# longitude and cusp twice as often as identity and endinv.  That puts the
# median latency among the cheap cusp and identity requests (6-18 ms), a
# dense run of values, where layout and plat changes show; with an even mix
# it sat on the sparse stretch between them and the dearer identity requests
# (18-50 ms) and swung by 30 % from seed to seed.
HOT_OP_CYCLE = ("longitude", "cusp", "identity", "longitude", "cusp", "endinv")
# Odd, so the median is one request; about 30 s of requests, so that a run
# averages over more of the machine's speed swings (with 129 every time
# metric spread by over 20 % from run to run), and the tail percentile (ten
# beyond) falls in the middle of the dear requests, not at their edge.
HOT_BLOCK = 225
ZIPF_EXPONENT = 1.0

# Known defects: requests that fail at the seed commit.  They are kept out of
# the timed streams and re-run after the traced run of the named workload
# (about 60 s, which the run's time limit leaves room for), so a fix shows up
# as a lower ``defects.failing`` count.
DEFECT_PROBES = {
    "hot_slopes": ([("batch", s, BATCH_EPS) for s in ("2/57", "45/47", "53/55", "5/59")]
                   + [("endinv", s, None) for s in ("3/10", "2/11", "5/13", "8/21")]),
}


def is_hyperbolic(q: int, p: int) -> bool:
    """q/p in (0, 1) in lowest terms with q != +-1 mod p."""
    return 0 < q < p and math.gcd(q, p) == 1 and q % p not in (1, p - 1)


def slopes_between(pmin: int, pmax: int) -> list:
    """All hyperbolic slopes "q/p" with pmin <= p <= pmax."""
    return ["%d/%d" % (q, p) for p in range(pmin, pmax + 1)
            for q in range(1, p) if is_hyperbolic(q, p)]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def stratified_rounds(strata, picks, rng: random.Random):
    """Endless rounds: round i holds the next k items of a seeded permutation
    of every stratum, k its entry in ``picks``, in seeded order.  A stratum
    with fewer than k items left starts a fresh permutation, so no item
    repeats within a round, nor within the stream until its stratum is used
    up."""
    left = [[] for _ in strata]
    while True:
        rnd = []
        for i, (stratum, k) in enumerate(zip(strata, picks)):
            if len(left[i]) < k:
                left[i] = rng.sample(list(stratum), len(stratum))
            rnd += left[i][:k]
            del left[i][:k]
        rng.shuffle(rnd)
        yield rnd


def census_strata(reference: dict) -> list:
    """The stored work strata, with CENSUS_MEMORY_PEAK in a stratum of its own."""
    strata = [[s for s in st if s != CENSUS_MEMORY_PEAK] for st in reference["strata"]["census"]]
    return strata + [[CENSUS_MEMORY_PEAK]]


def zipf_quotas(n_items: int, total: int, exponent: float = ZIPF_EXPONENT) -> list:
    """Integer counts summing to ``total`` in proportion to 1/k^exponent,
    rounded by largest remainder."""
    weights = [1.0 / k ** exponent for k in range(1, n_items + 1)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(n_items), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def hot_block() -> list:
    """The unshuffled hot block: slope k (0-based rank) gets its Zipf quota
    of requests, the j-th of them the subcommand HOT_OP_CYCLE[(k + j) % 6]."""
    block = []
    cycle = len(HOT_OP_CYCLE)
    for k, (slope, n) in enumerate(zip(HOT_SLOPES, zipf_quotas(len(HOT_SLOPES), HOT_BLOCK))):
        block.extend((HOT_OP_CYCLE[(k + j) % cycle], slope) for j in range(n))
    return block


def repeat_share(requests) -> float:
    """Share of requests whose slope was already requested earlier."""
    seen = set()
    repeats = 0
    for req in requests:
        slope = req[1]
        repeats += slope in seen
        seen.add(slope)
    return repeats / len(requests) if requests else 0.0


def rounds(workload: str, seed: int, reference: dict):
    """Iterator over the rounds of one workload; a request is a tuple
    (kind, slope, eps) with kind "batch" or a hot subcommand."""
    rng = _rng(workload, seed)
    if workload == "census":
        for rnd in stratified_rounds(census_strata(reference), CENSUS_PICKS, rng):
            yield [("batch", s, BATCH_EPS) for s in rnd]
    elif workload == "hot_slopes":
        block = [(op, s, None) for op, s in hot_block()]
        while True:
            yield rng.sample(block, len(block))
    else:
        raise ValueError("unknown workload %r" % (workload,))
