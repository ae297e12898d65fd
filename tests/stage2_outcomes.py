"""The outcomes of the 118 stage-2 oracle queries, digested and compared with a pin.

A stage-2 query asks the oracle for a poset witness C -> (B)^A_2.  This script runs
one for each A in {point, 2-chain, 2-antichain} and each of the 40 naturally labelled
posets B on 4 vertices into which A embeds, under the default BaseOracle, and writes
one line per query: the witness's size, R and source, or the text of the stop.  The
SHA-256 of those lines must equal PINNED, so that a change to the oracle that moves a
witness, a certified or skipped count, or a stop shows.  The number of exact searches
(arrow._verdict runs) over all queries must equal PINNED_VERDICTS, a count of work that
timing noise cannot hide: it shows a look that stops refuting candidates.  It takes
several seconds and is not part of tier-1.

    PYTHONPATH=src python tests/stage2_outcomes.py [--lines]
"""

from __future__ import annotations

import hashlib
import itertools
import sys

from rnramsey import BaseOracle, ResourceExceeded, antichain, arrow, chain, enumerate_copies
from rnramsey import make_ordered_poset, oracle_ramsey, poset_to_complete_rn

PINNED = "f0df3b6ef930be524ea2b9df473b96671e9b24d2fe3d96b4019ef5225c435d1d"
PINNED_VERDICTS = 42  # 79,441 with no look before _verdict


def naturally_labelled(n: int) -> list:
    """The posets on 0..n-1 whose order relation runs forward, in pair order."""
    pairs = list(itertools.combinations(range(n), 2))
    posets = []
    for chosen in itertools.product((0, 1), repeat=len(pairs)):
        R = {pair for pair, bit in zip(pairs, chosen) if bit}
        if all((a, d) in R for a, b in R for c, d in R if b == c):
            posets.append(make_ordered_poset(n, R))
    return posets


def outcomes() -> list[str]:
    templates = {"point": chain(1), "2-chain": chain(2), "2-antichain": antichain(2)}
    lines = []
    for k, B in enumerate(naturally_labelled(4)):
        b = poset_to_complete_rn(B)
        for name, A in templates.items():
            a = poset_to_complete_rn(A)
            if not enumerate_copies(a, b):
                continue
            try:
                w = oracle_ramsey(BaseOracle(), a, b)
                outcome = f"n={w.graph.n} R={sorted(w.graph.R)} source={w.source}"
            except ResourceExceeded as stop:
                outcome = f"stop: {stop}"
            lines.append(f"B{k} {sorted(B.R)} A={name}: {outcome}")
    return lines


def main() -> int:
    runs = []
    verdict = arrow._verdict

    def counted(*args):
        runs.append(1)
        return verdict(*args)

    arrow._verdict = counted
    lines = outcomes()
    if "--lines" in sys.argv[1:]:
        print("\n".join(lines))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    closed = sum("stop:" not in line for line in lines)
    print(f"{len(lines)} queries, {closed} closed, {len(runs)} verdict runs, digest {digest}")
    failed = False
    if digest != PINNED:
        print(f"digest differs from the pin {PINNED}", file=sys.stderr)
        failed = True
    if len(runs) != PINNED_VERDICTS:
        print(f"verdict runs differ from the pin {PINNED_VERDICTS}", file=sys.stderr)
        failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
