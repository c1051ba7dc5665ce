#!/usr/bin/env python
"""Reproduce one cell of the BOLD experiment, end to end.

Walks through exactly what the paper's Section III-B/IV-B does for one
(n, p) cell: run the eight DLS techniques on the SimGrid-MSG-like
simulator with a free network, compute the average wasted time over many
runs with the post-hoc overhead accounting, and compare against the
regenerated reference values (the replicated Hagerup simulator) with
discrepancy and relative discrepancy — the paper's Figures 5c/5d.

Run:  python examples/reproduce_bold_cell.py [n] [p] [runs]
"""

from __future__ import annotations

import sys

from repro.experiments import (
    BOLD_PE_COUNTS,
    BOLD_TECHNIQUES,
    bold_cells,
    bold_reference,
    bold_reference_available,
)
from repro.metrics import discrepancy, relative_discrepancy


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    p = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    runs = int(sys.argv[3]) if len(sys.argv) > 3 else 30
    if p not in BOLD_PE_COUNTS:
        raise SystemExit(f"p must be one of {BOLD_PE_COUNTS}")

    print(
        f"BOLD experiment cell: n={n:,} tasks, p={p} PEs, exp(mu=1s), "
        f"h=0.5s, {runs} runs (paper: 1,000)\n"
    )
    cells = bold_cells(n, (p,), BOLD_TECHNIQUES, runs, "msg", seed=42)

    have_reference = bold_reference_available()
    reference = bold_reference(n) if have_reference else {}
    pe_index = BOLD_PE_COUNTS.index(p)

    print(
        f"{'technique':>10} {'AWT [s]':>10} {'ref [s]':>10} "
        f"{'disc [s]':>9} {'rel [%]':>8}"
    )
    for technique, (summary,) in cells.items():
        simulated = summary.mean
        line = f"{technique:>10} {simulated:>10.2f}"
        if have_reference:
            ref = reference[technique][pe_index]
            line += (
                f" {ref:>10.2f} {discrepancy(simulated, ref):>9.2f}"
                f" {relative_discrepancy(simulated, ref):>8.1f}"
            )
        print(line)

    if have_reference:
        print(
            "\nPositive discrepancy = the MSG simulation runs slower than "
            "the reference\n(the replicated Hagerup simulator), as in the "
            "paper's Figures 5c-8c."
        )


if __name__ == "__main__":
    main()
