#!/usr/bin/env python3
"""Weighted periodic-orbit equidistribution on the rose with two petals:
weak* distance to the equilibrium state as the period cutoff grows, for the
zero potential and a nonzero cylinder potential.  Emits CSV artifacts."""

import argparse
import json
import os
import sys

from thermoflow.cli import main as cli_main

ROSE2 = {
    "vertices": 1,
    "edges": [
        {"from": 0, "to": 0, "length": "1"},
        {"from": 0, "to": 0, "length": "1"},
    ],
}

PHI_EDGE = {
    "type": "cylinder",
    "width": 1,
    "table": {"0": 0.15, "1": 0.0, "2": -0.1, "3": 0.05},
}


def run(out_dir: str, t_grid: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    graph = os.path.join(out_dir, "rose2.json")
    with open(graph, "w") as f:
        json.dump(ROSE2, f, indent=2)
    phi = os.path.join(out_dir, "phi_edge.json")
    with open(phi, "w") as f:
        json.dump(PHI_EDGE, f, indent=2)

    for label, extra in (("zero", []), ("cylinder", ["--potential", phi])):
        sub = os.path.join(out_dir, label)
        print(f"== potential: {label} ==")
        code = cli_main(["equidistribute", "--graph", graph,
                         "--t-grid", t_grid, "--out", sub] + extra)
        if code != 0:
            return code
        print(f"   artifact: {sub}/equidistribution.csv")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/equidistribution")
    ap.add_argument("--t-grid", default="4,8,12,16,20,25,30")
    args = ap.parse_args()
    sys.exit(run(args.out, args.t_grid))
