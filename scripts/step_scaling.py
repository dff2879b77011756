#!/usr/bin/env python3
"""Time per record of the jet fit and the semi-implicit step across mesh sizes.

Each row is an icosphere in a seeded 3-plane of R^5, flowed for RECORDS
records of one jet fit (``jet_forms``) and one semi-implicit step, as
``run_until`` does per record.  It prints the mean wall time of each and the
number of fit threads alive after the row: a mesh of at most one vertex
block fits in the calling thread and starts none.  Run from the repository
root:

    python3 scripts/step_scaling.py
"""

import sys
import threading
import time

import numpy as np

# -------- knobs --------
SUBDIVS = (3, 4, 5)  # V = 642, 2562, 10242
RECORDS = 20
DT = 1e-4  # the unit sphere collapses at t = 1/4
SEED = 5

sys.path.insert(0, "src")

from mcflow.curvature import jet_forms
from mcflow.flow import FlowState, step_semi_implicit
from mcflow.scenes import icosphere


def seeded_plane(seed: int) -> np.ndarray:
    """Orthonormal 5 x 3 frame of a random 3-plane of R^5."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 3)))[0]


def fit_threads() -> int:
    return sum(t.name.startswith("mcflow-fit") for t in threading.enumerate())


def main():
    print(f"{'subdiv':>6} {'verts':>6} {'jet_forms ms':>13} {'step ms':>9} {'fit threads':>12}")
    for subdiv in SUBDIVS:
        state = FlowState(immersion=icosphere(subdiv=subdiv, ambient_dim=5, subspace=seeded_plane(SEED)))
        jet_forms(state.immersion)  # the topology and ring stencil, built once per mesh
        fit_s = step_s = 0.0
        for _ in range(RECORDS):
            start = time.perf_counter()
            jet_forms(state.immersion)
            fit_s += time.perf_counter() - start
            start = time.perf_counter()
            state = step_semi_implicit(state, DT)
            step_s += time.perf_counter() - start
        print(f"{subdiv:>6} {state.immersion.num_vertices:>6} {1e3 * fit_s / RECORDS:>13.2f} "
              f"{1e3 * step_s / RECORDS:>9.2f} {fit_threads():>12}")


if __name__ == "__main__":
    main()
