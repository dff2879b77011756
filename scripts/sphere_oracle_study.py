#!/usr/bin/env python3
"""Mesh flow vs shrinking-sphere oracle at several resolutions.

Runs the semi-implicit scheme on icospheres, tabulates the radius and volume
gaps against the closed form, and fits the log law of the spacetime |H|^4
integral.  Output is plain text plus optional plot data files.
"""

import math
import sys

import numpy as np

# -------- knobs --------
SUBDIVS = (2, 3, 4)
CFL = 0.002
T_END = 3.0 / 16.0  # run until r = 0.5 r0
WRITE_PLOTDATA = True

sys.path.insert(0, "src")

from mcflow.flow import FlowState, SchemeConfig, StopRule, run_until
from mcflow.scenes import icosphere

T_EXACT = 0.25
SLOPE_EXACT = 16.0 * math.pi


def main():
    print(f"{'subdiv':>6} {'verts':>6} {'steps':>6} {'max |r2 gap|':>14} "
          f"{'vol rel':>10} {'slope/16pi':>11}")
    for subdiv in SUBDIVS:
        imm = icosphere(subdiv=subdiv, r0=1.0)
        cfg = SchemeConfig(scheme="semi_implicit", cfl=CFL, stop=StopRule(t_end=T_END))
        trace = run_until(FlowState(immersion=imm), cfg, alphas=(2.0, 4.0))

        gap = vol_rel = 0.0
        logs, vals = [], []
        for rec in trace.records:
            r2_exact = 1.0 - 4.0 * rec.t
            gap = max(gap, abs(rec.vol / (4 * math.pi) - r2_exact))
            vol_rel = max(vol_rel, abs(rec.vol - 4 * math.pi * r2_exact) / (4 * math.pi * r2_exact))
            logs.append(math.log(T_EXACT / (T_EXACT - rec.t)))
            vals.append(rec.st_integral_alpha[4.0])
        slope = np.polyfit(logs, vals, 1)[0]
        print(f"{subdiv:>6} {imm.num_vertices:>6} {len(trace.records) - 1:>6} "
              f"{gap:>14.3e} {vol_rel:>10.3e} {slope / SLOPE_EXACT:>11.4f}")

        if WRITE_PLOTDATA:
            out = f"sphere_oracle_subdiv{subdiv}.dat"
            with open(out, "w") as fh:
                for rec, lg, val in zip(trace.records, logs, vals):
                    fh.write(f"{rec.t} {rec.vol} {lg} {val}\n")
            print(f"       wrote {out} (columns: t vol log(T/(T-t)) st_integral)")


if __name__ == "__main__":
    main()
