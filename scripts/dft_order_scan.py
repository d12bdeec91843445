#!/usr/bin/env python3
"""Tabulate the DFT incompatibility order chi(d) = low + d/low over a range.

With --verify, cross-checks the closed form against the deficiency route
for every d up to 18, both tau_fast and the full deficiency_profile (whose
row and column values at tau must also agree), and against the exhaustive
subset search too for every d up to its default cap (DEFAULT_SUPPORT_CAP,
10). The level search decides one row set per orbit of the DFT's affine
symmetry, which keeps d = 14, 16 and 18 to seconds; prime d (13, 17) is
decided by the level-0 step alone, which has no such reduction and is the
slowest part of a full run.
"""

import argparse

from incompat import (
    deficiency_profile,
    dft_chi,
    dft_matrix,
    divisor_decomposition,
    min_support_uncertainty,
    tau_fast,
)
from incompat.support import DEFAULT_SUPPORT_CAP

DEFICIENCY_MAX_DIM = 18


def run(max_dim: int, verify: bool) -> None:
    print(f"{'d':>4} {'low':>4} {'high':>5} {'chi':>4}  note")
    for d in range(2, max_dim + 1):
        dec = divisor_decomposition(d)
        chi = dft_chi(d)
        note = "prime, completely incompatible" if dec.low == 1 else ""
        if verify and d <= DEFICIENCY_MAX_DIM:
            tm = dft_matrix(d)
            profile = deficiency_profile(tm)
            routes = {"deficiency": d - tau_fast(tm), "profile": profile.chi}
            if d <= DEFAULT_SUPPORT_CAP:
                routes["search"] = min_support_uncertainty(tm).n_ab
            tau = profile.tau
            sides = (profile.r_row_values[tau], profile.r_col_values[tau]) if tau >= 0 else (0, 0)
            status = "ok"
            if set(routes.values()) != {chi} or sides[0] != sides[1]:
                status = "MISMATCH " + " ".join(
                    f"{route}={value}" for route, value in routes.items()
                ) + f" rows={sides[0]} cols={sides[1]}"
            note = (note + " " if note else "") + f"[{status}]"
        print(f"{d:>4} {dec.low:>4} {dec.high:>5} {chi:>4}  {note}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=40)
    parser.add_argument(
        "--verify", action="store_true",
        help=f"cross-check d <= {DEFICIENCY_MAX_DIM} against tau_fast and deficiency_profile "
        f"(equal row and column values at tau), and d <= {DEFAULT_SUPPORT_CAP} against the "
        "subset search too",
    )
    args = parser.parse_args()
    run(args.max_dim, args.verify)
