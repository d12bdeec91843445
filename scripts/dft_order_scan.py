#!/usr/bin/env python3
"""Tabulate the DFT incompatibility order chi(d) = low + d/low over a range.

With --verify, cross-checks the closed form against the deficiency route
for every d up to 18, both tau_fast and the full deficiency_profile (whose
row and column values at tau must also agree, and whose every level must
equal the coset formula max j l of fourier.coset_blocks), and against the
exhaustive subset search too for every d up to its default cap
(DEFAULT_SUPPORT_CAP, 10). The descent seeds each level of a composite d
with its coset block, so d = 14, 16 and 18 take about 40, 4 and 5 ms
(profile and tau_fast, first call, on a 2-core x86_64 VM; dft(14) still
searches and refutes level tau + 1 = 6 at m = 3..5); prime d (13, 17)
is decided by the level-0 step alone, which has no symmetry reduction:
for dft(17) it takes about a minute in each of the two calls, nearly all
of a full run.
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
from incompat.fourier import coset_blocks
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
            cosets = tuple(count for count, _ in coset_blocks(d))
            status = "ok"
            if set(routes.values()) != {chi} or sides[0] != sides[1] or profile.r_values != cosets:
                status = "MISMATCH " + " ".join(
                    f"{route}={value}" for route, value in routes.items()
                ) + f" rows={sides[0]} cols={sides[1]}"
                if profile.r_values != cosets:
                    status += f" levels={list(profile.r_values)} cosets={list(cosets)}"
            note = (note + " " if note else "") + f"[{status}]"
        print(f"{d:>4} {dec.low:>4} {dec.high:>5} {chi:>4}  {note}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=40)
    parser.add_argument(
        "--verify", action="store_true",
        help=f"cross-check d <= {DEFICIENCY_MAX_DIM} against tau_fast and deficiency_profile "
        f"(equal row and column values at tau, every level equal to the coset formula), "
        f"and d <= {DEFAULT_SUPPORT_CAP} against the subset search too",
    )
    args = parser.parse_args()
    run(args.max_dim, args.verify)
