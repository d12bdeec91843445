#!/usr/bin/env python3
"""Hash the analyze reports and tau_fast of a fixed corpus into one digest.

Two checkouts whose searches decide alike print the same digest, so one
command checks that a change leaves every output as it was. Each input is
written to a file of a fixed name in a temporary directory (the report embeds
the input path) and run as `analyze --input <file> --json`, without and with
--verify (which adds the subset-search check), and through tau_fast, at rank
tolerances 1e-10 and 1e-6; the exit code, stdout, stderr and tau of every run
go into the hash. DFT(10), DFT(12) and perturbed DFT(12) are run through
tau_fast alone, whatever --max-dim is: they reach the levels that the level
search's coherence prune skips whole, which the analyze corpus does not. The
package is imported from the checkout's own src/, and the inputs are made by
its constructors.

    python3 scripts/report_digest.py [--max-dim 9]
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from incompat import (  # noqa: E402
    bronzan_rotation,
    dft_matrix,
    from_array,
    identity,
    qubit_rotation,
    random_unitary,
    save_matrix,
    tau_fast,
)
from incompat.cli import main  # noqa: E402

INPUT_NAME = "input.json"
RANK_TOLS = ("1e-10", "1e-6")


def perturbed_dft(d: int, eps: float, seed: int):
    """DFT(d) exp(i eps H) for a seeded Hermitian H."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    return from_array(dft_matrix(d).matrix @ (v * np.exp(1j * eps * w)) @ v.conj().T)


def corpus(max_dim: int):
    """(name, transition matrix) pairs of dimension at most max_dim."""
    for d in range(1, max_dim + 1):
        yield f"identity({d})", identity(d)
        yield f"dft({d})", dft_matrix(d)
    if max_dim >= 2:
        for theta in (0.0, 1e-300, 1e-160, 1e-155, 1e-9, 1e-3, 0.3, math.pi / 4, math.pi / 2):
            yield f"qubit({theta!r})", qubit_rotation(theta)
    if max_dim >= 3:
        for t1, t2 in itertools.product(np.linspace(0, math.pi / 2, 5), repeat=2):
            yield f"bronzan({t1!r}, {t2!r})", bronzan_rotation(t1, t2)
    for d in range(2, max_dim + 1):
        for seed in range(4):
            yield f"haar({d}, {seed})", random_unitary(d, seed)
    for d in (4, 6, 8):
        if d <= max_dim:
            for eps in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
                yield f"perturbed_dft({d}, {eps!r})", perturbed_dft(d, eps, d)


def tau_corpus():
    """(name, transition matrix) pairs run through tau_fast alone."""
    for d in (10, 12):
        yield f"dft({d})", dft_matrix(d)
    # Larger perturbations make DFT(12) generic: seconds per run, no prune.
    for eps in (1e-14, 1e-12, 1e-10):
        yield f"perturbed_dft(12, {eps!r})", perturbed_dft(12, eps, 12)


def run(max_dim: int) -> tuple[int, str]:
    digest = hashlib.sha256()
    runs = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, tm in corpus(max_dim):
                Path(INPUT_NAME).write_text(save_matrix(tm.matrix))
                for rank_tol in RANK_TOLS:
                    tau = tau_fast(tm, rank_tol=float(rank_tol))
                    for verify in ((), ("--verify",)):
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = main(["analyze", "--input", INPUT_NAME, "--json",
                                         "--rank-tol", rank_tol, *verify])
                        digest.update(
                            f"{name} {rank_tol} {verify}\n{code}\n{out.getvalue()}\n"
                            f"{err.getvalue()}\n{tau}\n".encode()
                        )
                        runs += 1
            for name, tm in tau_corpus():
                for rank_tol in RANK_TOLS:
                    tau = tau_fast(tm, rank_tol=float(rank_tol))
                    digest.update(f"{name} {rank_tol} tau\n{tau}\n".encode())
                    runs += 1
        finally:
            os.chdir(cwd)
    return runs, digest.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=9,
                        help="largest input dimension of the analyze corpus (default: 9); "
                        "the tau-only inputs are run at every value")
    args = parser.parse_args()
    runs, digest = run(args.max_dim)
    print(f"runs {runs}")
    print(f"sha256 {digest}")
