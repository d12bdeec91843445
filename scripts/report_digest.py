#!/usr/bin/env python3
"""Hash the analyze reports and tau_fast of a fixed corpus into one digest.

Two checkouts whose searches decide alike print the same digest, so one
command checks that a change leaves every output as it was. Each input is
written to a file of a fixed name in a temporary directory (the report embeds
the input path) and run as `analyze --input <file> --json`, without and with
--verify (which adds the subset-search check), and through tau_fast, at rank
tolerances 1e-10, 1e-6 and 1e-4; the exit code, stdout, stderr and tau of
every run go into the hash. Whatever --max-dim is, DFT(10) and DFT(12) are also run as
`analyze --json` without --verify, the inputs where the level search's
coherence cap cuts the most, and DFT(10), DFT(12) and perturbed DFT(12)
through tau_fast alone: they reach the levels that the cap skips whole,
which the analyze corpus does not. DFT(14), whose tau + 1 is searched, so
that tau_fast verifies the symmetry group mid-descent, and the Sylvester
Hadamard matrix of order 8, which is flat but holds neither translation,
are run through tau_fast alone too. DFT(8) and DFT(12) are also run as
`analyze --json` and through tau_fast at rank tolerance 0, where their
translations verify but no coset block is decided deficient. The package
is imported from the checkout's own src/, and the inputs are made by its
constructors.

With --records FILE, every run is also written to FILE as one JSON line
(name, rank_tol, mode, code, stdout, stderr, tau). --compare OLD NEW reads
two such files, written by two checkouts, and prints each run that differs
or is in only one of them, with the JSON field paths that differ (into the
report for a JSON stdout), each differing scalar as "path old -> new". A
stdout that differs as bytes but decodes to the same document (the same
keys in the same order, the same values) is printed as "stdout (layout
only)" and still counts as a difference. It exits 1 on any difference and
runs nothing.

    python3 scripts/report_digest.py [--max-dim 9] [--records runs.jsonl]
    python3 scripts/report_digest.py --compare old.jsonl new.jsonl
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
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
RANK_TOLS = ("1e-10", "1e-6", "1e-4")


def perturbed_dft(d: int, eps: float, seed: int):
    """DFT(d) exp(i eps H) for a seeded Hermitian H."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    return from_array(dft_matrix(d).matrix @ (v * np.exp(1j * eps * w)) @ v.conj().T)


def sylvester_hadamard(n: int):
    """Sylvester's Hadamard matrix of order n, a power of 2, over sqrt(n)."""
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return from_array(h / math.sqrt(n))


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


def analyze_corpus():
    """(name, transition matrix) pairs run as analyze --json without --verify."""
    for d in (10, 12):
        yield f"dft({d})", dft_matrix(d)


def tau_corpus():
    """(name, transition matrix) pairs run through tau_fast alone."""
    yield from analyze_corpus()
    # Larger perturbations make DFT(12) generic: seconds per run, no prune.
    for eps in (1e-14, 1e-12, 1e-10):
        yield f"perturbed_dft(12, {eps!r})", perturbed_dft(12, eps, 12)
    yield "dft(14)", dft_matrix(14)
    yield "sylvester_hadamard(8)", sylvester_hadamard(8)


def zero_tol_corpus():
    """(name, transition matrix) pairs run as analyze --json without
    --verify and through tau_fast at rank tolerance 0."""
    for d in (8, 12):
        yield f"dft({d})", dft_matrix(d)


def analyze(rank_tol: str, verify: tuple) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of analyze on the input file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--input", INPUT_NAME, "--json", "--rank-tol", rank_tol, *verify])
    return code, out.getvalue(), err.getvalue()


def run(max_dim: int, records=None) -> tuple[int, str]:
    digest = hashlib.sha256()
    runs = 0

    def record(name, rank_tol, mode, code, out, err, tau):
        nonlocal runs
        if mode == "tau":
            digest.update(f"{name} {rank_tol} tau\n{tau}\n".encode())
        else:
            digest.update(f"{name} {rank_tol} {mode}\n{code}\n{out}\n{err}\n{tau}\n".encode())
        runs += 1
        if records is not None:
            records.write(json.dumps({"name": name, "rank_tol": rank_tol, "mode": str(mode),
                                      "code": code, "stdout": out, "stderr": err,
                                      "tau": tau}) + "\n")

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, tm in corpus(max_dim):
                Path(INPUT_NAME).write_text(save_matrix(tm.matrix))
                for rank_tol in RANK_TOLS:
                    tau = tau_fast(tm, rank_tol=float(rank_tol))
                    for verify in ((), ("--verify",)):
                        record(name, rank_tol, verify, *analyze(rank_tol, verify), tau)
            for name, tm in analyze_corpus():
                Path(INPUT_NAME).write_text(save_matrix(tm.matrix))
                for rank_tol in RANK_TOLS:
                    record(name, rank_tol, "analyze", *analyze(rank_tol, ()), None)
            for name, tm in tau_corpus():
                for rank_tol in RANK_TOLS:
                    tau = tau_fast(tm, rank_tol=float(rank_tol))
                    record(name, rank_tol, "tau", None, None, None, tau)
            for name, tm in zero_tol_corpus():
                Path(INPUT_NAME).write_text(save_matrix(tm.matrix))
                record(name, "0", "analyze", *analyze("0", ()), None)
                record(name, "0", "tau", None, None, None, tau_fast(tm, rank_tol=0.0))
        finally:
            os.chdir(cwd)
    return runs, digest.hexdigest()


def load_records(path: str) -> dict:
    """The runs of a --records file, keyed by (name, rank_tol, mode)."""
    with open(path) as f:
        runs = [json.loads(line) for line in f]
    return {(r["name"], r["rank_tol"], r["mode"]): r for r in runs}


def differences(old, new, path: str):
    """Yield the paths below path at which two decoded JSON values differ,
    each scalar one as "path old -> new"."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            if key in old and key in new:
                yield from differences(old[key], new[key], f"{path}.{key}")
            else:
                yield f"{path}.{key}"
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
    elif json.dumps(old) != json.dumps(new):
        scalars = not isinstance(old, (dict, list)) and not isinstance(new, (dict, list))
        yield f"{path} {json.dumps(old)} -> {json.dumps(new)}" if scalars else path


def compare(old_path: str, new_path: str) -> int:
    """Print every run of two --records files that differs; 1 if any does."""
    old, new = load_records(old_path), load_records(new_path)
    differing = 0
    for key in list(old) + [k for k in new if k not in old]:
        if key not in old or key not in new:
            paths = [f"only in {old_path if key in old else new_path}"]
        else:
            paths = []
            for field in sorted(old[key].keys() | new[key].keys()):
                a, b = old[key].get(field), new[key].get(field)
                if a == b:
                    continue
                # A JSON report (stdout) is compared field by field.
                with contextlib.suppress(TypeError, ValueError):
                    a, b = json.loads(a), json.loads(b)
                if json.dumps(a) == json.dumps(b):
                    paths.append(f"{field} (layout only)")
                else:
                    paths += list(differences(a, b, field)) or [field]
        if paths:
            print(f"{' '.join(key)}: {', '.join(paths)}")
            differing += 1
    print(f"{differing} of {len(old.keys() | new.keys())} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=9,
                        help="largest input dimension of the analyze corpus (default: 9); "
                        "the DFT(10), DFT(12), tau-only and rank tolerance 0 inputs are run "
                        "at every value")
    parser.add_argument("--records", type=argparse.FileType("w"),
                        help="also write every run to this file, one JSON line each")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --records files run by run instead of running")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    runs, digest = run(args.max_dim, args.records)
    print(f"runs {runs}")
    print(f"sha256 {digest}")
