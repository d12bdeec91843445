"""Inputs of the benchmark workloads and the references their results must match.

Every matrix is made here, not by the program's own constructors, so that a
change to the program cannot change what it is measured on. The reference
order chi of each input is known without running either search:

- a Haar-random unitary is generic: no square block is singular, so
  chi = d + 1 (the probability of a block within the rank threshold of
  singular is negligible at these sizes);
- the identity shares every basis vector: chi = 2;
- the DFT has the closed form chi = low + d / low, with low the largest
  divisor of d not above sqrt(d);
- a qubit rotation with no zero entry has chi = 3;
- the Bronzan rotation has a structural zero, so chi = 3, and chi = 2 when
  theta1 = 0 makes the middle vector common to both bases.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Case:
    """One input matrix, its reference chi, and which ops run on it.

    Every case gets a tau op; ``analyze`` adds an analyze op.
    """

    name: str
    matrix: np.ndarray
    chi: int
    analyze: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, R's phases folded into Q."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def dft(d: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / math.sqrt(d)


def dft_chi(d: int) -> int:
    low = max(q for q in range(1, math.isqrt(d) + 1) if d % q == 0)
    return low + d // low


def qubit(theta: float, phi1: float, phi2: float) -> np.ndarray:
    s, c = math.sin(theta), math.cos(theta)
    return np.array(
        [
            [np.exp(1j * phi1) * s, -np.exp(-1j * phi2) * c],
            [np.exp(1j * phi2) * c, np.exp(-1j * phi1) * s],
        ]
    )


def bronzan(theta1: float, theta2: float) -> np.ndarray:
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    return np.array(
        [[c1 * c2, s1, c1 * s2], [-s1 * c2, c1, -s1 * s2], [-s2, 0.0, c2]], dtype=complex
    )


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**64)


def haar_cases(seed: int) -> list[Case]:
    """A generic matrix: every candidate block must be refuted, so the rank
    kernel dominates."""
    return [Case("haar9", haar_unitary(9, _rng(seed)), 10, True)]


def dft_cases(seed: int) -> list[Case]:
    """Composite DFT sizes: deficient blocks exist, so the prunes and the
    extremal checks decide the cost. d = 10 and 12 are tau only, to keep
    every op short. The inputs do not depend on the seed."""
    cases = [Case(f"dft{d}", dft(d), dft_chi(d), True) for d in (8, 9)]
    cases += [Case(f"dft{d}", dft(d), dft_chi(d), False) for d in (10, 12)]
    return cases


QUBIT_ANGLES = ((0.3, 0.0, 0.0), (0.7854, 0.3, 1.1), (1.1, 1.0, -0.5), (1.4, 2.0, 0.7))
BRONZAN_ANGLES = (((0.4, 1.1), 3), ((1.0, 0.3), 3), ((0.0, 0.4488), 2))
SMALL_DIMS = range(2, 8)
SMALL_HAAR_PER_DIM = 8


def small_mixed_cases(seed: int) -> list[Case]:
    """Many small inputs of every family: small SVD batches, so fixed cost
    per call (enumeration, ingestion, rendering) is a large share."""
    rng = _rng(seed)
    cases = [Case(f"identity{d}", np.eye(d, dtype=complex), 2, True) for d in SMALL_DIMS]
    cases += [Case(f"dft{d}", dft(d), dft_chi(d), True) for d in SMALL_DIMS]
    cases += [Case(f"qubit-{i}", qubit(*a), 3, True) for i, a in enumerate(QUBIT_ANGLES)]
    cases += [
        Case(f"bronzan-{i}", bronzan(*a), chi, True) for i, (a, chi) in enumerate(BRONZAN_ANGLES)
    ]
    cases += [
        Case(f"haar{d}-{i}", haar_unitary(d, rng), d + 1, True)
        for d in SMALL_DIMS
        for i in range(SMALL_HAAR_PER_DIM)
    ]
    return cases


WORKLOADS = {"haar": haar_cases, "dft": dft_cases, "small-mixed": small_mixed_cases}


def matrix_json(matrix: np.ndarray) -> str:
    """The program's JSON matrix format; float repr makes the round trip exact."""
    rows, cols = matrix.shape
    return json.dumps(
        {"rows": rows, "cols": cols, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}
    )
