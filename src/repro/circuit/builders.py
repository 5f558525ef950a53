"""Scalable benchmark-circuit builders (paper sections V-B and V-C).

* :func:`build_qft_circuit` — the Quantum Fourier Transform used in the
  Figure 4 construction benchmark.
* :func:`build_dtc_circuit` — the Discrete Time Crystal Hamiltonian-
  simulation circuit from the Benchpress suite (paper Listing 4).
* :func:`build_qsearch_ansatz` — the Figure 5 family of PQCs used by
  the instantiation benchmarks (shallow/deep qubit and qutrit variants).
"""

from __future__ import annotations

import math

import numpy as np

from . import gates
from .circuit import QuditCircuit

__all__ = [
    "build_qft_circuit",
    "build_dtc_circuit",
    "build_qsearch_ansatz",
    "FIG5_BENCHMARKS",
    "fig5_circuit",
]


def build_qft_circuit(n: int, include_swaps: bool = True) -> QuditCircuit:
    """The n-qubit Quantum Fourier Transform.

    Gates are cached once and appended by integer reference with
    constant parameters; construction is therefore O(1) per gate with
    no repeated expression validation (the Figure 4 fast path).
    """
    circ = QuditCircuit.pure([2] * n)
    h_ref = circ.cache_operation(gates.h())
    cp_ref = circ.cache_operation(gates.cp())
    swap_ref = circ.cache_operation(gates.swap())
    for target in range(n):
        circ.append_ref_constant(h_ref, target)
        for control in range(target + 1, n):
            angle = math.pi / (2 ** (control - target))
            circ.append_ref_constant(
                cp_ref, (control, target), (angle,)
            )
    if include_swaps:
        for q in range(n // 2):
            circ.append_ref_constant(swap_ref, (q, n - 1 - q))
    return circ


def build_dtc_circuit(
    n: int,
    layers: int = 1,
    g: float = 0.95,
    seed: int = 0,
) -> QuditCircuit:
    """The Discrete Time Crystal benchmark circuit (paper Listing 4).

    Each Floquet layer applies RX(g*pi) to every qubit, RZZ with random
    couplings on the even and odd bonds, and RZ with random fields on
    every qubit — matching the Benchpress DTC generator's structure.
    """
    rng = np.random.default_rng(seed)
    circ = QuditCircuit.pure([2] * n)
    rx_ref = circ.cache_operation(gates.rx())
    rz_ref = circ.cache_operation(gates.rz())
    rzz_ref = circ.cache_operation(gates.rzz())
    for _ in range(layers):
        for q in range(n):
            circ.append_ref_constant(rx_ref, q, (g * math.pi,))
        for start in (0, 1):
            for q in range(start, n - 1, 2):
                theta = float(rng.uniform(math.pi / 16, 3 * math.pi / 16))
                circ.append_ref_constant(rzz_ref, (q, q + 1), (theta,))
        for q in range(n):
            phi = float(rng.uniform(-math.pi, math.pi))
            circ.append_ref_constant(rz_ref, q, (phi,))
    return circ


def build_qsearch_ansatz(
    num_qudits: int,
    depth: int,
    radix: int = 2,
) -> QuditCircuit:
    """A QSearch-style PQC (the paper's Figure 5 circuit family).

    The qubit version opens with a U3 on every wire, then applies
    ``depth`` entangling blocks — CNOT on a linear-chain pair followed
    by U3 on both wires.  The qutrit version substitutes CSUM for CNOT
    and the two-parameter qutrit phase gate (plus an embedded U3 pair
    for expressivity) for U3, as described for Figure 5.
    """
    if radix == 2:
        single, entangler = gates.u3(), gates.cx()
    elif radix == 3:
        single, entangler = gates.qutrit_phase(), gates.csum(3)
    else:
        single, entangler = gates.embedded_u3(radix, 0, 1), gates.csum(radix)

    circ = QuditCircuit.pure([radix] * num_qudits)
    s_ref = circ.cache_operation(single)
    e_ref = circ.cache_operation(entangler)

    for q in range(num_qudits):
        circ.append_ref(s_ref, q)
    if num_qudits == 1:
        return circ
    pairs = [(q, q + 1) for q in range(num_qudits - 1)]
    for block in range(depth):
        a, b = pairs[block % len(pairs)]
        circ.append_ref(e_ref, (a, b))
        circ.append_ref(s_ref, a)
        circ.append_ref(s_ref, b)
    return circ


#: The Figure 5/6/7 benchmark suite: name -> (qudits, depth, radix).
#: "Deep" is 8 entangling blocks (57 parameters) — near the edge of
#: what the paper's deliberately naive LM converges on from random
#: starts (see the paper's Discussion, section VI-A).
FIG5_BENCHMARKS: dict[str, tuple[int, int, int]] = {
    "2-qubit shallow": (2, 2, 2),
    "3-qubit shallow": (3, 4, 2),
    "3-qubit deep": (3, 8, 2),
    "2-qutrit shallow": (2, 2, 3),
    "3-qutrit shallow": (3, 4, 3),
}


def fig5_circuit(name: str) -> QuditCircuit:
    """Instantiate one of the named Figure 5 benchmark ansatz circuits."""
    try:
        qudits, depth, radix = FIG5_BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from "
            f"{sorted(FIG5_BENCHMARKS)}"
        ) from None
    return build_qsearch_ansatz(qudits, depth, radix)
