"""Spin-space exact diagonalization: a reference that shares no step with the
free-fermion derivation of the library.

H = -sum_j [lam sx_j sx_{j+1} + sz_j] on a ring of N sites is built from bit
operations on the basis states (bit j = 1 means site j points down), in the
sector prod_j sz_j = +1 of even popcount, dimension 2^(N-1).  The ground state
comes from a dense eigensolve, its lam-derivative from first-order
perturbation theory over the rest of the sector, and the two-site reduced
density matrix of sites 0 and 1 from a reshape of the state.  Correlators are
traces against Pauli products, and chi is a quarter of the quantum Fisher
information of that matrix, from its eigen-decomposition:

    chi = (1/4) sum_{i,j} 2 |<i| rho' |j>|^2 / (p_i + p_j).

This checks what no other reference in the repository does: that the
even-parity sector holds the ground state (the half-odd momentum grid), the
Wick formula zz = sz^2 - xx yy, the RDM basis and element map, and the
normalization chi = QFI/4.
"""

from functools import lru_cache

import numpy as np
import pytest

from tfim_rfs import ChainSpec, correlators_finite, susceptibility

SIZES = (4, 6, 8, 10)
COUPLINGS = (0.05, 0.3, 0.7, 0.95, 1.0, 1.05, 1.3, 2.0, 5.0)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY_IMAG = np.array([[0.0, -1.0], [1.0, 0.0]])  # sy = i SY_IMAG
SZ = np.diag([1.0, -1.0])
# Operators on sites (1, 0) in the basis index 2 b_1 + b_0 of the reshaped state.
OBSERVABLES = {
    "sz": np.kron(np.eye(2), SZ),
    "xx": np.kron(SX, SX),
    "yy": -np.kron(SY_IMAG, SY_IMAG),  # i^2 = -1
    "zz": np.kron(SZ, SZ),
}


@lru_cache(maxsize=None)
def parity_sector(n, parity):
    """(states, diagonal of -sum sz, matrix of -sum sx_j sx_{j+1}) on the
    basis states of the given popcount parity."""
    states = np.array([s for s in range(1 << n) if bin(s).count("1") % 2 == parity])
    index = np.full(1 << n, -1)
    index[states] = np.arange(len(states))
    popcount = np.array([bin(s).count("1") for s in states])
    field = -(n - 2.0 * popcount)
    coupling = np.zeros((len(states), len(states)))
    for j in range(n):
        flipped = index[states ^ ((1 << j) | (1 << ((j + 1) % n)))]
        coupling[np.arange(len(states)), flipped] -= 1.0
    return states, field, coupling


def sector_hamiltonian(n, lam, parity):
    _, field, coupling = parity_sector(n, parity)
    return np.diag(field) + lam * coupling


def pair_amplitudes(n, states, vec):
    """The state with amplitudes ``vec`` on ``states`` as a matrix A with
    rows over sites 2..N-1 and columns 2 b_1 + b_0, so that rho_01 = A^T A."""
    full = np.zeros(1 << n)
    full[states] = vec
    return full.reshape(-1, 4)


@lru_cache(maxsize=None)
def exact_point(n, lam):
    """({field: (value, lam-derivative)}, chi) of the N-site ring at lam."""
    states, _, coupling = parity_sector(n, 0)
    energies, vectors = np.linalg.eigh(sector_hamiltonian(n, lam, 0))
    psi = vectors[:, 0]
    rest = vectors[:, 1:]
    d_psi = rest @ ((rest.T @ (coupling @ psi)) / (energies[0] - energies[1:]))

    amp, d_amp = pair_amplitudes(n, states, psi), pair_amplitudes(n, states, d_psi)
    rho = amp.T @ amp
    d_rho = d_amp.T @ amp + amp.T @ d_amp
    fields = {name: (np.trace(rho @ op), np.trace(d_rho @ op)) for name, op in OBSERVABLES.items()}

    p, basis = np.linalg.eigh(rho)
    elements = basis.T @ d_rho @ basis
    chi = 0.25 * np.sum(2.0 * elements ** 2 / (p[:, None] + p[None, :]))
    return fields, chi


POINTS = [(n, lam) for n in SIZES for lam in COUPLINGS]


@pytest.mark.parametrize("n,lam", POINTS)
def test_correlators_match_exact_diagonalization(n, lam):
    fields, _ = exact_point(n, lam)
    c = correlators_finite(ChainSpec(n, lam))
    for name, (value, deriv) in fields.items():
        for got, want, label in ((getattr(c, name), value, name),
                                 (getattr(c, "d_" + name), deriv, "d_" + name)):
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0), (label, got, want)


@pytest.mark.parametrize("n,lam", POINTS)
def test_susceptibility_matches_exact_diagonalization(n, lam):
    _, chi = exact_point(n, lam)
    assert abs(susceptibility(n, lam) - chi) <= 1e-12 * chi


@pytest.mark.parametrize("n,lam", POINTS)
def test_ground_state_in_even_sector(n, lam):
    # The momentum sums describe the even sector; it must hold the ground
    # state of the whole ring, including lam > 1, where the odd sector's
    # lowest level comes within 2e-7 at N = 10, lam = 5.
    even, odd = (np.linalg.eigvalsh(sector_hamiltonian(n, lam, parity))[0] for parity in (0, 1))
    assert even < odd

