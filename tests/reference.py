"""Dense reference algebra for the tests: plain numpy on 2^n x 2^n matrices.

Independent of the library's amplitude-vector projection, Pauli-tensor
evaluation and detector table, so the tests can check one against the other.
Qubit 0 is the most significant bit of the basis index.
"""

import numpy as np


def partial_trace(matrix, traced):
    """Tr over the qubits ``traced`` of a 2^n x 2^n matrix; the rest keep their order."""
    for q in sorted(set(traced), reverse=True):
        dim = len(matrix)
        t = matrix.reshape(2**q, 2, dim // 2 ** (q + 1), 2**q, 2, dim // 2 ** (q + 1))
        matrix = np.einsum("aibcid->abcd", t).reshape(dim // 2, dim // 2)
    return matrix


def project_leading(matrix, ket):
    """<m|rho|m> over the qubits after the leading one: the unnormalized state
    the others are left in when the leading qubit passes |m><m|. Its trace is
    the projection's weight."""
    half = len(matrix) // 2
    return np.einsum("i,iajb,j->ab", np.conj(ket), matrix.reshape(2, half, 2, half), ket)


def white_noise(matrix, visibility):
    """v rho + (1 - v) I / d."""
    dim = len(matrix)
    return visibility * matrix + (1.0 - visibility) * np.eye(dim) / dim


def projector(setting):
    """Pi+ = |m><m| of a MeasurementSetting."""
    m = setting.ket()
    return np.outer(m, m.conj())


def dressed(setting, eta, convention):
    """Each outcome label's 2x2 operator for one detector of efficiency eta.
    FOLD ("fold") books a missed click as "-"; TRINARY as the third outcome "0"."""
    plus, eye = projector(setting), np.eye(2)
    if convention == "fold":
        ops = {"+": eta * plus, "-": eye - eta * plus, "0": np.zeros((2, 2))}
    else:
        ops = {"+": eta * plus, "-": eta * (eye - plus), "0": (1.0 - eta) * eye}
    ops["*"] = ops["+"] + ops["-"] + ops["0"]  # marginal: every outcome
    ops["±"] = ops["+"] - ops["-"]  # correlation observable (FOLD only)
    return ops
