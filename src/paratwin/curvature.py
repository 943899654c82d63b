"""Curvature of invariant metric connections.

In an invariant frame the connection coefficients are constants, so the
curvature is assembled purely from Gamma and the structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import curvature_operator
from .errors import require
from .manifold import WManifold
from .tensor import TensorDense, lincomb, vanishes


@dataclass(frozen=True)
class CurvaturePack:
    R_vec: TensorDense   # (1,3), [l, i, j, k]: R(X_i,X_j)X_k = R^l_{ijk} X_l
    R: TensorDense       # (0,4), R_{ijkl} = g(R(X_i,X_j)X_k, X_l)
    ricci: TensorDense   # (0,2)
    tau: Fraction


def check_curvature_like(R: TensorDense):
    """Both antisymmetries and the first Bianchi identity, exactly."""
    require(vanishes((1, R), (1, R, (1, 0, 2, 3))),
            "curvature tensor is not antisymmetric in (x, y)")
    require(vanishes((1, R), (1, R, (0, 1, 3, 2))),
            "curvature tensor is not antisymmetric in (z, w)")
    require(vanishes((1, R), (1, R, (2, 0, 1, 3)), (1, R, (1, 2, 0, 3))),
            "first Bianchi identity fails")


def riemann(m: WManifold, conn: TensorDense) -> CurvaturePack:
    """Curvature pack of conn, the coefficients of the Levi-Civita
    connection of m's metric g, lowered and traced with g.  The twin side
    is riemann(m.twin_view(), conn_twin).

    The Ricci trace is rho(y,z) = g^{ij} R(e_i, y, z, e_j), and tau =
    g^{ij} rho(e_i, e_j).
    """
    R_vec = curvature_operator(conn, m.algebra)
    # R_{ijkl} = g_{lm} R^m_{ijk}
    R = lincomb((1, "lm,mijk->ijkl", m.g, R_vec))
    check_curvature_like(R)
    ricci = lincomb((1, "ij,iyzj->yz", m.g_inv, R))
    tau = lincomb((1, "ij,ij->", m.g_inv, ricci)).item()
    return CurvaturePack(R_vec=R_vec, R=R, ricci=ricci, tau=tau)
