"""Curvature of invariant metric connections.

In an invariant frame the connection coefficients are constants, so the
curvature is assembled purely from Gamma and the structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import Connection, curvature_operator
from .errors import ValidationError, require
from .manifold import LieAlgebraModel, WManifold
from .tensor import DOWN, TensorDense, contract, lincomb, raise_index, vanishes


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


def riemann(conn: Connection, alg: LieAlgebraModel,
            lowering_metric: TensorDense, metric_inv: TensorDense) -> CurvaturePack:
    """Curvature pack of a torsion-free invariant metric connection.

    The (0,4) form is lowered with lowering_metric, whose inverse
    metric_inv gives tau.  The Ricci trace rho(y,z) = g^{ij} R(e_i, y, z,
    e_j) is the trace R^i_{iyz} of the (1,3) form, exactly.
    """
    if lowering_metric.variance != (DOWN, DOWN):
        raise ValidationError("lowering metric must be a (0,2) tensor")
    R_vec = curvature_operator(conn, alg)
    # R_{ijkl} = g_{lm} R^m_{ijk}
    R = lincomb((1, "lm,mijk->ijkl", lowering_metric, R_vec))
    check_curvature_like(R)

    # rho(y,z) = g^{ij} R_{iyzj} = R^i_{iyz}
    ricci = contract(R_vec, 0, 1)
    tau = contract(raise_index(ricci, 0, metric_inv), 0, 1).item()
    return CurvaturePack(R_vec=R_vec, R=R, ricci=ricci, tau=tau)


def riemann_metric(m: WManifold, conn: Connection) -> CurvaturePack:
    """Curvature of the Levi-Civita connection of g, lowered and traced with g."""
    return riemann(conn, m.algebra, m.g, m.g_inv)


def riemann_twin(m: WManifold, conn_twin: Connection) -> CurvaturePack:
    """Curvature of the Levi-Civita connection of g~, lowered and traced with g~."""
    return riemann(conn_twin, m.algebra, m.g_twin, m.g_twin_inv)

