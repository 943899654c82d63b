"""Affine connections on a Lie algebra with invariant metrics.

For left-invariant vector fields every scalar derivative term vanishes, so
the Koszul formula collapses to the three bracket terms:

    2 g(nabla_{X_i} X_j, X_k) = g([X_i,X_j],X_k) + g([X_k,X_i],X_j) + g([X_k,X_j],X_i)

and connection coefficients are constants.  A connection is its (1,2)
coefficient tensor Gamma, indexed [k, i, j]: nabla_{X_i} X_j = Gamma^k_{ij} X_k.
"""

from __future__ import annotations

from .errors import ValidationError, require
from .manifold import LieAlgebraModel
from .scalar import Q
from .tensor import UP, TensorDense, lincomb, vanishes


def koszul(alg: LieAlgebraModel, metric: TensorDense, metric_inv: TensorDense) -> TensorDense:
    """Levi-Civita connection of an invariant metric via the Koszul formula,
    as its coefficients Gamma[k, i, j].

    Post-checks zero torsion and nabla(metric) = 0 exactly; a failure here
    means the inputs are inconsistent and raises ConsistencyError.
    """
    # L_{ijk} = g([X_i, X_j], X_k), and Gamma^l_{ij} is g^{lk}/2 times
    # M_{ijk} = g([X_i,X_j],X_k) + g([X_k,X_i],X_j) + g([X_k,X_j],X_i)
    L = lincomb((1, "mij,mk->ijk", alg.c, metric))
    M = lincomb((1, L), (1, L, (1, 2, 0)), (1, L, (2, 1, 0)))
    gamma = lincomb((Q(1, 2), "lk,ijk->lij", metric_inv, M))

    # torsion: T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji} - c^k_{ij}
    require(vanishes((1, gamma), (-1, gamma, (0, 2, 1)), (-1, alg.c)),
            "Koszul output has torsion")
    require(vanishes((1, covariant_derivative(gamma, metric))),
            "Koszul output is not metric-compatible")
    return gamma


def covariant_derivative(gamma: TensorDense, t: TensorDense) -> TensorDense:
    """Covariant derivative of an invariant tensor by the connection with
    coefficients gamma; differentiation slot last.

    On left-invariant components the scalar derivative term is zero, so
    only the connection action on each slot remains: + Gamma^a_{im}
    t^{..m..} for a contravariant slot a, - Gamma^m_{ia} t_{..m..} for a
    covariant one, with i the derivative index.
    """
    if t.nslots == 0:
        raise ValidationError("covariant derivative of a scalar is not defined here")
    if t.dim != gamma.dim:
        raise ValidationError("connection and tensor dimensions differ")
    letters = "abcdefgh"[:t.nslots]
    terms = []
    for s, var in enumerate(t.variance):
        a = letters[s]
        src = letters[:s] + "m" + letters[s + 1:]
        if var == UP:
            terms.append((1, f"{a}im,{src}->{letters}i", gamma, t))
        else:
            terms.append((-1, f"mi{a},{src}->{letters}i", gamma, t))
    return lincomb(*terms)


def curvature_operator(gamma: TensorDense, alg: LieAlgebraModel) -> TensorDense:
    """(1,3) curvature of the invariant connection with coefficients gamma,
    indexed [l, i, j, k]:

        R(X_i, X_j) X_k = R^l_{ijk} X_l
                        = nabla_i nabla_j X_k - nabla_j nabla_i X_k - nabla_{[X_i,X_j]} X_k
                        = Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}
                          - c^m_{ij} Gamma^l_{mk}.
    """
    return lincomb((1, "lim,mjk->lijk", gamma, gamma), (-1, "ljm,mik->lijk", gamma, gamma),
                   (-1, "mij,lmk->lijk", alg.c, gamma))
