"""Staikova-Gribachev classification of W-manifolds.

Each of the eight classes is a defining identity on F (equivalently on the
potential Phi).  For invariant tensors the identities are decided exactly
by evaluating them on all basis triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError, require
from .manifold import LieAlgebraModel, WManifold
from .scalar import Q
from .structure import StructurePack
from .tensor import TensorDense, lincomb, vanishes


class ClassLabel(str, Enum):
    W0 = "W0"
    W1 = "W1"
    W2 = "W2"
    W3 = "W3"
    W12 = "W1+W2"
    W13 = "W1+W3"
    W23 = "W2+W3"
    FULL = "W1+W2+W3"

    def __str__(self):
        return self.value


#: strict containments of the class lattice (lower is smaller)
_LATTICE_BELOW: dict[ClassLabel, frozenset[ClassLabel]] = {
    ClassLabel.W0: frozenset(),
    ClassLabel.W1: frozenset({ClassLabel.W0}),
    ClassLabel.W2: frozenset({ClassLabel.W0}),
    ClassLabel.W3: frozenset({ClassLabel.W0}),
    ClassLabel.W12: frozenset({ClassLabel.W0, ClassLabel.W1, ClassLabel.W2}),
    ClassLabel.W13: frozenset({ClassLabel.W0, ClassLabel.W1, ClassLabel.W3}),
    ClassLabel.W23: frozenset({ClassLabel.W0, ClassLabel.W2, ClassLabel.W3}),
    ClassLabel.FULL: frozenset(set(ClassLabel) - {ClassLabel.FULL}),
}


def lattice_leq(a: ClassLabel, b: ClassLabel) -> bool:
    return a == b or a in _LATTICE_BELOW[b]


def is_upward_closed(labels: set[ClassLabel]) -> bool:
    return all(b in labels
               for a in labels for b in ClassLabel if lattice_leq(a, b))


@dataclass(frozen=True)
class ClassificationResult:
    satisfied: frozenset[ClassLabel]
    minimal: ClassLabel
    agreement: bool


def classify_phi(m: WManifold, sp: StructurePack) -> set[ClassLabel]:
    """Label set from the Phi-based class identities."""
    n2 = Q(m.dim)          # 2n
    Phi, f, f_star = sp.Phi, sp.f, sp.f_star
    PhiPP = sp.Phi_P["xy"]                                  # Phi(Px,Py,z)
    f_zero = f.is_zero()

    # g(x,y) f(z) and g~(x,y) f*(z)
    gf = lincomb((1, "xy,z->xyz", m.g, f))
    gtfs = lincomb((1, "xy,z->xyz", m.g_twin, f_star))

    labels: set[ClassLabel] = {ClassLabel.FULL}
    if Phi.is_zero():
        labels.add(ClassLabel.W0)
    # Phi = (1/2n){g f + g~ f*}
    if vanishes((1, Phi), (-1 / n2, gf), (-1 / n2, gtfs)):
        labels.add(ClassLabel.W1)
    if vanishes((1, Phi), (-1, PhiPP)):
        labels.add(ClassLabel.W12)
        if f_zero:
            labels.add(ClassLabel.W2)
    if vanishes((1, Phi), (1, PhiPP)):
        labels.add(ClassLabel.W3)
    # Phi(x,y,z) + Phi(Px,Py,z) = (1/n){g f + g~ f*}
    if vanishes((1, Phi), (1, PhiPP), (-2 / n2, gf), (-2 / n2, gtfs)):
        labels.add(ClassLabel.W13)
    if f_zero:
        labels.add(ClassLabel.W23)
    return labels


def classify_f(m: WManifold, sp: StructurePack, by_phi: set[ClassLabel]) -> set[ClassLabel]:
    """Label set from the F-based class identities.

    Must coincide with by_phi, the classify_phi labels of the same pack; a
    disagreement raises ConsistencyError.
    """
    n2 = Q(m.dim)
    F, theta, theta_star = sp.F, sp.theta, sp.theta_star
    theta_zero = theta.is_zero()

    # g(x,y) theta(z) and g~(x,y) theta*(z)
    gt = lincomb((1, "xy,z->xyz", m.g, theta))
    gtts = lincomb((1, "xy,z->xyz", m.g_twin, theta_star))

    def cyc(c, t: TensorDense) -> tuple:
        """The terms of c times the cyclic sum of t over its three arguments."""
        return (c, t), (c, t, (2, 0, 1)), (c, t, (1, 2, 0))

    labels: set[ClassLabel] = {ClassLabel.FULL}
    if F.is_zero():
        labels.add(ClassLabel.W0)

    # F = (1/2n){g theta + g~ theta* + the same with y and z swapped}
    c = -1 / n2
    if vanishes((1, F), (c, gt), (c, gtts), (c, gt, (0, 2, 1)), (c, gtts, (0, 2, 1))):
        labels.add(ClassLabel.W1)

    if vanishes(*cyc(1, sp.F_P["z"])):          # F(x,y,Pz) + cyclic
        labels.add(ClassLabel.W12)
        if theta_zero:
            labels.add(ClassLabel.W2)

    if vanishes(*cyc(1, F)):
        labels.add(ClassLabel.W3)

    if vanishes(*cyc(1, F), *cyc(-2 / n2, gt), *cyc(-2 / n2, gtts)):
        labels.add(ClassLabel.W13)

    if theta_zero:
        labels.add(ClassLabel.W23)

    require(labels == by_phi, "F-based and Phi-based classifications disagree")
    return labels


def minimal_class(satisfied: set[ClassLabel]) -> ClassLabel:
    """Least element of an upward-closed nonempty label set."""
    if not satisfied:
        raise ValidationError("empty label set")
    if not is_upward_closed(satisfied):
        raise ValidationError(f"label set is not upward-closed: {sorted(l.value for l in satisfied)}")
    minimals = [a for a in satisfied
                if not any(b != a and lattice_leq(b, a) for b in satisfied)]
    if len(minimals) != 1:
        raise ValidationError(
            f"no unique minimal class among {sorted(l.value for l in minimals)}")
    return minimals[0]


def classify(m: WManifold, sp: StructurePack) -> ClassificationResult:
    by_phi = classify_phi(m, sp)
    by_f = classify_f(m, sp, by_phi)    # raises on disagreement
    return ClassificationResult(satisfied=frozenset(by_phi),
                                minimal=minimal_class(by_phi),
                                agreement=by_phi == by_f)


def lee_forms_closed(alg: LieAlgebraModel, theta: TensorDense,
                     theta_star: TensorDense) -> bool:
    """d(theta) = d(theta*) = 0 for invariant 1-forms.

    For constant components the exterior derivative reduces to
    d(w)(X_i, X_j) = -w([X_i, X_j]).
    """
    return all(vanishes((1, "k,kij->ij", w, alg.c)) for w in (theta, theta_star))
