"""Reference component tables for the two-parameter family.

Every function returns the reference closed-form components of one family
quantity, a tensor by its nonzero components, in integers.  A point
(l1, l2, e) is given by its integer parameters a1 = D l1 and a2 = D l2,
where D is the lcm of the denominators of l1 and l2, and e = +-1.  Every
entry is homogeneous in (l1, l2), so evaluated at (a1, a2, e) it is D^k
times its value, where k is its degree:

    k = 1   nabla, twin nabla, the average connection, Phi, f, f*, f#,
            theta, theta*, F
    k = 2   R, twin R, rho, tau, the square norms, Q, A

family.theorem_checks builds each table once per point and decides it
against the engine's numerators by cross-multiplication; it forms
rationals only to word a mismatch.  Each entry is polynomial of degree at
most two per parameter, so agreement on a seven-point grid per parameter
proves the identity.

Below, l1 and l2 name a1 and a2.  Indices here are 0-based; the
docstring component names use the 1-based basis labels X1..X4.
"""

from __future__ import annotations

from .errors import ConsistencyError

Vec = tuple[int, int, int, int]


def _scale(c: int, v: Vec) -> Vec:
    """c v; most tables scale by epsilon, so +-1 skip the products."""
    if c == 1:
        return v
    return tuple([-t for t in v] if c == -1 else [c * t for t in v])


def connection_tables(l1: int, l2: int, e: int) -> tuple[dict, dict]:
    """Nonzero components of both Levi-Civita connections.

    Returns ({(i, j): vector of nabla_{X_i} X_j}, same for the twin side).
    """
    v1 = (0, -2 * l2, -e * l1, l1)
    v2 = (2 * l2, 0, -l1, e * l1)
    v3 = (-e * l1, -l1, 0, 0)
    v4 = (0, 0, -e * l2, -l2)
    v5 = (-e * l2, l2, 0, -2 * l1)
    v6 = (-l2, e * l2, 2 * l1, 0)
    shared = {
        (0, 2): v3, (0, 3): _scale(-e, v3), (1, 2): _scale(e, v3), (1, 3): _scale(-1, v3),
        (2, 0): v4, (2, 1): _scale(-e, v4), (3, 0): _scale(e, v4), (3, 1): _scale(-1, v4),
    }
    nabla = dict(shared)
    nabla.update({
        (0, 0): v1, (1, 0): _scale(e, v1),
        (0, 1): v2, (1, 1): _scale(e, v2),
        (2, 2): v5, (3, 2): _scale(e, v5),
        (2, 3): v6, (3, 3): _scale(e, v6),
    })
    nabla_twin = dict(shared)
    nabla_twin.update({
        (0, 1): _scale(-e, v1), (1, 1): _scale(-1, v1),
        (0, 0): _scale(-e, v2), (1, 0): _scale(-1, v2),
        (2, 3): _scale(-e, v5), (3, 3): _scale(-1, v5),
        (2, 2): _scale(-e, v6), (3, 2): _scale(-1, v6),
    })
    return nabla, nabla_twin


def average_connection_table(l1: int, l2: int, e: int) -> dict:
    """Nonzero components of the invariant connection D."""
    w1 = (-e * l2, -l2, 0, 0)
    w2 = (-e * l1, -l1, 0, 0)
    w3 = (0, 0, -e * l2, -l2)
    w4 = (0, 0, -e * l1, -l1)
    out = {}
    for base, w in (((0, 0), w1), ((0, 2), w2), ((2, 0), w3), ((2, 2), w4)):
        i, j = base
        out[(i, j)] = w
        out[(i, j + 1)] = _scale(-e, w)
        out[(i + 1, j)] = _scale(e, w)
        out[(i + 1, j + 1)] = _scale(-1, w)
    return out


def potential_table(l1: int, l2: int, e: int) -> tuple[dict, Vec, Vec, Vec]:
    """Nonzero Phi(X_i, X_j) vectors plus the 1-forms f, f* and f#."""
    quarter = (-2 * e * l2, 2 * l2, 2 * e * l1, -2 * l1)
    f_sharp = _scale(4, quarter)
    phi = {
        (0, 0): quarter, (0, 1): _scale(e, quarter),
        (1, 0): _scale(e, quarter), (1, 1): quarter,
        (2, 2): _scale(-1, quarter), (2, 3): _scale(-e, quarter),
        (3, 2): _scale(-e, quarter), (3, 3): _scale(-1, quarter),
    }
    f = (-8 * e * l2, 8 * l2, -8 * e * l1, 8 * l1)
    f_star = (-8 * l2, 8 * e * l2, -8 * l1, 8 * e * l1)
    return phi, f, f_star, f_sharp


def lee_form_table(l1: int, l2: int, e: int) -> tuple[Vec, Vec]:
    """Components of the Lee forms theta and theta* (twin sides coincide)."""
    theta = (8 * l2, -8 * e * l2, 8 * l1, -8 * e * l1)
    theta_star = (8 * e * l2, -8 * l2, 8 * e * l1, -8 * l1)
    return theta, theta_star


def fundamental_table(l1: int, l2: int, e: int) -> dict:
    """Nonzero components F(X_i, X_j, X_k); the twin side is epsilon times these."""
    a, b = 2 * l1, 2 * l2
    table = {
        (1, 1, 3): a, (1, 2, 4): -a, (1, 3, 1): a, (1, 4, 2): -a,
        (1, 1, 4): -e * a, (1, 2, 3): e * a, (1, 3, 2): e * a, (1, 4, 1): -e * a,
        (2, 1, 3): e * a, (2, 2, 4): -e * a, (2, 3, 1): e * a, (2, 4, 2): -e * a,
        (2, 1, 4): -a, (2, 2, 3): a, (2, 3, 2): a, (2, 4, 1): -a,
        (3, 3, 3): -2 * a, (3, 4, 4): 2 * a, (4, 3, 3): -2 * e * a, (4, 4, 4): 2 * e * a,
        (3, 1, 3): -b, (3, 2, 4): b, (3, 3, 1): -b, (3, 4, 2): b,
        (3, 1, 4): -e * b, (3, 2, 3): e * b, (3, 3, 2): e * b, (3, 4, 1): -e * b,
        (4, 1, 3): -e * b, (4, 2, 4): e * b, (4, 3, 1): -e * b, (4, 4, 2): e * b,
        (4, 1, 4): -b, (4, 2, 3): b, (4, 3, 2): b, (4, 4, 1): -b,
        (1, 1, 1): 2 * b, (1, 2, 2): -2 * b, (2, 1, 1): 2 * e * b, (2, 2, 2): -2 * e * b,
    }
    return {(i - 1, j - 1, k - 1): v for (i, j, k), v in table.items() if v}


def square_norm_table(l1: int, l2: int, e: int) -> tuple[int, int]:
    """Square norms of nabla P and of its twin counterpart."""
    snorm = -128 * (l1 * l1 - l2 * l2)
    return snorm, -e * snorm


def _close_curvature(generators: dict) -> dict:
    """Close a set of R_{ijkl} generators under both antisymmetries and
    the pair-interchange symmetry; conflicting assignments raise."""
    out: dict = {}

    def put(idx, val):
        if not val:
            return
        old = out.get(idx)
        if old is None:
            out[idx] = val
        elif old != val:
            raise ConsistencyError(f"inconsistent curvature table at {idx}")

    for (i, j, k, l), v in generators.items():
        for (a, b, c, d), w in (((i, j, k, l), v), ((k, l, i, j), v)):
            put((a, b, c, d), w)
            put((b, a, c, d), -w)
            put((a, b, d, c), -w)
            put((b, a, d, c), w)
    return out


def curvature_table(l1: int, l2: int, e: int) -> dict:
    """Nonzero components R_{ijkl}, closed under the curvature symmetries."""
    gen = {
        (1, 2, 2, 1): -8 * l2 ** 2,
        (1, 3, 4, 1): 4 * e * l2 ** 2, (2, 3, 4, 2): 4 * e * l2 ** 2,
        (1, 3, 3, 1): 4 * (l2 ** 2 - l1 ** 2), (1, 4, 4, 1): 4 * (l2 ** 2 - l1 ** 2),
        (2, 3, 3, 2): 4 * (l2 ** 2 - l1 ** 2), (2, 4, 4, 2): 4 * (l2 ** 2 - l1 ** 2),
        (3, 4, 4, 3): 8 * l1 ** 2,
        (3, 1, 2, 3): -4 * e * l1 ** 2, (4, 1, 2, 4): -4 * e * l1 ** 2,
        (1, 2, 4, 1): -4 * l1 * l2, (2, 1, 3, 2): -4 * l1 * l2,
        (3, 2, 4, 3): 4 * l1 * l2, (4, 1, 3, 4): 4 * l1 * l2,
        (1, 2, 3, 1): 4 * e * l1 * l2, (2, 1, 4, 2): 4 * e * l1 * l2,
        (3, 1, 4, 3): -4 * e * l1 * l2, (4, 2, 3, 4): -4 * e * l1 * l2,
    }
    closed = _close_curvature({k: v for k, v in gen.items() if v})
    return {(i - 1, j - 1, k - 1, l - 1): v for (i, j, k, l), v in closed.items()}


def twin_curvature_table(e: int, curvature: dict) -> dict:
    """The reference twin-curvature components: epsilon times curvature,
    the curvature_table at the same point.

    Known defect, kept as bundled: R~ = eps R holds only where tau = 0
    (l1 = +-l2).  The curvature of the twin connection table, lowered with
    g~, satisfies R~ = eps R + (tau/12)(pi3 - eps(pi1 + pi2)) instead, with
    pi1(x,y,z,w) = g(y,z)g(x,w) - g(x,z)g(y,w), pi2 the same with g~, and
    pi3 = -g(y,z)g~(x,w) + g(x,z)g~(y,w) - g~(y,z)g(x,w) + g~(x,z)g(y,w).
    This table differs from it in 64 of 256 components at a generic point
    and fails at 76 of the 98 default grid points.
    """
    return dict(curvature) if e == 1 else {idx: -v for idx, v in curvature.items()}


def ricci_table(l1: int, l2: int, e: int):
    """Ricci matrices and scalar curvatures (rho, tau, rho_twin, tau_twin).

    Known defects, kept as bundled.  The g-side rho lacks
    rho_12 = rho_21 = 8 eps l1^2 and rho_34 = rho_43 = 8 eps l2^2, so the
    table fails at 96 of the 98 default grid points, isotropic ones
    included.  The twin block rho_twin is wrong too, and so is tau_twin:
    the true value is tau~ = -48 eps (l1^2 - l2^2) = -eps tau (144 at
    (1, 2, 1), as Besse's connection-free formula, Einstein Manifolds
    7.39, confirms), a third of which is given here.  tau is right.
    """
    z = 0
    mixed = -8 * l1 * l2
    mixed_e = 8 * e * l1 * l2
    d1 = 8 * (l1 ** 2 - 2 * l2 ** 2)
    d2 = 8 * (l2 ** 2 - 2 * l1 ** 2)
    rho = (
        (d1, z, mixed, mixed_e),
        (z, d1, mixed_e, mixed),
        (mixed, mixed_e, d2, z),
        (mixed_e, mixed, z, d2),
    )
    t1 = -8 * l2 ** 2
    t1e = 8 * e * l2 ** 2
    t2 = -8 * l1 ** 2
    t2e = 8 * e * l1 ** 2
    rho_twin = (
        (t1, t1e, mixed, mixed_e),
        (t1e, t1, mixed_e, mixed),
        (mixed, mixed_e, t2, t2e),
        (mixed_e, mixed, t2e, t2),
    )
    tau = 48 * (l1 ** 2 - l2 ** 2)
    tau_twin = 16 * e * (l2 ** 2 - l1 ** 2)
    return rho, tau, rho_twin, tau_twin


def q_table(l1: int, l2: int, e: int, f_sharp: Vec) -> dict:
    """Nonzero vectors Q(X_i, X_j)X_k, all proportional to f#, the last
    1-form of potential_table at the same point.

    Closed under the antisymmetry Q(x,y)z = -Q(y,x)z.

    Known defect, kept as bundled: these are exactly
    (nabla_x Phi)(y,z) - (nabla_y Phi)(x,z) + B(x,y)z with the outer term
    Gamma . Phi of each covariant derivative (the one acting on the vector
    slot of Phi) dropped.  The true Q keeps that term and satisfies
    R~ = R + Q; this table fails at 76 of the 98 default grid points.
    """
    # the coefficients of f#/2, whose components are even
    half = tuple(v // 2 for v in f_sharp)
    coef = {
        (1, 3, 1): e * l1, (1, 4, 2): -e * l1,
        (2, 3, 2): e * l1, (2, 4, 1): -e * l1, (3, 4, 4): 2 * e * l1,
        (1, 3, 2): l1, (1, 4, 1): -l1,
        (2, 3, 1): l1, (2, 4, 2): -l1, (3, 4, 3): 2 * l1,
        (1, 3, 3): e * l2, (1, 4, 4): e * l2,
        (2, 3, 4): -e * l2, (2, 4, 3): -e * l2, (1, 2, 2): -2 * e * l2,
        (1, 3, 4): l2, (1, 4, 3): l2,
        (2, 3, 3): -l2, (2, 4, 4): -l2, (1, 2, 1): -2 * l2,
    }
    out = {}
    for (i, j, k), c in coef.items():
        if not c:
            continue
        vec = _scale(c, half)
        out[(i - 1, j - 1, k - 1)] = vec
        out[(j - 1, i - 1, k - 1)] = _scale(-1, vec)
    return out


def a_table(l1: int, l2: int, e: int) -> dict:
    """Nonzero components A_{ijkl} of the g-lowered average curvature.

    Closed under the antisymmetry A_{ijkl} = -A_{jikl}.

    Known defect, kept as bundled: the table is A = R + Q/2 built with the
    faulty q_table, so it inherits that table's dropped outer term and
    contradicts A = (R + R~)/2; it fails at 76 of the 98 default grid
    points.
    """
    q1, q2, mm = 2 * l1 ** 2, 2 * l2 ** 2, 2 * l1 * l2
    m13, m24 = 2 * l1 ** 2 - 4 * l2 ** 2, 2 * l2 ** 2 - 4 * l1 ** 2
    base = {
        (1, 3, 2, 4): q1, (1, 4, 2, 3): q1, (2, 3, 1, 4): q1, (2, 4, 1, 3): q1,
        (3, 4, 3, 4): -2 * q1, (3, 4, 4, 3): 2 * q1,
        (1, 3, 2, 3): e * q1, (1, 4, 2, 4): e * q1, (2, 3, 1, 3): e * q1,
        (2, 4, 1, 4): e * q1, (3, 4, 3, 3): -2 * e * q1, (3, 4, 4, 4): 2 * e * q1,
        (1, 3, 4, 2): q2, (1, 4, 3, 2): q2, (2, 3, 4, 1): q2, (2, 4, 3, 1): q2,
        (1, 2, 1, 2): 2 * q2, (1, 2, 2, 1): -2 * q2,
        (1, 3, 4, 1): e * q2, (1, 4, 3, 1): e * q2, (2, 3, 4, 2): e * q2,
        (2, 4, 3, 2): e * q2, (1, 2, 1, 1): 2 * e * q2, (1, 2, 2, 2): -2 * e * q2,
        (1, 2, 3, 2): 2 * mm, (1, 2, 4, 1): -2 * mm,
        (3, 4, 1, 4): -2 * mm, (3, 4, 2, 3): 2 * mm,
        (1, 3, 1, 1): -mm, (1, 3, 2, 2): mm, (1, 3, 3, 3): -mm, (1, 3, 4, 4): mm,
        (1, 4, 1, 2): mm, (1, 4, 2, 1): -mm, (1, 4, 3, 4): -mm, (1, 4, 4, 3): mm,
        (2, 3, 1, 2): -mm, (2, 3, 2, 1): mm, (2, 3, 3, 4): mm, (2, 3, 4, 3): -mm,
        (2, 4, 1, 1): mm, (2, 4, 2, 2): -mm, (2, 4, 3, 3): mm, (2, 4, 4, 4): -mm,
        (1, 2, 3, 1): 2 * e * mm, (1, 2, 4, 2): -2 * e * mm,
        (3, 4, 1, 3): -2 * e * mm, (3, 4, 2, 4): 2 * e * mm,
        (1, 3, 1, 2): -e * mm, (1, 3, 2, 1): e * mm,
        (1, 3, 3, 4): -e * mm, (1, 3, 4, 3): e * mm,
        (1, 4, 1, 1): e * mm, (1, 4, 2, 2): -e * mm,
        (1, 4, 3, 3): -e * mm, (1, 4, 4, 4): e * mm,
        (2, 3, 1, 1): -e * mm, (2, 3, 2, 2): e * mm,
        (2, 3, 3, 3): e * mm, (2, 3, 4, 4): -e * mm,
        (2, 4, 1, 2): e * mm, (2, 4, 2, 1): -e * mm,
        (2, 4, 3, 4): e * mm, (2, 4, 4, 3): -e * mm,
        (1, 3, 1, 3): m13, (1, 4, 1, 4): m13, (2, 3, 2, 3): m13, (2, 4, 2, 4): m13,
        (1, 3, 1, 4): e * m13, (1, 4, 1, 3): e * m13,
        (2, 3, 2, 4): e * m13, (2, 4, 2, 3): e * m13,
        (1, 3, 3, 1): m24, (1, 4, 4, 1): m24, (2, 3, 3, 2): m24, (2, 4, 4, 2): m24,
        (1, 3, 3, 2): e * m24, (1, 4, 4, 2): e * m24,
        (2, 3, 3, 1): e * m24, (2, 4, 4, 1): e * m24,
    }
    out = {}
    for (i, j, k, l), v in base.items():
        if not v:
            continue
        out[(i - 1, j - 1, k - 1, l - 1)] = v
        out[(j - 1, i - 1, k - 1, l - 1)] = -v
    return out
