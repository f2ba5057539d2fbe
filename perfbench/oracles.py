"""Reference values computed outside besselbvp.

Every function here uses mpmath (or plain arithmetic) and never calls into
the library, so a check built on them cannot inherit a library defect.
"""

import mpmath

mpmath.mp.dps = 30


def jzeros(nu, count):
    """First ``count`` positive zeros of J_nu."""
    return [float(mpmath.besseljzero(mpmath.mpf(nu), k))
            for k in range(1, count + 1)]


def decaying_traces(nu, a):
    """(gamma_-, gamma_+) of sqrt(x) K_nu(sqrt(a) x), 0 < nu < 1.

    sqrt(x) K_nu(k x) = 2^{nu-1} Gamma(nu) k^{-nu} x^{1/2-nu}
                        + 2^{-nu-1} Gamma(-nu) k^{nu} x^{1/2+nu} + ...
    so gamma_- is the first coefficient and gamma_+ is 2 nu times the second.
    """
    nu = mpmath.mpf(nu)
    k = mpmath.sqrt(mpmath.mpc(a))
    gm = 2 ** (nu - 1) * mpmath.gamma(nu) * k ** (-nu)
    gp = 2 * nu * 2 ** (-nu - 1) * mpmath.gamma(-nu) * k ** nu
    return complex(gm), complex(gp)


def decaying_profile(nu, a, x):
    """sqrt(x) K_nu(sqrt(a) x) normalised to gamma_- = 1, at the points x."""
    gm, _ = decaying_traces(nu, a)
    k = mpmath.sqrt(mpmath.mpc(a))
    return [complex(mpmath.sqrt(xi) * mpmath.besselk(nu, k * xi)) / gm
            for xi in x]


def mode_traces(nu, xi):
    """Traces of the normalised decaying solution sqrt(x) K_nu(i xi x)."""
    tau = 1j * complex(xi)
    gm, gp = decaying_traces(nu, tau * tau)
    return 1.0 + 0.0j, gp / gm


def robin_interval(nu, a, beta, g):
    """Solution of (|D_nu|^2 + a) u = 0 on (0, 1), u(1) = 0,
    gamma_+ u + beta gamma_- u = g.

    u = A sqrt(x) I_nu(k x) + B sqrt(x) I_{-nu}(k x) with k = sqrt(a); the
    first branch carries gamma_+ = 2 nu (k/2)^nu / Gamma(1+nu), the second
    gamma_- = (k/2)^{-nu} / Gamma(1-nu).  Returns (gamma_-, gamma_+, u(x)).
    """
    nu = mpmath.mpf(nu)
    k = mpmath.sqrt(mpmath.mpf(a))
    gp_i = 2 * nu * (k / 2) ** nu / mpmath.gamma(1 + nu)
    gm_i = (k / 2) ** (-nu) / mpmath.gamma(1 - nu)
    M = mpmath.matrix([[mpmath.besseli(nu, k), mpmath.besseli(-nu, k)],
                       [gp_i, beta * gm_i]])
    A, B = mpmath.lu_solve(M, mpmath.matrix([0, g]))

    def u(x):
        return [complex(A * mpmath.sqrt(xi) * mpmath.besseli(nu, k * xi)
                        + B * mpmath.sqrt(xi) * mpmath.besseli(-nu, k * xi))
                for xi in x]

    return complex(B * gm_i), complex(A * gp_i), u


def lift_profile(nu, q, x):
    """gamma_- = 1, u(1) = 0 solution of (|D_nu|^2 + 1 + q^2) u = 0."""
    nu = mpmath.mpf(nu)
    tau = mpmath.sqrt(1 + mpmath.mpf(q) ** 2)
    gm = 2 ** (nu - 1) * mpmath.gamma(nu) * tau ** (-nu)
    ratio = mpmath.besselk(nu, tau) / mpmath.besseli(nu, tau)
    return [float((mpmath.sqrt(xi) * (mpmath.besselk(nu, tau * xi)
                                      - ratio * mpmath.besseli(nu, tau * xi)))
                  / gm) for xi in x]


def pencil_newton_step(nu, lam, a2, a1, a0, robin=None):
    """Newton correction |F/F'| at lam of the exact characteristic function.

    P(lam) = |D_nu|^2 + s(lam), s = a2 + a1 lam + a0 lam^2, on (0, 1) with
    u(1) = 0.  With z = s/4, (k/2)^{-nu} I_nu(k x) at x = 1 is
    0F1(; nu+1; z) / Gamma(nu+1), an entire function of lam.  Without
    ``robin`` the condition at 0 keeps only the x^{1/2+nu} branch:
    F = 0F1(; nu+1; z).  With ``robin = c`` (gamma_+ + c lam gamma_- = 0)
    F = c lam 0F1(; nu+1; z) - 2 nu 0F1(; 1-nu; z).
    """
    nu = mpmath.mpf(nu)
    lam = mpmath.mpc(lam)
    s = a2 + a1 * lam + a0 * lam * lam
    ds = a1 + 2 * a0 * lam
    z = s / 4

    def f0(b):
        return mpmath.hyp0f1(b, z)

    def d0(b):
        return mpmath.hyp0f1(b + 1, z) / b * ds / 4

    if robin is None:
        F, dF = f0(nu + 1), d0(nu + 1)
    else:
        c = mpmath.mpf(robin)
        F = c * lam * f0(nu + 1) - 2 * nu * f0(1 - nu)
        dF = c * f0(nu + 1) + c * lam * d0(nu + 1) - 2 * nu * d0(1 - nu)
    return float(abs(F / dF))
