"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the production code paths it checks:
Monte-Carlo surface integrals for exact norms, central differences for
derivatives, dense grids for orbit distances, and exhaustive enumeration for
lattice counts.
"""

import numpy as np


def mc_sphere_integral(f, n, samples=1_000_000, seed=123):
    """(estimate, stderr) of integral of f over S^{2n-1} by plain Monte Carlo."""
    import math

    rng = np.random.default_rng(seed)
    g = rng.normal(size=(samples, 2 * n))
    z = g[:, :n] + 1j * g[:, n:]
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    area = 2.0 * math.pi**n / math.factorial(n - 1)
    vals = np.asarray(f(z)) * area
    return float(np.mean(vals)), float(np.std(vals) / np.sqrt(samples))


def central_difference(f, x, h=1e-6):
    """Gradient of scalar f: R^k -> R or C at a real vector x."""
    x = np.asarray(x, dtype=float)
    out = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out.append((f(x + e) - f(x - e)) / (2 * h))
    return np.asarray(out)


def holomorphic_derivative_fd(f, z, k, h=1e-6):
    """d f / d z_k by central differences in the two real directions."""
    z = np.asarray(z, dtype=complex)
    e = np.zeros_like(z)
    e[k] = h
    d_re = (f(z + e) - f(z - e)) / (2 * h)
    e[k] = 1j * h
    d_im = (f(z + e) - f(z - e)) / (2 * h)
    return 0.5 * (d_re - 1j * d_im)


def brute_orbit_distance(weights, x, y, grid=200_001):
    """Dense-grid minimum of |x - e^{i theta}.y| (no refinement)."""
    thetas = np.linspace(0.0, 2 * np.pi, grid)
    w = np.asarray(weights, dtype=float)
    ph = np.exp(1j * np.outer(thetas, w))
    d = np.linalg.norm(x[None, :] - y[None, :] * ph, axis=1)
    return float(d.min())


def exhaustive_multiindices(weights, m):
    """All alpha with <alpha, weights> = m by filtering |alpha| <= m."""
    import itertools

    n = len(weights)
    out = []
    for alpha in itertools.product(range(m + 1), repeat=n):
        if sum(a * w for a, w in zip(alpha, weights)) == m:
            out.append(alpha)
    return sorted(out, key=lambda t: t[::-1])


def sphere2_kernel_closed_form(m, x, y):
    """S_m(x, y) on the standard sphere in C^2: (m+1)/(2 pi^2) <x, y>^m."""
    inner = np.sum(np.asarray(x) * np.asarray(y).conj())
    return (m + 1) / (2 * np.pi**2) * inner**m


def ball_points_loop(M, x0, radius, count, seed=0, align_orbit=False):
    """Coordinates (count, n) of ball_points drawn one candidate at a time.

    The per-try loop that the batched generator replaced: one direction, one
    radial projection and one orbit alignment per candidate, from the same
    Philox stream.
    """
    import math

    from szegolab.integrate import project_radially

    rng = np.random.Generator(np.random.Philox(seed))
    z0 = x0.coordinates
    out = []
    while len(out) < count:
        g = rng.normal(size=(M.n, 2))
        step = (g[:, 0] + 1j * g[:, 1]) * radius / math.sqrt(2 * M.n)
        z = project_radially(M, z0 + step)
        if np.linalg.norm(z - z0) > radius:
            continue
        if align_orbit:
            _, theta = M.orbit_distance_batch(z0[None, :], z[None, :])
            z = M.act_coordinates(float(theta[0]), z[None, :])[0]
            if np.linalg.norm(z - z0) > radius:
                continue
        out.append(z)
    return np.array(out)
