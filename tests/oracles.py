"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the production code paths it checks:
Monte-Carlo surface integrals for exact norms, central differences for
derivatives, dense grids for orbit distances, exhaustive enumeration for
lattice counts, and the earlier pure-Python forms of rewritten routines.
It also holds the Monte-Carlo helpers that only the tests use:
integrate_surface and component_orthogonality.
"""

import math
from fractions import Fraction

import numpy as np

from szegolab.basis import FourierBasis, eval_basis_batch
from szegolab.geometry import Manifold
from szegolab.integrate import SampleSet, compliant_density, surface_samples


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


def multiindices_recursive(weights, m):
    """The (d, n) int64 exponent rows of <alpha, weights> = m in colex order,
    from a recursive generator (later coordinates vary slowest and ascend
    first): basis.enumerate_multiindices before it was built with numpy."""

    def rec(k, target):
        if k == 0:
            if target % weights[0] == 0:
                yield (target // weights[0],)
            return
        for a in range(target // weights[k] + 1):
            for head in rec(k - 1, target - a * weights[k]):
                yield head + (a,)

    return np.array(list(rec(len(weights) - 1, m)), dtype=np.int64).reshape(-1, len(weights))


def sphere2_kernel_closed_form(m, x, y):
    """S_m(x, y) on the standard sphere in C^2: (m+1)/(2 pi^2) <x, y>^m."""
    inner = np.sum(np.asarray(x) * np.asarray(y).conj())
    return (m + 1) / (2 * np.pi**2) * inner**m


def weighted_sphere_kernel_closed_form(weights, m_max, x, y):
    """S_m(x, y) for m = 0..m_max on the unit sphere in C^n with action weights w.

    The q^m coefficients of (n-1)!/(2 pi^n) (1 - sum_j x_j conj(y_j) q^{w_j})^{-n},
    the Fourier components of the sphere's Szego kernel along the action, by
    the recurrence m g_m = sum_{k>=1} p_k g_{m-k} (m + (n-1) k), g_0 = 1,
    with p_k = sum_{w_j = k} x_j conj(y_j).
    """
    w = np.asarray(weights)
    n = len(w)
    c = np.asarray(x, dtype=complex) * np.asarray(y, dtype=complex).conj()
    p = np.zeros(m_max + 1, dtype=complex)
    np.add.at(p, w[w <= m_max], c[w <= m_max])
    g = np.zeros(m_max + 1, dtype=complex)
    g[0] = 1.0
    for m in range(1, m_max + 1):
        k = np.arange(1, m + 1)
        g[m] = np.sum(p[k] * g[m - k] * (m + (n - 1) * k)) / m
    return math.factorial(n - 1) / (2 * math.pi**n) * g


def ball_points_loop(M, x0, radius, count, seed=0):
    """Coordinates (count, n) of ball_points drawn one candidate at a time.

    The per-try loop that the batched generator replaced: one direction, one
    radial projection and one orbit alignment per candidate, from the same
    Philox stream.
    """
    import math

    from szegolab.integrate import project_radially

    rng = np.random.Generator(np.random.Philox(seed))
    z0 = x0
    out = []
    while len(out) < count:
        g = rng.normal(size=(M.n, 2))
        step = (g[:, 0] + 1j * g[:, 1]) * radius / math.sqrt(2 * M.n)
        z = project_radially(M, z0 + step)
        if np.linalg.norm(z - z0) > radius:
            continue
        _, theta = M.orbit_distance_batch(z0[None, :], z[None, :])
        z = M.act(float(theta[0]), z[None, :])[0]
        if np.linalg.norm(z - z0) > radius:
            continue
        out.append(z)
    return np.array(out)


def orbit_distance_whole(M, X, Y, grid=720, refine_iters=64):
    """Orbit distance (dist, theta*) by golden section, the whole (pairs, grid) scan at once.

    An independent route to what Manifold.orbit_distance_batch solves by
    bracketed Newton on the slope: grid argmin, golden-section refinement of
    the squared distance, a Newton polish on its derivative, and the grid
    point kept where it is closer.
    """
    import math

    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    w = M.weights.array.astype(float)
    c = X.conj() * Y
    const = np.sum(np.abs(X) ** 2 + np.abs(Y) ** 2, axis=1)
    thetas = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)

    def sqdist(theta_arr):
        return const - 2.0 * np.sum(c * np.exp(1j * np.outer(theta_arr, w)), axis=1).real

    best = np.argmin(const[:, None] - 2.0 * (c @ np.exp(1j * np.outer(w, thetas))).real, axis=1)
    h = 2 * np.pi / grid
    a, b = thetas[best] - h, thetas[best] + h
    invphi = (math.sqrt(5) - 1) / 2
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = sqdist(x1), sqdist(x2)
    for _ in range(refine_iters):
        take1 = f1 < f2
        b = np.where(take1, x2, b)
        a = np.where(take1, a, x1)
        x1_new = np.where(take1, b - invphi * (b - a), x2)
        x2_new = np.where(take1, x1, a + invphi * (b - a))
        f_new = sqdist(np.where(take1, x1_new, x2_new))
        f1, f2 = np.where(take1, f_new, f2), np.where(take1, f1, f_new)
        x1, x2 = x1_new, x2_new
    theta = 0.5 * (a + b)
    for _ in range(4):
        ph = np.exp(1j * np.outer(theta, w))
        g = 2.0 * np.sum(c * ph * w, axis=1).imag
        gp = 2.0 * np.sum(c * ph * w**2, axis=1).real
        safe = np.abs(gp) > 1e-30
        step = np.where(safe, g / np.where(safe, gp, 1.0), 0.0)
        theta = np.where(np.abs(step) < h, theta - step, theta)
    dist = np.linalg.norm(X - Y * np.exp(1j * np.outer(theta, w)), axis=1)
    dist_grid = np.linalg.norm(X - Y * np.exp(1j * np.outer(thetas[best], w)), axis=1)
    use_grid = dist_grid < dist
    return np.where(use_grid, dist_grid, dist), np.mod(np.where(use_grid, thetas[best], theta), 2 * np.pi)


def transversal_pairing(M, x):
    """Re sum_j w_j x_j (d rho / d z_j) at a point x (n,), from its own gradient pass."""
    return float(np.sum(M.weights.array * x * M.rho.z_gradient(x)).real)


def contact_form(M, x, v):
    """Contact form at x on a real tangent vector v (complex representation)."""
    rho_z = M.rho.z_gradient(x)
    return -float(np.imag(np.sum(rho_z * np.asarray(v)))) / transversal_pairing(M, x)


def levi_form_passes(M, x):
    """Manifold.levi_form's fields at x, each from a gradient pass of its own
    (the frame, the pairing and the density), as levi_form once computed them."""
    from szegolab.geometry import LeviData
    from szegolab.integrate import compliant_density

    frame = M.holomorphic_tangent_frame(x)
    eigs = np.linalg.eigvalsh(frame @ M.rho.zz_hessian(x) @ frame.conj().T / transversal_pairing(M, x))
    return LeviData(
        eigenvalues=tuple(float(e) for e in eigs),
        determinant=float(np.prod(eigs)),
        contact_scale=-1.0 / transversal_pairing(M, x),
        volume_density=float(compliant_density(M, x)),
    )


def levi_bracket_oracle(M, x, step=1e-4):
    """Levi matrix at x from numerically bracketed frame fields.

    Each frame vector is extended to a neighborhood by projecting the constant
    ambient vector onto ker(d_z rho); the Lie bracket of the extended field
    with the conjugate of another is formed by central finite differences and
    paired with the contact form.  Independent of the Hessian route except for
    first derivatives of rho.
    """
    z0 = x
    n = M.n
    frame = M.holomorphic_tangent_frame(x)
    rho_z0 = M.rho.z_gradient(z0)
    denom = transversal_pairing(M, z0)

    def field(zpt: np.ndarray) -> np.ndarray:
        # rows: projection of each frame vector onto ker d_z rho at zpt
        g = M.rho.z_gradient(zpt).conj()
        g2 = np.vdot(g, g).real
        return frame - np.outer(frame @ g.conj(), g) / g2

    # d(field)/d zbar_k via central differences in the real coordinates
    Jzbar = np.zeros((n - 1, n, n), dtype=complex)  # [a, j, k]
    for k in range(n):
        for direction, im in ((1.0, False), (1j, True)):
            dz = np.zeros(n, dtype=complex)
            dz[k] = direction * step
            d_real = (field(z0 + dz) - field(z0 - dz)) / (2 * step)
            # d/d zbar = (d/dx + i d/dy) / 2
            Jzbar[:, :, k] += (1j * d_real if im else d_real) / 2.0

    H = np.zeros((n - 1, n - 1), dtype=complex)
    for a in range(n - 1):
        for b in range(n - 1):
            first = np.einsum("j,k,jk->", rho_z0, frame[b].conj(), Jzbar[a])
            second = np.einsum("k,j,kj->", rho_z0.conj(), frame[a], Jzbar[b].conj())
            H[a, b] = (-first - second) / (2.0 * denom)
    return H


def jacobian_spectra_loop(Phi, Z):
    """Singular values (P, 2n-1) of the real Jacobian of Phi on T_z X, a point at a time.

    The real-frame reference for the certificate's complex spectra, which
    are its odd-indexed values [:, 0::2]: each point's real orthonormal frame
    of T_z X (its holomorphic frame from its own gradient and SVD, their
    i-rotations and i * conj(d_z rho) / |d_z rho|), one eval_basis_jacobian
    call per block, then one SVD of the stacked real and imaginary parts.
    """
    from szegolab.basis import eval_basis_jacobian

    M = Phi.manifold
    out = []
    for z in np.asarray(Z, dtype=complex):
        rho_z = M.rho.z_gradient(z)
        _, _, vh = np.linalg.svd(rho_z.reshape(1, M.n), full_matrices=True)
        F = vh[1:].conj()
        nu = 1j * rho_z.conj() / np.linalg.norm(rho_z)
        V = np.stack(list(F) + [1j * row for row in F] + [nu], axis=1)
        J = np.concatenate([eval_basis_jacobian(B, z) for B in Phi.blocks])
        D = J @ V
        out.append(np.linalg.svd(np.concatenate([D.real, D.imag]), compute_uv=False))
    return np.array(out)


def jacobian_smallest_singular_value(Phi, x):
    """Smallest singular value of the real Jacobian of Phi on T_x X, by the
    real-frame route of jacobian_spectra_loop."""
    return float(jacobian_spectra_loop(Phi, np.reshape(x, (1, -1)))[0, -1])


def reeb_image(Phi, x):
    """d Phi (T) computed geometrically; equals i * (w_j Phi_j(x)) exactly."""
    from szegolab.basis import eval_basis_jacobian

    J = np.concatenate([eval_basis_jacobian(B, x) for B in Phi.blocks])
    return J @ Phi.manifold.reeb_vector(x)


def search_embedding(M, m_start, m_max, pair_count=2000, threshold=0.05, seed=0, **kwargs):
    """(m, Phi, report) for the first base level whose separation certificate passes."""
    from szegolab.embedding import build_embedding, separation_report

    for m in range(m_start, m_max + 1):
        Phi = build_embedding(M, m, seed=seed, **kwargs)
        report = separation_report(Phi, pair_count=pair_count, threshold=threshold, seed=seed)
        if not report.violations:
            return m, Phi, report
    raise RuntimeError(f"no embedding certificate up to m = {m_max}")


def sample_hypersurface_one_shot(M, count, seed=0):
    """(points, weights) of radial-projection sampling with every direction
    drawn at once and projected in one pass: the sampler before it streamed."""
    from szegolab import integrate

    U = integrate._uniform_directions(M.n, count, integrate._rng(seed))
    t = integrate.radial_roots(M, U)
    X = U * t[:, None]
    rho_z = M.rho.z_gradient(X)
    grad_norm = 2.0 * np.linalg.norm(rho_z, axis=1)
    radial = 2.0 * np.sum(X * rho_z, axis=1).real
    return X, integrate.sphere_area(M.n) / count * t ** (2 * M.n) * grad_norm / radial


def horner_two_pass(C, t):
    """Values and derivatives at t of the polynomials with ascending
    coefficient rows C: two Horner passes, one over the derivative's
    coefficients."""
    f, df = C[-1], C[-1] * (len(C) - 1)
    for d in range(len(C) - 2, -1, -1):
        f = f * t + C[d]
        if d:
            df = df * t + C[d] * d
    return f, df


def radial_roots_doubling(M, U):
    """First positive root of rho(t u) per row of U, bracketed by doubling.

    The bracket radial_roots used before its grid was uniform: the upper end
    is the first of t = 1, 2, 4, 8 where rho >= 0, the lower end the one
    before it or 0, and a ray still negative at t = 8 gets NaN.  Each
    bracketed ray is solved by safeguarded_newton on two Horner passes.
    """
    from szegolab.geometry import safeguarded_newton

    C = M.rho.ray_coefficients(U)
    grid = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    nonneg = np.stack([horner_two_pass(C.T, np.full(len(C), t))[0] >= 0 for t in grid[1:]], axis=1)
    bracketed = np.flatnonzero(nonneg.any(axis=1))
    upper = np.argmax(nonneg[bracketed], axis=1) + 1
    roots = np.full(len(C), np.nan)
    Cb = C[bracketed].T
    roots[bracketed] = safeguarded_newton(
        lambda t: horner_two_pass(Cb, t), grid[upper - 1], grid[upper]
    )
    return roots


def derivative_table_fractions(terms, n, z_vars, zbar_vars):
    """(A, B, C) of geometry._derivative_table with every entry summed as a
    Fraction and converted to float once: the table before its entries were
    written as floats directly."""

    def lower(e, j):
        if j is None:
            return 1, e
        return e[j], e[:j] + (e[j] - 1,) + e[j + 1 :]

    columns = [(j, k) for j in z_vars for k in zbar_vars]
    rows = {}
    for (a, b), c in terms.items():
        for col, (j, k) in enumerate(columns):
            fa, da = lower(a, j)
            fb, db = lower(b, k)
            if fa and fb:
                rows.setdefault((da, db), [Fraction(0)] * len(columns))[col] += c * fa * fb
    A = np.array([a for a, _ in rows], dtype=np.int64).reshape(-1, n)
    B = np.array([b for _, b in rows], dtype=np.int64).reshape(-1, n)
    C = np.array([[float(c) for c in row] for row in rows.values()]).reshape(-1, len(columns))
    return A, B, C


def example2_terms_fractions():
    """The terms of example2's rho, |z1|^2 + |z2|^2 + |z3|^2 + |z1^2 + z2|^4
    + |z2^3 + z3|^6 - 1, as {(a, b): Fraction}: each power (u + v)^k of two
    monomials expanded by the binomial theorem, every sum started at
    Fraction(0)."""
    n = 3
    zero = (0,) * n
    terms = {}

    def add(key, c):
        terms[key] = terms.get(key, Fraction(0)) + c

    for j in range(n):
        e = tuple(int(k == j) for k in range(n))
        add((e, e), Fraction(1))
    add((zero, zero), Fraction(-1))
    for u, v, k in (((2, 0, 0), (0, 1, 0), 2), ((0, 3, 0), (0, 0, 1), 3)):
        power = [
            (Fraction(math.comb(k, i)), tuple(i * x + (k - i) * y for x, y in zip(u, v)))
            for i in range(k + 1)
        ]
        for ca, ea in power:
            for cb, eb in power:
                add((ea, eb), ca * cb)
    return terms


def volume_density_gram_determinant(M, x):
    """Compliant-metric volume density at a point x (n,), as the
    Gram-determinant ratio over a real frame of the tangent space: Euclidean
    inner products on one side, the compliant metric (Euclidean on H, unit
    rotation field orthogonal to H) on the other."""
    import math

    frame = M.holomorphic_tangent_frame(x)
    T = M.reeb_vector(x)
    rho_z = M.rho.z_gradient(x)
    scale = -1.0 / transversal_pairing(M, x)
    real_frame = [row for row in frame] + [1j * row for row in frame] + [T]
    dim = len(real_frame)
    G_e = np.empty((dim, dim))
    G_g = np.empty((dim, dim))
    # T-component of a tangent vector is -omega0(v); the remainder lies in H.
    comps = []
    for v in real_frame:
        a = -scale * float(np.imag(np.sum(rho_z * v)))
        comps.append((v - a * T, a))
    for i, (hi, ai) in enumerate(comps):
        for j, (hj, aj) in enumerate(comps):
            G_e[i, j] = float(np.real(np.vdot(real_frame[j], real_frame[i])))
            G_g[i, j] = float(np.real(np.vdot(hj, hi))) + ai * aj
    det_e = np.linalg.det(G_e)
    det_g = np.linalg.det(G_g)
    assert det_e > 0 and det_g > 0, "degenerate tangent frame"
    return math.sqrt(det_g / det_e)


def strata_orders_loop(M, samples=32, seed=0):
    """StrataOrders of M certified one support pattern at a time.

    The loop that Manifold.strata_orders replaced: every pattern draws its own
    directions from one Philox stream seeded by seed and takes its own
    radial_roots call, and on a sphere every pattern is taken as realized
    without a ray.
    """
    import math

    from szegolab.errors import SamplingError
    from szegolab.geometry import StrataOrders
    from szegolab.integrate import radial_roots

    n = M.n
    patterns = []
    unconfirmed_orders = set()
    confirmed_orders = set()
    rng = np.random.Generator(np.random.Philox(seed))
    for mask in range(1, 2**n):
        support = tuple(j for j in range(n) if mask >> j & 1)
        k = math.gcd(*(M.weights.weights[j] for j in support))
        if M.kind == "sphere":
            patterns.append((support, k))
            confirmed_orders.add(k)
            continue
        g = rng.normal(size=(samples, len(support), 2))
        u = g[..., 0] + 1j * g[..., 1]
        norm = np.linalg.norm(u, axis=1)
        keep = (norm >= 1e-12) & (np.min(np.abs(u), axis=1) >= 0.05 * norm)
        U = np.zeros((int(keep.sum()), n), dtype=complex)
        U[:, list(support)] = u[keep] / norm[keep, None]
        try:
            found = bool(np.any(np.isfinite(radial_roots(M, U))))
        except SamplingError:
            found = False
        if found:
            patterns.append((support, k))
            confirmed_orders.add(k)
        else:
            unconfirmed_orders.add(k)
    unconfirmed_orders -= confirmed_orders
    return StrataOrders(
        tuple(sorted(confirmed_orders)), tuple(sorted(unconfirmed_orders)), tuple(patterns)
    )


def stratum_info(M, z):
    """(order, support, near_stratum) of one point z (n,), coordinate by coordinate.

    The per-point rule that Manifold.strata_of vectorizes: the support is
    the coordinates above ZERO_TOLERANCE in modulus, the order is the gcd of
    the weights there, and a support coordinate below NEAR_STRATUM_TOLERANCE
    makes the point near-stratum.
    """
    import math

    from szegolab.errors import NotOnSurfaceError
    from szegolab.geometry import NEAR_STRATUM_TOLERANCE, ZERO_TOLERANCE

    mags = np.abs(np.asarray(z, dtype=complex))
    support = tuple(int(j) for j in np.nonzero(mags > ZERO_TOLERANCE)[0])
    if not support:
        raise NotOnSurfaceError("all coordinates vanish; the origin is not on X")
    near = bool(np.any((mags > ZERO_TOLERANCE) & (mags < NEAR_STRATUM_TOLERANCE)))
    return math.gcd(*(M.weights.weights[j] for j in support)), support, near


def ratio_worst_loop(B_low, B_high, Z, x0):
    """(max |1 - R|, max |I|) of R + iI = S_high(z, x0) / S_low(z, x0) over
    the rows z of Z, one point at a time; (inf, inf) at the first point whose
    ratio is undefined (|S_low(z, x0)| below RATIO_FLOOR times its scale).

    The per-point loop that kernel.ratio_search replaced by one batched
    ratio_diagnostic call: each kernel value is a sum of one point's
    eval_basis products, divided in Python complex arithmetic.
    """
    import math

    from szegolab.basis import eval_basis
    from szegolab.kernel import RATIO_FLOOR

    f0_low, f0_high = eval_basis(B_low, x0), eval_basis(B_high, x0)
    d0 = float(np.sum(np.abs(f0_low) ** 2))
    worst_r, worst_i = 0.0, 0.0
    for z in Z:
        f_low = eval_basis(B_low, z)
        low = complex(np.sum(f_low * f0_low.conj()))
        high = complex(np.sum(eval_basis(B_high, z) * f0_high.conj()))
        scale = math.sqrt(max(float(np.sum(np.abs(f_low) ** 2)) * d0, 1e-300))
        if abs(low) < RATIO_FLOOR * scale:
            return math.inf, math.inf
        r = high / low
        worst_r, worst_i = max(worst_r, abs(1.0 - r.real)), max(worst_i, abs(r.imag))
    return worst_r, worst_i


def integrate_surface(f, S: SampleSet, density=None) -> tuple[complex, float]:
    """Weighted Monte-Carlo mean of f over X; returns (estimate, stderr).

    f maps an (N, n) coordinate array to an (N,) array.  The optional density
    reweights the surface measure pointwise.
    """
    vals = np.asarray(f(S.points))
    c = S.weights if density is None else S.weights * np.asarray(density(S.points))
    contrib = c * vals
    estimate = np.sum(contrib)
    per_draw = contrib * S.count  # single-draw unbiased estimates
    stderr = float(np.std(per_draw) / math.sqrt(S.count))
    return estimate, stderr


def component_orthogonality(
    M: Manifold,
    B1: FourierBasis,
    B2: FourierBasis,
    samples: int = 50_000,
    seed: int = 0,
    sample_set: SampleSet | None = None,
) -> tuple[float, float]:
    """Max |<f, g>| Monte-Carlo estimate across the two levels, with max stderr.

    Levels must differ; distinct Fourier components are orthogonal for any
    invariant measure.
    """
    if B1.level == B2.level:
        raise ValueError("components at equal levels are not orthogonal")
    S = sample_set if sample_set is not None else surface_samples(M, samples, seed)
    F = eval_basis_batch(B1, S.points)
    G = eval_basis_batch(B2, S.points)
    c = S.weights * compliant_density(M, S.points)
    inner = (F * c[:, None]).T @ G.conj()
    t2 = (np.abs(F) ** 2 * (S.count * c**2)[:, None]).T @ (np.abs(G) ** 2)
    var = np.maximum(t2 - np.abs(inner) ** 2, 0.0)
    stderr = np.sqrt(var / max(S.count - 1, 1))
    return float(np.abs(inner).max()), float(stderr.max())
