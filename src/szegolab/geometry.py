"""Circle-invariant hypersurfaces in C^n and their contact/Levi geometry.

A manifold here is a compact real hypersurface X = {rho = 0} in C^n together
with a diagonal circle action

    e^{i theta} . (z_1, ..., z_n) = (e^{i w_1 theta} z_1, ..., e^{i w_n theta} z_n)

with positive integer weights w_j, gcd 1, leaving rho invariant.  The module
provides the induced rotation field T, the stratification of X by stabilizer
order, orthonormal frames of the holomorphic tangent space H = ker(d_z rho),
the contact form normalized against T, the Levi form with respect to the
compliant metric (Euclidean on H, T unit and orthogonal to H), the volume
density of that metric relative to Euclidean surface measure, and the distance
between circle orbits.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidSurfaceError,
    NotOnSurfaceError,
    PseudoconvexityError,
    SamplingError,
    SingularPointError,
    TransversalityError,
)

# Support below this is treated as an exact zero when computing stabilizer
# orders; the band up to NEAR_STRATUM_TOLERANCE is flagged in reports because
# the stabilizer order is discontinuous there.
ZERO_TOLERANCE = 1e-9
NEAR_STRATUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class WeightVector:
    """Integer weights (w_1, ..., w_n) of a diagonal circle action."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValueError("empty weight vector")
        # a bool or a float is not an integer weight
        if any(type(w) is not int or w < 1 for w in self.weights):
            raise ValueError(f"weights must be positive integers, got {self.weights}")

    @classmethod
    def normalized(cls, weights: Iterable[int]) -> tuple["WeightVector", int]:
        """Check the weights as given, then divide out their common factor;
        returns (vector, divisor)."""
        given = cls(tuple(weights))
        g = math.gcd(*given.weights)
        return (cls(tuple(w // g for w in given.weights)) if g > 1 else given), g

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.int64)

    @property
    def lcm(self) -> int:
        return math.lcm(*self.weights)


def term_exponents(a, b, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The exponents of the monomial z^a zbar^b as two tuples, after checking
    that a and b are each a list or tuple of n integers >= 0 (a bool or a
    float is not an integer); InvalidSurfaceError otherwise."""
    for e in (a, b):
        if not (isinstance(e, (list, tuple)) and len(e) == n
                and all(type(k) is int and k >= 0 for k in e)):
            raise InvalidSurfaceError(
                f"z_exponents {a!r} and zbar_exponents {b!r} must each be {n} integers >= 0")
    return tuple(a), tuple(b)


def require_keys(obj: dict, keys: Sequence[str], what: str) -> None:
    """ValueError when the JSON value obj is not an object, or naming every
    key of keys that it lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__!r}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


# rows per block when many monomials are formed over many points
ROW_BLOCK = 2048

# Termination guard for safeguarded_newton, not a tolerance: example2 rays
# converge in at most 6 iterations from their 1/16 brackets (5 for most), and
# orbit angles in at most 7.
_MAX_ITERS = 60

# grid angles per full turn in the orbit distance scan
ORBIT_GRID = 720


def safeguarded_newton(fdf, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root per entry in (lo, hi], where f(lo) < 0 <= f(hi): Newton with bisection.

    fdf(t) returns (f, f') at every entry of the iterate array t.  Each entry
    starts from hi; the sign of f at every iterate shrinks its bracket, and a
    Newton step that leaves the bracket is replaced by bisection (rtsafe,
    Numerical Recipes section 9.4).  An entry freezes once its step or its
    bracket is within 4 ulp of t, or f is exactly 0 there; fdf still sees it,
    but its iterate no longer moves.  So when fdf works entry by entry, an
    entry runs the same iterates in any batch and its root does not depend
    on the other entries.
    """
    t, lo, hi = hi.copy(), lo.copy(), hi.copy()
    live = np.ones(t.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITERS):
            if not live.any():
                break
            f, df = fdf(t)
            below = f < 0
            np.copyto(lo, t, where=below)
            np.copyto(hi, t, where=~below)
            newton = t - f / df
            tol = 4.0 * np.spacing(np.abs(t))
            converged = np.abs(newton - t) <= tol
            live &= f != 0  # an exact zero stays put, even where the step is NaN
            inside = converged | ((newton > lo) & (newton < hi))
            np.copyto(t, np.where(inside, newton, 0.5 * (lo + hi)), where=live)
            live &= ~(converged | (hi - lo <= tol))
    return t


def power_table(base: np.ndarray, e_max: int) -> np.ndarray:
    """P[e] = base**e for e = 0, ..., e_max, by repeated multiplication; float64
    from a float base, complex128 from any other."""
    P = np.empty((e_max + 1,) + base.shape, dtype=float if base.dtype.kind == "f" else complex)
    P[0] = 1.0
    for e in range(1, e_max + 1):
        np.multiply(P[e - 1], base, out=P[e])
    return P


def gather_products(powers: Sequence[np.ndarray], exps: np.ndarray) -> np.ndarray:
    """W[t, i] = prod_k powers[k][exps[t, k], i]: the rows of the power tables
    named by each exponent vector, multiplied together a table at a time."""
    W = powers[0][exps[:, 0]]
    for k in range(1, len(powers)):
        W *= powers[k][exps[:, k]]
    return W


def monomial_products(Z: np.ndarray, A, B=None, real: bool = False) -> np.ndarray:
    """Matrix V[i, t] = z_i^{A_t} zbar_i^{B_t} for points Z (N, n); Re(V) if real.

    A and B are (T, n) non-negative exponent arrays; B=None means holomorphic
    monomials.  In passes of rows that stay in cache, one power_table over the
    contiguous (n, rows) transpose, up to the largest exponent, gives each
    coordinate its slice, and one conj gives every table of zbar exactly;
    gather_products combines them.  V is C-ordered: a product against a
    transposed operand can round otherwise.
    """
    Z = np.asarray(Z, dtype=complex)
    n = Z.shape[1]
    exps = np.asarray(A, dtype=np.int64).reshape(-1, n)
    if B is not None:
        exps = np.hstack([exps, np.asarray(B, dtype=np.int64).reshape(-1, n)])
    e_max = int(exps.max(initial=0))
    V = np.empty((Z.shape[0], len(exps)), dtype=float if real else complex)
    rows = max(1, 16_384 // max(len(exps), 1))
    for start in range(0, Z.shape[0], rows):
        P = power_table(np.ascontiguousarray(Z[start : start + rows].T), e_max)
        powers = list(P.swapaxes(0, 1))
        if B is not None:
            powers += list(P.conj().swapaxes(0, 1))
        W = gather_products(powers, exps)
        V[start : start + rows] = (W.real if real else W).T
    return V


def _lower(e: tuple[int, ...], j):
    """(factor, exponents) of d/dx_j x^e; j=None leaves the monomial alone."""
    if j is None:
        return 1, e
    return e[j], e[:j] + (e[j] - 1,) + e[j + 1 :]


def _derivative_table(terms: dict, n: int, z_vars, zbar_vars):
    """(A, B, C) with d rho = monomial_products(Z, A, B) @ C.

    Column j * len(zbar_vars) + k of C holds the derivative by z_j and zbar_k,
    where a None variable means no derivative on that side.  Lowering an
    exponent is one-to-one, so no entry is a sum: each is one term's c fa fb,
    rounded once by int/int division, exactly as float(Fraction(c fa fb)) is.
    """
    columns = [(j, k) for j in z_vars for k in zbar_vars]
    rows: dict[tuple, list[float]] = {}
    for (a, b), c in terms.items():
        for col, (j, k) in enumerate(columns):
            fa, da = _lower(a, j)
            fb, db = _lower(b, k)
            if fa and fb:
                row = rows.setdefault((da, db), [0.0] * len(columns))
                row[col] = c.numerator * fa * fb / c.denominator
    A = np.array([a for a, _ in rows], dtype=np.int64).reshape(-1, n)
    B = np.array([b for _, b in rows], dtype=np.int64).reshape(-1, n)
    return A, B, np.array(list(rows.values())).reshape(-1, len(columns))


class DefiningPolynomial:
    """Real polynomial rho in (z, zbar) with rational coefficients.

    Terms are stored canonically as {(a, b): coeff} for the monomial
    z^a zbar^b.  Reality requires coeff(a, b) == coeff(b, a); invariance under
    the weighted action requires <a, w> == <b, w> for every term.
    """

    def __init__(self, n: int, terms: dict[tuple, Fraction | int | str]):
        self.n = n
        # a coefficient may be an int, a Fraction or a string such as "1/3";
        # term_exponents gives back each key's tuples unchanged, so no two
        # terms share a key and nothing is summed here
        canonical = {term_exponents(a, b, n): Fraction(c) for (a, b), c in terms.items()}
        self.terms = {k: c for k, c in sorted(canonical.items()) if c != 0}
        for (a, b), c in self.terms.items():
            if self.terms.get((b, a)) != c:
                raise InvalidSurfaceError(
                    f"rho is not real: coefficient of z^{a} zbar^{b} is {c} "
                    f"but coefficient of z^{b} zbar^{a} is {self.terms.get((b, a))}"
                )
        # float tables contracted against monomial_products; _hessian on first use
        self._value = _derivative_table(self.terms, n, [None], [None])
        self._gradient = _derivative_table(self.terms, n, range(n), [None])
        # rho(t u) = sum_d t^d (sum of the terms of total degree d at u)
        A, B, C = self._value
        degree = A.sum(axis=1) + B.sum(axis=1)
        by_degree = np.zeros((len(C), int(degree.max(initial=0)) + 1))
        by_degree[np.arange(len(C)), degree] = C[:, 0]
        self._ray = (A, B, by_degree)

    @functools.cached_property
    def _hessian(self):
        return _derivative_table(self.terms, self.n, range(self.n), range(self.n))

    def check_invariance(self, weights: WeightVector) -> None:
        A, B, _ = self._value  # one row per term, in the order of self.terms
        wa, wb = A @ weights.array, B @ weights.array
        bad = np.flatnonzero(wa != wb)
        if bad.size:
            i = int(bad[0])
            a, b = list(self.terms)[i]
            raise InvalidSurfaceError(
                f"rho is not invariant: term z^{a} zbar^{b} has weighted "
                f"bidegree ({wa[i]}, {wb[i]})"
            )

    def _contract(self, table, Z: np.ndarray, real: bool) -> np.ndarray:
        """monomial_products(Z, A, B) @ C over the rows of Z (N, n), block by block.

        real=True contracts Re(V), which equals Re(V @ C) for real coefficients.
        """
        A, B, C = table
        out = np.empty((Z.shape[0], C.shape[1]), dtype=float if real else complex)
        for start in range(0, Z.shape[0], ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            np.matmul(monomial_products(Z[rows], A, B, real), C, out=out[rows])
        return out

    def value(self, Z: np.ndarray) -> np.ndarray:
        """rho at one point (n,) or a batch (N, n); returns real array."""
        Z = np.asarray(Z, dtype=complex)
        out = self._contract(self._value, Z.reshape(-1, self.n), real=True)[:, 0]
        return out[0] if Z.ndim == 1 else out

    def z_gradient(self, Z: np.ndarray) -> np.ndarray:
        """Holomorphic derivatives (d rho / d z_j); shape (n,) or (N, n)."""
        Z = np.asarray(Z, dtype=complex)
        out = self._contract(self._gradient, Z.reshape(-1, self.n), real=False)
        return out[0] if Z.ndim == 1 else out

    def zz_hessian(self, z: np.ndarray) -> np.ndarray:
        """Mixed complex Hessian H[j, k] = d^2 rho / d z_j d zbar_k at one point."""
        z = np.asarray(z, dtype=complex).reshape(1, self.n)
        return self._contract(self._hessian, z, real=False).reshape(self.n, self.n)

    def ray_coefficients(self, U: np.ndarray) -> np.ndarray:
        """C[i, d] with rho(t u_i) = sum_d C[i, d] t^d for real t, rows u_i of U (N, n)."""
        return self._contract(self._ray, np.asarray(U, dtype=complex), real=True)

    def to_json_terms(self) -> list[dict]:
        return [
            {"coeff": str(c), "z_exponents": list(a), "zbar_exponents": list(b)}
            for (a, b), c in self.terms.items()
        ]


def holomorphic_power_terms(
    poly: dict[tuple, Fraction | int], n: int, power: int
) -> dict[tuple, Fraction]:
    """Expand |p|^(2 power) for a holomorphic polynomial p into (a, b) terms.

    The coefficients of p may be ints or Fractions: p^power is formed in
    their own exact arithmetic, and each term's coefficient is made a
    Fraction once.
    """
    p_pow = {(0,) * n: 1}
    for _ in range(power):
        product: dict[tuple, Fraction | int] = {}
        for ea, ca in p_pow.items():
            for eb, cb in poly.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                product[e] = product[e] + ca * cb if e in product else ca * cb
        p_pow = product
    return {(ea, eb): Fraction(ca * cb) for ea, ca in p_pow.items() for eb, cb in p_pow.items()}


@dataclass(frozen=True)
class StrataOrders:
    """Stabilizer orders realized on X, with their certifying support patterns."""

    orders: tuple[int, ...]
    unconfirmed: tuple[int, ...]
    support_patterns: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def max_order(self) -> int:
        return max(self.orders + self.unconfirmed)

    def singular_patterns(self) -> list[tuple[tuple[int, ...], int]]:
        return [(s, k) for s, k in self.support_patterns if k > 1]


@dataclass(frozen=True)
class LeviData:
    """Levi form data at a point, in the compliant-metric normalization."""

    eigenvalues: tuple[float, ...]
    determinant: float
    contact_scale: float
    volume_density: float


def _holomorphic_frames(rho_z: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ker(d_z rho) per row of rho_z (P, n): (P, n-1, n)."""
    if np.any(np.linalg.norm(rho_z, axis=1) < 1e-10):
        raise SingularPointError("d rho vanishes at the requested point")
    _, _, vh = np.linalg.svd(rho_z[:, None, :], full_matrices=True)
    return vh[:, 1:].conj()


def compliant_density_from_gradient(M: Manifold, Z: np.ndarray, rho_z: np.ndarray) -> np.ndarray:
    """Compliant-metric volume density relative to Euclidean surface measure at
    the rows of Z, from the gradient rho_z = (d rho / d z_j) there:
    |d_z rho| / Re sum_j w_j z_j d rho / d z_j."""
    denom = np.sum(M.weights.array * Z * rho_z, axis=-1).real
    return np.linalg.norm(rho_z, axis=-1) / denom


def _unit_sphere_terms(n: int) -> dict[tuple, Fraction]:
    """Terms of |z|^2 - 1 in C^n."""
    terms: dict[tuple, Fraction] = {}
    for j in range(n):
        e = tuple(1 if k == j else 0 for k in range(n))
        terms[(e, e)] = Fraction(1)
    zero = tuple([0] * n)
    terms[(zero, zero)] = Fraction(-1)
    return terms


def _ambient_dimension(n: int) -> int:
    if n < 2:
        raise ValueError(f"ambient dimension n must be >= 2, got {n}")
    return n


class Manifold:
    """Circle-invariant hypersurface {rho = 0} with a diagonal action."""

    # largest |rho| accepted at a point of X
    surface_tolerance = 1e-8

    def __init__(self, n: int, weights: WeightVector | Sequence[int], rho: DefiningPolynomial):
        self.n = _ambient_dimension(n)
        self.warnings: list[str] = []
        weights, divisor = WeightVector.normalized(weights)
        if divisor > 1:
            msg = f"weights had common factor {divisor}; normalized to {weights.weights}"
            self.warnings.append(msg)
            warnings.warn(msg)
        if len(weights) != n:
            raise ValueError("weights length must equal n")
        self.weights = weights
        self.weight_divisor = divisor
        self.rho = rho
        rho.check_invariance(weights)

    @functools.cached_property
    def kind(self) -> str:
        """"sphere" when rho is |z|^2 - 1, else "hypersurface"; it selects the
        exact sphere routes, so it is derived from rho and never given.
        Computed on first use, then kept."""
        return "sphere" if self.rho.terms == _unit_sphere_terms(self.n) else "hypersurface"

    # -- construction -----------------------------------------------------

    @classmethod
    def sphere(cls, n: int, weights: Sequence[int] | None = None) -> "Manifold":
        """Unit sphere |z|^2 = 1 with the given rotation weights."""
        n = _ambient_dimension(n)
        weights = tuple(weights) if weights is not None else tuple([1] * n)
        return cls(n, weights, DefiningPolynomial(n, _unit_sphere_terms(n)))

    @classmethod
    def invariant_hypersurface_example(cls) -> "Manifold":
        """|z1|^2+|z2|^2+|z3|^2+|z1^2+z2|^4+|z2^3+z3|^6 = 1, weights (1, 2, 6)."""
        n = 3
        zero = (0,) * n
        terms: dict[tuple, Fraction | int] = {(e, e): 1 for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
        terms[(zero, zero)] = -1
        for p, power in (({(2, 0, 0): 1, (0, 1, 0): 1}, 2), ({(0, 3, 0): 1, (0, 0, 1): 1}, 3)):
            for k, c in holomorphic_power_terms(p, n, power).items():
                terms[k] = terms[k] + c if k in terms else c
        return cls(n, (1, 2, 6), DefiningPolynomial(n, terms))

    @classmethod
    def from_spec(cls, spec: dict) -> "Manifold":
        """Build from the JSON manifold description (see README for the schema);
        a "kind" given there must be the one rho implies."""
        require_keys(spec, ("n", "weights", "rho"), "manifold spec")
        # no value is coerced: WeightVector checks the weights as given, and
        # term_exponents the exponents
        for key, kind, name in (("n", int, "integer"), ("weights", list, "list"),
                                ("rho", list, "list")):
            if type(spec[key]) is not kind:
                raise ValueError(f"manifold spec {key!r} must be a JSON {name}, "
                                 f"got {type(spec[key]).__name__!r}")
        n = _ambient_dimension(spec["n"])
        terms: dict[tuple, Fraction] = {}
        for t in spec["rho"]:
            require_keys(t, ("z_exponents", "zbar_exponents", "coeff"), f"rho term {t}")
            key = term_exponents(t["z_exponents"], t["zbar_exponents"], n)
            try:
                c = Fraction(str(t["coeff"]))
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"rho term {t}: coeff {t['coeff']!r} is not a rational number") from None
            terms[key] = terms[key] + c if key in terms else c
        M = cls(n, spec["weights"], DefiningPolynomial(n, terms))
        if spec.get("kind", M.kind) != M.kind:
            raise ValueError(f"manifold spec says kind {spec['kind']!r}, but its rho makes it a {M.kind}")
        return M

    def to_spec(self) -> dict:
        return {
            "n": self.n,
            "weights": list(self.weights.weights),
            "kind": self.kind,
            "rho": self.rho.to_json_terms(),
        }

    @property
    def content_hash(self) -> str:
        blob = json.dumps(self.to_spec(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- points and the action --------------------------------------------

    def point(self, coordinates) -> np.ndarray:
        """coordinates as a complex (n,) array, after checking it lies on X."""
        z = np.asarray(coordinates, dtype=complex)
        if z.shape != (self.n,):
            raise ValueError(f"expected {self.n} coordinates, got shape {z.shape}")
        self._require_on_surface(z[None, :])
        return z

    def points(self, Z: np.ndarray) -> np.ndarray:
        """Z (N, n) as a complex array, after one rho pass has checked every row lies on X."""
        Z = np.asarray(Z, dtype=complex)
        self._require_on_surface(Z)
        return Z

    def _require_on_surface(self, Z: np.ndarray) -> None:
        """NotOnSurfaceError naming |rho| at the first row of Z off X, if any;
        a row where rho is not finite is off X."""
        with np.errstate(invalid="ignore", over="ignore"):  # inf or nan coordinates
            residuals = np.abs(self.rho.value(Z))
        off = np.flatnonzero(~(residuals <= self.surface_tolerance))
        if off.size:
            raise NotOnSurfaceError(
                f"|rho(x)| = {residuals[off[0]]:.3e} exceeds tolerance {self.surface_tolerance:.1e}"
            )

    def act(self, theta, Z: np.ndarray) -> np.ndarray:
        """e^{i theta} . Z for a point (n,) or rows (P, n); theta may be scalar
        or an array broadcast over rows."""
        theta = np.asarray(theta, dtype=float)
        phases = np.exp(1j * np.multiply.outer(theta, self.weights.array.astype(float)))
        return np.asarray(Z, dtype=complex) * phases

    def reeb_vector(self, x: np.ndarray) -> np.ndarray:
        """Generator of the action at x: d/dtheta of the orbit, i * (w_j x_j)."""
        return 1j * self.weights.array * np.asarray(x, dtype=complex)

    def strata_of(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(orders, near) per row of Z (P, n).

        The stabilizer order of a point is the least k with
        e^{2 pi i / k} . z = z: the gcd of the weights on its support, the
        coordinates above ZERO_TOLERANCE in modulus.  near flags the rows with
        a support coordinate below NEAR_STRATUM_TOLERANCE, where the order
        jumps.  A row without support raises NotOnSurfaceError.
        """
        mags = np.abs(np.asarray(Z, dtype=complex))
        on = mags > ZERO_TOLERANCE
        if not np.all(np.any(on, axis=1)):
            raise NotOnSurfaceError("all coordinates vanish; the origin is not on X")
        orders = np.gcd.reduce(np.where(on, self.weights.array, 0), axis=1)
        return orders, np.any(on & (mags < NEAR_STRATUM_TOLERANCE), axis=1)

    def stratum_order(self, x: np.ndarray) -> int:
        """The stabilizer order of the point x (n,) (see strata_of)."""
        return int(self.strata_of(np.reshape(x, (1, self.n)))[0][0])

    @functools.cached_property
    def strata(self) -> StrataOrders:
        """The strata of X: strata_orders() on first use, then kept."""
        return self.strata_orders()

    def strata_orders(self) -> StrataOrders:
        """Stabilizer orders realized by points of X.

        Candidate orders are gcds of nonempty weight subsets.  Each support
        pattern S is certified by a point of X supported exactly there: its
        witness ray u_S = 1_S / sqrt(|S|), every support coordinate equal, goes
        through one integrate.ray_brackets pass with the other 2^n - 2, and S
        is confirmed when its ray is bracketed, the rays on which radial_roots
        finds a root, so no root is solved and no random number is drawn.
        On a compact X star-shaped about 0 every ray meets X, so the witness
        confirms exactly the patterns that any other rays in S would.  Patterns
        that fail certification are reported as unconfirmed, not dropped; when
        rho(0) >= 0 no ray meets X and every pattern is unconfirmed.
        """
        from .integrate import ray_brackets  # integrate builds on this module

        on = ((np.arange(1, 2**self.n)[:, None] >> np.arange(self.n)) & 1).astype(bool)
        try:
            found = ray_brackets(self, on / np.sqrt(on.sum(axis=1, keepdims=True)))[1] > 0
        except SamplingError:  # rho(0) >= 0: no ray from the origin meets X
            found = np.zeros(len(on), dtype=bool)
        supports = [tuple(np.flatnonzero(row).tolist()) for row in on]
        orders = self.strata_of(on)[0].tolist()
        confirmed = {k for k, certified in zip(orders, found) if certified}
        return StrataOrders(
            tuple(sorted(confirmed)),
            tuple(sorted(set(orders) - confirmed)),
            tuple((s, k) for s, k, certified in zip(supports, orders, found) if certified),
        )

    # -- tangent structure -------------------------------------------------

    def holomorphic_tangent_frame(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal rows xi with sum_j (d rho/d z_j) xi_j = 0; shape (n-1, n)."""
        return _holomorphic_frames(self.rho.z_gradient(x)[None, :])[0]

    def levi_form(self, x: np.ndarray) -> LeviData:
        """Levi form eigenvalues at x with respect to the compliant metric.

        The matrix is the mixed Hessian of rho restricted to an orthonormal
        frame of H, divided by the transversal pairing
        Re sum_j w_j x_j (d rho / d z_j), the pairing of Im(d_z rho) with the
        rotation field.  That normalization makes the contact form, scaled by
        contact_scale = -1 / pairing, evaluate to -1 on the rotation field,
        and on the standard sphere every eigenvalue equals 1.  One gradient
        and one Hessian evaluation serve every field.
        """
        z = np.asarray(x, dtype=complex)
        rho_z = self.rho.z_gradient(z[None, :])
        frame = _holomorphic_frames(rho_z)[0]
        self.point(z)  # NotOnSurfaceError off X, once d rho is known not to vanish
        pairing = float(np.sum(self.weights.array * z * rho_z[0]).real)
        if pairing <= 0:
            raise TransversalityError(f"transversal pairing {pairing:.3e} <= 0")
        eigs = np.linalg.eigvalsh(frame @ self.rho.zz_hessian(z) @ frame.conj().T / pairing)
        if eigs[0] <= 0:
            raise PseudoconvexityError(
                f"Levi eigenvalue {eigs[0]:.3e} <= 0 at {x}"
            )
        return LeviData(
            eigenvalues=tuple(float(e) for e in eigs),
            determinant=float(np.prod(eigs)),
            contact_scale=-1.0 / pairing,
            volume_density=float(compliant_density_from_gradient(self, z, rho_z[0])),
        )

    # -- orbit distance ----------------------------------------------------

    def quotient_distance(self, x: np.ndarray, y: np.ndarray) -> float:
        """min over theta of |x - e^{i theta}.y| (Euclidean; see orbit_distance_batch)."""
        d, _ = self.orbit_distance_batch(np.reshape(x, (1, self.n)), np.reshape(y, (1, self.n)))
        return float(d[0])

    def orbit_distance_batch(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized orbit distance for row-paired points; returns (dist, theta*).

        |x - e^{i theta}.y|^2 = |x|^2 + |y|^2 - 2 Re sum_j c_j e^{i w_j theta}
        with c = conj(x) y.  A grid of ORBIT_GRID angles, scanned ROW_BLOCK
        pairs at a time so that memory does not grow with the pair count
        beyond O(P n), picks the best grid angle; its two neighbours bracket
        the minimum, where safeguarded_newton solves the slope
        2 Im sum_j w_j c_j e^{i w_j theta} = 0 to machine precision.  A pair
        whose slope does not change sign across the bracket (c = 0, say)
        keeps the grid angle, and so does one whose grid point is closer.
        """
        X = np.asarray(X, dtype=complex)
        Y = np.asarray(Y, dtype=complex)
        w = self.weights.array.astype(float)
        c = X.conj() * Y  # (P, n)
        thetas = np.linspace(0.0, 2 * np.pi, ORBIT_GRID, endpoint=False)
        phase = np.exp(1j * np.outer(w, thetas))
        best = np.empty(c.shape[0], dtype=np.int64)
        for start in range(0, c.shape[0], ROW_BLOCK):
            block = c[start:start + ROW_BLOCK]
            # a lone row is scanned twice: numpy's gemv rounds otherwise than gemm
            scan = (block if len(block) > 1 else block.repeat(2, axis=0)) @ phase
            best[start:start + len(block)] = np.argmax(scan.real, axis=1)[:len(block)]
        theta_grid = thetas[best]
        h = 2 * np.pi / ORBIT_GRID
        cw = c * w
        lo, hi = theta_grid - h, theta_grid + h
        slope_lo, slope_hi = (2.0 * np.sum(cw * np.exp(1j * np.outer(t, w)), axis=1).imag
                              for t in (lo, hi))
        bracketed = np.flatnonzero((slope_lo < 0) & (slope_hi >= 0))
        cw, cw2 = cw[bracketed], c[bracketed] * w**2

        def slope_curvature(t):
            ph = np.exp(1j * np.outer(t, w))
            return 2.0 * np.sum(cw * ph, axis=1).imag, 2.0 * np.sum(cw2 * ph, axis=1).real

        theta_star = theta_grid.copy()
        theta_star[bracketed] = safeguarded_newton(slope_curvature, lo[bracketed], hi[bracketed])
        # the difference form is free of the cancellation that floors
        # |x|^2 + |y|^2 - 2 Re(...) at ~1e-8
        dist = np.linalg.norm(X - Y * np.exp(1j * np.outer(theta_star, w)), axis=1)
        dist_grid = np.linalg.norm(X - Y * np.exp(1j * np.outer(theta_grid, w)), axis=1)
        use_grid = dist_grid < dist
        dist = np.where(use_grid, dist_grid, dist)
        theta_star = np.where(use_grid, theta_grid, theta_star)
        return dist, np.mod(theta_star, 2 * np.pi)
