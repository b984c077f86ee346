"""Bregman divergences, centroids, clustering costs, and property checks.

Every measure is the Bregman divergence
``D(p, q) = phi(p) - phi(q) - <grad_phi(q), p - q>`` of a convex generator
``phi`` with a declared similarity floor ``mu`` in (0, 1].  A measure is one
small interface: validated scalar evaluation (``measure(p, q)``), the
divergence evaluated elementwise over broadcast coordinate arrays
(``rowwise``), the (n, m) table of every point against every center
(``pairwise``), and the structural constants

* ``mu``    -- similarity floor against a reference quadratic form
* ``alpha`` -- triangle relaxation D(p,q) <= alpha * (D(p,r) + D(r,q)); 2/mu
* ``beta``  -- symmetry relaxation beta * D(q,p) <= D(p,q) <= D(q,p) / beta; mu

For every Bregman divergence the arithmetic mean is the optimal single
center (Banerjee et al., *Clustering with Bregman Divergences*, JMLR 2005).
``rowwise`` defaults to the generator route; the named measures override it
with their closed forms, which ``bregman_form`` cross-checks independently.

``pairwise`` expands the generator route into one matrix product:
``D = phi(P)[:, None] - P @ grad_phi(C).T + (<grad_phi(C), C> - phi(C))[None, :]``.
Where the three terms cancel, the product loses the small value, so every entry
at or below a fixed small fraction of the terms' magnitude is recomputed with
``rowwise``.  Identical rows therefore give exactly 0, every entry is finite
and >= 0, and the other entries agree with the closed form to about
``d * 1e-9`` relative at worst.  On data far from the origin relative to its
spread the terms dwarf the distances, most entries need repair, and such
columns are recomputed whole, at about a tenth more than the closed form.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptySet,
    UnsupportedMeasure,
)

__all__ = [
    "Dataset",
    "DivergenceMeasure",
    "SquaredEuclidean",
    "Mahalanobis",
    "KullbackLeibler",
    "ItakuraSaito",
    "GenericBregman",
    "PropertyReport",
    "as_points",
    "centroid",
    "assign",
    "cluster_cost",
    "check_centroid_property",
    "check_mu_similarity",
    "symmetry_report",
    "triangle_report",
    "centroid_report",
    "mu_similarity_report",
]


def as_points(data):
    """Coerce ``data`` (Dataset, array-like, list of points) to an (n, d) float array."""
    pts = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D point array, got shape {pts.shape}")
    if pts.shape[0] == 0 or pts.shape[1] == 0:
        raise EmptySet("need at least one point with at least one coordinate")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must have finite coordinates")
    return pts


def _check_domain(points, domain):
    if domain == "unrestricted":
        return
    if domain == "positive":
        if np.any(points <= 0.0):
            raise DomainError("all coordinates must be strictly positive")
        return
    lo, hi = domain
    if np.any(points < lo) or np.any(points > hi):
        raise DomainError(f"coordinates must lie in [{lo}, {hi}]")


class Dataset:
    """A dense (n, d) batch of points plus the validity domain they live in.

    ``domain`` is one of ``"unrestricted"``, ``"positive"``, or an
    ``(lo, hi)`` pair meaning every coordinate lies in the closed box.
    """

    def __init__(self, points, domain="unrestricted"):
        self.points = as_points(points)
        self.domain = domain
        _check_domain(self.points, domain)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Dataset(n={self.n}, dim={self.dim}, domain={self.domain!r})"


@dataclass
class PropertyReport:
    """Outcome of an empirical property trial.

    ``passed`` defaults to "no violations"; probabilistic checks override it
    with their own success criterion (e.g. a minimum success rate).
    """

    property: str
    trials: int
    violations: int
    worst_ratio: float
    tolerance: float
    passed: bool = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed is None:
            self.passed = self.violations == 0
        if not np.isfinite(self.worst_ratio):
            raise ValueError("worst_ratio must be finite")
        if self.violations > self.trials:
            raise ValueError("violations cannot exceed trials")

    def to_dict(self):
        return {
            "property": self.property,
            "trials": self.trials,
            "violations": self.violations,
            "worst_ratio": self.worst_ratio,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": _jsonable(self.details),
        }


def _jsonable(value):
    """``value`` with numpy arrays and scalars turned into plain JSON-ready Python."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _generator(rng):
    """Accept either a numpy Generator or anything exposing ``.generator``."""
    return getattr(rng, "generator", rng)


# ``pairwise`` recomputes in closed form every generator-table entry at or
# below this share of the terms' magnitude S.  The table's rounding error is
# about d * u * S (u = 2**-53), so the entries it keeps are within about
# d * u / _REPAIR_TAU of the closed form.
_REPAIR_TAU = 1e-7

# A column with more than this share of its entries to repair is recomputed
# whole in closed form: gathering scattered pairs costs several times more per
# entry than one broadcast.  This is what happens on data far from the origin
# relative to its spread, where the terms dwarf the distances.
_WHOLE_COLUMN_SHARE = 0.25


def _checked_mu(mu):
    """``mu`` as a float, which must lie in (0, 1]."""
    mu = float(mu)
    if not (0.0 < mu <= 1.0):
        raise ConfigError(f"mu must lie in (0, 1], got {mu}")
    return mu


class DivergenceMeasure:
    """The Bregman divergence of ``phi``/``grad_phi``; subclasses declare ``mu``."""

    name = "divergence"
    domain = "unrestricted"
    box = None
    fixed_dim = None  # set when the measure only accepts one dimensionality

    @property
    def alpha(self):
        return 2.0 / self.mu

    @property
    def beta(self):
        return self.mu

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def rowwise(self, P, Q):
        """D applied over the broadcast of two coordinate arrays.

        The last axis holds coordinates.  No validation is performed; callers
        are expected to pass in-domain values.  Reported costs and potentials
        are evaluated here.  This is the generator route; a measure with a
        closed form overrides it.
        """
        return self.bregman_form(P, Q)

    def pairwise(self, P, C):
        """(n, m) table of D(P_i, C_j): the generator table plus its repair.

        One matrix product gives the table (see the module docstring) and
        entries at or below ``_REPAIR_TAU`` times a bound on the terms'
        magnitudes are recomputed by ``rowwise`` on just those pairs, or on
        the whole column where most of it needs that.

        Column j depends only on P and C_j: ``pairwise(P, C[:m])`` is bitwise
        the first m columns of ``pairwise(P, C)``.
        """
        P = np.asarray(P, dtype=float)
        C = np.asarray(C, dtype=float)
        if C.shape[0] == 1:
            # a 1-column product runs through gemv, whose bits differ from the
            # same column of a wider product; take it from a 2-column one
            return self.pairwise(P, np.repeat(C, 2, axis=0))[:, :1]
        phi_p, grad_c, phi_c = self.phi(P), self.grad_phi(C), self.phi(C)
        offset = np.einsum("ij,ij->i", grad_c, C) - phi_c
        table = P @ grad_c.T
        np.subtract(phi_p[:, None], table, out=table)
        table += offset
        # per-column bound on the terms, |P_i . grad_c_j| <= |P_i| |grad_c_j|:
        # which entries of column j get repaired depends on P and C_j only
        scale = (np.abs(phi_p).max(initial=0.0) + np.abs(offset)
                 + np.sqrt(np.einsum("ij,ij->i", P, P).max(initial=0.0)
                           * np.einsum("ij,ij->i", grad_c, grad_c)))
        n, m = table.shape
        # flat indices: a 2-D np.nonzero costs ten times more on these masks
        rows, cols = np.divmod(np.flatnonzero(~(table > _REPAIR_TAU * scale)), m)  # NaN too
        whole = np.bincount(cols, minlength=m) > _WHOLE_COLUMN_SHARE * n
        if whole.any():
            table[:, whole] = np.maximum(self.rowwise(P[:, None, :], C[None, whole, :]), 0.0)
            scattered = ~whole[cols]
            rows, cols = rows[scattered], cols[scattered]
        if rows.size:
            table[rows, cols] = np.maximum(self.rowwise(P[rows], C[cols]), 0.0)
        return table

    def __call__(self, p, q):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if p.ndim != 1 or q.ndim != 1:
            raise DimensionMismatch("scalar evaluation expects single points")
        if p.shape != q.shape:
            raise DimensionMismatch(f"dimension mismatch: {p.shape[0]} vs {q.shape[0]}")
        self.validate_points(p)
        self.validate_points(q)
        return float(self.rowwise(p, q))

    def validate_points(self, X):
        X = np.asarray(X, dtype=float)
        if not np.all(np.isfinite(X)):
            raise DomainError("coordinates must be finite")
        _check_domain(X, self.domain)
        return X

    # ------------------------------------------------------------------
    # convex-generator route
    # ------------------------------------------------------------------
    def phi(self, X):
        """The convex generator, mapping (..., d) arrays to (...) values."""
        raise NotImplementedError

    def grad_phi(self, X):
        """The generator's exact gradient, mapping (..., d) to (..., d)."""
        raise NotImplementedError

    def bregman_form(self, P, Q):
        """Evaluate D through phi(p) - phi(q) - <grad_phi(q), p - q>.

        Independent of a closed-form ``rowwise``, which it cross-checks.
        """
        P = np.asarray(P, dtype=float)
        Q = np.asarray(Q, dtype=float)
        diff = P - Q
        return self.phi(P) - self.phi(Q) - np.einsum("...i,...i->...", self.grad_phi(Q), diff)

    # ------------------------------------------------------------------
    # helpers for property trials
    # ------------------------------------------------------------------
    def similarity_matrix(self, dim):
        """Reference quadratic form U for the sandwich mu*D_U <= D <= D_U."""
        raise UnsupportedMeasure(f"{self.name} declares no reference quadratic form")

    def sample_domain(self, rng, shape):
        """Draw in-domain coordinates for randomized property trials."""
        gen = _generator(rng)
        if self.box is not None:
            lo, hi = self.box
            return gen.uniform(lo, hi, size=shape)
        return 2.0 * gen.standard_normal(size=shape)

    def __repr__(self):
        return f"{type(self).__name__}(alpha={self.alpha}, beta={self.beta}, mu={self.mu})"


class SquaredEuclidean(DivergenceMeasure):
    """Squared Euclidean distance, the plain k-means objective."""

    name = "sqeuclid"
    mu = 1.0

    def rowwise(self, P, Q):
        diff = np.asarray(P, dtype=float) - np.asarray(Q, dtype=float)
        return np.einsum("...i,...i->...", diff, diff)

    def phi(self, X):
        X = np.asarray(X, dtype=float)
        return np.einsum("...i,...i->...", X, X)

    def grad_phi(self, X):
        return 2.0 * np.asarray(X, dtype=float)

    def similarity_matrix(self, dim):
        return np.eye(dim)


class Mahalanobis(DivergenceMeasure):
    """Quadratic-form distance (p-q)^T A (p-q) for symmetric positive definite A."""

    name = "mahalanobis"
    mu = 1.0

    def __init__(self, matrix):
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigError(f"matrix must be square, got shape {A.shape}")
        if not np.allclose(A, A.T, rtol=1e-10, atol=1e-12):
            raise ConfigError("matrix must be symmetric")
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("matrix must be positive definite") from exc
        self.matrix = 0.5 * (A + A.T)
        self.fixed_dim = self.matrix.shape[0]

    def rowwise(self, P, Q):
        diff = np.asarray(P, dtype=float) - np.asarray(Q, dtype=float)
        return np.einsum("...i,ij,...j->...", diff, self.matrix, diff)

    def phi(self, X):
        X = np.asarray(X, dtype=float)
        return np.einsum("...i,ij,...j->...", X, self.matrix, X)

    def grad_phi(self, X):
        return 2.0 * np.asarray(X, dtype=float) @ self.matrix

    def similarity_matrix(self, dim):
        if dim != self.matrix.shape[0]:
            raise DimensionMismatch(f"measure is {self.matrix.shape[0]}-dimensional, asked for {dim}")
        return self.matrix


class _BoxedBregman(DivergenceMeasure):
    """Shared plumbing for generator measures restricted to a coordinate box.

    Points are validated strictly positive; the tighter box only enters the
    similarity constants (mu and the reference quadratic), which degenerate as
    coordinates approach zero and therefore need an explicit range.
    """

    domain = "positive"

    def __init__(self, box=(0.1, 0.9), mu=None):
        lo, hi = float(box[0]), float(box[1])
        if not (0.0 < lo < hi):
            raise ConfigError(f"box must satisfy 0 < lo < hi, got ({lo}, {hi})")
        self.box = (lo, hi)
        self.mu = _checked_mu(self._default_mu() if mu is None else mu)

    def _default_mu(self):
        raise NotImplementedError


class KullbackLeibler(_BoxedBregman):
    """Generalized relative entropy sum(p*ln(p/q) - p + q) on positive coordinates.

    The default mu is the curvature floor lo/(2*hi) paired with the reference
    quadratic (1/lo)*I: on [lo, hi] the generator's second derivative 1/x is
    sandwiched between 1/hi and 1/lo, which bounds the divergence between
    (1/(2*hi))*||p-q||^2 and (1/(2*lo))*||p-q||^2.
    """

    name = "kl"

    def _default_mu(self):
        lo, hi = self.box
        return lo / (2.0 * hi)

    def rowwise(self, P, Q):
        P = np.asarray(P, dtype=float)
        Q = np.asarray(Q, dtype=float)
        return np.sum(P * np.log(P / Q) - P + Q, axis=-1)

    def phi(self, X):
        X = np.asarray(X, dtype=float)
        return np.sum(X * np.log(X) - X, axis=-1)

    def grad_phi(self, X):
        return np.log(np.asarray(X, dtype=float))

    def similarity_matrix(self, dim):
        return np.eye(dim) / self.box[0]


class ItakuraSaito(_BoxedBregman):
    """Spectral distortion sum(p/q - ln(p/q) - 1) on positive coordinates.

    Same construction as KL with generator -sum(ln x): second derivative 1/x^2
    lies in [1/hi^2, 1/lo^2] on the box, giving default mu = lo^2/(2*hi^2)
    against the reference quadratic (1/lo^2)*I.
    """

    name = "itakura-saito"

    def _default_mu(self):
        lo, hi = self.box
        return lo * lo / (2.0 * hi * hi)

    def rowwise(self, P, Q):
        ratio = np.asarray(P, dtype=float) / np.asarray(Q, dtype=float)
        return np.sum(ratio - np.log(ratio) - 1.0, axis=-1)

    def phi(self, X):
        X = np.asarray(X, dtype=float)
        return -np.sum(np.log(X), axis=-1)

    def grad_phi(self, X):
        return -1.0 / np.asarray(X, dtype=float)

    def similarity_matrix(self, dim):
        lo = self.box[0]
        return np.eye(dim) / (lo * lo)


class GenericBregman(DivergenceMeasure):
    """Divergence from a user-supplied convex generator and its exact gradient.

    ``phi`` maps (..., d) arrays to (...) values; ``grad_phi`` maps (..., d)
    to (..., d).  No numerical differentiation is attempted: an inaccurate
    gradient would silently corrupt every divergence value, so the caller
    must provide the closed form.
    """

    name = "bregman"

    def __init__(self, phi, grad_phi, mu, box=(0.1, 0.9), domain="positive",
                 similarity=None, name=None):
        self._phi = phi
        self._grad_phi = grad_phi
        self.mu = _checked_mu(mu)
        self.box = tuple(float(b) for b in box) if box is not None else None
        self.domain = domain
        self._similarity = None if similarity is None else np.asarray(similarity, dtype=float)
        if name is not None:
            self.name = name

    def phi(self, X):
        return self._phi(np.asarray(X, dtype=float))

    def grad_phi(self, X):
        return self._grad_phi(np.asarray(X, dtype=float))

    def similarity_matrix(self, dim):
        if self._similarity is None:
            raise UnsupportedMeasure("no reference quadratic form was configured")
        if self._similarity.shape[0] != dim:
            raise DimensionMismatch("configured quadratic form has the wrong dimension")
        return self._similarity


# ----------------------------------------------------------------------
# centroids and costs
# ----------------------------------------------------------------------

def centroid(points):
    """Coordinate-wise mean, the optimal single center of every measure here.

    Equal rows give that row bitwise, which a float mean does not promise
    (three copies of 0.1 average to 0.10000000000000002).
    """
    P = as_points(points)
    return P[0].copy() if np.all(P == P[0]) else P.mean(axis=0)


def assign(measure, data, centers):
    """Nearest-center index per point plus that point's cost.

    Labels are the argmin of the ``pairwise`` table, lowest index on ties as
    the table computed them; centers nearer each other than its rounding may
    tie there.  Costs are the closed form ``rowwise(P, C[labels])``, so every
    reported cost is the exact cost of a real assignment.
    """
    P = as_points(data)
    C = as_points(centers)
    if P.shape[1] != C.shape[1]:
        raise DimensionMismatch(f"points are {P.shape[1]}-dimensional, centers {C.shape[1]}")
    labels = np.argmin(measure.pairwise(P, C), axis=1)
    return labels, measure.rowwise(P, C[labels])


def cluster_cost(measure, data, centers):
    """Total clustering cost: each point pays its divergence to the nearest center."""
    _, costs = assign(measure, data, centers)
    return float(costs.sum())


# ----------------------------------------------------------------------
# property checks
# ----------------------------------------------------------------------

def check_centroid_property(measure, points, c, tolerance=1e-9):
    """Verify sum_p D(p,c) == one-center cost at the mean + n * D(mean, c).

    The identity is exact for every generator-based measure; the report
    records the relative residual, which should be float noise only.
    """
    P = as_points(points)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    measure.validate_points(P)
    measure.validate_points(c)
    if c.shape[0] != P.shape[1]:
        raise DimensionMismatch("candidate center has the wrong dimension")
    lhs = float(measure.rowwise(P, c[None, :]).sum())
    m = P.mean(axis=0)
    spread = float(measure.rowwise(P, m[None, :]).sum())
    rhs = spread + P.shape[0] * float(measure.rowwise(m, c))
    residual = abs(lhs - rhs) / max(1.0, abs(lhs))
    return PropertyReport(
        property="centroid",
        trials=1,
        violations=int(residual > tolerance),
        worst_ratio=residual,
        tolerance=tolerance,
        details={"lhs": lhs, "rhs": rhs, "spread": spread},
    )


def check_mu_similarity(measure, U, samples, tolerance=1e-12):
    """Sandwich check mu * D_U <= D <= D_U against the quadratic form U.

    ``samples`` is either a pair of (m, d) arrays or an iterable of (p, q)
    tuples.  Reports the empirical floor mu_hat = min D/D_U (pairs with
    D_U = 0 are skipped), counts upper-bound violations, and counts one
    violation when the measure's declared mu exceeds mu_hat.  The closed
    form is cross-checked against the generator route and the worst
    residual recorded.
    """
    if isinstance(samples, tuple) and len(samples) == 2 and np.asarray(samples[0]).ndim == 2:
        P = np.asarray(samples[0], dtype=float)
        Q = np.asarray(samples[1], dtype=float)
    else:
        pairs = list(samples)
        P = np.asarray([p for p, _ in pairs], dtype=float)
        Q = np.asarray([q for _, q in pairs], dtype=float)
    measure.validate_points(P)
    measure.validate_points(Q)
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] != P.shape[1]:
        raise DimensionMismatch("U must be a d x d matrix matching the sample dimension")

    d_phi = np.asarray(measure.rowwise(P, Q), dtype=float)
    diff = P - Q
    d_u = np.einsum("ni,ij,nj->n", diff, U, diff)

    slack = tolerance * np.maximum(1.0, d_u)
    upper_bad = int(np.count_nonzero(d_phi > d_u + slack))
    mask = d_u > 0.0
    if np.any(mask):
        mu_hat = float(np.min(d_phi[mask] / d_u[mask]))
    else:
        mu_hat = 1.0  # every sampled pair was degenerate; sandwich is vacuous

    declared_bad = int(measure.mu > mu_hat + tolerance)
    other = np.asarray(measure.bregman_form(P, Q), dtype=float)
    scale = np.maximum(1.0, np.abs(d_phi))
    details = {
        "mu_hat": mu_hat,
        "declared_mu": measure.mu,
        "upper_bound_violations": upper_bad,
        "upper_bound_ok": upper_bad == 0,
        "generator_residual": float(np.max(np.abs(other - d_phi) / scale)),
    }

    return PropertyReport(
        property="mu-similarity",
        trials=P.shape[0],
        violations=upper_bad + declared_bad,
        worst_ratio=mu_hat,
        tolerance=tolerance,
        details=details,
    )


# ----------------------------------------------------------------------
# batch randomized trials (shared by the CLI and the acceptance suite)
# ----------------------------------------------------------------------

def random_pairs(measure, dim, count, rng):
    """Two (count, dim) batches of in-domain points."""
    P = measure.sample_domain(rng, (count, dim))
    Q = measure.sample_domain(rng, (count, dim))
    return P, Q


def symmetry_report(measure, dim, trials, rng, tolerance=1e-12):
    """Count violations of the two-sided symmetry bound over random pairs."""
    P, Q = random_pairs(measure, dim, trials, rng)
    f = np.asarray(measure.rowwise(P, Q), dtype=float)
    b = np.asarray(measure.rowwise(Q, P), dtype=float)
    beta = measure.beta
    slack = tolerance * np.maximum(1.0, np.maximum(f, b))
    bad = (beta * b > f + slack) | (f > b / beta + slack)
    # worst case over both directions of the normalized ratio; 1.0 means tight
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(f > 0, beta * b / np.where(f > 0, f, 1.0), 0.0)
        r2 = np.where(b > 0, beta * f / np.where(b > 0, b, 1.0), 0.0)
    worst = float(max(r1.max(initial=0.0), r2.max(initial=0.0)))
    return PropertyReport(
        property="symmetry",
        trials=trials,
        violations=int(np.count_nonzero(bad)),
        worst_ratio=worst,
        tolerance=tolerance,
        details={"beta": beta},
    )


def triangle_report(measure, dim, trials, rng, tolerance=1e-12):
    """Count violations of the relaxed triangle inequality over random triples."""
    P, Q = random_pairs(measure, dim, trials, rng)
    R = measure.sample_domain(rng, (trials, dim))
    direct = np.asarray(measure.rowwise(P, Q), dtype=float)
    detour = np.asarray(measure.rowwise(P, R), dtype=float) + np.asarray(measure.rowwise(R, Q), dtype=float)
    alpha = measure.alpha
    slack = tolerance * np.maximum(1.0, direct)
    bad = direct > alpha * detour + slack
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(detour > 0, direct / np.where(detour > 0, alpha * detour, 1.0), 0.0)
    return PropertyReport(
        property="triangle",
        trials=trials,
        violations=int(np.count_nonzero(bad)),
        worst_ratio=float(ratio.max(initial=0.0)),
        tolerance=tolerance,
        details={"alpha": alpha},
    )


# point counts and dimensions of centroid_report's random instances, inclusive
_CENTROID_SIZES = (2, 40)
_CENTROID_DIMS = (1, 6)


def centroid_report(measure, rng, instances=100, tolerance=1e-9):
    """Centroid identity residuals over random instances; worst residual reported."""
    gen = _generator(rng)
    dims = _CENTROID_DIMS if measure.fixed_dim is None else (measure.fixed_dim,) * 2
    worst = 0.0
    violations = 0
    for _ in range(instances):
        n = int(gen.integers(_CENTROID_SIZES[0], _CENTROID_SIZES[1] + 1))
        d = int(gen.integers(dims[0], dims[1] + 1))
        P = measure.sample_domain(gen, (n, d))
        c = measure.sample_domain(gen, (d,))
        rep = check_centroid_property(measure, P, c, tolerance=tolerance)
        worst = max(worst, rep.worst_ratio)
        violations += rep.violations
    return PropertyReport(
        property="centroid",
        trials=instances,
        violations=violations,
        worst_ratio=worst,
        tolerance=tolerance,
    )


def mu_similarity_report(measure, dim, trials, rng, tolerance=1e-12):
    """check_mu_similarity against the measure's own reference quadratic form."""
    U = measure.similarity_matrix(dim)
    return check_mu_similarity(measure, U, random_pairs(measure, dim, trials, rng), tolerance=tolerance)
