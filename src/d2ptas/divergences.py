"""Bregman divergences, centroids, clustering costs, and property checks.

Every measure is the Bregman divergence
``D(p, q) = phi(p) - phi(q) - <grad_phi(q), p - q>`` of a convex generator
``phi`` with a declared similarity floor ``mu`` in (0, 1].  A measure is one
small interface: validated scalar evaluation (``measure(p, q)``), the
divergence evaluated elementwise over broadcast coordinate arrays
(``rowwise``), the (n, m) table of every point against every center
(``pairwise``, also for stacks of point and center blocks), and the
structural constants

* ``mu``    -- similarity floor against a reference quadratic form
* ``alpha`` -- triangle relaxation D(p,q) <= alpha * (D(p,r) + D(r,q)); 2/mu
* ``beta``  -- symmetry relaxation beta * D(q,p) <= D(p,q) <= D(q,p) / beta; mu

For every Bregman divergence the arithmetic mean is the optimal single
center (Banerjee et al., *Clustering with Bregman Divergences*, JMLR 2005).
``rowwise`` defaults to the generator route; the named measures override it
with their closed forms, which ``bregman_form`` cross-checks independently.

``pairwise`` computes the generator route as one matrix product of lifted
coordinates.  With each point lifted to ``x = [p, phi(p), 1]`` and each center
to ``y = [-grad_phi(c), 1, <grad_phi(c), c> - phi(c)]``, the generator table
``phi(P)[:, None] - P @ grad_phi(C).T + (<grad_phi(C), C> - phi(C))[None, :]``
is ``X @ Y.T``, with no elementwise pass over the table to add its terms.
The points' side of that product -- ``X`` and the maxima of ``|phi(P)|`` and
``|P|^2`` that bound the terms -- depends on the points alone, so a caller that
tables the same points many times builds it once (``_point_side``) and passes
it to every call.  A stack of point blocks has its side per block, so each
block's table is the table of that block alone.  Where the three terms
cancel, the product loses the small value, so every entry at or below a fixed
small fraction of the terms' magnitude is recomputed with ``rowwise``.
Identical rows therefore give exactly 0, every entry is finite and >= 0, and
the other entries agree with the closed form to about ``d * 1e-9`` relative
at worst.  On data far from the origin relative to its spread the terms
dwarf the distances, most entries need repair, and such columns are
recomputed whole, at about a tenth more than the closed form.
"""

import numbers
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
    """Coerce ``data`` (array-like, list of points) to an (n, d) float array."""
    pts = np.asarray(data, dtype=float)
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

# ``pairwise`` computes a table in slices of at most this many centers, each
# its own matrix product.  With OpenBLAS 0.3.31 on 20 000 x 8 points, a
# 300-column product gave other bits at one BLAS thread than at two, and
# 128-column slices gave the same bits at both.
_PRODUCT_COLUMNS = 128


def _checked_mu(mu):
    """``mu`` as a float, which must lie in (0, 1]."""
    mu = float(mu)
    if not (0.0 < mu <= 1.0):
        raise ConfigError(f"mu must lie in (0, 1], got {mu}")
    return mu


def _checked_count(value, name, least=1, refusal=None):
    """``value`` as an int, which must be an integer of at least ``least``.

    Python and NumPy integers are accepted; floats are refused rather than
    truncated, and so are bools.  Too small a value is refused with the
    caller's own ``refusal`` wording when it gives one.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{refusal}, got {name}={value}" if refusal
                          else f"{name} must be >= {least}, got {value}")
    return int(value)


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

    def _point_side(self, P):
        """What ``pairwise`` needs of the points alone: the lifted points
        ``[P, phi(P), 1]``, ``max |phi(P)|`` and ``max |P|^2``.

        ``P`` may be an (A, n, d) stack of point blocks; the maxima are then
        per block, each with a trailing axis of one.  A caller that tables
        the same points many times computes this once and passes it to each
        ``pairwise`` call.
        """
        P = np.asarray(P, dtype=float)
        phi_p = self.phi(P)
        lifted = np.concatenate([P, phi_p[..., None], np.ones(P.shape[:-1] + (1,))], axis=-1)
        return (lifted, np.abs(phi_p).max(axis=-1, initial=0.0, keepdims=True),
                np.einsum("...ij,...ij->...i", P, P).max(axis=-1, initial=0.0, keepdims=True))

    def pairwise(self, P, C, point_side=None):
        """(n, m) table of D(P_i, C_j): the generator table plus its repair.

        One matrix product of the lifted points and centers gives the table
        (see the module docstring) and entries at or below ``_REPAIR_TAU``
        times a bound on the terms' magnitudes are recomputed by ``rowwise``
        on just those pairs, or on the whole column where most of it needs
        that.  A table with no such entry, as most scoring tables of the
        engine, is returned as the product gave it, without a search for
        pairs.  ``point_side`` is ``_point_side(P)``, computed here when not
        given.

        ``C`` may also be an (A, m, d) stack of center blocks, which gives the
        (A, n, m) stack of their tables, against the points ``P`` or, with
        ``P`` an (A, n, d) stack of point blocks, against block a of them.
        Each block is its own matrix product with its own bound, so block a
        is bitwise ``pairwise(P, C[a])``, or ``pairwise(P[a], C[a])``.  A
        block wider than ``_PRODUCT_COLUMNS`` centers is computed in slices
        of that many, each its own product, because a wider product's bits
        can depend on the BLAS thread count.  Within one product a column's
        bits can depend on the product's width, so a caller that needs the
        bits of a narrower table asks for it as its own block.
        """
        P = np.asarray(P, dtype=float)
        C = np.asarray(C, dtype=float)
        if P.ndim > 2 and P.shape[:-2] != C.shape[:-2]:
            raise DimensionMismatch(f"point blocks {P.shape[:-2]} do not match "
                                    f"center blocks {C.shape[:-2]}")
        if point_side is None:
            point_side = self._point_side(P)
        n, m = P.shape[-2], C.shape[-2]
        if m > _PRODUCT_COLUMNS:
            table = np.empty(C.shape[:-2] + (n, m))
            for lo in range(0, m, _PRODUCT_COLUMNS):
                cols = slice(lo, lo + _PRODUCT_COLUMNS)
                table[..., cols] = self.pairwise(P, C[..., cols, :], point_side)
            return table
        if m == 1:
            # a 1-column product runs through gemv, whose bits differ from the
            # same column of a wider product; take it from a 2-column one
            return self.pairwise(P, np.repeat(C, 2, axis=-2), point_side)[..., :1]
        lifted, phi_max, sq_max = point_side
        grad_c = self.grad_phi(C)
        offset = np.einsum("...ij,...ij->...i", grad_c, C) - self.phi(C)
        table = lifted @ np.swapaxes(np.concatenate(
            [-grad_c, np.ones(offset.shape + (1,)), offset[..., None]], axis=-1), -1, -2)
        # per-column bound on the terms, |P_i . grad_c_j| <= |P_i| |grad_c_j|:
        # which entries of column j get repaired depends on its block of P and C_j only
        scale = (phi_max + np.abs(offset)
                 + np.sqrt(sq_max * np.einsum("...ij,...ij->...i", grad_c, grad_c)))
        shape = table.shape
        # a 2-D table is a stack of one block
        table, centers = table.reshape(-1, n, m), C.reshape(-1, C.shape[-1])
        repair = ~(table > _REPAIR_TAU * scale.reshape(-1, 1, m))  # NaN too
        if not repair.any():
            return table.reshape(shape)
        # flat indices: a 2-D np.nonzero costs ten times more on these masks
        blocks, rows, cols = np.unravel_index(np.flatnonzero(repair), table.shape)
        cols += blocks * m  # each entry's center, a row of ``centers``
        whole = np.bincount(cols, minlength=len(centers)) > _WHOLE_COLUMN_SHARE * n
        # block b's points: block b of a stack, or P itself for every block
        own = P.ndim > 2
        stack = P.reshape(-1, n, P.shape[-1]) if own else P[None]
        if whole.any():
            ids = np.flatnonzero(whole)
            table[ids // m, :, ids % m] = np.maximum(
                self.rowwise(stack[ids // m] if own else stack, centers[ids, None, :]), 0.0)
            scattered = ~whole[cols]
            rows, cols = rows[scattered], cols[scattered]
        if rows.size:
            table[cols // m, rows, cols % m] = np.maximum(
                self.rowwise(stack[cols // m if own else 0, rows], centers[cols]), 0.0)
        return table.reshape(shape)

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
        if self.fixed_dim is not None and X.shape[-1:] != (self.fixed_dim,):
            raise DimensionMismatch(f"measure is {self.fixed_dim}-dimensional, "
                                    f"got points of shape {X.shape}")
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

    def sample_domain(self, gen, shape):
        """Draw in-domain coordinates for randomized property trials from the
        numpy Generator ``gen``."""
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


def _checked_interval(pair, name):
    """``pair`` as a (lo, hi) tuple of finite floats with lo < hi."""
    try:
        lo, hi = (float(v) for v in pair)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a pair (lo, hi), got {pair!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConfigError(f"{name} must satisfy lo < hi, both finite, got ({lo}, {hi})")
    return lo, hi


class GenericBregman(DivergenceMeasure):
    """Divergence from a user-supplied convex generator and its exact gradient.

    ``phi`` maps (..., d) arrays to (...) values; ``grad_phi`` maps (..., d)
    to (..., d).  No numerical differentiation is attempted: an inaccurate
    gradient would silently corrupt every divergence value, so the caller
    must provide the closed form.

    ``domain`` is ``"unrestricted"``, ``"positive"`` or a finite closed
    interval ``(lo, hi)`` with lo < hi that holds every coordinate.  ``box``,
    where randomized property trials draw their coordinates, is ``None`` (a
    normal draw) or a finite ``(lo, hi)`` with lo < hi inside the domain.
    """

    name = "bregman"

    def __init__(self, phi, grad_phi, mu, box=(0.1, 0.9), domain="positive",
                 similarity=None):
        self._phi = phi
        self._grad_phi = grad_phi
        self.mu = _checked_mu(mu)
        if isinstance(domain, str):
            if domain not in ("unrestricted", "positive"):
                raise ConfigError(f"domain must be 'unrestricted', 'positive' or (lo, hi), "
                                  f"got {domain!r}")
        else:
            domain = _checked_interval(domain, "domain")
        self.domain = domain
        if box is not None:
            box = _checked_interval(box, "box")
            try:
                _check_domain(np.array(box), domain)
            except DomainError as exc:
                raise ConfigError(f"box {box} leaves the domain: {exc}") from None
        self.box = box
        self._similarity = None if similarity is None else np.asarray(similarity, dtype=float)

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
    reported cost is the exact cost of a real assignment.  The points are
    checked against the measure; the centers only against its dimension, as a
    subset mean may lie a rounding step outside a closed domain.
    """
    P = measure.validate_points(as_points(data))
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

def _tally(prop, bad, ratios, tolerance, **details):
    """The report of the trials flagged in the boolean array ``bad``: its worst
    ratio is the largest of ``ratios``, 0 when there are none."""
    bad = np.asarray(bad)
    return PropertyReport(property=prop, trials=bad.size, violations=int(np.count_nonzero(bad)),
                          worst_ratio=float(np.max(ratios, initial=0.0)), tolerance=tolerance,
                          details=details)


def _ratio(num, den):
    """``num / den`` where ``den > 0``, else 0."""
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def _centroid_residual(measure, points, c):
    """(residual, lhs, rhs, spread) of the centroid identity, after validating the inputs."""
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
    return abs(lhs - rhs) / max(1.0, abs(lhs)), lhs, rhs, spread


def check_centroid_property(measure, points, c, tolerance=1e-9):
    """Verify sum_p D(p,c) == one-center cost at the mean + n * D(mean, c).

    The identity is exact for every generator-based measure; the report
    records the relative residual, which should be float noise only.
    """
    residual, lhs, rhs, spread = _centroid_residual(measure, points, c)
    return _tally("centroid", residual > tolerance, residual, tolerance,
                  lhs=lhs, rhs=rhs, spread=spread)


# relative slack of the symmetry, triangle and mu-similarity checks: a trial
# violates a bound only by more than this share of max(1, its divergence),
# so float noise alone is no violation
_BOUND_TOLERANCE = 1e-12


def check_mu_similarity(measure, U, P, Q):
    """Sandwich check mu * D_U <= D <= D_U against the quadratic form U.

    ``P`` and ``Q`` are (m, d) arrays; row i of each makes pair i.  Reports
    the empirical floor mu_hat = min D/D_U (pairs with D_U = 0 are skipped),
    counts upper-bound violations, and counts one violation when the
    measure's declared mu exceeds mu_hat.  The closed form is cross-checked
    against the generator route and the worst residual recorded.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    measure.validate_points(P)
    measure.validate_points(Q)
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] != P.shape[1]:
        raise DimensionMismatch("U must be a d x d matrix matching the sample dimension")

    d_phi = np.asarray(measure.rowwise(P, Q), dtype=float)
    diff = P - Q
    d_u = np.einsum("ni,ij,nj->n", diff, U, diff)

    slack = _BOUND_TOLERANCE * np.maximum(1.0, d_u)
    upper_bad = int(np.count_nonzero(d_phi > d_u + slack))
    mask = d_u > 0.0
    if np.any(mask):
        mu_hat = float(np.min(d_phi[mask] / d_u[mask]))
    else:
        mu_hat = 1.0  # every sampled pair was degenerate; sandwich is vacuous

    declared_bad = int(measure.mu > mu_hat + _BOUND_TOLERANCE)
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
        tolerance=_BOUND_TOLERANCE,
        details=details,
    )


# ----------------------------------------------------------------------
# batch randomized trials (shared by the CLI and the acceptance suite)
# ----------------------------------------------------------------------

def random_pairs(measure, dim, count, rng):
    """Two (count, dim) batches of in-domain points, from the generator of the stream ``rng``."""
    refusal = "need at least one trial of at least one dimension"
    count = _checked_count(count, "trials", refusal=refusal)
    dim = _checked_count(dim, "dim", refusal=refusal)
    P = measure.sample_domain(rng.generator, (count, dim))
    Q = measure.sample_domain(rng.generator, (count, dim))
    return P, Q


def symmetry_report(measure, dim, trials, rng):
    """Count violations of the two-sided symmetry bound over random pairs."""
    P, Q = random_pairs(measure, dim, trials, rng)
    f = np.asarray(measure.rowwise(P, Q), dtype=float)
    b = np.asarray(measure.rowwise(Q, P), dtype=float)
    beta = measure.beta
    slack = _BOUND_TOLERANCE * np.maximum(1.0, np.maximum(f, b))
    bad = (beta * b > f + slack) | (f > b / beta + slack)
    # worst case over both directions of the normalized ratio; 1.0 means tight
    return _tally("symmetry", bad, (_ratio(beta * b, f), _ratio(beta * f, b)), _BOUND_TOLERANCE,
                  beta=beta)


def triangle_report(measure, dim, trials, rng):
    """Count violations of the relaxed triangle inequality over random triples."""
    P, Q = random_pairs(measure, dim, trials, rng)
    R = measure.sample_domain(rng.generator, (trials, dim))
    direct = np.asarray(measure.rowwise(P, Q), dtype=float)
    detour = np.asarray(measure.rowwise(P, R), dtype=float) + np.asarray(measure.rowwise(R, Q), dtype=float)
    alpha = measure.alpha
    slack = _BOUND_TOLERANCE * np.maximum(1.0, direct)
    bad = direct > alpha * detour + slack
    return _tally("triangle", bad, _ratio(direct, alpha * detour), _BOUND_TOLERANCE, alpha=alpha)


# point counts and dimensions of centroid_report's random instances, inclusive
_CENTROID_SIZES = (2, 40)
_CENTROID_DIMS = (1, 6)


def centroid_report(measure, rng, instances=100, tolerance=1e-9):
    """Centroid identity residuals over random instances; worst residual reported."""
    instances = _checked_count(instances, "instances", refusal="need at least one instance")
    gen = rng.generator
    dims = _CENTROID_DIMS if measure.fixed_dim is None else (measure.fixed_dim,) * 2
    residuals = []
    for _ in range(instances):
        n = int(gen.integers(_CENTROID_SIZES[0], _CENTROID_SIZES[1] + 1))
        d = int(gen.integers(dims[0], dims[1] + 1))
        P = measure.sample_domain(gen, (n, d))
        residuals.append(_centroid_residual(measure, P, measure.sample_domain(gen, (d,)))[0])
    residuals = np.array(residuals)
    return _tally("centroid", residuals > tolerance, residuals, tolerance)


def mu_similarity_report(measure, dim, trials, rng):
    """check_mu_similarity against the measure's own reference quadratic form."""
    P, Q = random_pairs(measure, dim, trials, rng)
    return check_mu_similarity(measure, measure.similarity_matrix(dim), P, Q)
