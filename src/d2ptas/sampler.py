"""Cost-weighted sampling against a growing center set.

A point's sampling weight is its cached divergence to the nearest chosen
center (the "potential").  The divergence to no center at all is +inf, so an
empty center set has potential +inf everywhere.  One law, :func:`d2_law`,
turns potentials into probabilities: proportional to potential, and uniform
where the total is +inf (no center yet, so the first draw is uniform) or 0
(every point covered exactly, which callers flag to terminate early instead
of treating it as an error).
"""

import numpy as np

from .divergences import PropertyReport, as_points
from .errors import ConfigError, DimensionMismatch

__all__ = [
    "RngStream",
    "CenterSet",
    "d2_law",
    "d2_sample",
    "weighted_draw",
    "empirical_distribution_check",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    """One round of the splitmix64 mixer; bijective on 64-bit words."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    The same (seed, stream_id) always produces the same draw sequence,
    independent of platform.  ``derive(i)`` yields child stream i through a
    64-bit mix of the parent id, so a derivation path like
    ``root.derive(r).derive(i)`` is stable no matter how many siblings are
    ever created -- which is what makes "extend the experiment" reproducible.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen = None

    @property
    def generator(self):
        """The underlying numpy Generator (created lazily, then reused)."""
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def derive(self, index):
        """Child stream ``index`` of this stream (fresh generator state)."""
        child = _splitmix64((_splitmix64(self.stream_id) + int(index)) & _MASK64)
        return RngStream(self.seed, child)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class CenterSet:
    """Ordered centers plus cached per-point cost to the nearest one.

    Immutable in use: ``add`` returns a new CenterSet, updating the cache with
    ``new = min(old, D(p, c_new))``.  The empty set's potentials are +inf, the
    cost to no center, so the first ``add`` installs real costs bit for bit
    and every later one shrinks them monotonically.
    """

    def __init__(self, points, measure, centers=None, potentials=None):
        self.points = as_points(points)
        self.measure = measure
        self.centers = list(centers) if centers is not None else []
        if potentials is None:
            potentials = self.recomputed_potentials()
        self.potentials = np.asarray(potentials, dtype=float)
        self.total_potential = float(self.potentials.sum())

    @classmethod
    def empty(cls, points, measure):
        return cls(points, measure)

    @property
    def size(self):
        return len(self.centers)

    def center_array(self):
        if not self.centers:
            return np.empty((0, self.points.shape[1]))
        return np.asarray(self.centers, dtype=float)

    def add(self, center):
        """New CenterSet with ``center`` appended and potentials re-minimized."""
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if c.shape != (self.points.shape[1],):
            raise DimensionMismatch(f"center has shape {c.shape}, points are {self.points.shape[1]}-dimensional")
        self.measure.validate_points(c)
        fresh = np.minimum(self.potentials, self.measure.rowwise(self.points, c[None, :]))
        return CenterSet(self.points, self.measure, self.centers + [c], fresh)

    def recomputed_potentials(self):
        """From-scratch potentials, for validating the incremental cache.

        Each center is evaluated in closed form on its own, as ``add`` does, so
        the two agree bit for bit and a center on a data point leaves that
        point at exactly 0.
        """
        return np.minimum.reduce([np.full(self.points.shape[0], np.inf)]
                                 + [self.measure.rowwise(self.points, c[None, :])
                                    for c in self.center_array()])

    def distribution(self):
        """(probabilities, zero_potential): :func:`d2_law` of the potentials.

        ``zero_potential`` is set when every point is covered exactly: the
        clustering cost is 0, not an error, and the law is uniform.
        """
        return d2_law(self.potentials, self.total_potential), self.total_potential == 0.0

    def __repr__(self):
        return f"CenterSet(size={self.size}, total_potential={self.total_potential:.6g})"


def d2_law(potentials, totals=None):
    """The D² sampling law of each column of ``potentials``.

    Probability is proportional to potential, and uniform where the column
    total is 0 (every point covered) or +inf (no center yet).  ``potentials``
    is one vector or an (n, B) table; ``totals`` defaults to each column's
    sum, taken as a 1-D sum so that column b of a table gets bitwise the law
    of the vector alone.  No inf/inf or 0/0 is ever evaluated.
    """
    potentials = np.asarray(potentials, dtype=float)
    if totals is None:
        totals = (potentials.sum() if potentials.ndim == 1
                  else np.ascontiguousarray(potentials.T).sum(axis=1))
    uniform = (totals == 0.0) | (totals == np.inf)
    return np.where(uniform, 1.0 / potentials.shape[0],
                    potentials / np.where(uniform, 1.0, totals))


def weighted_draw(probs, rng, count):
    """``count`` categorical draws from explicit probabilities.

    ``probs`` is either one probability vector drawn with the stream ``rng``,
    or an (n, B) table whose column b is drawn with the stream ``rng[b]``; the
    batch returns a (B, count) array whose row b is bitwise the 1-D draw of
    column b with that stream.  Each column's cumulative sum runs in order
    over that column alone, whatever the table's memory layout, and each
    stream gives the same ``count`` uniforms as in the 1-D call, so batching
    changes neither bits nor stream use.

    The cumulative distribution is inverted over the support only: entries
    that are not positive add nothing to it, and from the last positive entry
    on it is exactly 1, so zero-probability indices can never be drawn, even
    at float boundaries.
    """
    probs = np.asarray(probs, dtype=float)
    rows, streams = (probs[None, :], [rng]) if probs.ndim == 1 else (probs.T, rng)
    support = rows > 0.0  # NaN is not support either
    # adding +0.0 leaves a running sum unchanged, so on the support this is
    # the cumulative sum of the positive entries alone
    cum = np.cumsum(np.where(support, rows, 0.0), axis=1)
    if not (cum[:, -1] > 0.0).all():
        raise ValueError("a distribution has no positive probability")
    last = rows.shape[1] - np.argmax(support[:, ::-1], axis=1)  # one past it
    out = np.empty((len(streams), int(count)), dtype=np.intp)
    for b, stream in enumerate(streams):
        cum[b, last[b] - 1:] = 1.0  # kill accumulated rounding so u in [0, 1) always lands
        out[b] = np.searchsorted(cum[b], stream.generator.random(count), side="right")
    return out[0] if probs.ndim == 1 else out


def d2_sample(center_set, rng, count):
    """``count`` independent point-index draws (with replacement)."""
    count = int(count)
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count}")
    probs, _ = center_set.distribution()
    return weighted_draw(probs, rng, count)


def empirical_distribution_check(center_set, rng, trials, tolerance=None):
    """Compare empirical draw frequencies against the exact distribution.

    The default tolerance follows the Monte-Carlo scale: 0.01 in L-infinity
    at 1e5 trials, 0.05 below that.
    """
    trials = int(trials)
    if trials < 1000:
        raise ConfigError("need at least 1000 trials for a meaningful frequency check")
    probs, flag = center_set.distribution()
    draws = d2_sample(center_set, rng, trials)
    freq = np.bincount(draws, minlength=probs.shape[0]) / trials
    linf = float(np.abs(freq - probs).max())
    if tolerance is None:
        tolerance = 0.01 if trials >= 100_000 else 0.05
    return PropertyReport(
        property="sampling",
        trials=trials,
        violations=int(linf > tolerance),
        worst_ratio=linf,
        tolerance=tolerance,
        details={"zero_potential": flag},
    )
