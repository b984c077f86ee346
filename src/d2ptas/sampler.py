"""Cost-weighted sampling against a growing center set.

A point's sampling weight is its cached divergence to the nearest chosen
center (the "potential").  The divergence to no center at all is +inf, so an
empty center set has potential +inf everywhere.  One law, :func:`d2_law`,
turns potentials into probabilities: proportional to potential, and uniform
where the total is +inf (no center yet, so the first draw is uniform) or 0
(every point covered exactly, a valid state rather than an error).
"""

import numpy as np

from .divergences import PropertyReport, _checked_count, as_points
from .errors import DimensionMismatch

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


def _splitmix64_in_place(x, spare):
    """splitmix64's output function on the uint64 array ``x``, in place: word
    ``w + 0x9E3779B97F4A7C15`` becomes ``splitmix64(w)``.

    ``spare`` is a uint64 array of ``x``'s shape whose contents are lost.
    Arithmetic on uint64 arrays wraps modulo 2^64 silently; on numpy uint64
    scalars it warns, so nothing here is ever reduced to a scalar.
    """
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= np.right_shift(x, np.uint64(shift), out=spare)
        x *= np.uint64(multiplier)
    x ^= np.right_shift(x, np.uint64(31), out=spare)


def _splitmix64_array(x):
    """:func:`_splitmix64` of every word of ``x``, as a uint64 array of at least one dimension."""
    x = np.array(x, dtype=np.uint64, ndmin=1) + np.uint64(0x9E3779B97F4A7C15)
    _splitmix64_in_place(x, np.empty_like(x))
    return x


# Counter uniforms are computed a block of at most this many table entries at
# a time, in two uint64 buffers that stay in cache (64 KiB each).  Mixing a
# whole (B, count) table at once runs each of the mixer's dozen steps over
# fresh whole-table temporaries: at the paper preset's count = 819 200 that
# took about 4x as long as these blocks.
_UNIFORM_BLOCK = 1 << 13


def _counter_uniforms(ids, count, key):
    """The first ``count`` counter-based uniforms of each stream id under the
    64-bit ``key``, as a (len(ids), count) table.  ``key`` is one key for
    every row or an array of one key per row; the engine's keys come from
    :func:`_stream_keys`.

    The j-th uniform of the stream with id s is the top 53 bits of
    ``splitmix64(splitmix64(s ^ key) + j)`` times 2^-53, the 53-bit
    construction of numpy's ``random()``, so it lies in [0, 1).  Each value is
    a pure function of (key, s, j): a longer table extends a shorter one, and
    no generator state is built or shared.
    """
    # the second splitmix64's first step, adding the constant, done once per id
    base = _splitmix64_array(np.asarray(ids, dtype=np.uint64) ^ np.asarray(key, dtype=np.uint64))
    base += np.uint64(0x9E3779B97F4A7C15)
    count = int(count)
    out = np.empty((len(base), count))
    if not out.size:
        return out
    width = min(count, _UNIFORM_BLOCK)
    height = max(1, _UNIFORM_BLOCK // width)
    counters = np.arange(width, dtype=np.uint64)
    words, spares = np.empty((2, min(height, len(base)), width), dtype=np.uint64)
    for r in range(0, len(base), height):
        rows = base[r:r + height, None]
        for c in range(0, count, width):
            x, t = words[:len(rows), :count - c], spares[:len(rows), :count - c]
            np.add(rows + np.uint64(c), counters[:x.shape[1]], out=x)
            _splitmix64_in_place(x, t)
            # below 2^53 after the shift, where int64 converts to float exactly and faster
            np.right_shift(x, np.uint64(11), out=x)
            np.multiply(x.view(np.int64), 2.0 ** -53, out=out[r:r + len(rows), c:c + x.shape[1]])
    return out


def _derived_ids(parent_ids, indices):
    """``derive(i).stream_id`` of each parent id and each i of ``indices``, as a
    (len(parent_ids), len(indices)) uint64 table."""
    base = _splitmix64_array(parent_ids)[:, None]
    return _splitmix64_array(base + np.asarray(indices, dtype=np.uint64))


def _counter_key(stream):
    """The key that brings ``stream``'s seed into counter uniforms: the first
    64-bit output of the PCG64 seeded by (seed, stream_id).

    It is taken from a fresh stream, so ``stream``'s own generator is never
    advanced or built.
    """
    return RngStream(stream.seed, stream.stream_id).generator.bit_generator.random_raw()


def _stream_keys(streams):
    """The uint64 stream ids of ``streams`` and their keys (:func:`_counter_key`),
    as two arrays.

    Every draw of the engine is a counter uniform (:func:`_counter_uniforms`)
    of an id derived from one of these ids, under that stream's key, so these
    keys are the only generators the engine builds: one per restart.
    """
    ids = np.array([stream.stream_id for stream in streams], dtype=np.uint64)
    return ids, np.array([_counter_key(stream) for stream in streams], dtype=np.uint64)


def _uniform_indices(uniforms, n):
    """``floor(u * n)`` for each uniform u of the 2^53-grid in [0, 1): an index in [0, n).

    The largest uniform, 1 - 2^-53, maps to n - 1 for every n < 2^53, and each
    index gets probability within 2^-53 of 1/n: a relative bias of at most n/2^53.
    """
    return (np.asarray(uniforms, dtype=float) * n).astype(np.intp)


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    The same (seed, stream_id) always produces the same draw sequence,
    independent of platform.  ``derive(i)`` yields child stream i through a
    64-bit mix of the parent id, so a derivation path like
    ``root.derive(r).derive(i)`` is stable no matter how many siblings are
    ever created -- which is what makes "extend the experiment" reproducible.

    The clustering engine draws by one rule.  A restart stream contributes
    its id and its key (:func:`_stream_keys`), the first output of the PCG64
    seeded by (seed, stream_id), which brings in the seed.  Every draw below
    it -- a greedy iteration's D² sample, a trial's anchor, a k-means++ pick,
    an exhaustive tree node's sample -- takes the counter uniforms
    (:func:`_counter_uniforms`) of its derived stream id
    (:func:`_derived_ids`) under that key, each a pure function of (key, id,
    counter), so no state is built per iteration, pick or node.
    ``generator``, the PCG64 itself, serves the keys and the draws outside
    the engine: :func:`d2_sample`, the randomized property trials (the
    oracle's ``inaba_trial`` among them) and the planted-data generator.
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
        self.points = measure.validate_points(as_points(points))
        self.measure = measure
        self.centers = list(centers) if centers is not None else []
        if potentials is None:
            potentials = self.recomputed_potentials()
        self.potentials = np.asarray(potentials, dtype=float)
        self.total_potential = float(self.potentials.sum())

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
        # built around ``__init__``, whose as_points would check all n points again
        child = object.__new__(CenterSet)
        child.points, child.measure, child.centers = self.points, self.measure, self.centers + [c]
        child.potentials, child.total_potential = fresh, float(fresh.sum())
        return child

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
        return d2_law(self.potentials), self.total_potential == 0.0

    def __repr__(self):
        return f"CenterSet(size={self.size}, total_potential={self.total_potential:.6g})"


def d2_law(potentials):
    """The D² sampling law of each row of ``potentials``.

    Probability is proportional to potential, and uniform where the row total
    is 0 (every point covered) or +inf (no center yet).  ``potentials`` is one
    vector or a (B, n) stack of rows, and each row's total is its own sum.
    No inf/inf or 0/0 is ever evaluated.
    """
    potentials = np.asarray(potentials, dtype=float)
    totals = potentials.sum(axis=-1, keepdims=True)
    uniform = (totals == 0.0) | (totals == np.inf)
    return np.where(uniform, 1.0 / potentials.shape[-1],
                    potentials / np.where(uniform, 1.0, totals))


def weighted_draw(probs, uniforms):
    """Categorical draws from explicit probabilities, one per uniform.

    ``probs`` is either one probability vector, drawn with the (count,)
    ``uniforms``, or a (B, n) stack of rows whose row b is drawn with row b
    of the (B, count) ``uniforms``; each row's draw is the 1-D draw of that
    row.  The uniforms must lie in [0, 1), and anything else, NaN included,
    is refused: the engine passes counter uniforms
    (:func:`_counter_uniforms`), and :func:`d2_sample` a PCG64 ``random()`` row.

    The cumulative distribution is inverted over the support only: entries
    that are not positive add nothing to it, and from the last positive entry
    on it is exactly 1, so zero-probability indices can never be drawn, even
    at float boundaries.  A draw is the count of its row's cumulative sums
    that are at most u, found for every row at once by one binary search
    (:func:`_count_at_most`).  That is ``searchsorted(u, side="right")`` on
    the row, also where rounding carries the sum past 1 before the last
    positive entry, since a uniform below 1 lies below every entry from the
    first one above it on.
    """
    probs = np.asarray(probs, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.ndim != probs.ndim or uniforms.shape[:-1] != probs.shape[:-1]:
        raise ValueError(f"uniforms of shape {uniforms.shape} do not fit probabilities "
                         f"of shape {probs.shape}")
    if uniforms.size and not (uniforms.min() >= 0.0 and uniforms.max() < 1.0):
        raise ValueError("uniforms must lie in [0, 1)")
    rows = np.atleast_2d(probs)
    n = rows.shape[1]
    support = rows > 0.0  # NaN is not support either
    if not support.any(axis=1).all():
        raise ValueError("a distribution has no positive probability")
    # the search's rows are padded with +inf to a power of two columns
    cum = np.full((len(rows), 1 << max(1, (n - 1).bit_length())), np.inf)
    # adding +0.0 leaves a running sum unchanged, so on the support this is
    # the cumulative sum of the positive entries alone
    np.cumsum(np.where(support, rows, 0.0), axis=1, out=cum[:, :n])
    last = n - np.argmax(support[:, ::-1], axis=1)  # one past it
    # kill accumulated rounding so u in [0, 1) always lands
    cum[:, :n][np.arange(n) >= last[:, None] - 1] = 1.0
    out = np.empty(uniforms.shape, dtype=np.intp)
    _count_at_most(cum, np.atleast_2d(uniforms), np.atleast_2d(out))
    return out


def _count_at_most(table, uniforms, out):
    """Per row b of the (B, w) ``table`` and each u of row b of the (B, count)
    ``uniforms``, the number of entries of row b that are at most u, into the
    (B, count) intp ``out``.

    ``w`` is a power of two of at least 2, and along each row "entry > u"
    never turns false again, so the count is the first position where it
    holds.  It is found by one branchless binary search over every uniform at
    once: log2(w) passes, each comparing every uniform with one table entry.
    ``out`` holds the flat index of each probe, which moves by half a step
    less than the step that the comparison adds.  Every probe is in range, so
    ``mode="clip"`` changes no index; it only spares ``take`` the buffered
    copy that its default bounds check makes.
    """
    starts = (np.arange(len(table)) * table.shape[1])[:, None]
    flat = table.reshape(-1)
    probed, at_most, moved = np.empty(out.shape), np.empty(out.shape, dtype=bool), np.empty_like(out)
    step = table.shape[1] // 2
    np.add(starts, step - 1, out=out)
    while step > 1:
        np.take(flat, out, out=probed, mode="clip")
        np.less_equal(probed, uniforms, out=at_most)
        out += np.multiply(at_most, step, out=moved)
        out -= step // 2
        step //= 2
    np.take(flat, out, out=probed, mode="clip")
    out += np.less_equal(probed, uniforms, out=at_most)
    out -= starts


def d2_sample(center_set, rng, count):
    """``count`` independent point-index draws (with replacement), from the
    PCG64 generator of the stream ``rng``."""
    count = _checked_count(count, "sample count")
    probs, _ = center_set.distribution()
    return weighted_draw(probs, rng.generator.random(count))


def empirical_distribution_check(center_set, rng, trials):
    """Compare empirical draw frequencies against the exact distribution.

    ``trials`` is an integer of at least 1000, fewer being too few for a
    meaningful frequency check.  The tolerance follows the Monte-Carlo
    scale: 0.01 in L-infinity at 1e5 trials or more, 0.05 below that.
    """
    trials = _checked_count(trials, "trials", least=1000)
    probs, flag = center_set.distribution()
    draws = d2_sample(center_set, rng, trials)
    freq = np.bincount(draws, minlength=probs.shape[0]) / trials
    linf = float(np.abs(freq - probs).max())
    tolerance = 0.01 if trials >= 100_000 else 0.05
    return PropertyReport(
        property="sampling",
        trials=trials,
        violations=int(linf > tolerance),
        worst_ratio=linf,
        tolerance=tolerance,
        details={"zero_potential": flag},
    )
