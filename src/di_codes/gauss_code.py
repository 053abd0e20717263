"""Deterministic identification over the Gaussian channel via sphere packing.

Geometry is handled in normalized coordinates u = x / sqrt(n), where the
power constraint ||x||^2 <= n * power (checked on the codewords x against the
block budget of channels._budget) becomes ||u|| <= sqrt(power); the noise
variance per normalized coordinate is sigma2 / n. Centers are packed into the
ball of radius r1 = sqrt(power) - sqrt(eps) at pairwise distance 2 * r0 with
r0 = sqrt(eps), so every protection sphere of radius r0 stays in the ball.

A greedy random packing is grown until saturation: candidates are drawn
uniformly from the r1-ball and kept when far enough from all kept centers;
once probe_budget consecutive candidates have been rejected, the packing is
declared saturated. A saturated packing covers the r1-ball with 2*r0-balls,
which forces the count L >= 2^(n * R) with R = log2(r1 / (2 * r0)), the rate
that gaussian_rate_bound states (only here). Neighbor searches go through a
k-d tree: the tail of the saturation run is millions of rejected candidates,
and a dense distance matrix against every kept center would dominate the
runtime long before memory became the problem. The tree's cover test runs in
two stages (see _covered): a (1+eps)-approximate nearest-neighbour query
(Arya, Mount et al. 1998) settles most candidates as certainly covered, and
only the rest take the exact query, so every decision is the exact one.

One cover query serves a whole group of candidate batches (see _GROUP_CAP),
yet every decision is a candidate-by-candidate scan's, in two tiers: the tree
rejects what it covers, and each survivor is checked one by one against every
center the tree lacks, with the scan's own arithmetic; batches drawn past the
stop are discarded. Large tree queries run on DI_CODES_THREADS workers, and
results do not depend on their number. Each codebook builds one tree, shared
by the probe pass, min_center_distance and the simulator's closest pair.

The decoder thresholds the empirical noise energy: accept candidate j iff
(1/n) * ||y - x_j||^2 <= sigma2 + delta. Chebyshev-style reference bounds for
both error kinds (variance of the chi-square statistic plus, for type II, the
cross term between noise and center separation) are provided for comparison
against the simulated rates; they assume the coupling eps >= 3 * delta.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._threads import worker_count
from .channels import GaussChannel, _budget, gauss_from_dict, gauss_to_dict
from .errors import _refuse_over_budget
from .stats import DEFAULT_PAIR_BUDGET, SimReport, _closest_first_pairs, _simulate
from .typicality import TypicalityParams

if TYPE_CHECKING:  # scipy.spatial itself loads at the first tree
    import scipy.spatial

DEFAULT_PROBE_BUDGET = 10**5
DEFAULT_PROBE_TRIALS = 4096

# Candidates are drawn from the stream in fixed-size batches; because the
# batch size never adapts, the candidate sequence depends only on the seed,
# no matter where the construction stops. The loop takes them in groups of
# 1, 2, 4, ... _GROUP_CAP batches with one cover query each; the small first
# groups keep the pending block short while most candidates are accepted.
_BATCH = 1024
_PENDING_LIMIT = 512
_GROUP_CAP = 32

# Scalars in one probe block (its size fixes which probes are drawn, normals
# then uniforms per block, so it must not change), in a group buffer at most
# (at large n one batch is already a large query) and in one norm slice.
_PROBE_SCALARS, _GROUP_SCALARS, _NORM_SCALARS = 2**22, 2**20, 2**17

# Tree queries of fewer rows lose more to starting threads than they gain.
_THREADED_ROWS = 8 * _BATCH

# Approximation factor of the cover test's first stage; see _covered.
_COVER_EPS = 3.0

# A build's buffers reuse the process's freed heap, which glibc keeps resident up to
# twice its dynamic mmap threshold, so what a build left resident would depend on what
# ran before it. glibc's int malloc_trim(size_t) hands it back; elsewhere a no-op.
_MALLOC_TRIM = getattr(ctypes.pythonapi, "malloc_trim", lambda pad: 0)


def cKDTree(data: np.ndarray) -> scipy.spatial.cKDTree:
    """The k-d tree over data; the one name that tests and the benchmark's tracer rebind."""
    from scipy import spatial  # loads at the first tree, not at import
    return spatial.cKDTree(data)


@dataclass(frozen=True, eq=False)
class GaussCodebook:
    """Packed identification code for the Gaussian channel.

    centers holds normalized codewords (rows, in the r1-ball); the physical
    codeword of message j is sqrt(n) * centers[j]. epsilon is the packing
    parameter (r0 = sqrt(epsilon)), delta the decoder's energy slack. The one
    k-d tree (_tree) serves the probe pass, min_center_distance and simulator.
    """

    channel: GaussChannel
    centers: np.ndarray
    epsilon: float
    delta: float

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] < 1:
            raise ValueError("centers must be an (L, n) array")
        packing_radii(self.channel.power, self.epsilon)
        TypicalityParams(self.delta)
        x = math.sqrt(c.shape[1]) * c  # codewords; each stacked product is transmit_gauss's x @ x; NaN fails
        if c.size and not float((x[:, None] @ x[..., None]).max()) <= _budget(c.shape[1], self.channel.power):
            raise ValueError("a center violates the power constraint")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "centers", c)

    @property
    def center_count(self) -> int:
        return self.centers.shape[0]

    @property
    def block_length(self) -> int:
        return self.centers.shape[1]

    @functools.cached_property
    def _tree(self) -> scipy.spatial.cKDTree:
        return cKDTree(self.centers)  # shares the read-only centers, adds its index

    def codeword(self, j: int) -> np.ndarray:
        """Physical (unnormalized) codeword of message j."""
        if not 0 <= j < self.center_count:
            raise ValueError("message index out of range")
        return math.sqrt(self.block_length) * self.centers[j]


@dataclass(frozen=True)
class SaturationCertificate:
    """Evidence about how the packing stopped and how full the ball is.

    stop_reason is "saturation" (probe_budget consecutive rejections) or
    "center_cap" (max_centers reached first). The probe pass re-tests
    coverage with fresh candidates from an independent stream: probe_covered
    counts those landing within 2*r0 of a kept center. The volume bound
    applies to genuinely saturated packings; a capped run reports
    saturated_at_tolerance = False and the bound comparison is moot.
    """

    center_count: int
    stop_reason: str
    consecutive_rejections: int
    candidates_processed: int
    probe_trials: int
    probe_covered: int
    lower_bound: float
    seed: int

    @property
    def saturated_at_tolerance(self) -> bool:
        return self.stop_reason == "saturation"

    @property
    def probe_coverage(self) -> float:
        return self.probe_covered / self.probe_trials if self.probe_trials else math.nan

    @property
    def meets_packing_bound(self) -> bool:
        return self.center_count >= self.lower_bound

    def to_dict(self) -> dict:
        return {
            "center_count": self.center_count,
            "stop_reason": self.stop_reason,
            "saturated_at_tolerance": self.saturated_at_tolerance,
            "consecutive_rejections": self.consecutive_rejections,
            "candidates_processed": self.candidates_processed,
            "probe_trials": self.probe_trials,
            "probe_covered": self.probe_covered,
            "probe_coverage": self.probe_coverage,
            "lower_bound": self.lower_bound,
            "meets_packing_bound": self.meets_packing_bound,
            "seed": self.seed,
        }


def packing_radii(power: float, epsilon: float) -> tuple[float, float]:
    """(r0, r1): protection radius and usable ball radius, normalized units."""
    if not power > 0:
        raise ValueError("power must be positive")
    if not (0.0 < epsilon < power and math.sqrt(epsilon) < math.sqrt(power)):  # the last is r1 > 0
        raise ValueError("epsilon must be finite and lie strictly between 0 and power, with r1 > 0")
    return math.sqrt(epsilon), math.sqrt(power) - math.sqrt(epsilon)


def gaussian_rate_bound(power: float, epsilon: float) -> float:
    """Identification rate log2(r1 / (2 r0)) that every saturated packing certifies."""
    r0, r1 = packing_radii(power, epsilon)
    return math.log2(r1 / r0) - 1.0


def packing_lower_bound(power: float, epsilon: float, n: int) -> float:
    """Center count every saturated packing must reach: (r1 / (2 r0))^n.

    Exceeds 1 only when r1 > 2 r0; for larger epsilon the bound is trivially
    satisfied by any nonempty packing.
    """
    if n < 1:
        raise ValueError("n must be positive")
    exponent = n * gaussian_rate_bound(power, epsilon)
    if exponent > 1023.0:
        return math.inf
    return 2.0 ** exponent


def _sample_ball(rng: np.random.Generator, count: int, n: int, radius: float, out=None) -> np.ndarray:
    """i.i.d. uniform points in the n-ball, into ``out`` if given: Gaussian direction
    (its norms taken over row slices of about _NORM_SCALARS), radial U^(1/n)."""
    g = rng.standard_normal((count, n), out=out)
    norms = np.sqrt(np.concatenate([(b * b).sum(axis=1) for b in np.array_split(g, 1 + g.size // _NORM_SCALARS)]))
    norms[norms == 0.0] = 1.0
    u = rng.random(count)
    g *= (radius * u ** (1.0 / n) / norms)[:, None]
    return g


def _query(tree: scipy.spatial.cKDTree, points: np.ndarray, **kwargs):
    """``tree.query``, threaded when ``points`` has enough rows to gain."""
    workers = worker_count() if len(points) >= _THREADED_ROWS else 1
    return tree.query(points, workers=workers, **kwargs)


def _covered(tree: scipy.spatial.cKDTree, points: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the points lying within ``radius`` of some center in ``tree``.

    An approximate query may miss the nearest center, but any distance it
    does return below ``radius`` is the true distance to a real center, so
    its hits are certain. Only its misses are re-queried exactly; the mask
    is therefore the exact query's answer, at a fraction of its cost.
    """
    near, _ = _query(tree, points, k=1, eps=_COVER_EPS, distance_upper_bound=radius)
    hit = near < radius
    miss = np.flatnonzero(~hit)
    if miss.size:
        near, _ = _query(tree, points[miss], k=1, distance_upper_bound=radius)
        hit[miss] = near < radius
    return hit


def build_gauss_codebook(
    channel: GaussChannel,
    n: int,
    epsilon: float,
    delta: float,
    seed: int,
    probe_budget: int = DEFAULT_PROBE_BUDGET,
    max_centers: int | None = None,
    probe_trials: int = DEFAULT_PROBE_TRIALS,
) -> tuple[GaussCodebook, SaturationCertificate]:
    """Grow a greedy random packing until saturation (or the center cap).

    Uses two child streams of ``seed`` in fixed order: one for construction
    candidates, one for the certificate's probe pass. Candidate batches have
    a fixed size, so results are reproducible bit for bit regardless of where
    the run stops. In high dimensions saturation is unreachable in any
    reasonable time; pass max_centers to cap the packing (the certificate
    then says so instead of claiming saturation). Raises BudgetError, before
    sampling, when the cap or the saturated count (whichever is lower) could
    pass _MAX_BUILD_BYTES.
    """
    TypicalityParams(delta)
    if probe_budget < 1:
        raise ValueError("probe_budget must be positive")
    if max_centers is not None and max_centers < 1:
        raise ValueError("max_centers must be positive when given")
    if probe_trials < 0:
        raise ValueError("probe_trials must be nonnegative")
    r0, r1 = packing_radii(channel.power, epsilon)
    # A saturated packing holds at least the bound's centers; a center scalar takes
    # up to 40 bytes (tracemalloc: 32.1 at n = 8 just past a doubling, 65 537 centers).
    bound = packing_lower_bound(channel.power, epsilon, n)
    fewest = min(max_centers or math.inf, bound)
    _refuse_over_budget(40 * fewest * n, f"{fewest:.4g} centers of length {n}")
    min_d = 2.0 * r0
    min_d2 = min_d * min_d

    cand_stream, probe_stream = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(cand_stream)

    kept_buf = np.empty((_BATCH, n))
    kept_count = 0
    tree: scipy.spatial.cKDTree | None = None
    tree_count = 0  # centers covered by the tree; newer ones scanned densely
    rejections = 0
    processed = 0
    stop_reason = None
    cap = max(1, min(_GROUP_CAP, _GROUP_SCALARS // (_BATCH * n)))
    group = np.empty((cap * _BATCH, n))
    batches = 1
    while stop_reason is None:
        cand = group[:batches * _BATCH]
        for b in range(batches):
            _sample_ball(rng, _BATCH, n, r1, out=cand[b * _BATCH:(b + 1) * _BATCH])
        batches = min(2 * batches, cap)
        survivors = (np.arange(len(cand)) if tree is None
                     else np.flatnonzero(~_covered(tree, cand, min_d)))
        # Only candidates clearing the tree are checked one by one, against
        # every center the tree lacks (the pending block, this group's
        # accepts included); the rejected runs between them (a candidate
        # failing that check opens the next run) advance the counters
        # arithmetically, as a scan would. Rebuilding the tree after every
        # acceptance would swamp the run, so accepts pile up in the pending
        # block until a group ends with it large enough to fold in.
        pos = 0
        for s in survivors.tolist() + [len(cand)]:  # the sentinel ends the last run
            run = s - pos
            if rejections + run >= probe_budget:
                pos += probe_budget - rejections
                rejections = probe_budget
                stop_reason = "saturation"
                break
            rejections += run
            pos = s
            if s == len(cand):
                break
            if kept_count > tree_count:
                diff = kept_buf[tree_count:kept_count] - cand[s]
                if float((diff * diff).sum(axis=1).min()) < min_d2:
                    continue
            if kept_count == kept_buf.shape[0]:
                kept_buf = np.resize(kept_buf, (2 * kept_count, n))  # rows past kept_count are written before use
            kept_buf[kept_count] = cand[s]
            kept_count += 1
            pos = s + 1
            rejections = 0
            if max_centers is not None and kept_count >= max_centers:
                stop_reason = "center_cap"
                break
        processed += pos  # this group's candidates before the stop position
        if stop_reason is None and kept_count - tree_count >= _PENDING_LIMIT:
            tree = cKDTree(kept_buf[:kept_count])
            tree_count = kept_count

    del tree, cand, group  # the loop's buffers, so the peak past here is kept_buf and one copy
    _MALLOC_TRIM(ctypes.c_size_t(0))
    codebook = GaussCodebook(channel=channel, centers=kept_buf[:kept_count], epsilon=epsilon, delta=delta)

    covered = 0
    if probe_trials and kept_count:
        probe_rng = np.random.default_rng(probe_stream)
        block = max(1, _PROBE_SCALARS // n)
        for start in range(0, probe_trials, block):
            probes = _sample_ball(probe_rng, min(block, probe_trials - start), n, r1)
            covered += int(_covered(codebook._tree, probes, min_d).sum())

    certificate = SaturationCertificate(
        center_count=kept_count,
        stop_reason=stop_reason,
        consecutive_rejections=rejections,
        candidates_processed=processed,
        probe_trials=probe_trials,
        probe_covered=covered,
        lower_bound=bound,
        seed=seed,
    )
    return codebook, certificate


def gauss_identify(codebook: GaussCodebook, output: Sequence[float] | np.ndarray, candidate: int) -> bool:
    """Energy-threshold decoder: accept iff (1/n)||y - x_j||^2 <= sigma2 + delta."""
    y = np.asarray(output, dtype=np.float64)
    if y.shape != (codebook.block_length,) or not np.isfinite(y).all():
        raise ValueError("output must be a finite vector of the codebook's block length")
    return bool(_accepts(codebook, y - codebook.codeword(candidate)))


def _accepts(codebook: GaussCodebook, diff: np.ndarray) -> np.ndarray:
    """The energy decision on the last axis of diff = y - x_j, which it squares in place."""
    energy = np.square(diff, out=diff).sum(axis=-1) / codebook.block_length
    return energy <= codebook.channel.sigma2 + codebook.delta


def chebyshev_references(channel: GaussChannel, n: int, delta: float) -> tuple[float, float]:
    """(pe1_ref, pe2_ref): variance bounds on both error kinds.

    pe1_ref bounds the chance the noise energy statistic leaves its delta
    window; the max of the two standard variance expressions is taken so the
    reference is an upper bound under either convention. pe2_ref adds the
    noise-times-separation cross term, valid under the eps >= 3*delta
    coupling between packing and decoder slack.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not delta > 0:
        raise ValueError("delta must be positive")
    s2 = channel.sigma2
    pe1 = max(s2, 2.0 * s2 * s2) / (n * delta * delta)
    pe2 = pe1 + 16.0 * s2 * channel.power / (n * delta * delta)
    return pe1, pe2


def _closest_pair(codebook: GaussCodebook) -> tuple[float, int, int]:
    """(distance, i, j) of a closest pair of centers: one k=2 query on the codebook's tree."""
    d, idx = _query(codebook._tree, codebook.centers, k=2)
    i = int(np.argmin(d[:, 1]))
    return float(d[i, 1]), i, int(idx[i, 1] if idx[i, 1] != i else idx[i, 0])  # a duplicate of i may list first


def min_center_distance(codebook: GaussCodebook) -> float:
    """Smallest pairwise Euclidean distance between normalized centers."""
    if codebook.center_count < 2:
        return math.inf
    return _closest_pair(codebook)[0]


def simulate_gauss_errors(
    codebook: GaussCodebook,
    trials: int,
    seed: int,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    message_budget: int | None = None,
) -> SimReport:
    """Monte Carlo error estimates with the same stream discipline and the
    same pair policy as the DMC simulator: one child stream per evaluated
    message, then one per pair, the closest pair of centers first.

    The report carries the Chebyshev reference bounds for this (n, delta) so
    callers can compare the empirical rates against the analytic envelope.
    """
    n = codebook.block_length
    sigma = math.sqrt(codebook.channel.sigma2)

    def accepts(i: int, j: int, rng: np.random.Generator, diff: np.ndarray) -> np.ndarray:
        # In place, with the same roundings as sigma * z + shift.
        rng.standard_normal(out=diff)
        diff *= sigma
        diff += codebook.codeword(i) - codebook.codeword(j)
        return _accepts(codebook, diff)

    report = _simulate(
        codebook.center_count, trials, seed, message_budget,
        lambda: _closest_first_pairs(codebook.center_count, pair_budget, lambda: _closest_pair(codebook)[1:]),
        accepts, n, n,
    )
    ref1, ref2 = chebyshev_references(codebook.channel, n, codebook.delta)
    return replace(report, chebyshev_pe1=ref1, chebyshev_pe2=ref2)


def gauss_codebook_to_dict(codebook: GaussCodebook) -> dict:
    return {
        "channel": gauss_to_dict(codebook.channel),
        "epsilon": codebook.epsilon,
        "delta": codebook.delta,
        "centers": codebook.centers.tolist(),
    }


def gauss_codebook_from_dict(data: dict) -> GaussCodebook:
    return GaussCodebook(
        channel=gauss_from_dict(data["channel"]),
        centers=np.asarray(data["centers"], dtype=np.float64),
        epsilon=float(data["epsilon"]),
        delta=float(data["delta"]),
    )
