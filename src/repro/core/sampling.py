"""Control-population samplers and the Monte Carlo of the uncleanliness tests.

The paper compares unclean reports against two control models (§4.2):

* the **naive** estimate, which "selects addresses evenly from across all
  /8's which are listed as populated by IANA", and
* the **empirical** estimate, which draws random subsets of the control
  report (addresses actually observed in payload-bearing TCP traffic),
  reflecting Kohler et al.'s observation that real addresses are highly
  non-uniform in IPv4 space.

Figure 2 shows the naive estimate badly over-disperses, so the paper (and
this library) uses the empirical estimate everywhere else.

:func:`monte_carlo` — the 1000-random-subset evaluation behind the
spatial (§4), temporal (§5) and blocking (§6) tests — draws every trial
into one row-sorted ``(count, size)`` ``uint32`` matrix
(:func:`draw_trials`) and hands it to a statistic, which is one call
into :mod:`repro.ipspace.kernels`: every trial and every prefix length
in a few full-matrix numpy passes.

Determinism contract: one 16-byte draw from the caller's rng roots a
``np.random.SeedSequence``, and trial ``i`` draws from its ``i``-th
spawned child (``root.spawn(count)[i]``) with the single
``Generator.choice(addresses, size, replace=False)`` call that
:meth:`~repro.core.report.Report.sample` makes.  Row ``i`` is therefore
the sorted ``control.sample(size, rng_i)``, and the result array is a
deterministic function of the caller's rng state.

That makes a null a pure function of the statistic, the control
addresses, the subset size, the trial count and the root
``(entropy, spawn_key)``.  When the caller names its statistic (the
density null of §4 by its prefixes, the intersection null of §5 by its
prefixes and present blocks), :func:`monte_carlo` memoises the small
``(count, len(prefixes))`` result, never the trial matrix, on exactly
that key, so each null is drawn once per process (DESIGN.md, "One null
per process").  The root draw from the caller's rng happens on a hit
as on a miss, so every later draw is unchanged.

``numpy.random`` is imported here, with the package: NumPy loads it
lazily, and its first use would otherwise land inside the first Monte
Carlo's time.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Hashable, Iterator, Optional, Tuple

import numpy as np
from numpy.random import SeedSequence, default_rng

from repro.core.report import DataClass, Report, ReportType
from repro.ipspace.iana import allocated_octets
from repro.ipspace.reserved import reserved_mask
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "naive_sample",
    "empirical_subsets",
    "monte_carlo",
    "monte_carlo_rng",
    "trial_seed",
    "draw_trials",
    "content_digest",
    "clear_null_memo",
    "NULL_MEMO_SIZE",
]

#: How many null results :func:`monte_carlo` keeps, least recently used
#: first out.  A full reproduction draws nine distinct nulls.
NULL_MEMO_SIZE = 16

#: Memoised null results by ``(statistic key, control digest, size,
#: count, entropy, spawn_key)``.  Each is a read-only ``(count, width)``
#: float array of ~136 kB at 1000 trials and 17 prefixes.
_NULLS: "OrderedDict[tuple, np.ndarray]" = OrderedDict()


def monte_carlo_rng(data_seed: int) -> np.random.Generator:
    """The Monte-Carlo generator a run uses when the caller passes none.

    Derived from, but distinct from, the scenario's data seed, so the
    CLI, the :mod:`repro.api` facade and the experiment modules print
    the same numbers for the same scenario.
    """
    return default_rng(data_seed ^ 0xC1D)


def naive_sample(size: int, rng: np.random.Generator, tag: str = "naive") -> Report:
    """Draw ``size`` addresses uniformly from IANA-populated /8s.

    Each draw picks an allocated first octet uniformly at random, then the
    remaining 24 bits uniformly.  Reserved sub-ranges inside allocated /8s
    are rejected and redrawn, matching the paper's report sanitisation,
    and the sample is drawn until it holds exactly ``size`` *distinct*
    addresses (reports are sets, so equal-cardinality comparisons need
    equal unique counts).
    """
    if size <= 0:
        raise ValueError(f"sample size must be positive: {size}")
    octets = np.asarray(sorted(allocated_octets()), dtype=np.uint32)
    seen = np.asarray([], dtype=np.uint32)
    while seen.size < size:
        need = size - seen.size
        chosen_octets = rng.choice(octets, size=need + 16)
        hosts = rng.integers(0, 1 << 24, size=need + 16, dtype=np.uint32)
        batch = (chosen_octets << np.uint32(24)) | hosts
        seen = np.union1d(seen, batch[~reserved_mask(batch)])
    if seen.size > size:
        seen = rng.choice(seen, size=size, replace=False)
    return Report(
        tag=tag,
        addresses=seen,
        report_type=ReportType.OBSERVED,
        data_class=DataClass.NONE,
    )


def empirical_subsets(
    control: Report,
    size: int,
    count: int,
    rng: np.random.Generator,
) -> Iterator[Report]:
    """Yield ``count`` random equal-cardinality subsets of ``control``.

    This is the paper's empirical estimator: "we create 1000 randomly
    generated subsets of R_control" (§4.2).
    """
    if count <= 0:
        raise ValueError(f"subset count must be positive: {count}")
    for index in range(count):
        yield control.sample(size, rng, tag=f"{control.tag}[{index}]")


def trial_seed(
    entropy: int, spawn_key: Tuple[int, ...], index: int
) -> np.random.SeedSequence:
    """Child ``index`` of the root sequence, built without materialising
    every sibling.

    ``SeedSequence(entropy, spawn_key=parent_key + (i,))`` is exactly the
    ``i``-th element of ``parent.spawn(n)`` — this is how each trial
    derives its stream independently of the others.
    """
    return SeedSequence(entropy=entropy, spawn_key=tuple(spawn_key) + (index,))


def content_digest(*arrays: np.ndarray) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array)
    return digest.hexdigest()


def clear_null_memo() -> None:
    """Forget every memoised null, so the next call of each draws again."""
    _NULLS.clear()


def draw_trials(
    control: Report,
    size: int,
    count: int,
    entropy: int,
    spawn_key: Tuple[int, ...],
) -> np.ndarray:
    """The trial matrix of the Monte Carlo rooted at ``(entropy, spawn_key)``.

    Row ``i`` is trial ``i``'s control subset, ``control.sample(size,
    rng_i)`` on the stream of spawned child ``i``, sorted ascending as
    the kernels require.  The ``(count, size)`` ``uint32`` matrix is
    read-only.
    """
    if size > len(control):
        raise ValueError(
            f"cannot sample {size} addresses from report of {len(control)}"
        )
    matrix = np.empty((count, size), dtype=np.uint32)
    addresses = control.addresses
    for index in range(count):
        rng = default_rng(trial_seed(entropy, spawn_key, index))
        matrix[index] = rng.choice(addresses, size=size, replace=False)
    matrix.sort(axis=1)
    matrix.setflags(write=False)
    return matrix


def monte_carlo(
    control: Report,
    size: int,
    count: int,
    rng: np.random.Generator,
    statistic: Callable[[np.ndarray], np.ndarray],
    *,
    statistic_key: Optional[Hashable] = None,
) -> np.ndarray:
    """Evaluate ``statistic`` over ``count`` random control subsets.

    ``statistic`` maps the :func:`draw_trials` matrix to one row per
    trial, for example ``lambda trials: block_counts_2d(trials,
    prefixes)``.  The result is that array as read-only ``float``, of
    shape ``(count,)`` or ``(count, k)``; callers summarise it with
    :func:`repro.core.stats.summarize` or compare an observed value via
    :func:`repro.core.stats.exceedance_fraction`.  A statistic that
    returns anything but ``count`` rows — a per-trial ``Report -> value``
    callable, say — raises ``ValueError``.

    One 16-byte draw from ``rng`` roots a ``SeedSequence``, and trial
    ``i`` samples from its ``i``-th spawned child, so the same rng state
    always yields the same array.

    ``statistic_key`` names the statistic: two calls may share a key
    only if their statistics return equal arrays for every trial
    matrix.  With a key, the result is memoised under that key, the
    sha256 of ``control.addresses``, ``size``, ``count`` and the root
    ``(entropy, spawn_key)``; a later call with the same key returns it
    without drawing, and counts one ``mc.null_hits``.  The root draw
    from ``rng`` happens either way.  Without a key nothing is
    memoised.  :func:`clear_null_memo` (and
    :func:`repro.api.clear_scenario_cache`) empties the memo.
    """
    if count <= 0:
        raise ValueError(f"subset count must be positive: {count}")
    root = SeedSequence(int.from_bytes(rng.bytes(16), "little"))
    entropy, spawn_key = root.entropy, root.spawn_key

    memo_key = None
    if statistic_key is not None:
        memo_key = (
            statistic_key,
            content_digest(control.addresses),
            size,
            count,
            entropy,
            spawn_key,
        )
        values = _NULLS.get(memo_key)
        if values is not None:
            _NULLS.move_to_end(memo_key)
            obs_metrics.inc("mc.null_hits")
            return values

    obs_metrics.inc("mc.trials", count)
    obs_metrics.inc("mc.streams", count)  # one spawned rng stream per trial
    with obs_trace.span("monte_carlo", trials=count, entropy=f"{entropy:032x}"):
        trials = draw_trials(control, size, count, entropy, spawn_key)
        values = np.array(statistic(trials), dtype=float)
    if values.ndim == 0 or values.shape[0] != count:
        raise ValueError(
            f"statistic returned shape {values.shape} for {count} trials: "
            "it must map the trial matrix to one row per trial"
        )
    values.setflags(write=False)
    if memo_key is not None:
        _NULLS[memo_key] = values
        while len(_NULLS) > NULL_MEMO_SIZE:
            _NULLS.popitem(last=False)
    return values
