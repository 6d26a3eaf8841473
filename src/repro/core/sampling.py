"""Control-population samplers for the uncleanliness tests.

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
spatial (§4) and temporal (§5) tests — runs in-process.  Each trial
draws its subset from its own child of one ``np.random.SeedSequence``
(``root.spawn(count)``), so the result array is a deterministic
function of the caller's rng state.

Statistics come in two shapes.  A plain callable (``Report -> value``)
is the retained per-trial reference path: one ``Report`` per trial, one
call per trial.  A :class:`~repro.core.trials.TrialStatistic` — an
object with ``batch``/``per_trial`` — takes the trial-matrix path: the
trials are drawn as one :class:`~repro.core.trials.TrialEnsemble` and
evaluated in a few numpy passes (:mod:`repro.ipspace.kernels`).
Because ensemble rows are the sorted per-trial draws from the same
spawned streams, both paths return bit-identical arrays; the batched
one is ~20-30x faster at paper scale.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

import numpy as np

from repro.core.report import DataClass, Report, ReportType
from repro.core.trials import TrialEnsemble, is_batched, trial_seed
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
    "TrialEnsemble",
]


def monte_carlo_rng(data_seed: int) -> np.random.Generator:
    """The Monte-Carlo generator a run uses when the caller passes none.

    Derived from, but distinct from, the scenario's data seed, so the
    CLI, the :mod:`repro.api` facade and the experiment modules print
    the same numbers for the same scenario.
    """
    return np.random.default_rng(data_seed ^ 0xC1D)


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


def _run_trials(
    control: Report,
    size: int,
    count: int,
    entropy: int,
    spawn_key: Tuple[int, ...],
    statistic: Callable[[Report], object],
) -> List[object]:
    """Per-trial reference: evaluate each trial on its own ``Report``
    (one spawned stream per trial)."""
    values = []
    for index in range(count):
        rng = np.random.default_rng(trial_seed(entropy, spawn_key, index))
        subset = control.sample(size, rng, tag=f"{control.tag}[{index}]")
        values.append(statistic(subset))
    return values


def monte_carlo(
    control: Report,
    size: int,
    count: int,
    rng: np.random.Generator,
    statistic: Callable[[Report], object],
) -> np.ndarray:
    """Evaluate ``statistic`` over ``count`` random control subsets.

    ``statistic`` may return a scalar (result shape ``(count,)``) or a
    fixed-length sequence (result shape ``(count, k)``); callers
    summarise the array with :func:`repro.core.stats.summarize` or
    compare an observed value via
    :func:`repro.core.stats.exceedance_fraction`.

    One 16-byte draw from ``rng`` roots a ``SeedSequence``, and trial
    ``i`` samples from its ``i``-th spawned child, so the same rng state
    always yields the same array.
    """
    if count <= 0:
        raise ValueError(f"subset count must be positive: {count}")
    root = np.random.SeedSequence(int.from_bytes(rng.bytes(16), "little"))
    entropy, spawn_key = root.entropy, root.spawn_key

    batched = is_batched(statistic)
    obs_metrics.inc("mc.trials", count)
    obs_metrics.inc("mc.streams", count)  # one spawned rng stream per trial
    if batched:
        obs_metrics.inc("mc.batched_trials", count)
    with obs_trace.span(
        "monte_carlo", trials=count, batched=batched, entropy=f"{entropy:032x}"
    ):
        if batched:
            ensemble = TrialEnsemble.draw(control, size, count, entropy, spawn_key)
            return np.asarray(statistic.batch(ensemble), dtype=float)
        return np.asarray(
            _run_trials(control, size, count, entropy, spawn_key, statistic),
            dtype=float,
        )
