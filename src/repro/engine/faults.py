"""Deterministic fault injection for the artifact engine.

The chaos-test substrate: a :class:`FaultPlan` is a schedule of
:class:`FaultRule` entries, each naming an injection **site** (a
string such as ``"store.read"``) and a fault **kind** (raise an
``OSError``, corrupt a payload, crash a shard's worker process, sleep).
Production code calls :func:`check` at each site; with no active plan
that is a dictionary lookup and nothing more.

Scheduling is purely counter-based — a rule fires on every ``every``-th
eligible call to its site, after skipping the first ``after`` calls and
at most ``times`` times — so a plan's behaviour is a deterministic
function of the sequence of site calls.  ``seed`` shifts every rule's
phase, giving distinct-but-reproducible schedules from one spec.

Activation:

* ``REPRO_FAULTS=<spec>`` in the environment (read lazily, so fleet
  worker processes pick the plan up regardless of start method), or
* ``with injected(plan): ...`` in tests (overrides the environment for
  the duration of the block).

Spec grammar (sites joined with ``;``)::

    REPRO_FAULTS="store.write:enospc:every=3;shard.crash:every=5,times=2"
    REPRO_FAULTS="io-flaky"          # named profile, see PROFILES

The kind may be omitted when the site has an obvious default
(``store.read`` -> ``oserror``, ``shard.crash`` -> ``crash``, ...).

``shard.crash`` rules only act inside a multiprocessing worker (the
call still consumes a schedule slot in the main process); everything
else fires wherever it is hit.
"""

from __future__ import annotations

import errno
import logging
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

log = logging.getLogger("repro.engine.faults")

__all__ = [
    "ENV_VAR",
    "PROFILES",
    "SITES",
    "FaultSpecError",
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "active_plan",
    "activate",
    "injected",
    "reset",
    "check",
]

#: Environment variable holding the fault spec (or a profile name).
ENV_VAR = "REPRO_FAULTS"

#: Every injection site compiled into the engine.
SITES = (
    "store.read",     # reading a sidecar or payload from disk
    "store.write",    # writing a sidecar or payload to disk
    "store.commit",   # between payload and sidecar rename (crash window)
    "store.corrupt",  # after a successful dump: flip payload bytes
    "stage.slow",     # sleep inside a stage build
    "shard.crash",    # hard-exit a fleet shard's worker process
    "shard.fail",     # raise InjectedFault inside a shard job
    "shard.slow",     # sleep inside a shard job (deadline pressure)
    "shard.corrupt",  # tamper with a shard's delivered report set
)

#: Kind assumed when a rule omits it.
_DEFAULT_KIND = {
    "store.read": "oserror",
    "store.write": "oserror",
    "store.commit": "slow",
    "store.corrupt": "corrupt",
    "stage.slow": "slow",
    "shard.crash": "crash",
    "shard.fail": "fail",
    "shard.slow": "slow",
    "shard.corrupt": "corrupt",
}

_KINDS = ("oserror", "enospc", "fail", "crash", "slow", "corrupt")

#: Named profiles for the CI chaos matrix.  ``every`` values are chosen
#: so the store's bounded retries always recover (transient, not
#: persistent, failure): a store get/put performs two site calls per
#: attempt, so any odd period guarantees a fault-free attempt within
#: the retry budget.
PROFILES = {
    "io-flaky": "store.read:oserror:every=3;store.write:oserror:every=5",
    "disk-full": "store.write:enospc:every=3",
    "corrupt": "store.corrupt:every=3",
    "slow-stage": "stage.slow:every=2,delay=0.01",
    # Shard-boundary profiles for the fleet supervisor: every=3 keeps
    # the default retry budget (max_retries=2, three rounds) ahead of
    # the schedule, so a faulted shard always recovers on a later round.
    "shard-crash": "shard.crash:every=3",
    "shard-slow": "shard.slow:every=2,delay=0.01",
    "shard-corrupt": "shard.corrupt:every=3",
}


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec (or FaultRule) that cannot be parsed."""


class InjectedFault(RuntimeError):
    """The typed error raised by ``kind="fail"`` rules."""


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: fire ``kind`` at ``site`` on a counter."""

    site: str
    kind: str
    every: int = 1
    times: Optional[int] = None
    after: int = 0
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; valid sites: {', '.join(SITES)}"
            )
        if self.kind not in _KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; valid kinds: {', '.join(_KINDS)}"
            )
        if self.every < 1:
            raise FaultSpecError(f"every must be >= 1: {self.every}")
        if self.after < 0 or (self.times is not None and self.times < 1):
            raise FaultSpecError(f"bad after/times in {self!r}")


class FaultPlan:
    """A deterministic, seedable schedule of fault rules.

    The plan keeps one call counter per site and one fire counter per
    rule; :meth:`poll` advances the site counter and returns the first
    rule whose schedule matches.  State is process-local: a forked
    worker inherits the counters at fork time, a spawned worker starts
    fresh from the environment spec.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self._calls: Dict[str, int] = {}
        self._fired: List[int] = [0] * len(self.rules)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``site[:kind][:k=v,...]`` rules joined by ``;``.

        A bare profile name from :data:`PROFILES` expands first.
        """
        spec = spec.strip()
        if spec in PROFILES:
            spec = PROFILES[spec]
        rules = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if chunk:
                rules.append(cls._parse_rule(chunk))
        if not rules:
            raise FaultSpecError(f"empty fault spec: {spec!r}")
        return cls(rules, seed=seed)

    @staticmethod
    def _parse_rule(text: str) -> FaultRule:
        parts = text.split(":")
        site = parts.pop(0).strip()
        kind = None
        params: Dict[str, object] = {}
        for part in parts:
            part = part.strip()
            if "=" not in part:
                if kind is not None:
                    raise FaultSpecError(f"two kinds in fault rule {text!r}")
                kind = part
                continue
            for item in part.split(","):
                key, _, raw = item.partition("=")
                key = key.strip()
                if key in ("every", "times", "after"):
                    try:
                        params[key] = int(raw)
                    except ValueError:
                        raise FaultSpecError(
                            f"non-integer {key}={raw!r} in fault rule {text!r}"
                        ) from None
                elif key == "delay":
                    try:
                        params[key] = float(raw)
                    except ValueError:
                        raise FaultSpecError(
                            f"non-numeric delay={raw!r} in fault rule {text!r}"
                        ) from None
                else:
                    raise FaultSpecError(
                        f"unknown parameter {key!r} in fault rule {text!r}"
                    )
        if kind is None:
            kind = _DEFAULT_KIND.get(site)
            if kind is None:
                raise FaultSpecError(f"fault rule {text!r} needs an explicit kind")
        return FaultRule(site=site, kind=kind, **params)  # type: ignore[arg-type]

    # -- scheduling --------------------------------------------------------

    def poll(self, site: str) -> Optional[FaultRule]:
        """Advance ``site``'s counter; the rule that fires now, if any."""
        calls = self._calls.get(site, 0) + 1
        self._calls[site] = calls
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            eligible = calls - rule.after
            if eligible < 1:
                continue
            if rule.times is not None and self._fired[index] >= rule.times:
                continue
            # Fire on eligible calls every, 2*every, ... with the phase
            # pulled earlier by (seed mod every).
            delta = eligible - (self.seed % rule.every)
            if delta > 0 and delta % rule.every == 0:
                self._fired[index] += 1
                return rule
        return None

    def reset(self) -> None:
        """Zero every counter (the schedule restarts)."""
        self._calls.clear()
        self._fired = [0] * len(self.rules)

    @property
    def total_fired(self) -> int:
        return sum(self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({list(self.rules)!r}, seed={self.seed})"


# -- process-wide activation ----------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ANNOUNCED = False


def active_plan() -> Optional[FaultPlan]:
    """The active plan: an explicit activation, else ``$REPRO_FAULTS``."""
    global _ACTIVE, _ANNOUNCED
    if _ACTIVE is None:
        spec = os.environ.get(ENV_VAR, "").strip()
        if spec:
            _ACTIVE = FaultPlan.from_spec(spec)
            if not _ANNOUNCED:
                _ANNOUNCED = True
                log.warning("fault injection active spec=%r pid=%d", spec, os.getpid())
    return _ACTIVE


def activate(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide active plan."""
    global _ACTIVE
    _ACTIVE = plan


def reset() -> None:
    """Deactivate; the next :func:`check` re-reads the environment."""
    global _ACTIVE, _ANNOUNCED
    _ACTIVE = None
    _ANNOUNCED = False


@contextmanager
def injected(plan: FaultPlan):
    """Run a block under ``plan``, restoring the previous plan after."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


def check(site: str) -> Optional[FaultRule]:
    """Fire the scheduled fault for ``site``, if any.

    Raises for ``oserror``/``enospc``/``fail`` kinds, sleeps for
    ``slow``, hard-exits the process for ``crash`` (worker processes
    only), and *returns* ``corrupt`` rules for the caller to apply.
    """
    plan = active_plan()
    if plan is None:
        return None
    rule = plan.poll(site)
    if rule is None:
        return None
    if rule.kind == "oserror":
        log.info("injecting OSError site=%s", site)
        raise OSError(errno.EIO, f"injected I/O fault at {site}")
    if rule.kind == "enospc":
        log.info("injecting ENOSPC site=%s", site)
        raise OSError(errno.ENOSPC, f"injected disk-full fault at {site}")
    if rule.kind == "fail":
        log.info("injecting failure site=%s", site)
        raise InjectedFault(f"injected fault at {site}")
    if rule.kind == "slow":
        log.info("injecting delay site=%s delay=%.3fs", site, rule.delay)
        time.sleep(rule.delay)
        return rule
    if rule.kind == "crash":
        if _in_worker_process():
            log.info("injecting crash site=%s pid=%d", site, os.getpid())
            os._exit(3)
        return None  # consumed, but never kill the main process
    return rule  # "corrupt": the site applies it itself
