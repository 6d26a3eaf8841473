#!/usr/bin/env python
"""Quickstart: test both uncleanliness hypotheses on a synthetic scenario.

Builds the fast (~1s) version of the paper's datasets — a synthetic
Internet, a year of botnet and phishing activity, the October 2006
observation window, and every report of Table 1 — then runs the paper's
two core tests through the :mod:`repro.api` facade:

* spatial uncleanliness (§4): do compromised hosts cluster into fewer
  /n blocks than random control addresses?
* temporal uncleanliness (§5): does a five-month-old bot report predict
  October's bots better than random control addresses?

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import evaluate, run_scenario


def main() -> None:
    print("Building the scenario (synthetic Internet + botnet + detectors)...")
    run = run_scenario(small=True)
    print(f"  {run.internet!r}")
    print(f"  {run.botnet!r}")
    print(f"  reports: " + ", ".join(
        f"{tag}={len(report)}" for tag, report in sorted(run.reports.items())
    ))
    print()

    rng = np.random.default_rng(0)

    print("Spatial uncleanliness (Eq. 3): are bots denser than control?")
    spatial = evaluate(run, metric="density", train="bot", rng=rng, subsets=100)
    for n in (16, 20, 24, 28):
        print(
            f"  /{n}: bot blocks={spatial.observed[n]:>5}  "
            f"control median={spatial.control[n].median:>7.0f}  "
            f"density ratio={spatial.density_ratio(n):.2f}"
        )
    print(f"  hypothesis holds: {spatial.hypothesis_holds()}")
    print()

    print("Temporal uncleanliness (Eq. 5): does May's botnet predict October's?")
    temporal = evaluate(
        run, metric="prediction", train="bot-test", present="bot",
        rng=rng, subsets=100,
    )
    for n in (16, 20, 24, 28):
        print(
            f"  /{n}: intersection={temporal.observed[n]:>3}  "
            f"control median={temporal.control[n].median:>5.1f}  "
            f"beats control in {temporal.exceedance[n]:.0%} of draws"
        )
    print(f"  hypothesis holds: {temporal.hypothesis_holds()}")
    print(f"  predictive prefix range: {temporal.predictive_range()}")
    print()

    print("And the negative result: bots do NOT predict phishing (§5.2).")
    phish = evaluate(
        run, metric="prediction", train="bot-test", present="phish-present",
        rng=rng, subsets=100,
    )
    print(f"  predictive prefixes vs phishing: {phish.predictive_prefixes() or 'none'}")


if __name__ == "__main__":
    main()
