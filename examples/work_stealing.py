#!/usr/bin/env python
"""The work-stealing deque bugs (Sec. 3.2.1, Figs. 6-8).

The Cederman-Tsigas deque from GPU Computing Gems uses no fences.  Two
weak behaviours each make it lose a task:

* a steal can see the new ``tail`` but read a stale task (mp shape);
* a steal can read a *later* push while the pop's CAS observes the steal
  (lb shape).

This example runs the deque slice of the scenario registry — the mp and
lb distillations plus the two-slot round trip, published and fenced —
as one app campaign across chips (parallel shards, memoised cells),
cross-checks the distilled litmus tests, and demonstrates the
TeraScale 2 *compiler* bug that invalidated dlb-lb on the HD 6570 (the
"n/a" in Fig. 8).
"""

from repro.api import Session
from repro.apps import run_app_campaign, select_scenarios
from repro.compiler import LOAD_CAS_REORDERED, effective_litmus
from repro.litmus import library

STRESS = 100.0


def main():
    print("deque scenarios under stress (losses per 100k launches):")
    campaign = run_app_campaign(
        select_scenarios(["deque-mp", "deque-lb", "deque-rt"]),
        ["TesC", "Titan", "GTX7", "HD7970"],
        runs=400, seed=1, intensity=STRESS, jobs=2)
    print(campaign.summary_table())
    print(campaign.summary())
    fenced_losses = [key for key in campaign.weak_cells()
                     if key[0].endswith("+fenced")]
    assert not fenced_losses, fenced_losses
    print("the paper's fences fix every variant, including the round trip")

    print()
    print("distilled litmus tests (paper rates per 100k: dlb-mp Titan 65,")
    print("dlb-lb Titan 2292, dlb-lb HD7970 13591):")
    session = Session()
    for name, chip in [("dlb-mp", "Titan"), ("dlb-lb", "Titan"),
                       ("dlb-lb", "HD7970")]:
        result = session.run(library.build(name), chip, iterations=20000,
                             seed=3)
        print("  %s" % result.summary())

    print()
    print("the TeraScale 2 compiler bug (Fig. 8's n/a):")
    effective, transformations, valid = effective_litmus(
        library.build("dlb-lb"), "TeraScale 2")
    print("  compiling dlb-lb for Evergreen applies: %s" % transformations)
    print("  test valid after compilation: %s  -> reported n/a, as in Fig. 8"
          % valid)
    assert LOAD_CAS_REORDERED in transformations


if __name__ == "__main__":
    main()
