#!/usr/bin/env python
"""The published spin-lock bugs (Sec. 3.2.2-3.2.3, Figs. 2 and 10).

Nvidia's own textbook shipped a spin lock with no fences; the paper shows
a critical section protected by it can read stale values, and the
dot-product client computes wrong answers.  Nvidia published an erratum.

This example runs the whole spin-lock slice of the scenario registry —
the CUDA by Example, Stuart-Owens and He-Yu locks at both placements,
the He-Yu isolation violation and the ticket-lock counter, published and
fixed variants side by side — as *one* app campaign through the sharded,
memoising session (the same pipeline `repro-litmus app` drives), then
confirms the distilled litmus test (cas-sl) agrees with the axiomatic
model.
"""

from repro.api import Session
from repro.apps import run_app_campaign, select_scenarios
from repro.litmus import library
from repro.model.models import ptx_model

#: Intensity stands in for the paper's incantations: the bugs fire at
#: 47-748 per 100k on hardware, so we boost the relaxation intents.
STRESS = 100.0


def main():
    print("spin-lock scenarios under stress (losses per 100k launches):")
    scenarios = select_scenarios(
        ["dot-cbe", "dot-cbe-cta", "dot-so", "dot-so-cta", "dot-heyu",
         "dot-heyu-cta", "isolation", "ticket"])
    campaign = run_app_campaign(
        scenarios, ["TesC", "Titan", "GTX7", "HD7970"],
        runs=400, seed=1, intensity=STRESS)
    print(campaign.summary_table())
    print(campaign.summary())
    fenced_losses = [key for key in campaign.weak_cells()
                     if key[0].endswith("+fenced")]
    assert not fenced_losses, fenced_losses
    print("every +fenced variant stayed clean; the published variants "
          "lose on the weak chips")

    print()
    print("the distilled litmus test (cas-sl, Fig. 9):")
    test = library.build("cas-sl")
    result = Session().run(test, "Titan", iterations=20000, seed=7)
    print("  %s" % result.summary())
    print("  paper observed 512/100k on the GTX Titan")
    model = ptx_model()
    print("  PTX model: %s (and %s once membar.gl fences are added)"
          % ("Allowed" if model.allows_condition(test) else "Forbidden",
             "Allowed" if model.allows_condition(
                 library.build("cas-sl+membar.gls")) else "Forbidden"))


if __name__ == "__main__":
    main()
