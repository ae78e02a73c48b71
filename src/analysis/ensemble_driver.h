// Ensemble run driver: simulates a population of perturbed device replicas.
//
// run_ensemble is the execution half of analysis/ensemble.h — run_simulation
// dispatches here when options.ensemble.enabled. One replica is one work
// unit of analysis/units.h, so the population inherits the runner's
// contract: replica r's streams are pure functions of the effective
// ensemble seed and r (retry_stream_seed(effective, r, attempt)), a poisoned
// replica retries on its re-derived stream and then degrades to a
// failed:<code> row while the other N-1 stay bitwise untouched, and the
// replica-granular RunCheckpoint ("ensemble" sub-fingerprint) makes
// cancel -> resume bitwise lossless. The replica body has two shapes:
//
//   * plain fixed-budget current measurements (no sweep, no transient
//     window, no convergence stopping, repeats = 1) run one solo engine on
//     the replica's circuit, sharing one ElectrostaticModel when no
//     capacitance is perturbed;
//   * sweeps, transients, convergence-stopped and multi-repeat runs recurse
//     into the single-device run_simulation with the replica's seed.
#pragma once

#include "analysis/driver.h"

namespace semsim {

/// Runs the ensemble options.ensemble describes over `input`. Requires
/// options.ensemble.enabled (run_simulation routes here). Throws only when
/// the whole ensemble is unusable: invalid spec, strict-mode unit failure,
/// cancellation, or every replica failed.
DriverResult run_ensemble(const SimulationInput& input,
                          const DriverOptions& options);

}  // namespace semsim
