// The paper's evaluation as one experiment registry: Table I, Figs. 10-14
// (§IV), the ablations A1-A9 and the extensions E1-E4, in EXPERIMENTS.md
// order. `das_sim --figure=<id>|all [--jobs=N]` runs it.
//
// An experiment declares its cells (independent simulations), then derives
// its printed series and paper-vs-measured shape checks from their reports.
// A cell at one (scheme, kernel, GiB, nodes) point of the paper's grid is
// simulated once per invocation and shared by every experiment that names
// it: Figs. 10, 11 and 14 are subsets of Fig. 12's grid. Every cell runs in
// its own sim::RunContext on parallel_for_indexed, and the text is
// assembled in registry order afterwards, so it is byte-identical for any
// job count.
#pragma once

#include <string>

namespace das::runner {

struct ExperimentOutput {
  std::string text;       // banners, series, report tables and checks
  bool all_hold = true;   // every shape check held
};

/// Run experiment `id` (table1, fig10 .. fig14, a1 .. a9, e1 .. e4), or every
/// experiment in registry order for "all", on up to `jobs` threads. Throws
/// std::invalid_argument listing the valid ids for any other id.
[[nodiscard]] ExperimentOutput run_experiments(const std::string& id,
                                               unsigned jobs);

}  // namespace das::runner
