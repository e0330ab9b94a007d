// Layer replays: each layer's public functions, timed on the host clock in
// isolation on one workload's own datatypes, region lists and payload
// sizes. They locate host time that the end-to-end run only shows summed.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Runs every replay for about `budget_s` host seconds each and appends
/// one metric per replay (a per-unit cost) to `out`.
void run_replays(const ReplayInputs& in, double budget_s, HostSpans* spans,
                 int parent_span, std::vector<Metric>& out);

}  // namespace perfbench
