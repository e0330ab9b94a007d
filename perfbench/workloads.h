// The benchmark's four workloads. Each pass builds fresh clusters, times
// only the simulated clients' calls, and verifies outputs afterwards:
// bytes against the JointWalker oracle where real bytes move, the paper's
// Table 2 counters where they do not.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "io/view.h"
#include "types/datatype.h"

namespace perfbench {

/// Shapes of one workload's inputs, for the layer replays: the replays
/// time each layer's public functions on exactly these.
struct ReplayInputs {
  /// Builders of the workload's datatypes; each call constructs a fresh
  /// type, so its dataloop conversion has not been cached yet.
  std::vector<std::function<dtio::types::Datatype()>> make_types;
  dtio::types::Datatype memtype;  ///< memory side of one client call
  dtio::io::FileView view;        ///< file side of one client call
  std::int64_t call_bytes = 0;    ///< stream bytes of one client call
  std::int64_t payload_bytes = 0; ///< typical per-server message payload
  std::int64_t contig_bytes = 0;  ///< contiguous request size
  std::vector<std::string> paths; ///< namespace paths the workload uses
  std::int64_t lock_bytes = 0;    ///< byte range of one lock request
  bool transfer_data = true;      ///< false: timing-only, as the workload
};

struct Workload {
  const char* name;
  PassResult (*run)(const PassOptions& opt);
  ReplayInputs (*inputs)();
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Every method key io.<m>.* metrics are reported for.
const std::vector<std::string>& all_method_keys();

}  // namespace perfbench
