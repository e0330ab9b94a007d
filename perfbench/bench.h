// Shared types of the end-to-end benchmark: host-clock spans, the record
// one workload pass produces, and the small statistics it is summarised
// with. Everything here is benchmark-side; the simulator is only called.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/phase.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-clock spans the benchmark records around each call into a layer
/// (set-up, populate, each method, verify, each replay). Kept in memory and
/// written out as a Chrome trace when the run ends.
class HostSpans {
 public:
  int begin(const std::string& name, int parent = -1);
  void end(int id);
  /// Attach a work count to a span (e.g. the units a replay timed).
  void set_count(int id, std::int64_t count);
  [[nodiscard]] bool write_chrome(const std::string& path) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0;
    double end_us = -1;
    std::int64_t count = 0;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a null collector records nothing.
class HostScope {
 public:
  HostScope(HostSpans* spans, const std::string& name, int parent = -1)
      : spans_(spans), id_(spans != nullptr ? spans->begin(name, parent) : -1) {}
  ~HostScope() {
    if (spans_ != nullptr) spans_->end(id_);
  }
  HostScope(const HostScope&) = delete;
  HostScope& operator=(const HostScope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  HostSpans* spans_;
  int id_;
};

/// Counters of one method's timed phase, summed over its clusters.
struct MethodRun {
  std::string name;  ///< posix, sieving, two_phase, list, datatype, storm
  double wall_s = 0;   ///< host seconds inside the timed cluster.run()
  double sim_s = 0;    ///< simulated seconds of the timed phase
  double bytes = 0;    ///< desired payload bytes moved, all clients
  std::int64_t calls = 0;
  dtio::IoStats io;    ///< summed over clients
  std::uint64_t events = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_wire_bytes = 0;
  std::uint64_t srv_requests = 0;
  std::uint64_t srv_regions_walked = 0;
  std::uint64_t srv_my_pieces = 0;
  std::uint64_t srv_disk_accesses = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t meta_ops = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t quorum_writes = 0;
  std::uint64_t wb_batches = 0;
  double disk_busy_ns = 0;    ///< summed over servers
  double cpu_busy_ns = 0;     ///< summed over servers
  double link_busy_ns = 0;    ///< server tx + rx, summed
  double server_ns = 0;       ///< servers x simulated ns (utilization base)

  void add(const MethodRun& o);
};

/// Phase attribution of a traced pass (sim clock).
struct TraceSummary {
  std::vector<dtio::obs::OpBreakdown> ops;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
};

/// Everything one pass of a workload produces.
struct PassResult {
  std::vector<MethodRun> methods;      ///< in run order, merged by name
  std::vector<double> op_latency_ns;   ///< one sample per client call
  std::int64_t attempted = 0;
  std::int64_t failed = 0;             ///< error status or never finished
  std::int64_t wrong = 0;              ///< finished, but bytes/counters wrong
  double setup_s = 0;
  double wall_s = 0;                   ///< sum of the methods' timed phases
  std::uint64_t input_digest = 0;      ///< hash of the input bytes; 0 = none
  std::vector<std::string> errors;     ///< first few mismatch descriptions
  TraceSummary trace;                  ///< filled on traced passes only

  MethodRun& method(const std::string& name);
  void error(const std::string& what);
  /// Every sim-clock value and counter of the pass, rendered exactly: the
  /// same seed must reproduce it, and a different seed must too.
  [[nodiscard]] std::string sim_signature() const;
};

struct PassOptions {
  std::uint64_t seed = 1;
  bool traced = false;       ///< attach obs::Observability to every cluster
  HostSpans* spans = nullptr;
  int parent_span = -1;
};

// ---- Statistics ---------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double>& v);

/// FNV-1a over a byte range, chained through `h`.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);

/// Fill `out` with bytes drawn from `seed` (the benchmark's only source of
/// input data).
void fill_bytes(std::uint64_t seed, std::uint8_t* out, std::size_t n);

}  // namespace perfbench
