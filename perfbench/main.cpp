// dtio_perfbench: one workload, end to end or layer by layer.
//
//   dtio_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//
// --trace 0 repeats untraced passes of the workload for S host seconds and
// prints the end-to-end metrics. --trace 1 makes one untraced pass, one
// traced pass (obs::Observability attached to every cluster), one pass on
// another seed, and the layer replays, and prints the per-layer metrics;
// its host-clock spans go to DIR/perfbench-<workload>-<seed>.json.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is nonzero when any output is wrong.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/phase.h"
#include "replays.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dtio::obs::Phase;

/// End-to-end metrics, reported on every workload. Sim-clock values repeat
/// exactly from run to run; their units say so (sim_ms, 1/sim_s).
const std::vector<Metric>& end_to_end_units() {
  static const std::vector<Metric> specs = {
      {"wall_s", 0, "s"},          {"setup_s", 0, "s"},
      {"peak_rss_mb", 0, "MB"},    {"success_rate", 0, "ratio"},
      {"bw_mbs", 0, "MB/sim_s"},   {"op_p50_sim", 0, "sim_ms"},
      {"op_p90_sim", 0, "sim_ms"}, {"sim_ops_rate", 0, "1/sim_s"},
  };
  return specs;
}

/// The sim-clock phases a client op can spend time in without faults.
constexpr Phase kPhases[] = {
    Phase::kClientPrep,   Phase::kClientQueue,  Phase::kNetRequest,
    Phase::kServerQueue,  Phase::kServerDecode, Phase::kServerExpand,
    Phase::kServerCache,  Phase::kServerDisk,   Phase::kNetReply,
    Phase::kClientFlush,  Phase::kClientLockWait,
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void absorb(const PassResult& pass, const char* label) {
    attempted += pass.attempted;
    failed += pass.failed + pass.wrong;
    for (const std::string& e : pass.errors) {
      errors.push_back(std::string(label) + ": " + e);
    }
    if (pass.failed > 0) {
      errors.push_back(std::string(label) + ": " +
                       std::to_string(pass.failed) +
                       " client calls failed or never finished");
    }
  }
  [[nodiscard]] bool correct() const {
    return attempted > 0 && failed == 0 && errors.empty();
  }
};

/// bw_mbs: geometric mean over the pass's methods of simulated aggregate
/// bandwidth, so each method weighs the same whatever its speed.
double bandwidth_geomean(const PassResult& pass) {
  std::vector<double> bw;
  for (const MethodRun& m : pass.methods) {
    bw.push_back(ratio(m.bytes, m.sim_s) / 1e6);
  }
  return geomean(bw);
}

double sim_seconds(const PassResult& pass) {
  double s = 0;
  for (const MethodRun& m : pass.methods) s += m.sim_s;
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// wall_s is the sum over the workload's methods of each method's median
/// timed-phase host seconds. On a shared host, speed varies from second to
/// second; a per-method median over several passes, summed over methods
/// that ran at different moments, is steadier than the median of whole-pass
/// sums.
std::vector<Metric> end_to_end(const Workload& w, std::uint64_t seed,
                               double seconds, Outcome& outcome) {
  // The first pass is a warm-up; medians are over the passes after it.
  std::vector<std::vector<double>> method_wall;
  std::vector<double> setup;
  PassResult first;
  std::string signature;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 3 || seconds_since(t0) < seconds; ++i) {
    PassOptions opt;
    opt.seed = seed;
    PassResult pass = w.run(opt);
    outcome.absorb(pass, ("pass " + std::to_string(i)).c_str());
    std::fprintf(stderr, "pass %d: setup %.4f s, wall %.4f s =", i,
                 pass.setup_s, pass.wall_s);
    for (const MethodRun& m : pass.methods) {
      std::fprintf(stderr, " %s %.4f", m.name.c_str(), m.wall_s);
    }
    std::fprintf(stderr, "\n");
    if (i == 0) {
      signature = pass.sim_signature();
      first = std::move(pass);
      continue;
    }
    if (pass.sim_signature() != signature) {
      outcome.errors.push_back("pass " + std::to_string(i) +
                               ": same seed gave different sim-clock "
                               "metrics");
    }
    method_wall.resize(pass.methods.size());
    for (std::size_t m = 0; m < pass.methods.size(); ++m) {
      method_wall[m].push_back(pass.methods[m].wall_s);
    }
    setup.push_back(pass.setup_s);
  }
  double wall = 0;
  for (const std::vector<double>& samples : method_wall) wall += median(samples);
  std::fprintf(stderr, "%zu timed passes, %zu latency samples per pass\n",
               setup.size(), first.op_latency_ns.size());
  const double sim_s = sim_seconds(first);
  std::vector<Metric> out = end_to_end_units();
  const double values[] = {
      wall,
      median(setup),
      peak_rss_mb(),
      ratio(static_cast<double>(outcome.attempted - outcome.failed),
            static_cast<double>(outcome.attempted)),
      bandwidth_geomean(first),
      percentile(first.op_latency_ns, 50) / 1e6,
      percentile(first.op_latency_ns, 90) / 1e6,
      ratio(static_cast<double>(first.op_latency_ns.size()), sim_s),
  };
  for (std::size_t i = 0; i < out.size(); ++i) out[i].value = values[i];
  return out;
}

/// Counters of pass `p` as per-layer metrics (0 where the workload does
/// not load the layer).
void counter_metrics(const PassResult& p, std::vector<Metric>& out) {
  MethodRun all;
  for (const MethodRun& m : p.methods) all.add(m);
  out.push_back({"sim.events", static_cast<double>(all.events), "count"});
  out.push_back({"sim.events_per_wall_s",
                 ratio(static_cast<double>(all.events), p.wall_s), "1/s"});
  out.push_back(
      {"net.messages", static_cast<double>(all.net_messages), "count"});
  out.push_back(
      {"net.wire_mb", static_cast<double>(all.net_wire_bytes) / 1e6, "MB"});
  for (const std::string& key : all_method_keys()) {
    MethodRun m;
    for (const MethodRun& r : p.methods) {
      if (r.name == key) m = r;
    }
    const std::string pre = "io." + key + ".";
    out.push_back({pre + "wall_share", ratio(m.wall_s, p.wall_s), "ratio"});
    out.push_back({pre + "io_ops", static_cast<double>(m.io.io_ops), "count"});
    out.push_back({pre + "requests_sent",
                   static_cast<double>(m.io.requests_sent), "count"});
    out.push_back({pre + "request_bytes",
                   static_cast<double>(m.io.request_bytes), "B"});
    out.push_back({pre + "accessed_over_desired",
                   ratio(static_cast<double>(m.io.accessed_bytes),
                         static_cast<double>(m.io.desired_bytes)),
                   "ratio"});
    out.push_back({pre + "bw_mbs", ratio(m.bytes, m.sim_s) / 1e6, "MB/sim_s"});
  }
  out.push_back({"collective.resent_mb",
                 static_cast<double>(all.io.resent_bytes) / 1e6, "MB"});
  out.push_back(
      {"server.requests", static_cast<double>(all.srv_requests), "count"});
  out.push_back({"server.regions_walked",
                 static_cast<double>(all.srv_regions_walked), "count"});
  out.push_back({"server.my_pieces_over_walked",
                 ratio(static_cast<double>(all.srv_my_pieces),
                       static_cast<double>(all.srv_regions_walked)),
                 "ratio"});
  out.push_back({"server.disk_accesses",
                 static_cast<double>(all.srv_disk_accesses), "count"});
  out.push_back({"util.disk", ratio(all.disk_busy_ns, all.server_ns), "ratio"});
  out.push_back(
      {"util.server_cpu", ratio(all.cpu_busy_ns, all.server_ns), "ratio"});
  out.push_back(
      {"util.link", ratio(all.link_busy_ns, 2 * all.server_ns), "ratio"});
  out.push_back({"cache.hit_ratio",
                 ratio(static_cast<double>(all.cache_hits),
                       static_cast<double>(all.cache_hits + all.cache_misses)),
                 "ratio"});
  out.push_back(
      {"cache.evictions", static_cast<double>(all.cache_evictions), "count"});
  out.push_back({"meta.ops", static_cast<double>(all.meta_ops), "count"});
  out.push_back(
      {"meta.lock_waits", static_cast<double>(all.lock_waits), "count"});
  out.push_back(
      {"client.rpc_retries", static_cast<double>(all.rpc_retries), "count"});
  out.push_back(
      {"client.rpc_timeouts", static_cast<double>(all.rpc_timeouts), "count"});
  out.push_back({"repl.quorum_writes", static_cast<double>(all.quorum_writes),
                 "count"});
  out.push_back({"wb.batches", static_cast<double>(all.wb_batches), "count"});
  out.push_back({"op.samples", static_cast<double>(p.op_latency_ns.size()),
                 "count"});
}

/// Phase shares of the traced pass: each phase's mean sim-clock time per
/// client op over the mean op latency.
void phase_metrics(const PassResult& traced, std::vector<Metric>& out) {
  const dtio::obs::PhaseReport report =
      dtio::obs::summarize_phases(traced.trace.ops);
  for (const Phase ph : kPhases) {
    out.push_back({std::string("phase.") + dtio::obs::phase_name(ph) +
                       ".share",
                   ratio(report.mean_phase_ns[static_cast<std::size_t>(ph)],
                         report.mean_ns),
                   "ratio"});
  }
  out.push_back({"phase.coverage", report.mean_coverage, "ratio"});
}

std::vector<Metric> per_layer(const Workload& w, std::uint64_t seed,
                              double seconds, const std::string& out_dir,
                              Outcome& outcome) {
  HostSpans spans;
  PassResult plain;
  PassResult traced;
  PassResult reseeded;
  {
    HostScope s(&spans, "pass/untraced");
    plain = w.run(PassOptions{seed, false, &spans, s.id()});
  }
  {
    HostScope s(&spans, "pass/traced");
    traced = w.run(PassOptions{seed, true, &spans, s.id()});
  }
  {
    HostScope s(&spans, "pass/reseeded");
    reseeded = w.run(PassOptions{seed ^ 0x5bd1e995ULL, false, &spans, s.id()});
  }
  outcome.absorb(plain, "untraced pass");
  outcome.absorb(traced, "traced pass");
  outcome.absorb(reseeded, "reseeded pass");
  // Determinism: tracing records without perturbing, and the seed changes
  // only the bytes, never a sim-clock metric or counter.
  const std::string signature = plain.sim_signature();
  if (traced.sim_signature() != signature) {
    outcome.errors.push_back("tracing changed sim-clock metrics");
  }
  if (reseeded.sim_signature() != signature) {
    outcome.errors.push_back("another seed changed sim-clock metrics");
  }
  if (plain.input_digest != 0 && reseeded.input_digest == plain.input_digest) {
    outcome.errors.push_back("another seed generated the same input bytes");
  }
  if (traced.trace.spans_dropped != 0) {
    outcome.errors.push_back(
        "traced pass dropped " + std::to_string(traced.trace.spans_dropped) +
        " spans: phase shares would be incomplete");
  }

  std::vector<Metric> out;
  counter_metrics(plain, out);
  phase_metrics(traced, out);
  out.push_back({"obs.overhead_frac", ratio(traced.wall_s, plain.wall_s) - 1,
                 "ratio"});
  out.push_back({"obs.spans_dropped",
                 static_cast<double>(traced.trace.spans_dropped), "count"});
  out.push_back({"obs.spans_recorded",
                 static_cast<double>(traced.trace.spans_recorded), "count"});
  {
    HostScope s(&spans, "replays");
    // Each replay runs for 1% of the run's seconds, within fixed limits.
    const double budget = std::clamp(seconds / 100.0, 0.02, 0.2);
    run_replays(w.inputs(), budget, &spans, s.id(), out);
  }
  const std::string path = out_dir + "/perfbench-" + w.name + "-" +
                           std::to_string(seed) + ".json";
  if (!spans.write_chrome(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "host spans: %s (%zu spans)\n", path.c_str(),
                 spans.size());
  }
  return out;
}

void print_result(const Outcome& outcome, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-44s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : outcome.errors) {
    std::printf("ERROR %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              outcome.correct() ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

const char* arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: dtio_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int bench_main(int argc, char** argv) {
  const char* name = arg(argc, argv, "--workload", nullptr);
  if (name == nullptr) return usage("--workload is required");
  const Workload* w = find_workload(name);
  if (w == nullptr) return usage("unknown workload");
  const std::uint64_t seed =
      std::strtoull(arg(argc, argv, "--seed", "1"), nullptr, 10);
  const double seconds = std::atof(arg(argc, argv, "--seconds", "10"));
  const int trace = std::atoi(arg(argc, argv, "--trace", "0"));
  const std::string out_dir = arg(argc, argv, "--out-dir", ".");
  if (seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage("--seconds must be positive and --trace 0 or 1");
  }

  Outcome outcome;
  std::vector<Metric> metrics;
  try {
    metrics = trace == 0 ? end_to_end(*w, seed, seconds, outcome)
                         : per_layer(*w, seed, seconds, out_dir, outcome);
  } catch (const std::exception& e) {
    outcome.errors.push_back(std::string("exception: ") + e.what());
  }
  print_result(outcome, metrics);
  return outcome.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::bench_main(argc, argv); }
