#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/rng.h"

namespace perfbench {

int HostSpans::begin(const std::string& name, int parent) {
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_).count();
  spans_.push_back(Span{name, parent, now, -1});
  return static_cast<int>(spans_.size()) - 1;
}

void HostSpans::end(int id) {
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
}

void HostSpans::set_count(int id, std::int64_t count) {
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].count = count;
}

bool HostSpans::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double end = s.end_us < 0 ? s.start_us : s.end_us;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"count\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                 end - s.start_us, i, s.parent,
                 static_cast<long long>(s.count));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void MethodRun::add(const MethodRun& o) {
  wall_s += o.wall_s;
  sim_s += o.sim_s;
  bytes += o.bytes;
  calls += o.calls;
  io += o.io;
  events += o.events;
  net_messages += o.net_messages;
  net_wire_bytes += o.net_wire_bytes;
  srv_requests += o.srv_requests;
  srv_regions_walked += o.srv_regions_walked;
  srv_my_pieces += o.srv_my_pieces;
  srv_disk_accesses += o.srv_disk_accesses;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_evictions += o.cache_evictions;
  meta_ops += o.meta_ops;
  lock_waits += o.lock_waits;
  rpc_retries += o.rpc_retries;
  rpc_timeouts += o.rpc_timeouts;
  quorum_writes += o.quorum_writes;
  wb_batches += o.wb_batches;
  disk_busy_ns += o.disk_busy_ns;
  cpu_busy_ns += o.cpu_busy_ns;
  link_busy_ns += o.link_busy_ns;
  server_ns += o.server_ns;
}

MethodRun& PassResult::method(const std::string& name) {
  for (MethodRun& m : methods) {
    if (m.name == name) return m;
  }
  methods.push_back(MethodRun{});
  methods.back().name = name;
  return methods.back();
}

void PassResult::error(const std::string& what) {
  ++wrong;
  if (errors.size() < 8) errors.push_back(what);
}

std::string PassResult::sim_signature() const {
  std::string out;
  char buf[512];
  for (const MethodRun& m : methods) {
    std::snprintf(
        buf, sizeof buf,
        "%s sim=%.17g bytes=%.17g calls=%lld io=%s ev=%llu msg=%llu "
        "wire=%llu req=%llu walk=%llu mine=%llu disk=%llu ch=%llu cm=%llu "
        "ce=%llu meta=%llu lw=%llu rr=%llu rt=%llu qw=%llu wb=%llu "
        "busy=%.17g/%.17g/%.17g\n",
        m.name.c_str(), m.sim_s, m.bytes, static_cast<long long>(m.calls),
        m.io.to_string().c_str(),
        static_cast<unsigned long long>(m.events),
        static_cast<unsigned long long>(m.net_messages),
        static_cast<unsigned long long>(m.net_wire_bytes),
        static_cast<unsigned long long>(m.srv_requests),
        static_cast<unsigned long long>(m.srv_regions_walked),
        static_cast<unsigned long long>(m.srv_my_pieces),
        static_cast<unsigned long long>(m.srv_disk_accesses),
        static_cast<unsigned long long>(m.cache_hits),
        static_cast<unsigned long long>(m.cache_misses),
        static_cast<unsigned long long>(m.cache_evictions),
        static_cast<unsigned long long>(m.meta_ops),
        static_cast<unsigned long long>(m.lock_waits),
        static_cast<unsigned long long>(m.rpc_retries),
        static_cast<unsigned long long>(m.rpc_timeouts),
        static_cast<unsigned long long>(m.quorum_writes),
        static_cast<unsigned long long>(m.wb_batches), m.disk_busy_ns,
        m.cpu_busy_ns, m.link_busy_ns);
    out += buf;
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : op_latency_ns) {
    h = fnv1a(reinterpret_cast<const std::uint8_t*>(&v), sizeof v, h);
  }
  std::snprintf(buf, sizeof buf, "latency n=%zu h=%016llx attempted=%lld\n",
                op_latency_ns.size(), static_cast<unsigned long long>(h),
                static_cast<long long>(attempted));
  out += buf;
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                    std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void fill_bytes(std::uint64_t seed, std::uint8_t* out, std::size_t n) {
  dtio::Rng rng(seed);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(out + i, &word, 8);
  }
  if (i < n) {
    const std::uint64_t word = rng.next();
    std::memcpy(out + i, &word, n - i);
  }
}

}  // namespace perfbench
