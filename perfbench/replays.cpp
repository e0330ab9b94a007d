#include "replays.h"

#include <algorithm>
#include <any>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "cache/buffer_cache.h"
#include "common/crc32.h"
#include "dataloop/pack.h"
#include "dataloop/serialize.h"
#include "io/joint.h"
#include "meta/lock_table.h"
#include "meta/shard_map.h"
#include "obs/span.h"
#include "pfs/cluster.h"
#include "pfs/layout.h"
#include "sim/mailbox.h"
#include "sim/scheduler.h"

namespace perfbench {
namespace {

using dtio::sim::Task;
constexpr std::int64_t kAll = std::numeric_limits<std::int64_t>::max();

/// Keeps a result observable so the replayed work is not optimised away.
volatile std::uint64_t g_sink = 0;

void keep(std::uint64_t v) { g_sink = g_sink + v; }

/// Times one replay per metric: calls `fn` (which returns the units of
/// work it did) until the budget is spent, at least once, under a host
/// span carrying the unit count, and appends ns per unit times `scale`.
class Replayer {
 public:
  Replayer(double budget_s, HostSpans* spans, int parent,
           std::vector<Metric>& out)
      : budget_s_(budget_s), spans_(spans), parent_(parent), out_(out) {}

  template <typename Fn>
  void time(const char* name, const char* unit, Fn&& fn, double scale = 1) {
    HostScope span(spans_, std::string("replay/") + name, parent_);
    std::int64_t units = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0;
    do {
      units += fn();
      elapsed = seconds_since(t0);
    } while (elapsed < budget_s_);
    if (spans_ != nullptr) spans_->set_count(span.id(), units);
    out_.push_back(
        {name,
         units > 0 ? scale * elapsed * 1e9 / static_cast<double>(units) : 0,
         unit});
  }

 private:
  double budget_s_;
  HostSpans* spans_;
  int parent_;
  std::vector<Metric>& out_;
};

std::int64_t instances_for(const ReplayInputs& in) {
  return dtio::io::make_window(in.view, 0, in.call_bytes).instances;
}

struct ServerFilter {
  const dtio::pfs::FileLayout* layout;
  int server;
  static bool keep(const void* ctx, std::int64_t lo, std::int64_t hi) {
    const auto* f = static_cast<const ServerFilter*>(ctx);
    return f->layout->intersects_server(dtio::Region{lo, hi - lo}, f->server);
  }
};

/// Regions of one call's file side, walked the way a server expands it.
std::int64_t expand(const ReplayInputs& in, const ServerFilter* filter) {
  dtio::dl::Cursor cursor(in.view.filetype.dataloop(), in.view.displacement,
                          instances_for(in));
  cursor.set_stream_limit(in.call_bytes);
  if (filter != nullptr) cursor.set_filter(&ServerFilter::keep, filter);
  return cursor.process(kAll, kAll, [](std::int64_t, std::int64_t) {}, false)
      .regions;
}

/// The first list-I/O request of one call: up to 64 file regions.
std::vector<dtio::Region> first_list_request(const ReplayInputs& in) {
  std::vector<dtio::Region> regions;
  dtio::dl::Cursor cursor(in.view.filetype.dataloop(), in.view.displacement,
                          instances_for(in));
  cursor.process(64, in.call_bytes, [&](std::int64_t off, std::int64_t len) {
    regions.push_back(dtio::Region{off, len});
  });
  return regions;
}

/// A one-client cluster (the workload's server count) with one file.
struct OneClient {
  OneClient(const dtio::net::ClusterConfig& cfg, bool transfer_data)
      : cluster(cfg) {
    client = cluster.make_client(0);
    client->set_transfer_data(transfer_data);
    cluster.scheduler().spawn(
        [](dtio::pfs::Client& c, std::uint64_t& h) -> Task<void> {
          h = (co_await c.create("/replay")).handle;
        }(*client, handle));
    cluster.run();
  }

  /// Runs `calls` (a coroutine issuing kCalls Client calls) to completion;
  /// returns the call count for Replayer::time.
  std::int64_t run(Task<void> calls) {
    cluster.scheduler().spawn(std::move(calls));
    cluster.run();
    return kCalls;
  }

  static constexpr int kCalls = 4;
  dtio::pfs::Cluster cluster;
  std::unique_ptr<dtio::pfs::Client> client;
  std::uint64_t handle = 0;
};

Task<void> contig_calls(dtio::pfs::Client& c, std::uint64_t h,
                        std::uint8_t* data, std::int64_t len, bool write,
                        bool flush) {
  for (int i = 0; i < OneClient::kCalls; ++i) {
    if (write) {
      (void)co_await c.write_contig(h, 0, data, len);
    } else {
      (void)co_await c.read_contig(h, 0, data, len);
    }
    if (flush) (void)co_await c.flush_write_behind();
  }
}

Task<void> list_calls(dtio::pfs::Client& c, std::uint64_t h,
                      const std::vector<dtio::Region>& regions,
                      std::uint8_t* data, bool write) {
  for (int i = 0; i < OneClient::kCalls; ++i) {
    if (write) {
      (void)co_await c.write_list(h, regions, data);
    } else {
      (void)co_await c.read_list(h, regions, data);
    }
  }
}

Task<void> datatype_calls(dtio::pfs::Client& c, std::uint64_t h,
                          const ReplayInputs& in, std::uint8_t* data,
                          bool write) {
  const dtio::dl::DataloopPtr& loop = in.view.filetype.dataloop();
  const std::int64_t instances = instances_for(in);
  for (int i = 0; i < OneClient::kCalls; ++i) {
    if (write) {
      (void)co_await c.write_datatype(h, loop, in.view.displacement,
                                      instances, 0, in.call_bytes, data);
    } else {
      (void)co_await c.read_datatype(h, loop, in.view.displacement,
                                     instances, 0, in.call_bytes, data);
    }
  }
}

/// Host microseconds per Client call, one interface at a time, with
/// requests shaped like the workload's (and real bytes where it has them).
void pfs_replays(const ReplayInputs& in, Replayer& r) {
  dtio::net::ClusterConfig cfg;  // the workloads' 16 servers, 64 KiB strips
  cfg.num_clients = 1;
  OneClient one(cfg, in.transfer_data);
  dtio::pfs::Client& c = *one.client;
  const std::uint64_t h = one.handle;
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(std::max(in.contig_bytes, in.call_bytes)));
  fill_bytes(7, buf.data(), buf.size());
  std::uint8_t* data = buf.data();
  const std::vector<dtio::Region> regions = first_list_request(in);
  const double to_us = 1e-3;

  r.time("pfs.replay.contig_write_us", "us", [&] {
    return one.run(contig_calls(c, h, data, in.contig_bytes, true, false));
  }, to_us);
  r.time("pfs.replay.contig_read_us", "us", [&] {
    return one.run(contig_calls(c, h, data, in.contig_bytes, false, false));
  }, to_us);
  r.time("pfs.replay.list_write_us", "us", [&] {
    return one.run(list_calls(c, h, regions, data, true));
  }, to_us);
  r.time("pfs.replay.list_read_us", "us", [&] {
    return one.run(list_calls(c, h, regions, data, false));
  }, to_us);
  r.time("pfs.replay.datatype_write_us", "us", [&] {
    return one.run(datatype_calls(c, h, in, data, true));
  }, to_us);
  r.time("pfs.replay.datatype_read_us", "us", [&] {
    return one.run(datatype_calls(c, h, in, data, false));
  }, to_us);

  // Write-behind: each write is staged, then drained by the flush as one
  // kBatchWrite envelope per server.
  dtio::net::ClusterConfig wb_cfg = cfg;
  wb_cfg.client.write_behind_bytes = 4 * dtio::kMiB;
  OneClient wb(wb_cfg, in.transfer_data);
  const std::int64_t batch = std::min<std::int64_t>(in.contig_bytes,
                                                    4 * dtio::kMiB);
  r.time("pfs.replay.batch_write_us", "us", [&] {
    return wb.run(contig_calls(*wb.client, wb.handle, data, batch, true, true));
  }, to_us);
}

/// A store without storage: the cache replay times the cache's own
/// bookkeeping, not a backing copy.
struct NullStore final : dtio::cache::ByteStore {
  void read_at(std::uint64_t, std::int64_t, std::span<std::uint8_t>) override {}
  void write_at(std::uint64_t, std::int64_t,
                std::span<const std::uint8_t>) override {}
  void note_size(std::uint64_t, std::int64_t, std::int64_t) override {}
  std::int64_t size_of(std::uint64_t) override { return kAll; }
};

Task<void> drain_mailbox(dtio::sim::Mailbox& mailbox, int n) {
  for (int i = 0; i < n; ++i) (void)co_await mailbox.recv();
}

}  // namespace

void run_replays(const ReplayInputs& in, double budget_s, HostSpans* spans,
                 int parent_span, std::vector<Metric>& out) {
  Replayer r(budget_s, spans, parent_span, out);

  // types -> dataloop conversion, on freshly built (uncached) types.
  r.time("types.replay.to_dataloop_us", "us", [&] {
    for (const auto& make : in.make_types) {
      keep(static_cast<std::uint64_t>(make().dataloop()->node_count()));
    }
    return static_cast<std::int64_t>(in.make_types.size());
  }, 1e-3);

  // dl::Cursor over one call's file side: every region, then each
  // server's pruned walk. Both are charged per region of the full walk, so
  // the pruned figure sits below the full one by what pruning saves.
  const std::int64_t regions = expand(in, nullptr);
  r.time("dataloop.replay.expand_full_ns_per_region", "ns/region",
         [&] { return expand(in, nullptr); });
  const dtio::net::ClusterConfig defaults;
  const int servers = defaults.num_servers;
  const dtio::pfs::FileLayout layout(
      servers, static_cast<std::int64_t>(defaults.strip_size));
  r.time("dataloop.replay.expand_pruned_ns_per_region", "ns/region", [&] {
    for (int srv = 0; srv < servers; ++srv) {
      const ServerFilter filter{&layout, srv};
      keep(static_cast<std::uint64_t>(expand(in, &filter)));
    }
    return regions * servers;
  });

  r.time("dataloop.replay.joint_ns_per_piece", "ns/piece", [&] {
    dtio::io::JointWalker walker(
        dtio::io::make_mem_cursor(in.memtype, 1),
        dtio::io::make_file_cursor(
            in.view, dtio::io::make_window(in.view, 0, in.call_bytes)));
    dtio::io::JointWalker::Piece piece;
    std::int64_t pieces = 0;
    while (walker.next(piece)) ++pieces;
    return pieces;
  });

  std::vector<std::uint8_t> typed(
      static_cast<std::size_t>(in.memtype.lb() + in.memtype.extent()));
  fill_bytes(3, typed.data(), typed.size());
  std::vector<std::uint8_t> stream(static_cast<std::size_t>(in.memtype.size()));
  r.time("dataloop.replay.pack_ns_per_byte", "ns/B", [&] {
    dtio::dl::Cursor cursor(in.memtype.dataloop(), 0, 1);
    return static_cast<std::int64_t>(
        dtio::dl::pack(typed.data(), cursor, stream));
  });
  r.time("dataloop.replay.unpack_ns_per_byte", "ns/B", [&] {
    dtio::dl::Cursor cursor(in.memtype.dataloop(), 0, 1);
    return static_cast<std::int64_t>(
        dtio::dl::unpack(typed.data(), cursor, stream));
  });
  out.push_back({"dataloop.encoded_bytes",
                 static_cast<double>(
                     dtio::dl::encoded_size(*in.view.filetype.dataloop())),
                 "B"});

  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(std::max<std::int64_t>(in.payload_bytes, 1)));
  fill_bytes(5, payload.data(), payload.size());
  r.time("crc32.replay.ns_per_byte", "ns/B", [&] {
    keep(dtio::crc32(payload));
    return static_cast<std::int64_t>(payload.size());
  });

  constexpr int kEvents = 4096;
  r.time("sim.replay.schedule_ns", "ns", [&] {
    dtio::sim::Scheduler sched;
    for (int i = 0; i < kEvents; ++i) {
      sched.schedule_call(i % 64, [] { keep(1); });
    }
    sched.run();
    return std::int64_t{kEvents};
  });
  r.time("sim.replay.mailbox_ns", "ns", [&] {
    dtio::sim::Scheduler sched;
    dtio::sim::Mailbox mailbox(sched);
    sched.spawn(drain_mailbox(mailbox, kEvents));
    for (int i = 0; i < kEvents; ++i) {
      sched.schedule_call(i, [&mailbox] {
        mailbox.deliver(dtio::sim::Message(0, 1, 64, std::any(1)));
      });
    }
    sched.run();
    return std::int64_t{kEvents};
  });

  pfs_replays(in, r);

  dtio::cache::CacheConfig cache_cfg;
  cache_cfg.capacity_bytes = 64 * dtio::kMiB;
  NullStore store;
  dtio::cache::BlockCache cache(cache_cfg, store);
  const std::int64_t access =
      std::clamp<std::int64_t>(in.contig_bytes, 4 * dtio::kKiB, dtio::kMiB);
  // A working set of twice the capacity: hits, misses and evictions occur.
  const std::int64_t working_set = 2 * cache_cfg.capacity_bytes;
  std::int64_t at = 0;
  r.time("cache.replay.access_ns", "ns", [&] {
    for (int i = 0; i < 32; ++i) {
      dtio::cache::AccessPlan plan;
      cache.write(1, at, access, {}, plan);
      cache.read(1, at, access, {}, plan);
      at = (at + access) % working_set;
    }
    return std::int64_t{64};
  });

  dtio::meta::LockTable locks;
  const dtio::meta::StripeSpan stripes = dtio::meta::stripes_of(
      0, std::max<std::int64_t>(in.lock_bytes, 1), 64 * dtio::kKiB);
  r.time("meta.replay.lock_ns", "ns", [&] {
    for (std::int64_t st = stripes.first; st <= stripes.last; ++st) {
      (void)locks.acquire(1, st, {});
      (void)locks.release(1, st);
    }
    return stripes.count();
  });
  const dtio::meta::ShardMap shards(4);
  r.time("meta.replay.shard_ns", "ns", [&] {
    for (const std::string& p : in.paths) {
      keep(static_cast<std::uint64_t>(shards.shard_of_path(p)));
    }
    return static_cast<std::int64_t>(in.paths.size());
  });

  r.time("obs.replay.span_ns", "ns", [&] {
    dtio::obs::SpanCollector collector(kEvents);
    for (int i = 0; i < kEvents; ++i) {
      collector.end(collector.begin("replay", 0, i), i + 1);
    }
    return std::int64_t{kEvents};
  });
}

}  // namespace perfbench
