#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>

#include "collective/comm.h"
#include "common/rng.h"
#include "io/joint.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "obs/observability.h"
#include "pfs/cluster.h"
#include "workloads/block3d.h"
#include "workloads/flash.h"
#include "workloads/meta_storm.h"
#include "workloads/tile.h"

namespace perfbench {
namespace {

using dtio::SimTime;
using dtio::Status;
using dtio::mpiio::Method;
using dtio::sim::Task;
namespace types = dtio::types;

// ---- Sizes ---------------------------------------------------------------------
// Scaled so one pass takes about a second of host time: the timed window
// then holds several passes and wall_s is a median, not one sample.

constexpr int kTileFrames = 4;          // 6 clients x 4 frames x 5 methods
constexpr int kFlashBlocks = 8;         // AMR blocks per process (paper: 80)
constexpr int kFlashClients = 8;
constexpr int kFlashCheckpoints = 5;    // successive checkpoints per method
constexpr std::int64_t kBlockDim = 300; // 3-D block edge (paper: 600)
constexpr int kStormClients = 16;
constexpr int kStormFiles = 16;         // life cycles per client
constexpr int kStormLockPairs = 16;
constexpr std::int64_t kStormFileBytes = 96 * dtio::kKiB;

const char* method_key(Method m) {
  switch (m) {
    case Method::kPosix: return "posix";
    case Method::kDataSieving: return "sieving";
    case Method::kTwoPhase: return "two_phase";
    case Method::kList: return "list";
    case Method::kDatatype: return "datatype";
  }
  return "?";
}

/// One simulated client's record of its calls.
struct ClientLog {
  std::vector<double> latency_ns;
  std::int64_t ok = 0;
};

/// A fresh cluster with one client, context and MPI-IO file per rank.
struct Rig {
  Rig(const dtio::net::ClusterConfig& cfg, bool transfer_data)
      : cluster(cfg),
        comm(cluster.scheduler(), cluster.network(), cluster.config(),
             cfg.num_clients) {
    for (int r = 0; r < cfg.num_clients; ++r) {
      clients.push_back(cluster.make_client(r));
      clients.back()->set_transfer_data(transfer_data);
      contexts.push_back(std::make_unique<dtio::io::Context>(
          dtio::io::Context{cluster.scheduler(), *clients.back(),
                            cluster.config()}));
      files.push_back(std::make_unique<dtio::mpiio::File>(*contexts.back()));
    }
  }

  /// Rank 0 creates `path`, then every other rank opens it.
  void open_all(const char* path) {
    cluster.scheduler().spawn(
        [](dtio::mpiio::File& f, const char* p) -> Task<void> {
          (void)co_await f.open(p, true);
        }(*files[0], path));
    cluster.run();
    for (std::size_t r = 1; r < files.size(); ++r) {
      cluster.scheduler().spawn(
          [](dtio::mpiio::File& f, const char* p) -> Task<void> {
            (void)co_await f.open(p, false);
          }(*files[r], path));
    }
    cluster.run();
  }

  /// Attach observability for the timed phase only, so set-up traffic
  /// does not enter the phase attribution.
  void attach_obs() {
    obs = std::make_unique<dtio::obs::Observability>(std::size_t{1} << 21);
    cluster.set_observability(obs.get());
    for (auto& c : clients) c->set_observability(obs.get());
  }

  dtio::pfs::Cluster cluster;
  dtio::coll::Communicator comm;
  std::vector<std::unique_ptr<dtio::pfs::Client>> clients;
  std::vector<std::unique_ptr<dtio::io::Context>> contexts;
  std::vector<std::unique_ptr<dtio::mpiio::File>> files;
  std::unique_ptr<dtio::obs::Observability> obs;
};

/// Cumulative cluster counters; the timed phase is the difference of two.
MethodRun counters(Rig& rig) {
  MethodRun m;
  const auto& cfg = rig.cluster.config();
  m.sim_s = dtio::to_seconds(rig.cluster.scheduler().now());
  m.events = rig.cluster.scheduler().events_processed();
  m.net_messages = rig.cluster.network().total_messages();
  m.net_wire_bytes = rig.cluster.network().total_wire_bytes();
  for (int s = 0; s < cfg.num_servers; ++s) {
    auto& srv = rig.cluster.server(s);
    const dtio::pfs::ServerStats& st = srv.stats();
    m.srv_requests += st.requests;
    m.srv_regions_walked += st.regions_walked;
    m.srv_my_pieces += st.my_pieces;
    m.srv_disk_accesses += st.disk_accesses;
    m.cache_hits += st.cache_hits;
    m.cache_misses += st.cache_misses;
    m.cache_evictions += st.cache_evictions;
    m.meta_ops += st.meta_ops;
    m.lock_waits += st.lock_waits;
    m.disk_busy_ns += srv.disk().busy_integral();
    m.cpu_busy_ns += srv.cpu().busy_integral();
    m.link_busy_ns += rig.cluster.network().tx_link(s).busy_integral() +
                      rig.cluster.network().rx_link(s).busy_integral();
  }
  for (auto& c : rig.clients) {
    m.rpc_retries += c->rpc_retries();
    m.rpc_timeouts += c->rpc_timeouts();
    m.quorum_writes += c->quorum_writes();
    m.wb_batches += c->wb_batches();
  }
  return m;
}

MethodRun difference(const MethodRun& a, const MethodRun& b) {
  MethodRun d;
  d.sim_s = a.sim_s - b.sim_s;
  d.events = a.events - b.events;
  d.net_messages = a.net_messages - b.net_messages;
  d.net_wire_bytes = a.net_wire_bytes - b.net_wire_bytes;
  d.srv_requests = a.srv_requests - b.srv_requests;
  d.srv_regions_walked = a.srv_regions_walked - b.srv_regions_walked;
  d.srv_my_pieces = a.srv_my_pieces - b.srv_my_pieces;
  d.srv_disk_accesses = a.srv_disk_accesses - b.srv_disk_accesses;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.cache_evictions = a.cache_evictions - b.cache_evictions;
  d.meta_ops = a.meta_ops - b.meta_ops;
  d.lock_waits = a.lock_waits - b.lock_waits;
  d.disk_busy_ns = a.disk_busy_ns - b.disk_busy_ns;
  d.cpu_busy_ns = a.cpu_busy_ns - b.cpu_busy_ns;
  d.link_busy_ns = a.link_busy_ns - b.link_busy_ns;
  d.rpc_retries = a.rpc_retries - b.rpc_retries;
  d.rpc_timeouts = a.rpc_timeouts - b.rpc_timeouts;
  d.quorum_writes = a.quorum_writes - b.quorum_writes;
  d.wb_batches = a.wb_batches - b.wb_batches;
  return d;
}

/// Runs the clients spawned by `spawn` to completion and records the
/// timed phase as method `name` of `pass`. Client IoStats are reset first
/// so set-up traffic is not counted. Each client should complete
/// `expected_calls_per_client` calls; any it did not complete, because a
/// call failed or its coroutine never finished, count as failed.
void timed_phase(Rig& rig, const std::string& name, const PassOptions& opt,
                 PassResult& pass, std::vector<ClientLog>& logs,
                 std::int64_t expected_calls_per_client, double bytes,
                 const std::function<void()>& spawn) {
  for (auto& c : rig.clients) c->stats().reset();
  if (opt.traced) rig.attach_obs();
  const MethodRun before = counters(rig);
  logs.assign(rig.clients.size(), ClientLog{});
  spawn();
  double wall = 0;
  {
    HostScope span(opt.spans, "run/" + name, opt.parent_span);
    const Clock::time_point t0 = Clock::now();
    try {
      rig.cluster.run();
    } catch (const std::exception& e) {
      pass.error(name + ": simulated process threw: " + e.what());
    }
    wall = seconds_since(t0);
  }
  MethodRun run = difference(counters(rig), before);
  run.name = name;
  run.wall_s = wall;
  run.bytes = bytes;
  for (auto& c : rig.clients) run.io += c->stats();
  run.server_ns = static_cast<double>(rig.cluster.config().num_servers) *
                  run.sim_s * 1e9;
  for (const ClientLog& log : logs) {
    run.calls += static_cast<std::int64_t>(log.latency_ns.size());
    pass.attempted += expected_calls_per_client;
    pass.failed += expected_calls_per_client - log.ok;
    pass.op_latency_ns.insert(pass.op_latency_ns.end(),
                              log.latency_ns.begin(), log.latency_ns.end());
  }
  pass.wall_s += wall;
  pass.method(name).add(run);
  if (rig.obs != nullptr) {
    std::vector<dtio::obs::OpBreakdown> ops =
        dtio::obs::decompose_ops(rig.obs->spans);
    pass.trace.ops.insert(pass.trace.ops.end(),
                          std::make_move_iterator(ops.begin()),
                          std::make_move_iterator(ops.end()));
    pass.trace.spans_recorded += rig.obs->spans.spans().size();
    pass.trace.spans_dropped += rig.obs->spans.dropped();
  }
}

/// Adds the host seconds of its scope to the pass's set-up time.
struct SetupTimer {
  SetupTimer(PassResult& pass, const PassOptions& opt, const std::string& name)
      : pass_(pass), span_(opt.spans, "setup/" + name, opt.parent_span) {}
  ~SetupTimer() { pass_.setup_s += seconds_since(t0_); }
  SetupTimer(const SetupTimer&) = delete;
  SetupTimer& operator=(const SetupTimer&) = delete;

 private:
  PassResult& pass_;
  HostScope span_;
  Clock::time_point t0_ = Clock::now();
};

/// The read-side oracle: compares every joint (memory, file) piece of one
/// access against the file image. Returns the number of mismatching pieces.
std::int64_t oracle_mismatches(const types::Datatype& memtype,
                               const std::uint8_t* mem,
                               const dtio::io::FileView& view,
                               std::int64_t stream_offset,
                               std::int64_t bytes,
                               const std::uint8_t* file_image,
                               std::int64_t file_size) {
  const dtio::io::StreamWindow window =
      dtio::io::make_window(view, stream_offset, bytes);
  dtio::io::JointWalker walker(dtio::io::make_mem_cursor(memtype, 1),
                               dtio::io::make_file_cursor(view, window));
  dtio::io::JointWalker::Piece piece;
  std::int64_t bad = 0;
  std::int64_t seen = 0;
  while (seen < bytes && walker.next(piece)) {
    seen += piece.length;
    if (piece.file_offset + piece.length > file_size ||
        std::memcmp(mem + piece.mem_offset, file_image + piece.file_offset,
                    static_cast<std::size_t>(piece.length)) != 0) {
      ++bad;
    }
  }
  if (seen != bytes) ++bad;
  return bad;
}

/// The write-side oracle: scatters every joint piece of one access from
/// memory into `image` at its file offset. Returns the bytes placed.
std::int64_t oracle_scatter(const types::Datatype& memtype,
                            const std::uint8_t* mem,
                            const dtio::io::FileView& view, std::int64_t bytes,
                            std::vector<std::uint8_t>& image) {
  const dtio::io::StreamWindow window = dtio::io::make_window(view, 0, bytes);
  dtio::io::JointWalker walker(dtio::io::make_mem_cursor(memtype, 1),
                               dtio::io::make_file_cursor(view, window));
  dtio::io::JointWalker::Piece piece;
  std::int64_t placed = 0;
  while (placed < bytes && walker.next(piece)) {
    if (piece.file_offset < 0 ||
        piece.file_offset + piece.length >
            static_cast<std::int64_t>(image.size())) {
      break;
    }
    std::memcpy(image.data() + piece.file_offset, mem + piece.mem_offset,
                static_cast<std::size_t>(piece.length));
    placed += piece.length;
  }
  return placed;
}

// ---- tile_read ----------------------------------------------------------------

Task<void> tile_client(dtio::mpiio::File& f, dtio::coll::Communicator& comm,
                       dtio::sim::Scheduler& sched,
                       const types::Datatype& filetype,
                       const types::Datatype& memtype, int rank, Method m,
                       std::int64_t tile_bytes, std::uint8_t* buf,
                       ClientLog& log) {
  f.set_view(0, types::byte_t(), filetype);
  for (int frame = 0; frame < kTileFrames; ++frame) {
    const SimTime t0 = sched.now();
    const Status s = co_await f.read_at_all(
        comm, rank, frame * tile_bytes, buf + frame * tile_bytes, 1, memtype,
        m);
    log.latency_ns.push_back(static_cast<double>(sched.now() - t0));
    if (!s.is_ok()) co_return;
    ++log.ok;
  }
}

PassResult tile_read(const PassOptions& opt) {
  const dtio::workloads::TileConfig tile;
  const int n = tile.num_clients();
  const std::int64_t file_bytes = tile.frame_bytes() * kTileFrames;
  const std::int64_t tile_bytes = tile.tile_bytes();
  PassResult pass;
  std::vector<std::uint8_t> frames;
  std::vector<types::Datatype> filetypes;
  std::vector<std::vector<std::uint8_t>> bufs;
  const types::Datatype memtype = tile.memtype();
  {
    SetupTimer setup(pass, opt, "generate");
    frames.resize(static_cast<std::size_t>(file_bytes));
    fill_bytes(dtio::mix_seed(opt.seed, 1), frames.data(), frames.size());
    for (int r = 0; r < n; ++r) filetypes.push_back(tile.tile_filetype(r));
    bufs.assign(static_cast<std::size_t>(n),
                std::vector<std::uint8_t>(
                    static_cast<std::size_t>(tile_bytes * kTileFrames)));
  }
  pass.input_digest = fnv1a(frames.data(), 4096);

  for (const Method m :
       {Method::kPosix, Method::kDataSieving, Method::kTwoPhase, Method::kList,
        Method::kDatatype}) {
    const std::string name = method_key(m);
    dtio::net::ClusterConfig cfg;  // paper defaults: 16 servers, 64 KiB
    cfg.num_clients = n;
    std::unique_ptr<Rig> rig;
    {
      SetupTimer setup(pass, opt, name);
      rig = std::make_unique<Rig>(cfg, true);
      rig->open_all("/frames");
      HostScope populate(opt.spans, "populate/" + name, opt.parent_span);
      rig->cluster.scheduler().spawn(
          [](dtio::pfs::Client& c, std::uint64_t h, const std::uint8_t* d,
             std::int64_t len) -> Task<void> {
            (void)co_await c.write_contig(h, 0, d, len);
          }(*rig->clients[0], rig->files[0]->handle(), frames.data(),
            file_bytes));
      rig->cluster.run();
      for (auto& b : bufs) std::fill(b.begin(), b.end(), 0);
    }
    std::vector<ClientLog> logs;
    timed_phase(*rig, name, opt, pass, logs, kTileFrames,
                static_cast<double>(tile_bytes) * n * kTileFrames, [&] {
                  for (int r = 0; r < n; ++r) {
                    rig->cluster.scheduler().spawn(tile_client(
                        *rig->files[static_cast<std::size_t>(r)], rig->comm,
                        rig->cluster.scheduler(),
                        filetypes[static_cast<std::size_t>(r)], memtype, r, m,
                        tile_bytes, bufs[static_cast<std::size_t>(r)].data(),
                        logs[static_cast<std::size_t>(r)]));
                  }
                });
    HostScope verify(opt.spans, "verify/" + name, opt.parent_span);
    for (int r = 0; r < n; ++r) {
      const dtio::io::FileView view{0, types::byte_t(),
                                    filetypes[static_cast<std::size_t>(r)]};
      for (int frame = 0; frame < kTileFrames; ++frame) {
        const std::int64_t bad = oracle_mismatches(
            memtype,
            bufs[static_cast<std::size_t>(r)].data() + frame * tile_bytes,
            view, frame * tile_bytes, tile_bytes, frames.data(), file_bytes);
        if (bad > 0) {
          pass.error(name + ": rank " + std::to_string(r) + " frame " +
                     std::to_string(frame) + ": " + std::to_string(bad) +
                     " tile pieces differ from the oracle");
        }
      }
    }
  }
  return pass;
}

ReplayInputs tile_inputs() {
  const dtio::workloads::TileConfig tile;
  ReplayInputs in;
  for (int r = 0; r < tile.num_clients(); ++r) {
    in.make_types.push_back([tile, r] { return tile.tile_filetype(r); });
  }
  in.make_types.push_back([tile] { return tile.memtype(); });
  in.memtype = tile.memtype();
  in.view = dtio::io::FileView{0, types::byte_t(), tile.tile_filetype(4)};
  in.call_bytes = tile.tile_bytes();
  in.payload_bytes = tile.tile_bytes() / 16;
  in.contig_bytes = tile.tile_bytes();
  in.paths = {"/frames"};
  in.lock_bytes = tile.tile_bytes();
  return in;
}

// ---- flash_write ----------------------------------------------------------------

dtio::workloads::FlashConfig flash_config() {
  dtio::workloads::FlashConfig fl;
  fl.blocks_per_proc = kFlashBlocks;
  return fl;
}

Task<void> flash_client(dtio::mpiio::File& f, dtio::coll::Communicator& comm,
                        dtio::sim::Scheduler& sched,
                        const dtio::workloads::FlashConfig& fl,
                        const types::Datatype& filetype,
                        const types::Datatype& memtype, int rank, int nprocs,
                        Method m, const std::uint8_t* buf, ClientLog& log) {
  for (int k = 0; k < kFlashCheckpoints; ++k) {
    f.set_view(k * fl.file_bytes(nprocs) + fl.displacement(rank),
               types::byte_t(), filetype);
    const SimTime t0 = sched.now();
    const Status s =
        co_await f.write_at_all(comm, rank, 0, buf, 1, memtype, m);
    log.latency_ns.push_back(static_cast<double>(sched.now() - t0));
    if (!s.is_ok()) co_return;
    ++log.ok;
  }
}

PassResult flash_write(const PassOptions& opt) {
  const dtio::workloads::FlashConfig fl = flash_config();
  const int n = kFlashClients;
  const std::int64_t ckpt_bytes = fl.file_bytes(n);
  const std::int64_t file_bytes = ckpt_bytes * kFlashCheckpoints;
  PassResult pass;
  std::vector<std::vector<std::uint8_t>> mem;
  types::Datatype memtype;
  types::Datatype filetype;
  {
    SetupTimer setup(pass, opt, "generate");
    memtype = fl.memtype();
    filetype = fl.filetype(n);
    const auto mem_bytes =
        static_cast<std::size_t>(memtype.lb() + memtype.extent());
    for (int r = 0; r < n; ++r) {
      mem.emplace_back(mem_bytes);
      fill_bytes(dtio::mix_seed(opt.seed, 100 + static_cast<std::uint64_t>(r)),
                 mem.back().data(), mem_bytes);
    }
  }
  pass.input_digest = fnv1a(mem[0].data(), 4096);

  // The checkpoint file every method must produce, built once per pass.
  std::vector<std::uint8_t> expected(static_cast<std::size_t>(file_bytes));
  {
    HostScope oracle(opt.spans, "verify/oracle", opt.parent_span);
    std::int64_t placed = 0;
    for (int r = 0; r < n; ++r) {
      for (int k = 0; k < kFlashCheckpoints; ++k) {
        const dtio::io::FileView view{k * ckpt_bytes + fl.displacement(r),
                                      types::byte_t(), filetype};
        placed += oracle_scatter(memtype, mem[static_cast<std::size_t>(r)].data(),
                                 view, fl.bytes_per_proc(), expected);
      }
    }
    if (placed != file_bytes) {
      pass.error("flash: the oracle covers " + std::to_string(placed) +
                 " of " + std::to_string(file_bytes) + " file bytes");
    }
  }
  std::vector<std::uint8_t> image(static_cast<std::size_t>(file_bytes));
  for (const Method m : {Method::kTwoPhase, Method::kList, Method::kDatatype}) {
    const std::string name = method_key(m);
    dtio::net::ClusterConfig cfg;
    cfg.num_clients = n;
    std::unique_ptr<Rig> rig;
    {
      SetupTimer setup(pass, opt, name);
      rig = std::make_unique<Rig>(cfg, true);
      rig->open_all("/checkpoint");
    }
    std::vector<ClientLog> logs;
    timed_phase(*rig, name, opt, pass, logs, kFlashCheckpoints,
                static_cast<double>(file_bytes), [&] {
                  for (int r = 0; r < n; ++r) {
                    rig->cluster.scheduler().spawn(flash_client(
                        *rig->files[static_cast<std::size_t>(r)], rig->comm,
                        rig->cluster.scheduler(), fl, filetype, memtype, r, n,
                        m, mem[static_cast<std::size_t>(r)].data(),
                        logs[static_cast<std::size_t>(r)]));
                  }
                });
    HostScope verify(opt.spans, "verify/" + name, opt.parent_span);
    std::fill(image.begin(), image.end(), 0);
    Status read_back;
    rig->cluster.scheduler().spawn(
        [](dtio::pfs::Client& c, std::uint64_t h, std::uint8_t* out,
           std::int64_t len, Status& st) -> Task<void> {
          st = co_await c.read_contig(h, 0, out, len);
        }(*rig->clients[0], rig->files[0]->handle(), image.data(), file_bytes,
          read_back));
    rig->cluster.run();
    if (!read_back.is_ok()) {
      pass.error(name + ": read-back failed: " + read_back.to_string());
      continue;
    }
    const auto diff = std::mismatch(image.begin(), image.end(),
                                    expected.begin());
    if (diff.first != image.end()) {
      const std::int64_t at = diff.first - image.begin();
      pass.error(name + ": checkpoint " + std::to_string(at / ckpt_bytes) +
                 " differs from the oracle at file byte " +
                 std::to_string(at));
    }
  }
  return pass;
}

ReplayInputs flash_inputs() {
  const dtio::workloads::FlashConfig fl = flash_config();
  ReplayInputs in;
  in.make_types.push_back([fl] { return fl.memtype(); });
  in.make_types.push_back([fl] { return fl.filetype(kFlashClients); });
  in.memtype = fl.memtype();
  in.view = dtio::io::FileView{fl.displacement(1), types::byte_t(),
                               fl.filetype(kFlashClients)};
  in.call_bytes = fl.bytes_per_proc();
  in.payload_bytes = fl.bytes_per_proc() / 16;
  in.contig_bytes = fl.var_chunk_bytes();
  in.paths = {"/checkpoint"};
  in.lock_bytes = fl.var_chunk_bytes();
  return in;
}

// ---- block3d_sweep ---------------------------------------------------------------

Task<void> block_client(dtio::mpiio::File& f, dtio::coll::Communicator& comm,
                        dtio::sim::Scheduler& sched,
                        const types::Datatype& filetype,
                        const types::Datatype& memtype, int rank, Method m,
                        bool is_write, ClientLog& log) {
  f.set_view(0, types::byte_t(), filetype);
  const SimTime t0 = sched.now();
  Status s;
  if (is_write) {
    s = co_await f.write_at_all(comm, rank, 0, nullptr, 1, memtype, m);
  } else {
    s = co_await f.read_at_all(comm, rank, 0, nullptr, 1, memtype, m);
  }
  log.latency_ns.push_back(static_cast<double>(sched.now() - t0));
  if (s.is_ok()) ++log.ok;
}

/// The paper's Table 2 relations, checked per client on the counters of a
/// timing-only run (no bytes move, so these are its correctness check).
void check_table2(PassResult& pass, const std::string& tag, Method m,
                  const dtio::workloads::Block3dConfig& b, const Rig& rig) {
  const auto desired = static_cast<std::uint64_t>(b.block_bytes());
  const auto rows = static_cast<std::uint64_t>(b.rows_per_block());
  const std::uint64_t max_regions = rig.cluster.config().list_io_max_regions;
  const std::uint64_t sieve = rig.cluster.config().sieve_buffer_size;
  std::uint64_t accessed_total = 0;
  for (std::size_t r = 0; r < rig.clients.size(); ++r) {
    const dtio::IoStats& st = rig.clients[r]->stats();
    accessed_total += st.accessed_bytes;
    std::string bad;
    if (st.desired_bytes != desired) bad = "desired bytes";
    switch (m) {
      case Method::kList:
        if (st.io_ops != (rows + max_regions - 1) / max_regions) bad = "list ops";
        if (st.accessed_bytes != desired) bad = "accessed bytes";
        break;
      case Method::kDatatype:
        if (st.io_ops != 1) bad = "datatype ops";
        if (st.accessed_bytes != desired) bad = "accessed bytes";
        break;
      case Method::kDataSieving:
        if (st.accessed_bytes < desired) bad = "sieved bytes";
        if (st.io_ops != (st.accessed_bytes + sieve - 1) / sieve) {
          bad = "sieving ops";
        }
        break;
      default:
        break;
    }
    if (!bad.empty()) {
      pass.error(tag + ": rank " + std::to_string(r) + ": " + bad +
                 " disagree with Table 2 (" + st.to_string() + ")");
    }
  }
  if (m == Method::kTwoPhase &&
      accessed_total != static_cast<std::uint64_t>(b.file_bytes())) {
    pass.error(tag + ": two-phase aggregators accessed " +
               std::to_string(accessed_total) + " bytes, file is " +
               std::to_string(b.file_bytes()));
  }
}

PassResult block3d_sweep(const PassOptions& opt) {
  PassResult pass;
  for (const int edge : {2, 3, 4}) {
    const dtio::workloads::Block3dConfig b{.dim = kBlockDim,
                                           .blocks_per_edge = edge};
    const int n = b.num_clients();
    std::vector<types::Datatype> filetypes;
    types::Datatype memtype;
    {
      SetupTimer setup(pass, opt, "types/" + std::to_string(n));
      for (int r = 0; r < n; ++r) filetypes.push_back(b.block_filetype(r));
      memtype = b.memtype();
    }
    for (const bool is_write : {false, true}) {
      for (const Method m : {Method::kDataSieving, Method::kTwoPhase,
                             Method::kList, Method::kDatatype}) {
        // PVFS has no file locks, so sieving writes are unsupported (§4.1).
        if (m == Method::kDataSieving && is_write) continue;
        const std::string name = method_key(m);
        const std::string tag = name + (is_write ? "/write/" : "/read/") +
                                std::to_string(n);
        dtio::net::ClusterConfig cfg;
        cfg.num_clients = n;
        std::unique_ptr<Rig> rig;
        {
          SetupTimer setup(pass, opt, tag);
          rig = std::make_unique<Rig>(cfg, false);
          rig->open_all("/block3d");
        }
        std::vector<ClientLog> logs;
        timed_phase(*rig, name, opt, pass, logs, 1,
                    static_cast<double>(b.block_bytes()) * n, [&] {
                      for (int r = 0; r < n; ++r) {
                        rig->cluster.scheduler().spawn(block_client(
                            *rig->files[static_cast<std::size_t>(r)],
                            rig->comm, rig->cluster.scheduler(),
                            filetypes[static_cast<std::size_t>(r)], memtype,
                            r, m, is_write,
                            logs[static_cast<std::size_t>(r)]));
                      }
                    });
        HostScope verify(opt.spans, "verify/" + tag, opt.parent_span);
        check_table2(pass, tag, m, b, *rig);
      }
    }
  }
  return pass;  // timing-only: no input bytes, so input_digest stays 0
}

ReplayInputs block3d_inputs() {
  const dtio::workloads::Block3dConfig b{.dim = kBlockDim,
                                         .blocks_per_edge = 3};
  ReplayInputs in;
  for (const int edge : {2, 3, 4}) {
    const dtio::workloads::Block3dConfig be{.dim = kBlockDim,
                                            .blocks_per_edge = edge};
    in.make_types.push_back([be] { return be.block_filetype(0); });
    in.make_types.push_back([be] { return be.memtype(); });
  }
  in.memtype = b.memtype();
  in.view = dtio::io::FileView{0, types::byte_t(), b.block_filetype(13)};
  in.call_bytes = b.block_bytes();
  in.payload_bytes = b.block_bytes() / 16;
  in.contig_bytes = b.block_dim() * b.el_size;
  in.paths = {"/block3d"};
  in.lock_bytes = b.block_bytes();
  in.transfer_data = false;
  return in;
}

// ---- storm_features ----------------------------------------------------------------

dtio::workloads::MetaStormConfig storm_config() {
  dtio::workloads::MetaStormConfig s;
  s.num_clients = kStormClients;
  s.files_per_client = kStormFiles;
  s.lock_pairs = kStormLockPairs;
  return s;
}

dtio::net::ClusterConfig storm_cluster_config() {
  dtio::net::ClusterConfig cfg;
  cfg.num_clients = kStormClients;
  cfg.meta_shards = 4;
  cfg.lock_stripe_bytes = 64 * dtio::kKiB;
  cfg.per_file_layouts = true;
  cfg.file_locking = true;
  cfg.replication = 2;
  cfg.server.cache_block_bytes = 64 * dtio::kKiB;
  cfg.server.cache_capacity_bytes = 64 * dtio::kMiB;
  cfg.server.block_checksums = true;
  cfg.client.write_behind_bytes = dtio::kMiB;
  cfg.client.rpc_timeout = 100 * dtio::kMillisecond;  // arms the reliable path
  return cfg;
}

constexpr std::int64_t kStormCallsPerFile = 6;

Task<void> storm_client(dtio::pfs::Client& c, dtio::sim::Scheduler& sched,
                        const dtio::workloads::MetaStormConfig& s, int rank,
                        std::uint64_t shared, const std::uint8_t* data,
                        std::uint8_t* out, ClientLog& log) {
  // Every call is timed and counted the same way.
  auto note = [&](const SimTime t0, bool ok) {
    log.latency_ns.push_back(static_cast<double>(sched.now() - t0));
    if (ok) ++log.ok;
    return ok;
  };
  for (int i = 0; i < s.files_per_client; ++i) {
    const std::int64_t at = i * kStormFileBytes;
    SimTime t0 = sched.now();
    const dtio::pfs::MetaResult f =
        co_await c.create(s.path(rank, i), kStormFileBytes);
    if (!note(t0, f.status.is_ok())) continue;
    t0 = sched.now();
    note(t0, (co_await c.write_contig(f.handle, 0, data + at,
                                      kStormFileBytes)).is_ok());
    t0 = sched.now();
    note(t0, (co_await c.flush_write_behind()).is_ok());
    t0 = sched.now();
    note(t0, (co_await c.stat(s.path(rank, i))).status.is_ok());
    t0 = sched.now();
    note(t0, (co_await c.read_contig(f.handle, 0, out + at,
                                     kStormFileBytes)).is_ok());
    t0 = sched.now();
    note(t0, (co_await c.remove(s.path(rank, i))).status.is_ok());
  }
  for (int k = 0; k < s.lock_pairs; ++k) {
    // Eight shared ranges: about two ranks contend per range, so stripe
    // FIFOs queue without serialising the whole storm.
    const std::int64_t off = (k % 8) * s.lock_range_bytes;
    SimTime t0 = sched.now();
    note(t0, (co_await c.lock_range(shared, off, s.lock_range_bytes)).is_ok());
    t0 = sched.now();
    note(t0,
         (co_await c.unlock_range(shared, off, s.lock_range_bytes)).is_ok());
  }
}

PassResult storm_features(const PassOptions& opt) {
  const dtio::workloads::MetaStormConfig s = storm_config();
  const int n = s.num_clients;
  const std::int64_t per_client = s.files_per_client * kStormFileBytes;
  PassResult pass;
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<std::vector<std::uint8_t>> out;
  std::unique_ptr<Rig> rig;
  std::uint64_t shared = 0;
  {
    SetupTimer setup(pass, opt, "storm");
    for (int r = 0; r < n; ++r) {
      data.emplace_back(static_cast<std::size_t>(per_client));
      fill_bytes(dtio::mix_seed(opt.seed, 200 + static_cast<std::uint64_t>(r)),
                 data.back().data(), data.back().size());
      out.emplace_back(static_cast<std::size_t>(per_client), 0);
    }
    rig = std::make_unique<Rig>(storm_cluster_config(), true);
    rig->cluster.scheduler().spawn(
        [](dtio::pfs::Client& c, std::uint64_t& h) -> Task<void> {
          const dtio::pfs::MetaResult r =
              co_await c.create(dtio::workloads::MetaStormConfig::shared_path());
          h = r.handle;
        }(*rig->clients[0], shared));
    rig->cluster.run();
  }
  pass.input_digest = fnv1a(data[0].data(), 4096);
  const std::int64_t calls =
      s.files_per_client * kStormCallsPerFile + 2 * s.lock_pairs;
  std::vector<ClientLog> logs;
  timed_phase(*rig, "storm", opt, pass, logs, calls,
              2.0 * static_cast<double>(per_client) * n, [&] {
                for (int r = 0; r < n; ++r) {
                  const auto i = static_cast<std::size_t>(r);
                  rig->cluster.scheduler().spawn(
                      storm_client(*rig->clients[i], rig->cluster.scheduler(),
                                   s, r, shared, data[i].data(),
                                   out[i].data(), logs[i]));
                }
              });
  HostScope verify(opt.spans, "verify/storm", opt.parent_span);
  for (int r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(r);
    for (int f = 0; f < s.files_per_client; ++f) {
      const std::size_t at = static_cast<std::size_t>(f * kStormFileBytes);
      if (std::memcmp(out[i].data() + at, data[i].data() + at,
                      static_cast<std::size_t>(kStormFileBytes)) != 0) {
        pass.error("storm: rank " + std::to_string(r) + " file " +
                   std::to_string(f) + " read back wrong bytes");
      }
    }
  }
  return pass;
}

ReplayInputs storm_inputs() {
  const dtio::workloads::MetaStormConfig s = storm_config();
  ReplayInputs in;
  in.make_types.push_back(
      [] { return types::contiguous(kStormFileBytes, types::byte_t()); });
  in.memtype = types::contiguous(kStormFileBytes, types::byte_t());
  in.view = dtio::io::FileView{
      0, types::byte_t(), types::contiguous(kStormFileBytes, types::byte_t())};
  in.call_bytes = kStormFileBytes;
  in.payload_bytes = kStormFileBytes;
  in.contig_bytes = kStormFileBytes;
  for (int r = 0; r < s.num_clients; ++r) {
    for (int i = 0; i < s.files_per_client; ++i) {
      in.paths.push_back(s.path(r, i));
    }
  }
  in.lock_bytes = s.lock_range_bytes;
  return in;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"tile_read", tile_read, tile_inputs},
      {"flash_write", flash_write, flash_inputs},
      {"block3d_sweep", block3d_sweep, block3d_inputs},
      {"storm_features", storm_features, storm_inputs},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<std::string>& all_method_keys() {
  static const std::vector<std::string> keys = {"posix", "sieving",
                                                "two_phase", "list",
                                                "datatype"};
  return keys;
}

}  // namespace perfbench
