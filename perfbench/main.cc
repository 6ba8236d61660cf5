// perfbench — one serving workload per process, driven over loopback TCP.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//             [--scale X] [--corrupt-oracle]
//
// Generates the data set, derives the traffic from the seed, stands up the
// serving stack (engine or coordinator + workers behind net::NetServer on
// 127.0.0.1), and drives it
// with net::NetClient connections in a closed loop: each connection sends
// its next frame only after the previous response arrived. Every answer is
// checked against an oracle; a mismatch exits non-zero. `--trace 0` prints
// the end-to-end metrics, `--trace 1` the per-layer split. The last line of
// standard output is the result JSON. perfbench/run.py builds and runs it.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/remote_shard_set.h"

namespace perfbench {
namespace {

using tq::net::NetClient;
using tq::net::NetRequest;
using tq::net::NetResponse;
using tq::net::NetServer;
using tq::net::NetServerOptions;
using tq::runtime::MetricsView;
using tq::runtime::OpFamily;
using tq::runtime::ShardedEngine;
using Clock = std::chrono::steady_clock;

constexpr int kExitUsage = 2;
constexpr int kExitWrong = 3;

/// Set-ups per run; setup_s is their median.
constexpr size_t kSetupReps = 5;
/// Warm-up before the timed window (first-touch faults, branch predictors,
/// cache fill). Shortened for sub-4-second runs (the self-test).
constexpr double kWarmupSeconds = 2.0;
/// End-to-end tail quantiles: the highest that leave at least 10 samples
/// beyond them on every workload at a 30-second window (write_mixed
/// completes about 250 top-k frames; each 6-second sum slice of
/// topk_distributed holds about 500 sum frames). Each latency line prints
/// the count beyond.
constexpr double kSumTail = 0.95;
constexpr double kTopKTail = 0.90;
/// Sum-frame percentiles are medians over this many time slices of the
/// timed window (see WindowedPercentiles): a sum frame's round trip is a
/// chain of thread wake-ups, so its tail is what a neighbour on a shared
/// host moves first. Top-k frames are too few per slice and their
/// percentiles cover the whole window.
constexpr size_t kSumWindows = 5;
/// Cap on update payloads kept for the traced WAL span.
constexpr size_t kMaxWalPayloads = 512;
/// Probe publishes timed outside the engine on workloads without writes.
constexpr size_t kForkProbes = 64;
/// The traced half re-measures sum frames layer by layer, each with chance
/// 1 in this many (a seeded draw). A fixed stride picked frames 15-25%
/// faster than the traced half's mean on read_uncached: each re-measurement
/// pauses its connection, and the two connections' pauses fell into step.
constexpr size_t kTraceEvery = 4;
/// The sampled frames' layer self times must add up to the untraced half's
/// mean sum-frame round trip within this share. The re-measurement pauses
/// the sampling connection, which changes how much the two read_uncached
/// connections contend; over eight 30-second runs the two means differed
/// by -20% to +11%.
constexpr double kLayerSumTolerancePct = 25.0;

/// One traffic mix; BENCHMARK.json says why each exists. topk_distributed
/// is not in BENCHMARK.json: its sum round trips cross three event loops
/// and a TCP hop per worker, and on a shared 4-vCPU VM its sum_p95_ms
/// tracked the hypervisor's CPU steal (2.6 ms at 1% steal, 6.7 ms at 11%),
/// far past any regression bound. It stays runnable by name for work on
/// the remote coordinator.
struct Workload {
  const char* name;
  size_t cache_capacity;   // 0 = result cache off
  bool durable;            // WAL (sync always) + background checkpoints
  bool distributed;        // coordinator over two shard workers
  size_t read_conns;       // connections sending sum / top-k frames
  bool writer;             // one more connection sending updates
  size_t sums_per_frame;   // facilities per sum frame
  bool zipf;               // Zipf(1.0)-popular facilities, else uniform
  uint32_t topk_every;     // 1 read frame in this many is a top-k frame
};

constexpr Workload kWorkloads[] = {
    {"read_uncached", 0, false, false, 2, false, 1, false, 20},
    {"read_cached", 4096, false, false, 1, false, 16, true, 50},
    {"write_mixed", 4096, true, false, 1, true, 1, false, 10},
    {"topk_distributed", 0, false, true, 1, false, 1, false, 8},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  bool corrupt = false;
  std::string tmp;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --tmp DIR [--scale X] "
               "[--corrupt-oracle]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(kExitUsage);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) Usage(("unknown workload " + v).c_str());
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--scale") {
      a.scale = std::atof(v.c_str());
    } else if (flag == "--tmp") {
      a.tmp = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload == nullptr) Usage("--workload is required");
  if (a.tmp.empty()) Usage("--tmp is required");
  if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
  if (!(a.scale > 0.0 && a.scale <= 1.0)) Usage("--scale must be in (0, 1]");
  return a;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[(v.size() - 1) / 2];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------------ stack

/// One serving stack: inputs, engine(s), servers and client connections.
/// Members are declared in construction order, so destruction closes the
/// clients first, then stops servers, then tears down engines.
struct Stack {
  Inputs inputs;
  std::vector<std::unique_ptr<ShardedEngine>> engines;
  std::vector<std::unique_ptr<NetServer>> worker_servers;
  std::unique_ptr<tq::runtime::RemoteShardSet> coordinator;
  tq::runtime::ServingEngine* front = nullptr;  // behind `server`
  std::unique_ptr<NetServer> server;
  std::vector<std::unique_ptr<NetClient>> clients;

  std::string data_dir;  // durable workloads only
  double generate_s = 0.0;
  double build_s = 0.0;
  double setup_s = 0.0;

  std::vector<ShardedEngine*> engine_ptrs() const {
    std::vector<ShardedEngine*> out;
    for (const auto& e : engines) out.push_back(e.get());
    return out;
  }
  /// The engine that owns shard `s` (workers own slices).
  ShardedEngine* owner(size_t s) const {
    for (const auto& e : engines) {
      if (e->Owns(s)) return e.get();
    }
    return nullptr;
  }
};

tq::runtime::ShardedEngineOptions StackEngineOptions(const Workload& w,
                                                     const std::string& dir) {
  tq::runtime::ShardedEngineOptions opt = EngineOptions(w.cache_capacity);
  if (w.durable) {
    opt.durability.data_dir = dir;
    opt.durability.wal_sync = tq::storage::WalSync::kAlways;
    opt.durability.checkpoint_interval_ms = 1000;
    opt.durability.compact_after_checkpoint = true;
  }
  return opt;
}

std::unique_ptr<Stack> BuildStack(const Workload& w, const Args& args,
                                  const std::string& data_dir) {
  auto stack = std::make_unique<Stack>();
  const auto t0 = Clock::now();
  stack->inputs = GenerateInputs(args.scale);
  const auto t1 = Clock::now();
  if (w.distributed) {
    // Two shard workers, each owning half of the shards with half of the
    // pool threads, behind their own servers; a coordinator fronts them.
    tq::runtime::RemoteShardSetOptions ro;
    const size_t workers = 2;
    for (size_t i = 0; i < workers; ++i) {
      tq::runtime::ShardedEngineOptions opt = StackEngineOptions(w, "");
      opt.num_threads = kPoolThreads / workers;
      opt.owned_begin = static_cast<uint32_t>(i * kShards / workers);
      opt.owned_end = static_cast<uint32_t>((i + 1) * kShards / workers);
      stack->engines.push_back(std::make_unique<ShardedEngine>(
          stack->inputs.users, stack->inputs.routes, opt));
    }
    stack->build_s = Seconds(t1, Clock::now());
    for (const auto& e : stack->engines) {
      stack->worker_servers.push_back(
          std::make_unique<NetServer>(e.get(), NetServerOptions{}));
      TQ_CHECK(stack->worker_servers.back()->Start().ok());
      ro.workers.emplace_back("127.0.0.1",
                              stack->worker_servers.back()->port());
    }
    ro.num_threads = kPoolThreads / workers;
    stack->coordinator =
        std::make_unique<tq::runtime::RemoteShardSet>(std::move(ro));
    TQ_CHECK(stack->coordinator->Connect().ok());
    stack->front = stack->coordinator.get();
  } else {
    stack->data_dir = data_dir;
    stack->engines.push_back(std::make_unique<ShardedEngine>(
        stack->inputs.users, stack->inputs.routes,
        StackEngineOptions(w, data_dir)));
    stack->build_s = Seconds(t1, Clock::now());
    stack->front = stack->engines[0].get();
  }
  stack->server = std::make_unique<NetServer>(stack->front, NetServerOptions{});
  TQ_CHECK(stack->server->Start().ok());
  for (size_t c = 0; c < w.read_conns + (w.writer ? 1 : 0); ++c) {
    stack->clients.push_back(std::make_unique<NetClient>());
    TQ_CHECK(
        stack->clients.back()->Connect("127.0.0.1", stack->server->port()).ok());
  }
  stack->generate_s = Seconds(t0, t1);
  stack->setup_s = Seconds(t0, Clock::now());
  return stack;
}

/// Registry reads: the front engine's (net counters, query counts) and the
/// sum over every in-process engine (shard work; equal to the front's for a
/// single engine, the workers' for the distributed stack).
struct Registries {
  MetricsView front;
  MetricsView engines;
};

Registries ReadRegistries(const Stack& s) {
  Registries r;
  r.front = s.front->mutable_metrics()->Read();
  for (const auto& e : s.engines) Accumulate(&r.engines, e->metrics().Read());
  return r;
}

Registries DeltaRegistries(const Registries& a, const Registries& b) {
  return Registries{Delta(a.front, b.front), Delta(a.engines, b.engines)};
}

// --------------------------------------------------------------- traffic

/// What the connections of one phase observed.
struct PhaseStats {
  std::vector<double> sum_ms, topk_ms, update_ms;  // round trips
  std::vector<double> sum_at_s;  // each sum_ms sample's send time, s into
                                 // the phase
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t inserted_bytes = 0;  // user bytes (points) the writer inserted
  double elapsed_s = 0.0;
  // Traced write path (write_mixed): spans around each acknowledged update.
  double fork_apply_us = 0.0;
  double freeze_us = 0.0;
  size_t forks = 0;

  void Merge(const PhaseStats& o) {
    sum_ms.insert(sum_ms.end(), o.sum_ms.begin(), o.sum_ms.end());
    sum_at_s.insert(sum_at_s.end(), o.sum_at_s.begin(), o.sum_at_s.end());
    topk_ms.insert(topk_ms.end(), o.topk_ms.begin(), o.topk_ms.end());
    update_ms.insert(update_ms.end(), o.update_ms.begin(), o.update_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    inserted_bytes += o.inserted_bytes;
    fork_apply_us += o.fork_apply_us;
    freeze_us += o.freeze_us;
    forks += o.forks;
  }

  size_t read_frames() const { return sum_ms.size() + topk_ms.size(); }
};

/// The writer's record of the live user set: every trajectory ever
/// inserted, by global id (ids are dense in insertion order), and the ids
/// currently indexed.
struct WriterState {
  tq::TrajectorySet all;
  std::vector<uint32_t> live;
  std::vector<uint32_t> insert_order;  // seeded order of the insert pool
  size_t next_insert = 0;
  tq::Rng rng;
  std::vector<std::string> wal_payloads;  // traced phase, capped
  std::string error;                      // consistency failure, if any
};

/// One reader connection's request stream; persists across phases.
struct Reader {
  tq::Rng rng;
  /// Uniform workloads cycle through a seeded permutation of the
  /// facilities, so every window covers them evenly (no sampling noise from
  /// a few expensive facilities drawn more or less often).
  std::vector<uint32_t> order;
  size_t frames = 0;
  size_t sums = 0;
  tq::Rng sampler;  // picks the traced half's re-measured sum frames
};

std::vector<uint32_t> Permutation(size_t n, uint64_t seed) {
  std::vector<uint32_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint32_t>(i);
  tq::Rng rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.NextBelow(i)]);
  return p;
}

/// Everything one run's phases share.
struct Run {
  const Workload* w = nullptr;
  const Args* args = nullptr;
  Stack* stack = nullptr;
  Oracle* oracle = nullptr;  // per-answer checks (read-only workloads)
  std::vector<Reader> readers;
  std::vector<uint32_t> zipf_rank_to_facility;  // seeded popularity order
  WriterState writer;
  SpanStats spans;
};

bool ReadFrameOk(const tq::Status& st, const NetResponse& r, bool topk,
                 size_t n) {
  if (!st.ok() || !r.status.ok()) return false;
  if (topk) {
    return r.topks.size() == 1 && r.topks[0].code == tq::StatusCode::kOk;
  }
  if (r.sums.size() != n) return false;
  for (const auto& s : r.sums) {
    if (s.code != tq::StatusCode::kOk) return false;
  }
  return true;
}

void ReadLoop(Run* run, size_t conn, Clock::time_point start,
              Clock::time_point deadline, bool traced, PhaseStats* out) {
  const Workload& w = *run->w;
  NetClient& client = *run->stack->clients[conn];
  Reader& reader = run->readers[conn];
  const size_t num_fac = run->stack->inputs.routes.size();
  while (Clock::now() < deadline) {
    // A fixed interleave (not a coin per frame) keeps the top-k share of
    // every window exact; connections start at different offsets.
    const bool topk =
        (reader.frames++ + conn * w.topk_every / 2) % w.topk_every ==
        w.topk_every - 1;
    NetRequest req;
    if (topk) {
      req = NetRequest::TopK({static_cast<uint32_t>(kTopK)});
    } else {
      std::vector<tq::FacilityId> fs(w.sums_per_frame);
      for (auto& f : fs) {
        f = w.zipf ? run->zipf_rank_to_facility[reader.rng.NextZipf(num_fac,
                                                                    1.0)]
                   : reader.order[reader.sums++ % num_fac];
      }
      req = NetRequest::Sum(std::move(fs));
    }
    NetResponse resp;
    const auto sent = Clock::now();
    const tq::Status st = topk ? client.TopK(req.ks, &resp)
                               : client.Sum(req.facilities, &resp);
    const double rtt_us = Micros(sent, Clock::now());
    ++out->attempted;
    if (!ReadFrameOk(st, resp, topk, req.facilities.size())) {
      ++out->failed;
      if (!st.ok()) break;  // transport error: the connection is gone
      continue;
    }
    if (topk) {
      out->topk_ms.push_back(rtt_us / 1e3);
    } else {
      out->sum_ms.push_back(rtt_us / 1e3);
      out->sum_at_s.push_back(Seconds(start, sent));
    }
    if (run->oracle != nullptr) {
      if (topk) {
        run->oracle->CheckTopK(resp.topks[0].ranked);
      } else {
        for (size_t i = 0; i < req.facilities.size(); ++i) {
          run->oracle->CheckSum(req.facilities[i], resp.sums[i].value);
        }
      }
    }
    if (traced && !topk && reader.sampler.NextBelow(kTraceEvery) == 0) {
      run->spans.Add(TraceReadFrame(run->stack->front,
                                    run->stack->engine_ptrs(), req, resp,
                                    rtt_us));
    }
  }
}

void WriteLoop(Run* run, size_t conn, Clock::time_point deadline, bool traced,
               PhaseStats* out) {
  NetClient& client = *run->stack->clients[conn];
  WriterState& ws = run->writer;
  ShardedEngine& engine = *run->stack->engines[0];
  const tq::TrajectorySet& pool = run->stack->inputs.insert_pool;
  while (Clock::now() < deadline && ws.error.empty()) {
    const size_t idx = ws.rng.NextBelow(ws.live.size());
    const uint32_t remove = ws.live[idx];
    const auto pts = pool.points(
        ws.insert_order[ws.next_insert++ % ws.insert_order.size()]);
    std::vector<std::vector<tq::Point>> inserts{{pts.begin(), pts.end()}};
    const tq::runtime::ShardedSnapshotPtr pre =
        traced ? engine.snapshot() : nullptr;
    NetResponse resp;
    const auto sent = Clock::now();
    const tq::Status st = client.Update(inserts, {remove}, &resp);
    const double rtt_us = Micros(sent, Clock::now());
    ++out->attempted;
    if (!st.ok() || !resp.status.ok() || resp.assigned_ids.size() != 1) {
      ++out->failed;
      if (!st.ok()) break;
      continue;
    }
    const uint32_t assigned = resp.assigned_ids[0];
    if (assigned != ws.all.size()) {
      ws.error = "update assigned global id " + std::to_string(assigned) +
                 ", expected " + std::to_string(ws.all.size());
      break;
    }
    ws.all.Add(pts);
    ws.live[idx] = assigned;
    out->update_ms.push_back(rtt_us / 1e3);
    out->inserted_bytes += pts.size() * sizeof(tq::Point);
    if (!traced) continue;
    if (ws.wal_payloads.size() < kMaxWalPayloads) {
      std::string body;
      tq::net::EncodeUpdateBody(inserts, {remove}, &body);
      ws.wal_payloads.push_back(std::move(body));
    }
    // The publish just forked the touched shards' trees; repeat that write
    // on the retired pre-publish trees (no longer live, so nothing else
    // forks them) and time it.
    const tq::runtime::ShardedSnapshotPtr post = engine.snapshot();
    const auto rl = engine.LocateUser(remove);
    const auto il = engine.LocateUser(assigned);
    std::vector<uint32_t> touched{rl.shard};
    if (il.shard != rl.shard) touched.push_back(il.shard);
    for (const uint32_t s : touched) {
      const ForkTiming t = TimeForkApply(
          *pre->shards[s], post->shards[s]->users.get(),
          s == rl.shard ? static_cast<int64_t>(rl.local_id) : -1,
          s == il.shard ? static_cast<int64_t>(il.local_id) : -1);
      out->fork_apply_us += t.fork_apply_us;
      out->freeze_us += t.freeze_us;
    }
    ++out->forks;
  }
}

/// Runs every connection's loop for `seconds` and merges what they saw.
PhaseStats RunPhase(Run* run, double seconds, bool traced) {
  const Workload& w = *run->w;
  const size_t conns = w.read_conns + (w.writer ? 1 : 0);
  std::vector<PhaseStats> per(conns);
  std::vector<double> ends(conns, 0.0);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns; ++c) {
      threads.emplace_back([=, &per, &ends] {
        if (c < w.read_conns) {
          ReadLoop(run, c, start, deadline, traced, &per[c]);
        } else {
          WriteLoop(run, c, deadline, traced, &per[c]);
        }
        ends[c] = Seconds(start, Clock::now());
      });
    }
    for (auto& t : threads) t.join();
  }
  PhaseStats merged;
  for (const auto& p : per) merged.Merge(p);
  merged.elapsed_s = *std::max_element(ends.begin(), ends.end());
  return merged;
}

// ----------------------------------------------------------------- checks

/// A fresh oracle over the writer's record of the live user set.
std::unique_ptr<Oracle> LiveOracle(const Run& run) {
  tq::TrajectorySet live;
  for (const uint32_t id : run.writer.live) live.Add(run.writer.all.points(id));
  return std::make_unique<Oracle>(live, run.stack->inputs.routes);
}

/// Every facility's sum and the top-k from `engine`, compared with `oracle`.
/// Returns false on any mismatch or failed query.
bool CheckEngineAnswers(tq::runtime::ShardedEngine& engine, Oracle& oracle) {
  bool ok = true;
  for (tq::FacilityId f = 0; f < oracle.num_facilities(); ++f) {
    const auto r =
        engine.Submit(tq::runtime::QueryRequest::ServiceValue(f)).get();
    ok = r.status.ok() && oracle.CheckSum(f, r.value) && ok;
  }
  const auto r = engine.Submit(tq::runtime::QueryRequest::TopK(kTopK)).get();
  return r.status.ok() && oracle.CheckTopK(r.ranked) && ok;
}

/// The same answers through the wire (one sum frame, one top-k frame).
bool CheckWireAnswers(NetClient& client, Oracle& oracle) {
  std::vector<tq::FacilityId> all(oracle.num_facilities());
  for (tq::FacilityId f = 0; f < all.size(); ++f) all[f] = f;
  NetResponse sums;
  if (!ReadFrameOk(client.Sum(all, &sums), sums, false, all.size())) {
    return false;
  }
  bool ok = true;
  for (tq::FacilityId f = 0; f < all.size(); ++f) {
    ok = oracle.CheckSum(f, sums.sums[f].value) && ok;
  }
  NetResponse topk;
  if (!ReadFrameOk(client.TopK({static_cast<uint32_t>(kTopK)}, &topk), topk,
                   true, 0)) {
    return false;
  }
  return oracle.CheckTopK(topk.topks[0].ranked) && ok;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

// ------------------------------------------------------------- reporting

void PrintLatency(Report* report, const char* what, const char* p50_name,
                  const char* tail_name, double tail_q, const Percentiles& p,
                  bool json) {
  const std::string slices =
      p.windows > 1 ? "median of " + std::to_string(p.windows) +
                          " time slices, fewest in a slice "
                    : "";
  char note[160];
  std::snprintf(note, sizeof(note), "%s: n=%zu, %s%zu beyond the p%g%s", what,
                p.n, slices.c_str(), p.beyond, tail_q * 100.0,
                p.beyond < 10 ? " (FEWER THAN 10: lengthen the run)" : "");
  report->Metric(p50_name, p.p50, "ms", note, json);
  report->Metric(tail_name, p.tail, "ms", note, json);
}

/// Write-path and WAL spans for workloads whose engine saw no writes: the
/// same calls on seeded probe updates from the insert pool (nothing is
/// published).
void ProbeWritePath(Run* run, double* fork_apply_us, double* freeze_us,
                    std::vector<std::string>* payloads) {
  const Stack& s = *run->stack;
  const ShardedEngine& any = *s.engines[0];
  const tq::TrajectorySet& pool = s.inputs.insert_pool;
  tq::Rng rng(run->args->seed ^ 0x5DEECE66DULL);
  double fork_total = 0.0;
  double freeze_total = 0.0;
  for (uint32_t i = 0; i < kForkProbes; ++i) {
    const auto pts =
        pool.points(static_cast<uint32_t>(rng.NextBelow(pool.size())));
    const auto remove =
        static_cast<uint32_t>(rng.NextBelow(s.inputs.users.size()));
    const auto rl = any.LocateUser(remove);
    const auto is = static_cast<uint32_t>(any.router().Route(pts));
    // The insert's shard gets its user set extended, as a publish would.
    const ShardedEngine* iowner = s.owner(is);
    const tq::runtime::ShardedSnapshotPtr isnap = iowner->snapshot();
    tq::TrajectorySet extended = *isnap->shards[is]->users;
    const uint32_t ilocal = extended.Add(pts);
    ForkTiming t = TimeForkApply(
        *isnap->shards[is], &extended,
        rl.shard == is ? static_cast<int64_t>(rl.local_id) : -1, ilocal);
    if (rl.shard != is) {
      const tq::runtime::ShardedSnapshotPtr rsnap =
          s.owner(rl.shard)->snapshot();
      const ForkTiming r =
          TimeForkApply(*rsnap->shards[rl.shard],
                        rsnap->shards[rl.shard]->users.get(), rl.local_id, -1);
      t.fork_apply_us += r.fork_apply_us;
      t.freeze_us += r.freeze_us;
    }
    fork_total += t.fork_apply_us;
    freeze_total += t.freeze_us;
    std::string body;
    tq::net::EncodeUpdateBody({{pts.begin(), pts.end()}}, {remove}, &body);
    payloads->push_back(std::move(body));
  }
  *fork_apply_us = fork_total / kForkProbes;
  *freeze_us = freeze_total / kForkProbes;
}

void ReportEndToEnd(Report* report, const Run& run, const PhaseStats& p,
                    double setup_s, double peak_rss_mb) {
  const Workload& w = *run.w;
  report->Metric("setup_s", setup_s, "s",
                 "median of " + std::to_string(kSetupReps) + " set-ups");
  report->Metric("read_rps", Ratio(p.read_frames(), p.elapsed_s), "frames/s",
                 std::to_string(p.read_frames()) + " read frames in " +
                     std::to_string(p.elapsed_s) + " s");
  PrintLatency(report, "sum frames", "sum_p50_ms", "sum_p95_ms", kSumTail,
               WindowedPercentiles(p.sum_ms, p.sum_at_s, p.elapsed_s,
                                   kSumWindows, kSumTail),
               true);
  PrintLatency(report, "top-k frames", "topk_p50_ms", "topk_p90_ms",
               kTopKTail, ExactPercentiles(p.topk_ms, kTopKTail), true);
  if (w.writer) {
    report->Metric("update_rps", Ratio(p.update_ms.size(), p.elapsed_s),
                   "frames/s", "acknowledged after the WAL fsync", false);
    PrintLatency(report, "update frames", "update_p50_ms", "update_p99_ms",
                 0.99, ExactPercentiles(p.update_ms, 0.99), false);
  }
  report->Metric("peak_rss_mb", peak_rss_mb, "MB", "VmHWM after the window");
  report->Metric("failed_frac", Ratio(p.failed, p.attempted), "ratio",
                 std::to_string(p.failed) + " failed of " +
                     std::to_string(p.attempted) + " attempted",
                 false);
}

/// What the untraced half of a traced run measured.
struct Untraced {
  double read_rps = 0.0;
  double sum_mean_us = 0.0;
  uint64_t inserted_bytes = 0;
};

/// What write_mixed's after-window checks measured.
struct AfterWindow {
  double recover_s = 0.0;
  double data_dir_bytes = 0.0;
  double live_user_bytes = 0.0;
};

/// write_mixed: the live server's answers against a from-scratch tree over
/// the writer's record of the live user set; then the engine is stopped and
/// ShardedEngine::Recover on its data directory must give the same answers
/// at the same version (every acknowledged write was durable).
bool CheckAfterWrites(Run* run, const Args& args, AfterWindow* out) {
  Stack& stack = *run->stack;
  std::unique_ptr<Oracle> live = LiveOracle(*run);
  if (args.corrupt) live->CorruptNextCheck();
  const bool wire_ok = CheckWireAnswers(*stack.clients[0], *live);
  std::printf("# final check: %zu sums + top-%zu over the wire vs a "
              "from-scratch tree of %zu live users: %s\n",
              live->num_facilities(), kTopK, run->writer.live.size(),
              wire_ok ? "identical" : "MISMATCH");
  for (const uint32_t id : run->writer.live) {
    out->live_user_bytes += static_cast<double>(
        run->writer.all.NumPoints(id) * sizeof(tq::Point));
  }
  stack.clients.clear();
  stack.server->Stop();
  const uint64_t version = stack.engines[0]->snapshot_version();
  stack.engines.clear();
  out->data_dir_bytes = static_cast<double>(DirBytes(stack.data_dir));
  const auto t0 = Clock::now();
  auto recovered =
      ShardedEngine::Recover(StackEngineOptions(*run->w, stack.data_dir));
  out->recover_s = Seconds(t0, Clock::now());
  bool rec_ok =
      recovered.ok() && (*recovered)->snapshot_version() == version;
  if (rec_ok) rec_ok = CheckEngineAnswers(**recovered, *live);
  std::printf("# recovery check: version %llu, answers %s (%.3f s)\n",
              static_cast<unsigned long long>(version),
              rec_ok ? "identical" : "MISMATCH", out->recover_s);
  if (!live->first_mismatch().empty()) {
    std::fprintf(stderr, "perfbench: ORACLE MISMATCH: %s\n",
                 live->first_mismatch().c_str());
  }
  return wire_ok && rec_ok;
}

void ReportPerLayer(Report* report, Run* run, const Registries& delta,
                    const PhaseStats& traced, const Untraced& plain,
                    const AfterWindow& after, double generate_s,
                    double build_s) {
  const MetricsView& fr = delta.front;
  const MetricsView& en = delta.engines;
  const double queries = static_cast<double>(fr.queries_total);
  const double publishes = static_cast<double>(en.snapshots_published);
  const SpanStats::Summary sp = run->spans.Summarize();
  auto M = [report](const char* name, double v, const char* unit,
                    const std::string& note = "") {
    report->Metric(name, v, unit, note);
  };
  auto N = [](uint64_t n) { return std::to_string(n); };
  const std::string qbase = "base " + N(fr.queries_total) + " engine queries";
  const std::string pbase = "base " + N(en.snapshots_published) + " publishes";

  M("net.frame_server_us", HistMeanUs(fr, OpFamily::kNetFrame), "us",
    "kNetFrame mean over " +
        N(fr.op_histograms[static_cast<size_t>(OpFamily::kNetFrame)].count) +
        " frames");
  M("net.rtt_self_us", sp.net_self_us, "us",
    "traced: round trip - SubmitAsync, " + N(sp.frames) + " sum frames");
  M("net.codec_us_per_frame", sp.codec_us, "us",
    "traced: encode+decode request and response");
  M("net.bytes_per_frame",
    Ratio(fr.net_bytes_in + fr.net_bytes_out, fr.net_requests_decoded),
    "bytes", "base " + N(fr.net_requests_decoded) + " frames");
  M("net.shed", fr.net_shed, "count", "expected 0");
  M("net.paused_connections", fr.net_paused_connections, "count",
    "expected 0");
  M("runtime.coord_partial", fr.coord_partial, "count", "expected 0");
  M("runtime.queue_wait_us", HistMeanUs(en, OpFamily::kQueueWait), "us",
    "kQueueWait mean (sampled 1 in 32)");
  M("runtime.shard_task_us", HistMeanUs(en, OpFamily::kShardTask), "us",
    "kShardTask mean");
  M("runtime.shard_tasks_per_query", Ratio(en.shard_tasks, queries), "count",
    qbase);
  M("runtime.submit_self_us", sp.submit_self_us, "us",
    "traced: SubmitAsync - critical-path query.eval");
  M("runtime.topk_eval_ratio",
    Ratio(en.facilities_evaluated,
          en.facilities_evaluated + en.facilities_pruned),
    "ratio",
    "base " + N(en.facilities_evaluated + en.facilities_pruned) +
        " (facility, shard) slots");
  M("runtime.prune_rounds_per_topk", Ratio(en.prune_rounds, fr.topk_queries),
    "count", "base " + N(fr.topk_queries) + " top-k queries");
  report->Metric("runtime.coord_rpcs_per_query", Ratio(fr.coord_rpcs, queries),
                 "count", qbase + "; topk_distributed only", false);
  M("runtime.cache_hit_ratio",
    Ratio(en.cache_hits, en.cache_hits + en.cache_misses), "ratio",
    "base " + N(en.cache_hits + en.cache_misses) + " lookups");
  M("runtime.cache_invalidated_per_publish",
    Ratio(en.cache_invalidated, publishes), "count", pbase);
  M("query.eval_us", sp.eval_us, "us",
    "traced: EvaluateServiceTQ per (facility, shard), " + N(sp.evals) +
        " calls");
  M("query.nodes_visited_per_query", Ratio(en.nodes_visited, queries),
    "count", qbase);
  M("query.entries_scanned_per_query", Ratio(en.entries_scanned, queries),
    "count", qbase);
  M("query.exact_checks_per_query", Ratio(en.exact_checks, queries), "count",
    qbase);
  M("tqtree.nodes_copied_per_publish", Ratio(en.nodes_copied, publishes),
    "count", pbase);
  M("tqtree.pages_shared_per_publish", Ratio(en.pages_shared, publishes),
    "count", pbase);

  double fork_apply_us = 0.0;
  double freeze_us = 0.0;
  std::vector<std::string> payloads;
  std::string fork_note;
  if (run->w->writer) {
    fork_apply_us = Ratio(traced.fork_apply_us, traced.forks);
    freeze_us = Ratio(traced.freeze_us, traced.forks);
    payloads = run->writer.wal_payloads;
    fork_note = "traced: after each acknowledged update, " + N(traced.forks) +
                " updates";
  } else {
    ProbeWritePath(run, &fork_apply_us, &freeze_us, &payloads);
    fork_note = "probe: " + N(kForkProbes) +
                " unpublished updates on the live shard trees";
  }
  M("tqtree.fork_apply_us", fork_apply_us, "us",
    "Fork + Remove + Insert; " + fork_note);
  M("tqtree.freeze_us", freeze_us, "us", "BuildAllZIndexes; " + fork_note);
  const WalTiming wal = TimeWal(run->args->tmp + "/wal-span", payloads);
  M("storage.wal_append_us", wal.append_us, "us",
    "traced: WalWriter::Append, " + N(wal.records) + " update payloads");
  M("storage.wal_sync_us", wal.sync_us, "us",
    "traced: WalWriter::Sync (the fsync of sync=always)");
  M("storage.wal_bytes_per_user_byte",
    Ratio(en.wal_bytes, static_cast<double>(plain.inserted_bytes)), "ratio",
    "base " + N(plain.inserted_bytes) + " inserted point bytes");
  M("storage.checkpoints", en.checkpoints, "count");
  M("storage.pages_reclaimed", en.pages_reclaimed, "count");
  // Only write_mixed publishes, checkpoints and recovers; these stay out of
  // the result JSON, whose metric set is the same for every workload.
  report->Metric("storage.checkpoint_ms_mean",
                 Ratio(en.checkpoint_ns / 1e6, en.checkpoints), "ms",
                 "write_mixed only", false);
  report->Metric("runtime.publish_us", HistMeanUs(en, OpFamily::kPublish),
                 "us", "kPublish mean; write_mixed only", false);
  report->Metric("storage.recover_s", after.recover_s, "s",
                 "write_mixed only: Recover after the window", false);
  report->Metric("storage.data_dir_bytes_per_user_byte",
                 Ratio(after.data_dir_bytes, after.live_user_bytes), "ratio",
                 "write_mixed only", false);
  M("datagen.generate_s", generate_s, "s",
    "median of " + N(kSetupReps) + " set-ups");
  M("runtime.build_s", build_s, "s",
    "median of " + N(kSetupReps) + " set-ups");

  const double rps_traced = Ratio(traced.read_frames(), traced.elapsed_s);
  M("trace.read_rps_untraced", plain.read_rps, "frames/s");
  M("trace.read_rps_traced", rps_traced, "frames/s");
  M("trace.overhead_pct", 100.0 * (1.0 - Ratio(rps_traced, plain.read_rps)),
    "%", "read_rps lost to benchmark-side spans");
  // The sampled frames' layer self times against the untraced half's mean
  // sum-frame round trip (frames sent the same way, with no benchmark-side
  // work anywhere in the process).
  const double layer_sum = sp.net_self_us + sp.submit_self_us + sp.eval_crit_us;
  const double err_pct =
      100.0 * Ratio(layer_sum - plain.sum_mean_us, plain.sum_mean_us);
  M("trace.layer_sum_err_pct", err_pct, "%",
    "net + runtime + query self vs the untraced half's mean sum frame");
  std::printf("# layer split of a sum frame (mean us): net %.1f + runtime "
              "%.1f + query %.1f = %.1f vs untraced mean %.1f (%+.1f%%, "
              "tolerance +-%g%%): %s\n",
              sp.net_self_us, sp.submit_self_us, sp.eval_crit_us, layer_sum,
              plain.sum_mean_us, err_pct, kLayerSumTolerancePct,
              std::abs(err_pct) <= kLayerSumTolerancePct ? "PASS" : "FAIL");
}

// ------------------------------------------------------------------- main

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  // The scratch directory is this run's alone; start it empty (durable
  // engines demand a virgin data directory).
  std::filesystem::remove_all(args.tmp);
  std::filesystem::create_directories(args.tmp);
  const double warmup = std::min(kWarmupSeconds, args.seconds / 4.0);

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "scale=%g\n",
              w.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.scale);

  // Set up kSetupReps times, each from scratch; keep the last stack.
  std::vector<double> setup_s, generate_s, build_s;
  std::unique_ptr<Stack> stack;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    if (stack != nullptr) {
      const std::string old_dir = stack->data_dir;
      stack.reset();
      if (!old_dir.empty()) std::filesystem::remove_all(old_dir);
    }
    stack = BuildStack(w, args, args.tmp + "/data-" + std::to_string(rep));
    setup_s.push_back(stack->setup_s);
    generate_s.push_back(stack->generate_s);
    build_s.push_back(stack->build_s);
  }
  std::printf(
      "# users=%zu facilities=%zu stops/route=%zu psi=%g beta=%zu shards=%zu "
      "pool_threads=%zu%s cache=%zu\n",
      stack->inputs.users.size(), stack->inputs.routes.size(), kFullStops,
      kPsi, kBeta, kShards, kPoolThreads,
      w.distributed ? " (2 workers x 2, coordinator 2)" : "",
      w.cache_capacity);
  std::printf("# closed loop: connections=%zu (nproc=%ld) read_conns=%zu "
              "writer=%d sums/frame=%zu facilities=%s topk_every=%u k=%zu\n",
              stack->clients.size(), sysconf(_SC_NPROCESSORS_ONLN),
              w.read_conns, w.writer ? 1 : 0, w.sums_per_frame,
              w.zipf ? "zipf(1.0)" : "cycled", w.topk_every, kTopK);
  if (w.durable) {
    std::printf("# durability: wal_sync=always checkpoint_interval_ms=1000 "
                "compaction=on data_dir=fresh temp dir per set-up\n");
  }
  std::fflush(stdout);

  Run run;
  run.w = &w;
  run.args = &args;
  run.stack = stack.get();
  const size_t num_fac = stack->inputs.routes.size();
  for (size_t c = 0; c < w.read_conns; ++c) {
    const uint64_t stream = args.seed * 1000003ULL + 17 * (c + 1);
    run.readers.push_back(
        Reader{tq::Rng(stream), Permutation(num_fac, stream + 1), 0, 0,
               tq::Rng(stream + 2)});
  }
  run.zipf_rank_to_facility = Permutation(num_fac, args.seed ^ 0xA5A5A5A5ULL);
  std::unique_ptr<Oracle> oracle;
  if (w.writer) {
    run.writer.all = stack->inputs.users;
    run.writer.live.resize(stack->inputs.users.size());
    for (uint32_t i = 0; i < run.writer.live.size(); ++i) {
      run.writer.live[i] = i;
    }
    run.writer.rng = tq::Rng(args.seed * 7919ULL + 11);
    run.writer.insert_order =
        Permutation(stack->inputs.insert_pool.size(), args.seed * 31 + 5);
  } else {
    const auto t0 = Clock::now();
    oracle = std::make_unique<Oracle>(stack->inputs.users,
                                      stack->inputs.routes);
    std::printf("# oracle: unsharded TQ-tree, %zu sums + top-%zu in %.3f s\n",
                oracle->num_facilities(), kTopK, Seconds(t0, Clock::now()));
    if (args.corrupt) oracle->CorruptNextCheck();
    run.oracle = oracle.get();
  }

  // Warm-up: one sum over every facility and one top-k (fills the result
  // cache where it is on), then the workload's own traffic, untimed.
  if (w.cache_capacity != 0 && oracle != nullptr &&
      !CheckWireAnswers(*stack->clients[0], *oracle)) {
    std::fprintf(stderr, "perfbench: cache warm-up failed\n");
  }
  RunPhase(&run, warmup, false);

  // The timed window; a traced run spends its first half untraced (registry
  // deltas, the reference round trip) and its second half traced (spans).
  const CpuTicks cpu_before = ReadCpuTicks();
  const Registries before = ReadRegistries(*stack);
  PhaseStats measured =
      RunPhase(&run, args.trace ? args.seconds / 2.0 : args.seconds, false);
  const Registries delta = DeltaRegistries(before, ReadRegistries(*stack));
  Untraced plain;
  if (args.trace) {
    plain.read_rps = Ratio(measured.read_frames(), measured.elapsed_s);
    for (const double ms : measured.sum_ms) plain.sum_mean_us += ms * 1e3;
    plain.sum_mean_us = Ratio(plain.sum_mean_us, measured.sum_ms.size());
    plain.inserted_bytes = measured.inserted_bytes;
    PhaseStats traced = RunPhase(&run, args.seconds / 2.0, true);
    traced.attempted += measured.attempted;
    traced.failed += measured.failed;
    measured = std::move(traced);
  }
  const double peak_rss_mb = PeakRssMb();
  const CpuTicks cpu_after = ReadCpuTicks();
  std::printf("# host: cpu steal %.1f%% of busy time during the window\n",
              100.0 * Ratio(cpu_after.steal - cpu_before.steal,
                            cpu_after.busy - cpu_before.busy));

  bool correct = run.writer.error.empty();
  if (!correct) {
    std::fprintf(stderr, "perfbench: %s\n", run.writer.error.c_str());
  }
  AfterWindow after;
  if (w.writer && correct) correct = CheckAfterWrites(&run, args, &after);
  if (oracle != nullptr) {
    std::printf("# oracle: %llu answers checked, %llu mismatched\n",
                static_cast<unsigned long long>(oracle->checks()),
                static_cast<unsigned long long>(oracle->mismatches()));
    if (oracle->mismatches() != 0) {
      std::fprintf(stderr, "perfbench: ORACLE MISMATCH: %s\n",
                   oracle->first_mismatch().c_str());
      correct = false;
    }
  }

  Report report;
  if (!args.trace) {
    ReportEndToEnd(&report, run, measured, Median(setup_s), peak_rss_mb);
  } else {
    ReportPerLayer(&report, &run, delta, measured, plain, after,
                   Median(generate_s), Median(build_s));
  }
  std::printf("# failed_frac=%g (%llu failed of %llu attempted)\n",
              Ratio(measured.failed, measured.attempted),
              static_cast<unsigned long long>(measured.failed),
              static_cast<unsigned long long>(measured.attempted));

  stack.reset();
  std::error_code ec;
  std::filesystem::remove_all(args.tmp, ec);
  report.PrintResult(correct, measured.attempted, measured.failed);
  return correct ? 0 : kExitWrong;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
