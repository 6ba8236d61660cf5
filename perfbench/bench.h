// perfbench — the repository benchmark: loopback serving workloads with
// exact end-to-end percentiles, oracle-checked answers and a traced
// per-layer split. See perfbench/README.md for the workloads and metrics.
//
// Shared declarations of the benchmark's translation units:
//   inputs.cc  the data set, engine options, the answer oracle
//   report.cc  exact order statistics, metric lines, the result JSON
//   traced.cc  benchmark-side spans around calls into each layer
//   main.cc    argument parsing, set-up, the closed-loop workloads
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "query/topk.h"
#include "runtime/metrics.h"
#include "runtime/sharded_engine.h"
#include "traj/dataset.h"

namespace perfbench {

// ------------------------------------------------------------- inputs.cc

/// Fixed serving configuration: NYF-sized check-in users, 128 bus routes of
/// 64 stops, ψ = 200 m, β = 64, 4 shards, 4 pool threads.
inline constexpr size_t kFullUsers = 21275;
inline constexpr size_t kFullRoutes = 128;
inline constexpr size_t kFullStops = 64;
inline constexpr double kPsi = 200.0;
inline constexpr size_t kBeta = 64;
inline constexpr size_t kShards = 4;
inline constexpr size_t kPoolThreads = 4;
inline constexpr size_t kTopK = 8;

/// The data set is the same in every run: the run seed drives the traffic
/// (facility order, removals, insert order, probe updates), not the data.
/// Top-k cost depends strongly on the data set — across generator seeds the
/// share of facilities bound-and-prune must evaluate at k = 8 ranged
/// 0.20-0.45 — so seeded data would make every top-k figure a property of
/// the seed.
inline constexpr uint64_t kDataSeed = 1;
/// Check-ins generated beyond the users, for the write stream.
inline constexpr size_t kInsertPool = 8192;

/// Users and facilities, generated with GenerateCheckins / GenerateBusRoutes
/// on the New York city model. `insert_pool` comes from the same
/// GenerateCheckins call as the users (same venues, same popularity), so
/// writes replace users with statistically identical ones and the data
/// stays stationary. `scale` shrinks users and routes (the self-test runs
/// tiny).
struct Inputs {
  tq::TrajectorySet users;
  tq::TrajectorySet routes;
  tq::TrajectorySet insert_pool;
};
Inputs GenerateInputs(double scale);

/// Tree options every engine and oracle of the benchmark uses. Point-count
/// values without normalisation are integers, so sums are exact and the
/// oracle can demand bit-identical answers.
tq::TQTreeOptions TreeOptions();

/// Engine options for one workload's in-process engine.
tq::runtime::ShardedEngineOptions EngineOptions(size_t cache_capacity);

/// The answers of one unsharded TQ-tree over a user set: every facility's
/// service value and the top-k ranking, computed with the library
/// (EvaluateServiceTQ / TopKFacilitiesTQ). Check* compare bit for bit and
/// record mismatches; thread-safe.
class Oracle {
 public:
  Oracle(const tq::TrajectorySet& users, const tq::TrajectorySet& routes);

  /// Arms the self-test fault: the next compared answer is perturbed before
  /// the comparison, which must then report a mismatch.
  void CorruptNextCheck() { corrupt_.store(true); }

  bool CheckSum(tq::FacilityId f, double got);
  bool CheckTopK(const std::vector<tq::RankedFacility>& got);

  size_t num_facilities() const { return sums_.size(); }
  uint64_t checks() const { return checks_.load(); }
  uint64_t mismatches() const { return mismatches_.load(); }
  /// First mismatch, formatted; empty when none.
  std::string first_mismatch() const;

 private:
  void Mismatch(std::string what);

  std::vector<double> sums_;
  std::vector<tq::RankedFacility> topk_;
  std::atomic<bool> corrupt_{false};
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> mismatches_{0};
  mutable std::mutex mu_;
  std::string first_;  // guarded by mu_
};

// ------------------------------------------------------------- report.cc

/// Exact order statistics of raw samples (nearest rank: the q-quantile is
/// the ceil(q·n)-th smallest sample). No bucketing anywhere.
struct Percentiles {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;   // the requested tail quantile
  size_t beyond = 0;   // samples strictly past the tail's rank (windowed:
                       // the fewest in any window)
  size_t windows = 1;  // time slices whose statistics were combined
};
Percentiles ExactPercentiles(std::vector<double> samples, double tail_q);

/// The timed window cut into `windows` equal time slices by each sample's
/// send time `at_s` (seconds into the window, `span_s` long); p50 and tail
/// are the medians of the slices' exact order statistics. A neighbour that
/// loads a shared host for a few seconds then moves the statistics of the
/// slices it overlaps, not the reported medians; a slower program moves
/// every slice. Empty slices are skipped.
Percentiles WindowedPercentiles(const std::vector<double>& samples,
                                const std::vector<double>& at_s, double span_s,
                                size_t windows, double tail_q);

/// Collects metrics, prints one human-readable line per metric as it is
/// added, and renders the final JSON line.
class Report {
 public:
  /// `json` = whether the metric belongs in the result JSON.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "", bool json = true);
  /// Prints the result JSON (must be the last line of standard output).
  void PrintResult(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> json_;
};

/// Peak resident set (VmHWM) of this process, MiB.
double PeakRssMb();

/// Machine-wide CPU time from /proc/stat, in clock ticks: busy time (not
/// idle or waiting on I/O) and the part of it the hypervisor gave to other
/// guests (steal).
struct CpuTicks {
  uint64_t busy = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Counter and histogram deltas between two registry reads.
tq::runtime::MetricsView Delta(const tq::runtime::MetricsView& before,
                               const tq::runtime::MetricsView& after);
/// Adds `b` into `a` (counters and histogram count/sum).
void Accumulate(tq::runtime::MetricsView* a,
                const tq::runtime::MetricsView& b);
/// Mean of one op family's histogram, µs (0 when empty).
double HistMeanUs(const tq::runtime::MetricsView& v,
                  tq::runtime::OpFamily family);

// ------------------------------------------------------------- traced.cc

/// Benchmark-side spans of the traced run. Each sampled sum frame is
/// re-measured layer by layer right after its round trip:
///   codec   EncodeRequest/DecodeRequest/EncodeResponse/DecodeResponse
///   submit  the same queries through ServingEngine::SubmitAsync
///   eval    EvaluateServiceTQ of the frame's first facility on every
///           owned shard of the engine snapshot(s) (the query layer)
/// Thread-safe accumulation; each connection thread feeds it.
class SpanStats {
 public:
  struct Frame {
    double rtt_us = 0.0;
    double codec_us = 0.0;
    double submit_us = 0.0;
    double eval_crit_us = 0.0;  // slowest shard's evaluation, if it missed
    double eval_sum_us = 0.0;   // all shards' evaluations
    size_t evals = 0;           // (facility, shard) evaluations timed
  };
  void Add(const Frame& f);

  struct Summary {
    size_t frames = 0;
    double rtt_us = 0.0;          // mean sampled round trip
    double net_self_us = 0.0;     // rtt − submit
    double submit_self_us = 0.0;  // submit − critical-path evaluation
    double eval_crit_us = 0.0;    // critical-path evaluation
    double codec_us = 0.0;
    double eval_us = 0.0;         // mean per (facility, shard)
    size_t evals = 0;
  };
  Summary Summarize() const;

 private:
  mutable std::mutex mu_;
  Summary acc_;  // sums, guarded by mu_
};

/// A sampled frame's layer spans (see SpanStats). `engines` are the
/// in-process engines whose owned shard trees answer the query layer.
SpanStats::Frame TraceReadFrame(
    tq::runtime::ServingEngine* front,
    const std::vector<tq::runtime::ShardedEngine*>& engines,
    const tq::net::NetRequest& request, const tq::net::NetResponse& response,
    double rtt_us);

/// TQTree::Fork + Remove + Insert on a shard tree, then BuildAllZIndexes on
/// the fork — the write path of one publish, timed outside the engine.
struct ForkTiming {
  double fork_apply_us = 0.0;
  double freeze_us = 0.0;
};
/// `pre` is the shard state before the write; `users` the shard's user set
/// after it (a superset). Negative local ids mean "not in this shard".
ForkTiming TimeForkApply(const tq::runtime::ShardState& pre,
                         const tq::TrajectorySet* users, int64_t remove_local,
                         int64_t insert_local);

/// WalWriter::Append then Sync of every payload, in a scratch directory.
/// The `always` flush policy is exactly Append followed by an fsync; the
/// writer is opened with `off` and Sync is called explicitly so the two
/// stages get separate spans.
struct WalTiming {
  double append_us = 0.0;
  double sync_us = 0.0;
  size_t records = 0;
};
WalTiming TimeWal(const std::string& dir,
                  const std::vector<std::string>& payloads);

/// Monotonic microseconds.
double NowUs();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
