// Benchmark-side spans around calls into each layer's public functions.
// Nothing here reaches inside the program: every span wraps one call the
// benchmark makes itself, on the same requests, trees and payloads the
// serving stack just handled.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string_view>

#include "bench.h"
#include "common/check.h"
#include "query/eval_service.h"
#include "storage/wal.h"

namespace perfbench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanStats::Add(const Frame& f) {
  std::lock_guard<std::mutex> lock(mu_);
  acc_.frames += 1;
  acc_.rtt_us += f.rtt_us;
  acc_.net_self_us += f.rtt_us - f.submit_us;
  acc_.submit_self_us += f.submit_us - f.eval_crit_us;
  acc_.eval_crit_us += f.eval_crit_us;
  acc_.codec_us += f.codec_us;
  acc_.eval_us += f.eval_sum_us;
  acc_.evals += f.evals;
}

SpanStats::Summary SpanStats::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary s = acc_;
  const auto mean = [](double sum, size_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  s.rtt_us = mean(acc_.rtt_us, acc_.frames);
  s.net_self_us = mean(acc_.net_self_us, acc_.frames);
  s.submit_self_us = mean(acc_.submit_self_us, acc_.frames);
  s.eval_crit_us = mean(acc_.eval_crit_us, acc_.frames);
  s.codec_us = mean(acc_.codec_us, acc_.frames);
  s.eval_us = mean(acc_.eval_us, acc_.evals);
  return s;
}

namespace {

// Waits for a batch of SubmitAsync callbacks. Shared with the callbacks so
// the last one may finish after the waiter has returned.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = 0;      // guarded by mu
  std::vector<bool> hits;    // guarded by mu
};

}  // namespace

SpanStats::Frame TraceReadFrame(
    tq::runtime::ServingEngine* front,
    const std::vector<tq::runtime::ShardedEngine*>& engines,
    const tq::net::NetRequest& request, const tq::net::NetResponse& response,
    double rtt_us) {
  SpanStats::Frame frame;
  frame.rtt_us = rtt_us;

  // net: the four codec calls a frame costs, on this very frame.
  {
    const double t0 = NowUs();
    std::string wire_request;
    tq::net::EncodeRequest(request, &wire_request);
    tq::net::NetRequest decoded_request;
    const tq::Status rq = tq::net::DecodeRequest(
        std::string_view(wire_request).substr(4), &decoded_request);
    std::string wire_response;
    tq::net::EncodeResponse(response, &wire_response);
    tq::net::NetResponse decoded_response;
    const tq::Status rs = tq::net::DecodeResponse(
        std::string_view(wire_response).substr(4), &decoded_response);
    frame.codec_us = NowUs() - t0;
    TQ_CHECK_MSG(rq.ok() && rs.ok(), "codec round trip failed");
  }

  // runtime: the frame's queries straight into the engine, no socket.
  std::vector<tq::runtime::QueryRequest> queries;
  for (const tq::FacilityId f : request.facilities) {
    queries.push_back(tq::runtime::QueryRequest::ServiceValue(f));
  }
  for (const uint32_t k : request.ks) {
    queries.push_back(tq::runtime::QueryRequest::TopK(k));
  }
  auto latch = std::make_shared<Latch>();
  latch->remaining = queries.size();
  latch->hits.assign(queries.size(), false);
  const double s0 = NowUs();
  for (size_t i = 0; i < queries.size(); ++i) {
    front->SubmitAsync(
        queries[i], nullptr,
        [latch, i](tq::runtime::QueryResponse r) {
          std::lock_guard<std::mutex> lock(latch->mu);
          latch->hits[i] = r.cache_hit;
          if (--latch->remaining == 0) latch->cv.notify_all();
        },
        /*start_ns=*/0);
  }
  bool first_hit = false;
  {
    std::unique_lock<std::mutex> lock(latch->mu);
    latch->cv.wait(lock, [&] { return latch->remaining == 0; });
    first_hit = !latch->hits.empty() && latch->hits[0];
  }
  frame.submit_us = NowUs() - s0;

  // query: the first facility's evaluation on every owned shard tree. The
  // shards run in parallel inside the engine, so the slowest one is the
  // critical-path child of the submit span (none on a cache hit).
  if (!request.facilities.empty()) {
    const tq::FacilityId f = request.facilities[0];
    double crit = 0.0;
    for (tq::runtime::ShardedEngine* engine : engines) {
      const tq::runtime::ShardedSnapshotPtr snap = engine->snapshot();
      for (size_t s = 0; s < snap->shards.size(); ++s) {
        if (!engine->Owns(s)) continue;
        const tq::runtime::ShardState& shard = *snap->shards[s];
        const double t0 = NowUs();
        tq::EvaluateServiceTQ(shard.tree.get(), *shard.eval,
                              snap->catalog->grid(f));
        const double dt = NowUs() - t0;
        frame.eval_sum_us += dt;
        frame.evals += 1;
        crit = std::max(crit, dt);
      }
    }
    if (!first_hit) frame.eval_crit_us = crit;
  }
  return frame;
}

ForkTiming TimeForkApply(const tq::runtime::ShardState& pre,
                         const tq::TrajectorySet* users, int64_t remove_local,
                         int64_t insert_local) {
  ForkTiming t;
  const double t0 = NowUs();
  std::unique_ptr<tq::TQTree> fork = pre.tree->Fork(users);
  if (remove_local >= 0) fork->Remove(static_cast<uint32_t>(remove_local));
  if (insert_local >= 0) fork->Insert(static_cast<uint32_t>(insert_local));
  const double t1 = NowUs();
  fork->BuildAllZIndexes();
  t.fork_apply_us = t1 - t0;
  t.freeze_us = NowUs() - t1;
  return t;
}

WalTiming TimeWal(const std::string& dir,
                  const std::vector<std::string>& payloads) {
  WalTiming t;
  tq::storage::WalOptions options;
  options.sync = tq::storage::WalSync::kOff;
  auto wal = tq::storage::WalWriter::Open(dir, 1, options);
  TQ_CHECK_MSG(wal.ok(), "cannot open the scratch WAL");
  for (size_t i = 0; i < payloads.size(); ++i) {
    const double t0 = NowUs();
    TQ_CHECK((*wal)->Append(i + 1, payloads[i]).ok());
    const double t1 = NowUs();
    TQ_CHECK((*wal)->Sync().ok());
    t.append_us += t1 - t0;
    t.sync_us += NowUs() - t1;
  }
  t.records = payloads.size();
  if (t.records != 0) {
    t.append_us /= static_cast<double>(t.records);
    t.sync_us /= static_cast<double>(t.records);
  }
  return t;
}

}  // namespace perfbench
