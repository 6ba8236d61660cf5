#include "runtime/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <utility>

#include "common/check.h"
#include "net/protocol.h"
#include "query/eval_service.h"
#include "runtime/topk_coordinator.h"
#include "tqtree/serialize.h"

namespace {

/// The top-k cache key of a sharded snapshot: every shard's generation, in
/// shard order. Exact vector equality means a hit can never mix two shard
/// states.
tq::runtime::ResultCache::TopKKey TopKKeyFor(
    const tq::runtime::ShardedSnapshot& snap, size_t k) {
  tq::runtime::ResultCache::TopKKey key;
  key.k = k;
  key.psi_bits = tq::runtime::PsiBits(snap.catalog->psi());
  key.gens.reserve(snap.shards.size());
  for (const auto& shard : snap.shards) key.gens.push_back(shard->generation);
  return key;
}

}  // namespace

namespace tq::runtime {

// Shared per-query scatter/gather state. Each scatter task writes only its
// own shard's slots; the last task to finish (remaining hits zero) performs
// the gather. For top-k that last bound-sweep task starts the global
// best-first refinement instead: single-(facility, shard) slot tasks whose
// completions feed the coordinator under `coord_mu` and launch the next
// slots. No pool thread ever blocks on another task.
struct ShardedEngine::GatherState {
  QueryRequest request;
  ShardedSnapshotPtr snap;  // pins every shard's tree for the query
  ResponseCallback done;    // fulfilled exactly once by the last finisher
  std::vector<double> values;     // kServiceValue: per shard
  std::vector<QueryStats> stats;  // per shard
  std::vector<uint8_t> hits;      // kServiceValue: per shard cache hit
  std::atomic<size_t> remaining{0};
  /// Span sink for this query, shared by every task; null when untraced.
  /// Tasks only APPEND — whoever started the trace finishes it (the net
  /// server for frame traces, the engine's done-wrapper for its own).
  TraceContextPtr trace;

  // Top-k state.
  std::vector<std::vector<double>> bounds;  // bound sweep: per shard, per fac
  /// Guards `coord`, `rounds`, `refine_window` and, once the sweep is
  /// gathered, `stats`: slot tasks on the same shard run concurrently.
  std::mutex coord_mu;
  /// Heap-held so the per-query state of the far more common sums stays
  /// small.
  std::unique_ptr<TopKCoordinator> coord;
  /// Longest chain of dependent tasks: the sweep is round 1, and a slot
  /// launched by the completion of a round-r task runs in round r + 1.
  uint32_t rounds = 1;
  /// Traced queries only: per shard, [first slot start, last slot end] of
  /// its refinement — one span per shard, however many slots it ran.
  std::vector<std::pair<uint64_t, uint64_t>> refine_window;
  /// Set for TopKBoundSweepAsync: the refinement result goes to a REMOTE
  /// coordinator as bounds + settled facilities instead of being ranked.
  BoundSweepCallback bound_done;
};

ShardedEngine::ShardedEngine(TrajectorySet users, TrajectorySet facilities,
                             ShardedEngineOptions options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      router_(users,
              users.empty() ? Rect::Of(0, 0, 1, 1) : users.BoundingBox(),
              std::max<size_t>(1, options.num_shards)),
      pool_(options.num_threads, &metrics_) {
  // Partition the initial users; global id = position in `users`, preserved
  // by the registry so later removes can find (shard, local id).
  const size_t n = router_.num_shards();
  owned_begin_ = options_.owned_begin;
  owned_end_ = options_.owned_end;
  if (owned_begin_ == 0 && owned_end_ == 0) {
    owned_end_ = static_cast<uint32_t>(n);  // single-process: own everything
  }
  TQ_CHECK(owned_begin_ < owned_end_ && owned_end_ <= n);
  std::vector<TrajectorySet> shard_sets(n);
  shard_user_counts_.assign(n, 0);
  users_.reserve(users.size());
  for (uint32_t u = 0; u < users.size(); ++u) {
    const auto shard = static_cast<uint32_t>(router_.Route(users.points(u)));
    // Non-owned shards advance only the logical counter: the (shard, local)
    // assignment stays identical to a worker that DOES own the shard, but
    // no set (and later no tree) is materialized for it.
    const uint32_t local = Owns(shard)
                               ? shard_sets[shard].Add(users.points(u))
                               : shard_user_counts_[shard];
    shard_user_counts_[shard]++;
    users_.push_back(UserLocation{shard, local});
  }

  auto facilities_ptr =
      std::make_shared<TrajectorySet>(std::move(facilities));
  auto snap = std::make_shared<ShardedSnapshot>();
  snap->version = 1;
  snap->facilities = facilities_ptr;
  snap->catalog = std::make_shared<FacilityCatalog>(facilities_ptr.get(),
                                                    options_.tree.model.psi);
  snap->shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto shard_users =
        std::make_shared<TrajectorySet>(std::move(shard_sets[s]));
    auto tree = std::make_shared<TQTree>(shard_users.get(), options_.tree);
    tree->BuildAllZIndexes();  // freeze: published trees are never written
    auto state = std::make_shared<ShardState>();
    state->shard = static_cast<uint32_t>(s);
    state->generation = 1;
    state->tree = std::move(tree);
    state->eval = std::make_shared<ServiceEvaluator>(shard_users.get(),
                                                     options_.tree.model);
    state->users = std::move(shard_users);
    snap->shards.push_back(std::move(state));
  }
  Publish(std::move(snap), n);

  if (options_.durability.enabled()) {
    // A fresh durable engine demands a virgin data dir: silently shadowing
    // an existing checkpoint would fork its history. Recover() is the path
    // for existing state; callers decide via storage::CurrentCheckpointDir.
    TQ_CHECK_MSG(
        storage::CurrentCheckpointDir(options_.durability.data_dir)
                .status()
                .code() == StatusCode::kNotFound,
        "data dir already holds a checkpoint; use ShardedEngine::Recover");
    recovery_info_.durable = true;
    recovery_info_.last_lsn = snapshot()->version;
    // The initial checkpoint captures version 1 (this constructor's state);
    // WAL records then start at LSN 2, the first ApplyUpdates publish.
    StartDurability(/*next_lsn=*/2, /*initial_checkpoint=*/true);
  }
}

ShardedEngine::~ShardedEngine() {
  // Stop the checkpointer before any member is torn down: its closures walk
  // the snapshot, registry, and metrics. pool_ (last member) then joins
  // in-flight scatter tasks as before.
  if (durability_) durability_->Stop();
}

ShardedEngine::ShardedEngine(RecoverTag, ShardedEngineOptions options,
                             const storage::CheckpointManifest& manifest)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      router_(manifest.world, manifest.splits),
      pool_(options_.num_threads, &metrics_) {
  const size_t n = router_.num_shards();
  owned_begin_ = options_.owned_begin;
  owned_end_ = options_.owned_end;
  if (owned_begin_ == 0 && owned_end_ == 0) {
    owned_end_ = static_cast<uint32_t>(n);
  }
  TQ_CHECK(owned_begin_ < owned_end_ && owned_end_ <= n);
  shard_user_counts_.assign(n, 0);
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Recover(
    ShardedEngineOptions options) {
  TQ_CHECK(options.durability.enabled());
  const uint64_t start_ns = NowNs();
  auto dir = storage::CurrentCheckpointDir(options.durability.data_dir);
  TQ_RETURN_NOT_OK(dir.status());
  auto manifest = storage::ReadCheckpointManifest(*dir);
  TQ_RETURN_NOT_OK(manifest.status());
  // The recovering process must be CONFIGURED with the geometry the
  // checkpoint was written under — a different ψ, service model, or world
  // would rebuild different trees and silently change answers.
  const uint64_t hash = TQTreeGeometryHash(options.tree, manifest->world);
  if (hash != manifest->geometry_hash) {
    return Status::InvalidArgument(
        "tree options do not match the checkpoint's geometry hash");
  }
  // The partition geometry is adopted wholesale; a configured shard count
  // is ignored in favour of the manifest's.
  options.num_shards = manifest->shards.size();
  std::unique_ptr<ShardedEngine> engine(
      new ShardedEngine(RecoverTag{}, std::move(options), *manifest));
  TQ_RETURN_NOT_OK(engine->RecoverFrom(*dir, *manifest));
  engine->recovery_info_.recovery_ns = NowNs() - start_ns;
  return engine;
}

Status ShardedEngine::RecoverFrom(
    const std::string& checkpoint_dir,
    const storage::CheckpointManifest& manifest) {
  const size_t n = router_.num_shards();

  // Registry: global id -> (shard, local id), exactly as the crashed
  // process assigned them. It cannot be re-derived from the per-shard sets
  // (cross-shard insertion interleaving is lost), hence registry.bin.
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  TQ_RETURN_NOT_OK(storage::LoadCheckpointRegistry(checkpoint_dir, &entries));
  if (entries.size() != manifest.users_total) {
    return Status::InvalidArgument("checkpoint registry size mismatch");
  }
  users_.clear();
  users_.reserve(entries.size());
  for (const auto& [shard, local] : entries) {
    if (shard >= n) {
      return Status::InvalidArgument("checkpoint registry shard out of range");
    }
    users_.push_back(UserLocation{shard, local});
  }
  for (size_t s = 0; s < n; ++s) {
    shard_user_counts_[s] =
        static_cast<uint32_t>(manifest.shards[s].user_count);
  }

  auto facilities = storage::LoadCheckpointFacilities(checkpoint_dir);
  TQ_RETURN_NOT_OK(facilities.status());
  auto facilities_ptr =
      std::make_shared<TrajectorySet>(std::move(*facilities));
  auto snap = std::make_shared<ShardedSnapshot>();
  snap->version = manifest.lsn;
  snap->facilities = facilities_ptr;
  snap->catalog = std::make_shared<FacilityCatalog>(facilities_ptr.get(),
                                                    options_.tree.model.psi);
  snap->shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto state = std::make_shared<ShardState>();
    state->shard = static_cast<uint32_t>(s);
    // Generations restore verbatim so the recovered generation vector
    // (cache keys, kUpdate responses) matches the uninterrupted run.
    state->generation = manifest.shards[s].generation;
    if (Owns(s)) {
      if (!manifest.shards[s].has_tree) {
        return Status::InvalidArgument(
            "checkpoint has no tree for owned shard " + std::to_string(s));
      }
      auto users = storage::LoadCheckpointShardUsers(
          checkpoint_dir, static_cast<uint32_t>(s));
      TQ_RETURN_NOT_OK(users.status());
      std::shared_ptr<TrajectorySet> shard_users = std::move(*users);
      if (shard_users->size() != manifest.shards[s].user_count) {
        return Status::InvalidArgument("checkpoint shard user count mismatch");
      }
      auto tree = LoadTQTree(
          storage::CheckpointShardTreePath(checkpoint_dir,
                                           static_cast<uint32_t>(s)),
          shard_users.get());
      TQ_RETURN_NOT_OK(tree.status());
      state->tree = std::shared_ptr<TQTree>(std::move(*tree));
      state->eval = std::make_shared<ServiceEvaluator>(shard_users.get(),
                                                       options_.tree.model);
      state->users = std::move(shard_users);
    } else {
      // Non-owned shards mirror a live worker: empty set, empty tree, an
      // exact 0.0 contribution to every sum.
      auto shard_users = std::make_shared<TrajectorySet>();
      auto tree = std::make_shared<TQTree>(shard_users.get(), options_.tree);
      tree->BuildAllZIndexes();
      state->tree = std::move(tree);
      state->eval = std::make_shared<ServiceEvaluator>(shard_users.get(),
                                                       options_.tree.model);
      state->users = std::move(shard_users);
    }
    snap->shards.push_back(std::move(state));
  }
  Publish(std::move(snap), n);
  recovery_info_.durable = true;
  recovery_info_.recovered = true;
  recovery_info_.checkpoint_lsn = manifest.lsn;

  // Redo: replay every WAL record past the checkpoint through the normal
  // update path. LSNs are dense (one record per publish), so replay asserts
  // exact version continuity — a gap means lost records, a hard error.
  storage::WalReplayStats stats;
  Status replayed = storage::ReplayWal(
      storage::WalDir(options_.durability.data_dir), manifest.lsn,
      [this](uint64_t lsn, std::string_view payload) -> Status {
        UpdateBatch batch;
        TQ_RETURN_NOT_OK(
            net::DecodeUpdateBody(payload, &batch.inserts, &batch.removes));
        const uint64_t version = snapshot()->version;
        if (lsn != version + 1) {
          return Status::IOError("WAL gap: record " + std::to_string(lsn) +
                                 " after version " + std::to_string(version));
        }
        ApplyUpdatesImpl(batch, /*log_to_wal=*/false);
        return Status::OK();
      },
      &stats);
  TQ_RETURN_NOT_OK(replayed);
  metrics_.AddWalReplayed(stats.records);
  recovery_info_.last_lsn = snapshot()->version;
  recovery_info_.replayed_batches = stats.records;
  recovery_info_.replayed_bytes = stats.bytes;
  recovery_info_.wal_torn_tail = stats.torn_tail;

  StartDurability(snapshot()->version + 1, /*initial_checkpoint=*/false);
  return Status::OK();
}

void ShardedEngine::StartDurability(uint64_t next_lsn,
                                    bool initial_checkpoint) {
  durability_ = std::make_unique<storage::DurabilityManager>(
      options_.durability, [this] { return WriteCheckpointImpl(); },
      [this](uint64_t lsn) { return CompactShards(lsn); }, &metrics_,
      &tracer_);
  const Status started = durability_->Start(next_lsn);
  TQ_CHECK_MSG(started.ok(), started.message().c_str());
  if (initial_checkpoint) {
    const auto stats = durability_->CheckpointNow();
    TQ_CHECK_MSG(stats.ok(), stats.status().message().c_str());
  }
}

Status ShardedEngine::Checkpoint() {
  if (!durability_) {
    return Status::Unimplemented("engine has no durability subsystem");
  }
  return durability_->CheckpointNow().status();
}

storage::RecoveryInfo ShardedEngine::recovery_info() const {
  storage::RecoveryInfo info = recovery_info_;
  if (durability_) {
    const uint64_t lsn = durability_->last_checkpoint_lsn();
    if (lsn != 0) info.checkpoint_lsn = lsn;
    info.last_lsn = snapshot_version();
  }
  return info;
}

Result<uint64_t> ShardedEngine::WriteCheckpointImpl() {
  // Capture (snapshot, registry, logical counts) as one consistent cut:
  // publishes happen under writer_mu_, so holding it pins all three at the
  // same LSN. The capture is O(users) copies; the expensive streaming below
  // runs OFF the lock, with the snapshot shared_ptr keeping every shard
  // tree alive while writers move on.
  ShardedSnapshotPtr snap;
  std::vector<UserLocation> registry;
  std::vector<uint32_t> counts;
  {
    std::lock_guard<std::mutex> writer_lock(writer_mu_);
    snap = snapshot();
    {
      std::lock_guard<std::mutex> reg_lock(registry_mu_);
      registry = users_;
    }
    counts = shard_user_counts_;
  }

  auto writer = storage::CheckpointWriter::Begin(
      options_.durability.data_dir, snap->version);
  TQ_RETURN_NOT_OK(writer.status());
  TQ_RETURN_NOT_OK((*writer)->WriteFacilities(*snap->facilities));
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  entries.reserve(registry.size());
  for (const UserLocation& loc : registry) {
    entries.emplace_back(loc.shard, loc.local_id);
  }
  TQ_RETURN_NOT_OK((*writer)->WriteRegistry(entries));

  const size_t n = snap->shards.size();
  storage::CheckpointManifest manifest;
  manifest.lsn = snap->version;
  manifest.users_total = registry.size();
  manifest.geometry_hash = TQTreeGeometryHash(options_.tree, router_.world());
  manifest.world = router_.world();
  manifest.splits = router_.splits();
  manifest.shards.resize(n);
  for (size_t s = 0; s < n; ++s) {
    manifest.shards[s].generation = snap->shards[s]->generation;
    manifest.shards[s].user_count = counts[s];
    manifest.shards[s].has_tree = Owns(s);
    if (Owns(s)) {
      TQ_RETURN_NOT_OK((*writer)->WriteShard(static_cast<uint32_t>(s),
                                             *snap->shards[s]->users,
                                             *snap->shards[s]->tree));
    }
  }
  TQ_RETURN_NOT_OK((*writer)->Commit(manifest));
  return snap->version;
}

uint64_t ShardedEngine::CompactShards(uint64_t /*lsn*/) {
  // Round-trip each owned shard tree through the snapshot codec into fresh
  // dense pages. NEVER rebuild from the user set: the codec restores the
  // stored structure (node geometry, entries, split history) so query
  // answers stay bit-identical; only upper/aggregate BOUNDS are re-derived,
  // and the prune-threshold proof makes bounds answer-neutral.
  uint64_t reclaimed = 0;
  const ShardedSnapshotPtr captured = snapshot();
  for (size_t s = owned_begin_; s < owned_end_; ++s) {
    const ShardStatePtr old_state = captured->shards[s];
    std::string buf;
    StringSnapshotSink sink(&buf);
    if (!WriteTQTreeSnapshot(*old_state->tree, &sink).ok()) continue;
    StringSnapshotSource source(buf);
    auto fresh = ReadTQTreeSnapshot(&source, old_state->users.get());
    if (!fresh.ok()) continue;

    // Swap only if the shard has not republished meanwhile: same version,
    // same generation, same users/eval — readers and the result cache
    // cannot tell, and the recovery LSN sequence is untouched. A racing
    // publish wins by pointer inequality (its fork replaced the chain we
    // compacted anyway).
    std::lock_guard<std::mutex> writer_lock(writer_mu_);
    const ShardedSnapshotPtr live = snapshot();
    if (live->shards[s] != old_state) continue;
    auto state = std::make_shared<ShardState>(*old_state);
    state->tree = std::shared_ptr<TQTree>(std::move(*fresh));
    auto next = std::make_shared<ShardedSnapshot>(*live);
    next->shards[s] = std::move(state);
    {
      std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
      snapshot_ = std::move(next);
    }
    // The live snapshot dropped its references to the old tree's pages (the
    // tail of the fork chain it pinned).
    reclaimed += old_state->tree->num_pages();
  }
  return reclaimed;
}

void ShardedEngine::Publish(ShardedSnapshotPtr snap,
                            uint64_t shards_republished) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snap);
  }
  metrics_.AddSnapshotPublished();
  metrics_.AddShardPublishes(shards_republished);
}

ShardedSnapshotPtr ShardedEngine::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

ShardedEngine::UserLocation ShardedEngine::LocateUser(
    uint32_t global_id) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  TQ_CHECK(global_id < users_.size());
  return users_[global_id];
}

size_t ShardedEngine::NumUsersTotal() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return users_.size();
}

std::vector<uint64_t> ShardedEngine::shard_generations() const {
  const ShardedSnapshotPtr snap = snapshot();
  std::vector<uint64_t> gens;
  gens.reserve(snap->shards.size());
  for (const auto& shard : snap->shards) gens.push_back(shard->generation);
  return gens;
}

EngineInfo ShardedEngine::info() const {
  const ShardedSnapshotPtr snap = snapshot();
  EngineInfo info;
  info.num_shards = static_cast<uint32_t>(router_.num_shards());
  info.owned_begin = owned_begin_;
  info.owned_end = owned_end_;
  info.psi = options_.tree.model.psi;
  info.num_facilities = static_cast<uint32_t>(snap->catalog->size());
  info.users_total = NumUsersTotal();
  info.snapshot_version = snap->version;
  return info;
}

std::future<QueryResponse> ShardedEngine::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  SubmitAsync(request, [promise](QueryResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void ShardedEngine::SubmitAsync(QueryRequest request, ResponseCallback done) {
  SubmitAsync(std::move(request), nullptr, std::move(done));
}

void ShardedEngine::SubmitAsync(QueryRequest request, TraceContextPtr trace,
                                ResponseCallback done, uint64_t start_ns) {
  auto state = std::make_shared<GatherState>();
  state->request = request;
  state->snap = snapshot();
  const bool topk = request.kind == QueryKind::kTopK;
  metrics_.AddQuery(topk);
  // Submit-to-completion latency, recorded on EVERY completion path below
  // (error, cache hit, degenerate, scatter) so the per-kind histogram
  // counts sum exactly to queries_total — the invariant the CI
  // observability smoke asserts. The clock read is gated on the recording
  // toggle so disabling observability removes the whole cost; a caller
  // start_ns (the net server's frame receive time) replaces it entirely.
  const uint64_t t0 = metrics_.latency_recording()
                          ? (start_ns != 0 ? start_ns : NowNs())
                          : 0;
  const OpFamily family =
      topk ? OpFamily::kTopKQuery : OpFamily::kServiceQuery;
  auto finish_inline = [&](QueryResponse response) {
    if (t0 != 0) metrics_.RecordLatency(family, NowNs() - t0);
    done(std::move(response));
  };

  // Malformed tenant requests come back as errors before any scatter.
  if (request.kind == QueryKind::kServiceValue &&
      request.facility >= state->snap->catalog->size()) {
    QueryResponse response;
    response.kind = request.kind;
    response.snapshot_version = state->snap->version;
    response.status = Status::OutOfRange(
        "facility id " + std::to_string(request.facility) +
        " out of range (catalog has " +
        std::to_string(state->snap->catalog->size()) + ")");
    finish_inline(std::move(response));
    return;
  }

  // A memoised gathered top-k answer for this exact generation vector
  // short-circuits the whole scatter (per-shard invalidation: only a
  // republish of a contributing shard can stale it).
  if (request.kind == QueryKind::kTopK) {
    QueryResponse response;
    response.kind = request.kind;
    response.snapshot_version = state->snap->version;
    if (cache_.GetTopK(TopKKeyFor(*state->snap, request.k),
                       &response.ranked)) {
      response.cache_hit = true;
      metrics_.AddCacheHit();
      finish_inline(std::move(response));
      return;
    }
    // Degenerate ranking (k = 0 or an empty catalog) needs no scatter at
    // all — answer empty immediately, like the malformed-request path.
    if (request.k == 0 || state->snap->catalog->size() == 0) {
      finish_inline(std::move(response));
      return;
    }
  }

  // Scatter path. Queries arriving without a caller trace get an
  // engine-owned one — SAMPLED 1-in-trace_sample, because a trace costs an
  // allocation plus per-shard-task clock reads and a ring write. The
  // armed slow-query log overrides the sampling: a slow query can only be
  // logged if it was traced from the start, so arming the log buys full
  // tracing at full cost, deliberately.
  const bool owns_trace = trace == nullptr;
  if (owns_trace) {
    const bool slow_log_armed =
        tracer_.slow_threshold_ns() != Tracer::kSlowLogDisabled;
    thread_local uint64_t trace_seq = 0;
    if (slow_log_armed ||
        (options_.trace_sample != 0 &&
         trace_seq++ % options_.trace_sample == 0)) {
      trace = tracer_.Start(topk ? "topk" : "sum",
                            topk ? request.k : request.facility);
    }
  }
  state->trace = trace;
  state->done = [this, t0, family, trace, owns_trace,
                 inner = std::move(done)](QueryResponse response) {
    if (owns_trace && trace) {
      tracer_.Finish(*trace, response.snapshot_version);
    }
    if (t0 != 0) metrics_.RecordLatency(family, NowNs() - t0);
    inner(std::move(response));
  };

  const size_t n = state->snap->shards.size();
  state->stats.resize(n);
  state->remaining.store(n, std::memory_order_relaxed);
  // Post timestamps feed the per-shard queue-wait spans; one clock read
  // covers the whole fan-out.
  const uint64_t post_ns = NowNs();
  if (topk) {
    // Best-first protocol: scatter one bound-sweep task per shard; the last
    // finisher starts the coordinator's slot-by-slot refinement.
    state->bounds.resize(n);
    for (size_t s = 0; s < n; ++s) {
      pool_.Post([this, state, s, post_ns]() {
        ExecuteTopKSweep(state, s, post_ns);
      });
    }
    return;
  }
  state->values.resize(n, 0.0);
  state->hits.assign(n, 0);
  for (size_t s = 0; s < n; ++s) {
    pool_.Post(
        [this, state, s, post_ns]() { ExecuteShard(state, s, post_ns); });
  }
}

std::vector<QueryResponse> ShardedEngine::RunBatch(
    const std::vector<QueryRequest>& batch) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(batch.size());
  for (const QueryRequest& request : batch) futures.push_back(Submit(request));
  std::vector<QueryResponse> responses;
  responses.reserve(batch.size());
  for (auto& f : futures) responses.push_back(f.get());
  return responses;
}

double ShardedEngine::ShardServiceValue(const ShardState& shard,
                                        const FacilityCatalog& catalog,
                                        FacilityId f, QueryStats* stats,
                                        bool* cache_hit) {
  const ResultCache::Key key{f, PsiBits(catalog.psi()), shard.generation,
                             shard.shard};
  double value = 0.0;
  if (cache_.Get(key, &value)) {
    *cache_hit = true;
    metrics_.AddCacheHit();
    return value;
  }
  *cache_hit = false;
  // Pool threads land here concurrently on the same frozen shard tree; the
  // service kernels underneath (StopGrid neighborhood lists, the tree's node
  // pages and z-indexes, the evaluator) are immutable after freeze, and each thread's segmented-evaluation scratch lives in a
  // thread_local ServiceAccumulator arena inside EvaluateServiceTQ — so a
  // cache miss costs zero allocation on the steady state and no locks.
  value = EvaluateServiceTQ(shard.tree.get(), *shard.eval, catalog.grid(f),
                            stats);
  if (cache_.enabled()) {
    metrics_.AddCacheMiss();
    metrics_.AddCacheEvictions(cache_.Put(key, value));
  }
  return value;
}

void ShardedEngine::ExecuteShard(const std::shared_ptr<GatherState>& state,
                                 size_t shard_idx, uint64_t post_ns) {
  const uint64_t t0 =
      ((metrics_.latency_recording() && MetricsRegistry::SampleTask()) ||
       state->trace)
          ? NowNs()
          : 0;
  if (state->trace && post_ns != 0) {
    state->trace->AddSpan("queue_wait", static_cast<int32_t>(shard_idx),
                          post_ns, t0);
  }
  QueryStats stats;
  bool hit = false;
  state->values[shard_idx] = ShardServiceValue(
      *state->snap->shards[shard_idx], *state->snap->catalog,
      state->request.facility, &stats, &hit);
  state->stats[shard_idx] = stats;
  state->hits[shard_idx] = hit ? 1 : 0;
  metrics_.AddShardTask();
  if (t0 != 0) {
    const uint64_t t1 = NowNs();
    metrics_.RecordLatency(OpFamily::kShardTask, t1 - t0);
    if (state->trace) {
      state->trace->AddSpan("shard_eval", static_cast<int32_t>(shard_idx),
                            t0, t1);
    }
  }
  // acq_rel: the last decrementer acquires every other task's slot writes.
  if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Gather(state.get());
  }
}

void ShardedEngine::Gather(GatherState* state) {
  const uint64_t merge_t0 = state->trace ? NowNs() : 0;
  const ShardedSnapshot& snap = *state->snap;
  const size_t n = snap.shards.size();
  QueryResponse response;
  response.kind = state->request.kind;
  response.snapshot_version = snap.version;

  QueryStats total;
  bool all_hit = true;
  for (size_t s = 0; s < n; ++s) {
    total.Add(state->stats[s]);
    all_hit = all_hit && state->hits[s] != 0;
  }
  response.cache_hit = all_hit;
  response.stats = total;

  // Disjoint user partition: SO(U, f) = Σ_s SO(U_s, f), summed in ascending
  // shard order so the gather is deterministic.
  double sum = 0.0;
  for (const double v : state->values) sum += v;
  response.value = sum;
  metrics_.RecordQueryStats(total);
  if (merge_t0 != 0) state->trace->AddSpan("merge", -1, merge_t0, NowNs());
  state->done(std::move(response));
}

void ShardedEngine::ExecuteTopKSweep(const std::shared_ptr<GatherState>& state,
                                     size_t shard_idx, uint64_t post_ns) {
  const uint64_t t0 =
      ((metrics_.latency_recording() && MetricsRegistry::SampleTask()) ||
       state->trace)
          ? NowNs()
          : 0;
  if (state->trace && post_ns != 0) {
    state->trace->AddSpan("queue_wait", static_cast<int32_t>(shard_idx),
                          post_ns, t0);
  }
  const ShardState& shard = *state->snap->shards[shard_idx];
  const FacilityCatalog& catalog = *state->snap->catalog;
  // One cheap raster bound per facility, no node walked, no entry scanned
  // and no exact evaluation: the coordinator decides which slots are worth
  // refining.
  std::vector<double>& bounds = state->bounds[shard_idx];
  bounds.resize(catalog.size(), 0.0);
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    bounds[f] = shard.tree->UpperBound(catalog.grid(f));
  }
  metrics_.AddShardTask();
  if (t0 != 0) {
    const uint64_t t1 = NowNs();
    metrics_.RecordLatency(OpFamily::kShardTask, t1 - t0);
    if (state->trace) {
      state->trace->AddSpan("shard_sweep", static_cast<int32_t>(shard_idx),
                            t0, t1);
    }
  }
  if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    CoordinateTopK(state);
  }
}

void ShardedEngine::CoordinateTopK(const std::shared_ptr<GatherState>& state) {
  const uint64_t coord_t0 = state->trace ? NowNs() : 0;
  const size_t num_fac = state->snap->catalog->size();
  // Submit answers k = 0 / empty-catalog requests directly, so k ≥ 1 here.
  const size_t k = std::min(state->request.k, num_fac);
  // At most one slot task per pool thread: a concurrent query's shard tasks
  // queue behind one short slot evaluation, never behind a whole round.
  state->coord =
      std::make_unique<TopKCoordinator>(state->bounds, k, pool_.size());
  if (state->trace) {
    state->refine_window.assign(state->snap->shards.size(), {0, 0});
    state->trace->AddSpan("coordinate", -1, coord_t0, NowNs());
  }
  AdvanceTopK(state, std::unique_lock<std::mutex>(state->coord_mu),
              /*round=*/1);
}

void ShardedEngine::AdvanceTopK(const std::shared_ptr<GatherState>& state,
                                std::unique_lock<std::mutex> lock,
                                uint32_t round) {
  std::vector<TopKCoordinator::Slot> launch;
  TopKCoordinator::Slot slot;
  TopKCoordinator::Step step;
  while ((step = state->coord->Next(&slot)) ==
         TopKCoordinator::Step::kEvaluate) {
    launch.push_back(slot);
  }
  if (!launch.empty()) state->rounds = std::max(state->rounds, round + 1);
  lock.unlock();
  for (const TopKCoordinator::Slot& next : launch) {
    pool_.Post([this, state, next, round]() {
      ExecuteTopKSlot(state, next, round + 1);
    });
  }
  if (step != TopKCoordinator::Step::kDone) return;
  // kDone: nothing is in flight, so no other task touches the state again.
  if (state->bound_done) {
    FinishBoundSweep(state.get());
  } else {
    FinishTopK(state.get());
  }
}

void ShardedEngine::ExecuteTopKSlot(const std::shared_ptr<GatherState>& state,
                                    TopKCoordinator::Slot slot,
                                    uint32_t round) {
  const uint64_t t0 =
      ((metrics_.latency_recording() && MetricsRegistry::SampleTask()) ||
       state->trace)
          ? NowNs()
          : 0;
  QueryStats stats;
  bool hit = false;
  const double value =
      ShardServiceValue(*state->snap->shards[slot.part], *state->snap->catalog,
                        slot.facility, &stats, &hit);
  metrics_.AddShardTask();
  const uint64_t t1 = t0 != 0 ? NowNs() : 0;
  if (t0 != 0) metrics_.RecordLatency(OpFamily::kShardTask, t1 - t0);

  std::unique_lock<std::mutex> lock(state->coord_mu);
  state->stats[slot.part].Add(stats);
  if (state->trace) {
    auto& [first, last] = state->refine_window[slot.part];
    if (first == 0 || t0 < first) first = t0;
    last = std::max(last, t1);
  }
  state->coord->Complete(slot, value);
  AdvanceTopK(state, std::move(lock), round);
}

void ShardedEngine::FinishTopK(GatherState* state) {
  const ShardedSnapshot& snap = *state->snap;
  const size_t n = snap.shards.size();
  if (state->trace) {
    for (size_t s = 0; s < n; ++s) {
      const auto [first, last] = state->refine_window[s];
      if (last != 0) {
        state->trace->AddSpan("shard_refine", static_cast<int32_t>(s), first,
                              last);
      }
    }
  }
  const uint64_t merge_t0 = state->trace ? NowNs() : 0;
  QueryResponse response;
  response.kind = state->request.kind;
  response.snapshot_version = snap.version;

  QueryStats total;
  for (size_t s = 0; s < n; ++s) total.Add(state->stats[s]);
  response.stats = total;

  // Every facility the coordinator left incomplete is provably strictly
  // below the k-th settled value; settled totals are ascending-shard sums,
  // bit for bit what an exhaustive per-facility gather would rank.
  std::vector<RankedFacility> complete = state->coord->Settled();
  const size_t k = std::min(state->request.k, snap.catalog->size());
  TQ_CHECK(complete.size() >= k);
  std::partial_sort(complete.begin(),
                    complete.begin() + static_cast<std::ptrdiff_t>(k),
                    complete.end(), RankedBefore);
  complete.resize(k);
  response.ranked = std::move(complete);
  if (cache_.enabled()) {
    metrics_.AddCacheMiss();
    metrics_.AddCacheEvictions(cache_.PutTopK(
        TopKKeyFor(snap, state->request.k), response.ranked));
  }
  const uint64_t evaluated = state->coord->requested();
  metrics_.AddTopKPruneWork(evaluated, state->coord->num_slots() - evaluated,
                            state->rounds);
  metrics_.RecordQueryStats(total);
  if (merge_t0 != 0) state->trace->AddSpan("merge", -1, merge_t0, NowNs());
  state->done(std::move(response));
}

void ShardedEngine::FinishBoundSweep(GatherState* state) {
  const ShardedSnapshot& snap = *state->snap;
  const size_t n = snap.shards.size();
  const size_t num_fac = snap.catalog->size();
  BoundSweepResult result;
  result.snapshot_version = snap.version;
  result.bounds.assign(num_fac, 0.0);

  QueryStats total;
  for (size_t s = 0; s < n; ++s) total.Add(state->stats[s]);

  // Per-facility bound over the owned shards (non-owned shards hold empty
  // trees, so their UB is exactly 0), plus the facilities the local
  // refinement settled — the remote coordinator's partial lower bounds.
  for (uint32_t f = 0; f < num_fac; ++f) {
    double bound = 0.0;
    for (size_t s = 0; s < n; ++s) bound += state->bounds[s][f];
    result.bounds[f] = bound;
  }
  for (const RankedFacility& settled : state->coord->Settled()) {
    result.exacts.emplace_back(settled.id, settled.value);
  }

  const uint64_t evaluated = state->coord->requested();
  metrics_.AddTopKPruneWork(evaluated, state->coord->num_slots() - evaluated,
                            state->rounds);
  metrics_.RecordQueryStats(total);
  state->bound_done(std::move(result));
}

void ShardedEngine::TopKBoundSweepAsync(size_t k, BoundSweepCallback done) {
  auto state = std::make_shared<GatherState>();
  state->snap = snapshot();
  // A bound sweep is one top-k query's worth of work — count and time it as
  // a top-k query so the histogram-vs-counter invariant the CI
  // observability smoke asserts holds on workers too.
  metrics_.AddQuery(/*topk=*/true);
  const uint64_t t0 = metrics_.latency_recording() ? NowNs() : 0;
  state->bound_done = [this, t0,
                       inner = std::move(done)](BoundSweepResult result) {
    if (t0 != 0) metrics_.RecordLatency(OpFamily::kTopKQuery, NowNs() - t0);
    inner(std::move(result));
  };

  const size_t num_fac = state->snap->catalog->size();
  if (num_fac == 0) {
    BoundSweepResult result;
    result.snapshot_version = state->snap->version;
    state->bound_done(std::move(result));
    return;
  }
  state->request.kind = QueryKind::kTopK;
  state->request.k = std::max<size_t>(1, std::min(k, num_fac));

  const size_t n = state->snap->shards.size();
  state->stats.resize(n);
  state->bounds.resize(n);
  state->remaining.store(n, std::memory_order_relaxed);
  for (size_t s = 0; s < n; ++s) {
    pool_.Post([this, state, s]() {
      ExecuteTopKSweep(state, s, /*post_ns=*/0);
    });
  }
}

std::vector<uint32_t> ShardedEngine::ApplyUpdates(const UpdateBatch& batch) {
  return ApplyUpdatesImpl(batch, /*log_to_wal=*/true);
}

std::vector<uint32_t> ShardedEngine::ApplyUpdatesImpl(const UpdateBatch& batch,
                                                      bool log_to_wal) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  const auto publish_start = std::chrono::steady_clock::now();
  const ShardedSnapshotPtr cur = snapshot();
  const size_t n = cur->shards.size();

  // Route inserts and pre-assign shard-local ids (append positions in each
  // shard's copy-on-write user set), then register global ids — in batch
  // order, so a remove in this same batch can already reference them. The
  // LOGICAL per-shard counts drive the assignment, not the materialized set
  // sizes: a worker's non-owned shards have empty sets but must hand out
  // the same local ids as the worker that owns them, or global ids diverge
  // across the cluster.
  std::vector<std::vector<uint32_t>> shard_inserts(n);  // batch indices
  std::vector<uint32_t> next_local = shard_user_counts_;
  std::vector<UserLocation> new_locations;
  new_locations.reserve(batch.inserts.size());
  for (size_t i = 0; i < batch.inserts.size(); ++i) {
    const auto shard = static_cast<uint32_t>(router_.Route(batch.inserts[i]));
    shard_inserts[shard].push_back(static_cast<uint32_t>(i));
    new_locations.push_back(UserLocation{shard, next_local[shard]++});
  }
  shard_user_counts_ = next_local;
  std::vector<uint32_t> new_ids;
  new_ids.reserve(batch.inserts.size());
  std::vector<std::vector<uint32_t>> shard_removes(n);  // local ids
  {
    std::lock_guard<std::mutex> reg_lock(registry_mu_);
    for (const UserLocation& loc : new_locations) {
      new_ids.push_back(static_cast<uint32_t>(users_.size()));
      users_.push_back(loc);
    }
    for (const uint32_t gid : batch.removes) {
      if (gid >= users_.size()) continue;  // unknown id: ignore, like Remove
      shard_removes[users_[gid].shard].push_back(users_[gid].local_id);
    }
  }

  // Copy-on-write per shard: clone and republish ONLY shards this batch
  // touches; the rest share their state (and cache entries) with `cur`.
  auto next = std::make_shared<ShardedSnapshot>();
  next->version = cur->version + 1;
  next->facilities = cur->facilities;
  next->catalog = cur->catalog;
  next->shards = cur->shards;
  uint64_t removed = 0;
  uint64_t nodes_copied = 0;
  uint64_t pages_shared = 0;
  std::vector<uint32_t> touched_shards;
  for (size_t s = 0; s < n; ++s) {
    // Writes routed to a non-owned shard are someone else's work: the
    // owning worker applies them from the same fanned-out batch, and the
    // registry bookkeeping above already advanced this worker's view.
    if (!Owns(s)) continue;
    if (shard_inserts[s].empty() && shard_removes[s].empty()) continue;
    const ShardState& old = *cur->shards[s];
    auto users = std::make_shared<TrajectorySet>(*old.users);
    std::vector<uint32_t> locals;
    locals.reserve(shard_inserts[s].size());
    for (const uint32_t i : shard_inserts[s]) {
      locals.push_back(users->Add(batch.inserts[i]));
    }
    // Persistent path copy: the forked shard tree shares untouched node
    // pages (and their z-indexes) with the published shard state.
    std::shared_ptr<TQTree> tree = old.tree->Fork(users.get());
    for (const uint32_t local : locals) tree->Insert(local);
    for (const uint32_t local : shard_removes[s]) {
      if (tree->Remove(local)) ++removed;
    }
    tree->BuildAllZIndexes();  // freeze: rebuilds only dirtied z-indexes
    nodes_copied += tree->cow_stats().nodes_copied;
    pages_shared += tree->cow_stats().pages_shared();

    auto state = std::make_shared<ShardState>();
    state->shard = static_cast<uint32_t>(s);
    // Generation advances ONLY for republished shards (this loop skips
    // untouched ones entirely) — the shard_generations() contract that
    // both the result cache and standing-query skipping rely on.
    state->generation = next->version;
    state->tree = std::move(tree);
    state->eval =
        std::make_shared<ServiceEvaluator>(users.get(), options_.tree.model);
    state->users = std::move(users);
    next->shards[s] = std::move(state);
    touched_shards.push_back(static_cast<uint32_t>(s));
  }
  // Write-ahead: the batch is logged (and, under --wal-sync=always, on the
  // platter) BEFORE its snapshot becomes visible, so every observable state
  // is "checkpoint + replayed WAL prefix". Replay passes log_to_wal=false —
  // its records are already the log. A failed append is fail-stop:
  // ApplyUpdates has no error channel, and publishing an unlogged batch
  // would silently void the recovery contract.
  if (durability_ != nullptr && log_to_wal) {
    std::string payload;
    net::EncodeUpdateBody(batch.inserts, batch.removes, &payload);
    const Status logged = durability_->Append(next->version, payload);
    TQ_CHECK_MSG(logged.ok(), logged.message().c_str());
  }

  // One cache pass for the whole batch, however many shards it republished.
  const size_t invalidated =
      cache_.InvalidateShardsBefore(touched_shards, next->version);
  Publish(std::move(next), touched_shards.size());

  metrics_.AddInserted(new_ids.size());
  metrics_.AddRemoved(removed);
  metrics_.AddCacheInvalidated(invalidated);
  const auto publish_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - publish_start);
  metrics_.AddPublishCost(nodes_copied, pages_shared,
                          static_cast<uint64_t>(publish_ns.count()));
  metrics_.RecordLatency(OpFamily::kPublish,
                         static_cast<uint64_t>(publish_ns.count()));
  return new_ids;
}

}  // namespace tq::runtime
