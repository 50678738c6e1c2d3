#ifndef TRAP_ENGINE_WHAT_IF_H_
#define TRAP_ENGINE_WHAT_IF_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "catalog/snapshot.h"
#include "catalog/stats_overlay.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/cost_model.h"
#include "engine/query_shape.h"
#include "engine/scratch.h"
#include "engine/stats_epoch.h"
#include "obs/obs.h"

namespace trap::engine {

// Hypothetical-index ("what-if") interface: the only channel through which
// index advisors and TRAP interact with the database engine, mirroring the
// what-if calls of the paper's PostgreSQL setup. Costs are memoized on
// (query fingerprint, configuration fingerprint), since advisors probe the
// same query under many configurations.
//
// Hot-path structure (the assessment loop is bounded by what-if throughput;
// the paper's Table 4 counts optimizer invocations for exactly this reason):
//   * Query shapes — everything about a query that does not depend on the
//     index configuration (filter selectivities, join order, cardinalities,
//     referenced columns, sort/aggregate constants) — are precompiled once
//     per query fingerprint into a second sharded cache and fed to
//     CostModel's allocation-free cost kernel; only access-path and probe
//     selection run per (query, config) pair.
//   * Batched entry points fingerprint each query and configuration once,
//     deduplicate identical (query_fp, config_fp) items before dispatch,
//     and fan only the unique set out over the pool in cache-friendly
//     grains (ThreadPool::ParallelForGrained).
//   * All per-batch bookkeeping lives in a per-thread scratch arena
//     (engine/scratch.h), so a steady-state batch performs no heap
//     allocation outside the memo caches themselves.
//
// Thread safety: every const method is safe to call concurrently. Both memo
// caches (the cost memo once per stats epoch) are sharded N ways with a
// per-shard mutex (shard picked from the key's high bits, since HashCombine
// mixes well there; shards are cache-line aligned so neighbouring shard
// locks do not false-share), and the call/miss counters are atomic.
// Batched results are bit-identical for any TRAP_THREADS setting: per-item
// costs are written into pre-sized slots and reduced serially in input
// order.
//
// Error handling: the Try* entry points are the *canonical* fallible core
// -- they honor the EvalContext (step budget, cancellation, pool choice,
// trace sink) and surface injected faults and internal inconsistencies as
// Statuses. Batched Try* calls aggregate per-item Statuses by picking the
// first error in *input order*, so the returned Status is bit-identical
// across thread counts. Deduplicated items keep the accounting of the
// pre-dedup path: every item still charges one step and counts one call,
// and duplicates inherit their primary's Status (fault draws key on the
// (query_fp, config_fp) pair, so a duplicate would have drawn the same
// fate). Every infallible form below is a thin shim over its Try* twin
// (this header is the only definition site) that degrades an error to
// +infinity cost -- a deterministic "this configuration is unusable"
// answer that can never be mistaken for a real estimate (real costs are
// finite and non-negative).
//
// Observability: calls, per-entry cache misses, shape-cache misses, batch
// sizes, duplicate configurations and deduplicated pairs per batch feed the
// global obs::MetricRegistry under trap.whatif.*; checksum heals and
// fingerprint collisions are recorded best-effort (see obs/metrics.h on
// determinism). With a trace sink in the context, each batched call records
// a whatif.batch span.
//
// Statistics epochs: every evaluation reads its catalog state from the
// immutable catalog::Snapshot on ctx.snapshot (nullptr = the base epoch;
// drift scenarios and the serve runtime build snapshots to shift
// per-column statistics or grow the schema mid-run without mutating any
// shared state). The optimizer holds no "active" epoch at all -- two
// concurrent calls under different snapshots each resolve, and cost
// against, their own epoch. Each epoch has its own cost memo, and the
// shape cache mixes the epoch fingerprint into its keys and stores it in
// its entries, so an estimate computed under one data distribution can
// never answer a probe made under another.
// Fault draws deliberately do NOT key on the epoch: a (query, config) work
// item draws the same fate under every distribution, keeping fault
// campaigns comparable across drift. Each batched call resolves its epoch
// once at entry, so however the caller swaps snapshots between calls, one
// batch is never split across epochs.
//
// Cache integrity: every cost-cache entry carries a checksum over
// (query_fp, config_fp, epoch_fp, cost). A hit whose entry fails the
// checksum (e.g. the cache.shard.poison fault site corrupted it at insert)
// is detected, recomputed, and repaired in place -- the caller always
// receives the true cost, and num_integrity_recoveries() counts the
// self-healing events. Shape-cache entries store the full query plus their
// epoch fingerprint and are verified against both on every hit, so a 64-bit
// fingerprint collision is answered by fresh computation, never by another
// query's (or another distribution's) shape.
class WhatIfOptimizer {
 public:
  explicit WhatIfOptimizer(const catalog::Schema& schema,
                           CostParams params = {});

  // Estimated cost of `q` under hypothetical configuration `config`.
  // Shim over TryQueryCost: degrades errors to +infinity.
  double QueryCost(const sql::Query& q, const IndexConfig& config,
                   const common::EvalContext& ctx = {}) const {
    return TryQueryCost(q, config, ctx).value_or(kInfiniteCost);
  }

  // Fallible cost of `q` under `config`, honoring `ctx` (step budget,
  // cancellation, fault salt).
  common::StatusOr<double> TryQueryCost(const sql::Query& q,
                                        const IndexConfig& config,
                                        const common::EvalContext& ctx = {})
      const;

  // The plan behind the estimate (uncached), under ctx.snapshot's epoch.
  // PlanNode::index pointers borrow from `config`, which must outlive the
  // returned plan.
  std::unique_ptr<PlanNode> Plan(const sql::Query& q,
                                 const IndexConfig& config,
                                 const common::EvalContext& ctx = {}) const;

  // Batched: weighted workload cost, with per-query what-if calls evaluated
  // in parallel on ctx.pool (global pool when null). `WorkloadT` is any
  // type with a `queries` container of {query, weight} items
  // (workload::Workload; templated to keep the engine layer free of an
  // upward dependency). Shim over TryWorkloadCost: degrades errors to
  // +infinity.
  template <typename WorkloadT>
  double WorkloadCost(const WorkloadT& w, const IndexConfig& config,
                      const common::EvalContext& ctx = {}) const {
    common::StatusOr<double> total = TryWorkloadCost(w, config, ctx);
    return std::move(total).value_or(kInfiniteCost);
  }

  template <typename WorkloadT>
  common::StatusOr<double> TryWorkloadCost(
      const WorkloadT& w, const IndexConfig& config,
      const common::EvalContext& ctx = {}) const {
    ScratchLease scratch;
    BatchScratch& sc = *scratch;
    const size_t n = w.queries.size();
    sc.query_ptrs.resize(n);
    sc.weights.resize(n);
    for (size_t i = 0; i < n; ++i) {
      sc.query_ptrs[i] = &w.queries[i].query;
      sc.weights[i] = w.queries[i].weight;
    }
    double total = 0.0;
    TRAP_RETURN_IF_ERROR(BatchCostCore(sc, n, &config, 1,
                                       /*weighted=*/true,
                                       BatchKind::kWorkloadCost, ctx, &total));
    return total;
  }

  // Batched candidate-benefit sweep: weighted workload cost under each of
  // `configs`, all unique (query, config) pairs evaluated in parallel.
  // Entry k of the result corresponds to configs[k]. Shim over
  // TryWorkloadCosts: degrades errors to +infinity.
  template <typename WorkloadT>
  std::vector<double> WorkloadCosts(const WorkloadT& w,
                                    const std::vector<IndexConfig>& configs,
                                    const common::EvalContext& ctx = {}) const {
    common::StatusOr<std::vector<double>> totals =
        TryWorkloadCosts(w, configs, ctx);
    if (totals.ok()) return *std::move(totals);
    return std::vector<double>(configs.size(), kInfiniteCost);
  }

  template <typename WorkloadT>
  common::StatusOr<std::vector<double>> TryWorkloadCosts(
      const WorkloadT& w, const std::vector<IndexConfig>& configs,
      const common::EvalContext& ctx = {}) const {
    ScratchLease scratch;
    BatchScratch& sc = *scratch;
    const size_t nq = w.queries.size();
    sc.query_ptrs.resize(nq);
    sc.weights.resize(nq);
    for (size_t i = 0; i < nq; ++i) {
      sc.query_ptrs[i] = &w.queries[i].query;
      sc.weights[i] = w.queries[i].weight;
    }
    std::vector<double> totals(configs.size(), 0.0);
    TRAP_RETURN_IF_ERROR(BatchCostCore(sc, nq, configs.data(), configs.size(),
                                       /*weighted=*/true,
                                       BatchKind::kWorkloadCosts, ctx,
                                       totals.data()));
    return totals;
  }

  // Batched: cost of one query under each of `configs` (parallel,
  // order-preserving) — the inner loop of per-query greedy searches.
  // Shim over TryQueryCosts: degrades errors to +infinity per entry.
  std::vector<double> QueryCosts(const sql::Query& q,
                                 const std::vector<IndexConfig>& configs,
                                 const common::EvalContext& ctx = {}) const;

  common::StatusOr<std::vector<double>> TryQueryCosts(
      const sql::Query& q, const std::vector<IndexConfig>& configs,
      const common::EvalContext& ctx = {}) const;

  // The base schema and cost model (the constructor-time catalog, no
  // overlay). Snapshot-carrying callers should use SchemaFor(ctx) instead.
  const catalog::Schema& schema() const {
    return epochs_.Base()->model.schema();
  }
  const CostModel& cost_model() const { return epochs_.Base()->model; }

  // The schema ctx.snapshot's epoch evaluates under: the base schema for a
  // null or base snapshot, the overlay-applied schema otherwise
  // (materialized once per distinct epoch, retained for the optimizer's
  // lifetime -- the reference stays valid across any later snapshots).
  // Advisors call this at TryRecommend entry so candidate generation sees
  // the same catalog the costing below it does.
  const catalog::Schema& SchemaFor(const common::EvalContext& ctx) const {
    return epochs_.Resolve(ctx.snapshot)->model.schema();
  }

  // Fingerprint of the epoch ctx.snapshot evaluates under; 0 = base.
  uint64_t EpochOf(const common::EvalContext& ctx) const {
    return ctx.snapshot == nullptr ? 0 : ctx.snapshot->epoch();
  }

  // The sentinel cost returned by the legacy (non-Try) wrappers when the
  // underlying evaluation fails: +infinity never wins a cost comparison, so
  // a degraded estimate can only push a search away from the failed config.
  static constexpr double kInfiniteCost =
      std::numeric_limits<double>::infinity();

  // Number of what-if calls answered (including cache hits and batch
  // duplicates) — the paper's efficiency discussions count optimizer
  // invocations.
  int64_t num_calls() const {
    return num_calls_.load(std::memory_order_relaxed);
  }
  // Misses are counted once per cache entry actually inserted, so the count
  // is deterministic across thread counts even when two threads race to
  // fill the same entry.
  int64_t num_cache_misses() const {
    return num_misses_.load(std::memory_order_relaxed);
  }
  // Detected 64-bit fingerprint collisions (answered by recomputation, never
  // from the colliding entry).
  int64_t num_collisions() const {
    return num_collisions_.load(std::memory_order_relaxed);
  }
  // Cache hits whose entry failed its integrity checksum and was recomputed
  // and repaired (see cache.shard.poison in common/fault.h).
  int64_t num_integrity_recoveries() const {
    return num_integrity_recoveries_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    num_calls_.store(0, std::memory_order_relaxed);
    num_misses_.store(0, std::memory_order_relaxed);
    num_collisions_.store(0, std::memory_order_relaxed);
    num_integrity_recoveries_.store(0, std::memory_order_relaxed);
  }

  size_t cache_size() const;
  // Entries one stats epoch's cost memo holds at most (~2.6 MB with their
  // index): a memo shard that fills is cleared and refilled in its own
  // storage, so a long run's memo stops growing (DESIGN.md §3a).
  static constexpr size_t kMemoBudget = size_t{1} << 16;
  // Clears memoized *costs* (across every stats epoch). Precompiled query
  // shapes are pure functions of (stats epoch, query) and their cache keys
  // carry the epoch, so they can never go stale — they are retained.
  void ClearCache();

  // Number of precompiled query shapes held (one per distinct query seen).
  size_t shape_cache_size() const;

 private:
  // A memo entry. Each stats epoch has its own memo, so the entry stores no
  // epoch; nor does it store its key, the pair key
  // HashCombine(query_fp, config_fp), which probing recomputes. A
  // HashCombine collision is still detected exactly, on the full
  // (query, config, epoch) triple, and answered by recomputation instead of
  // another pair's -- or another stats epoch's -- cost. `checksum` covers
  // (query_fp, config_fp, epoch_fp, cost) so a corrupted entry is detected
  // on hit and repaired.
  struct CacheEntry {
    uint64_t query_fp = 0;
    uint64_t config_fp = 0;
    double cost = 0.0;
    uint64_t checksum = 0;
  };
  // Bytes per entry set how large a memo at its budget is (DESIGN.md §3a).
  static_assert(sizeof(CacheEntry) == 32, "a memo entry is 32 bytes");
  // One shard of an epoch's cost memo, a map from pair key to entry.
  // Entries are packed in fixed-size blocks (growth never copies them or
  // reserves more than one block ahead), and `slots` is a linear-probing
  // index over them keyed by the pair key's low bits, at most 3/4 full: 32
  // bytes an entry plus 5-11 bytes of index. A slot is 0 when empty, else
  // entry index + 1 in its low kIndexBits and six more bits of the pair key
  // above them, so a probe reads and rehashes only entries whose bits
  // match. A shard holding kBudget entries is cleared before its next
  // insert; its blocks and index are kept for the refill.
  // Cache-line aligned: a shard's mutex must not false-share with its
  // neighbours when different threads hit different shards.
  struct alignas(64) CacheShard {
    static constexpr size_t kBlock = 256;  // entries per block
    static constexpr int kIndexBits = 26;
    static constexpr uint32_t kIndexMask = (1u << kIndexBits) - 1;
    static constexpr size_t kBudget = kMemoBudget / 16;  // kNumShards

    mutable std::mutex mu;
    std::vector<std::vector<CacheEntry>> blocks;
    size_t size = 0;
    std::vector<uint32_t> slots;

    CacheEntry& at(size_t i) { return blocks[i / kBlock][i % kBlock]; }
    // The entry stored under `pair_key`: the one for (query_fp, config_fp),
    // else one of another pair whose pair key collides; nullptr when none.
    CacheEntry* Find(uint64_t pair_key, uint64_t query_fp, uint64_t config_fp);
    // Stores `entry` under `pair_key`, replacing the entry already stored
    // under that key (a shard at kBudget entries is cleared first);
    // returns true when the entry was added.
    bool InsertOrAssign(uint64_t pair_key, const CacheEntry& entry);
    void Clear();
    // The slot of entry index + 1 `n` under `pair_key`: n and the key's
    // bits 54-59, which neither the shard choice (bits 60-63) nor a slot
    // position (low bits) uses.
    static uint32_t Slot(uint64_t pair_key, size_t n) {
      return (static_cast<uint32_t>((pair_key >> 54) & 63) << kIndexBits) |
             static_cast<uint32_t>(n);
    }
  };
  static constexpr size_t kNumShards = 16;  // power of two
  static_assert(CacheShard::kBudget * kNumShards == kMemoBudget);
  static_assert(CacheShard::kBudget <= CacheShard::kIndexMask);
  // The cost memo of one stats epoch.
  struct CostMemo {
    std::array<CacheShard, kNumShards> shards;
  };
  // Shape entries record the epoch they were compiled under; a hit must
  // match both the stored query and the probing epoch.
  struct ShapeEntry {
    uint64_t epoch_fp = 0;
    std::unique_ptr<QueryShape> shape;
  };
  struct alignas(64) ShapeShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, ShapeEntry> map;
  };

  // Which batched entry point a BatchCostCore call serves; selects the
  // span-key derivation (kept bit-compatible with the pre-batched-core
  // code so golden trace digests are unchanged).
  enum class BatchKind { kWorkloadCost, kWorkloadCosts, kQueryCosts };

  static uint64_t EntryChecksum(uint64_t query_fp, uint64_t config_fp,
                                uint64_t epoch_fp, double cost);

  // Records batch size / duplicate-config metrics for a batched call of
  // `items` what-if items over `config_fps`, and annotates `span`.
  // `sort_scratch` is clobbered.
  static void RecordBatchMetrics(size_t items,
                                 const std::vector<uint64_t>& config_fps,
                                 std::vector<uint64_t>* sort_scratch,
                                 obs::TraceSpan* span);

  // The precompiled shape for (epoch, query_fp, q): served from the shape
  // cache, computed against `epoch`'s cost model and inserted on first
  // sight. Returns nullptr on a verified fingerprint collision (caller must
  // fall back to shape-free costing).
  const QueryShape* ResolveShape(const StatsEpoch& epoch, uint64_t query_fp,
                                 const sql::Query& q) const;

  // The cost memo of `epoch`, created on first sight of the epoch.
  CostMemo& MemoFor(const StatsEpoch& epoch) const;

  // The shared batched core behind TryWorkloadCost / TryWorkloadCosts /
  // TryQueryCosts: fingerprints queries (sc.query_ptrs, size nq) and
  // configs once, dedups identical (query_fp, config_fp) items, evaluates
  // the unique set in parallel grains, and folds totals[0..nc) serially in
  // input order (weights from sc.weights when `weighted`).
  common::Status BatchCostCore(BatchScratch& sc, size_t nq,
                               const IndexConfig* configs, size_t nc,
                               bool weighted, BatchKind kind,
                               const common::EvalContext& ctx,
                               double* totals) const;

  // The fallible memoized core: charges one step against ctx, consults the
  // engine.whatif.* fault sites, validates computed costs (finite,
  // non-negative) and cache-entry checksums. On success writes the cost to
  // *out; errors are never cached. `shape` is the prefetched shape for `q`;
  // nullptr means resolve on demand (and cost shape-free if resolution
  // reports a fingerprint collision). `memo` is MemoFor(epoch).
  common::Status CachedCostStatus(const StatsEpoch& epoch, CostMemo& memo,
                                  const sql::Query& q, uint64_t query_fp,
                                  const QueryShape* shape,
                                  uint64_t config_fp, const IndexConfig& config,
                                  const common::EvalContext& ctx,
                                  double* out) const;

  StatsEpochRegistry epochs_;
  mutable std::mutex memos_mu_;
  // One cost memo per stats epoch, by epoch fingerprint; map nodes never
  // move, so a memo reference stays valid. Guarded by memos_mu_.
  mutable std::map<uint64_t, CostMemo> memos_;
  mutable std::array<ShapeShard, kNumShards> shape_shards_;
  mutable std::atomic<int64_t> num_calls_{0};
  mutable std::atomic<int64_t> num_misses_{0};
  mutable std::atomic<int64_t> num_collisions_{0};
  mutable std::atomic<int64_t> num_integrity_recoveries_{0};
};

}  // namespace trap::engine

#endif  // TRAP_ENGINE_WHAT_IF_H_
