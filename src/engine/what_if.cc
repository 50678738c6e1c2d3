#include "engine/what_if.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/fault.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace trap::engine {

namespace {

// Hot-path metric handles, resolved once (registry pointers are stable).
struct WhatIfMetrics {
  obs::Counter* calls;
  obs::Counter* misses;
  obs::Counter* shape_misses;
  obs::Counter* collisions;
  obs::Counter* poison_heals;
  obs::Counter* batches;
  obs::Counter* dup_configs;
  obs::Counter* dup_pairs;
  obs::Histogram* batch_items;
};

const WhatIfMetrics& Metrics() {
  static const WhatIfMetrics* m = [] {
    obs::MetricRegistry& r = obs::MetricRegistry::Global();
    // Collision detections and checksum heals depend on which of two racing
    // threads fills an entry first, so they are best-effort; everything
    // else counts logical work.
    return new WhatIfMetrics{  // NOLINT(no-heap-on-hot-path): one-time static init
        r.counter("trap.whatif.calls"),
        r.counter("trap.whatif.cache.misses"),
        r.counter("trap.whatif.shape.misses"),
        r.counter("trap.whatif.cache.collisions", /*deterministic=*/false),
        r.counter("trap.whatif.cache.poison_heals", /*deterministic=*/false),
        r.counter("trap.whatif.batch.count"),
        r.counter("trap.whatif.batch.dup_configs"),
        r.counter("trap.whatif.batch.dup_pairs"),
        r.histogram("trap.whatif.batch.items"),
    };
  }();
  return *m;
}

}  // namespace

WhatIfOptimizer::WhatIfOptimizer(const catalog::Schema& schema,
                                 CostParams params)
    : epochs_(schema, params) {}

uint64_t WhatIfOptimizer::EntryChecksum(uint64_t query_fp, uint64_t config_fp,
                                        uint64_t epoch_fp, double cost) {
  return common::HashCombine(
      common::HashCombine(common::HashCombine(query_fp, config_fp), epoch_fp),
      std::bit_cast<uint64_t>(cost));
}

const QueryShape* WhatIfOptimizer::ResolveShape(const StatsEpoch& epoch,
                                                uint64_t query_fp,
                                                const sql::Query& q) const {
  // Shapes bake in statistics-derived selectivities and cardinalities, so
  // the cache key carries the stats epoch: a distribution shift recompiles
  // rather than reuses.
  const uint64_t shape_key = common::HashCombine(query_fp, epoch.fingerprint);
  ShapeShard& shard = shape_shards_[shape_key >> 60];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(shape_key);
    if (it != shard.map.end()) {
      // The stored query and epoch are compared in full: a 64-bit
      // fingerprint collision must never cost one query with another
      // query's — or another distribution's — shape.
      if (it->second.epoch_fp == epoch.fingerprint &&
          it->second.shape->query == q) {
        return it->second.shape.get();
      }
      return nullptr;
    }
  }
  // First sight of this (epoch, query): precompile outside the shard lock (a
  // shape build is much heavier than a map lookup), then publish. A racing
  // thread computing the same shape loses the try_emplace and adopts the
  // winner's entry; the miss is counted once, on insertion, so the count
  // stays deterministic across thread counts.
  auto shape = std::make_unique<QueryShape>(  // NOLINT(no-heap-on-hot-path): once per distinct query
      epoch.model.ComputeShape(q));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(
      shape_key, ShapeEntry{epoch.fingerprint, std::move(shape)});
  if (inserted) Metrics().shape_misses->Add();
  if (it->second.epoch_fp == epoch.fingerprint && it->second.shape->query == q) {
    return it->second.shape.get();
  }
  return nullptr;
}

WhatIfOptimizer::CostMemo& WhatIfOptimizer::MemoFor(
    const StatsEpoch& epoch) const {
  std::lock_guard<std::mutex> lock(memos_mu_);
  return memos_[epoch.fingerprint];
}

common::Status WhatIfOptimizer::CachedCostStatus(
    const StatsEpoch& epoch, CostMemo& memo, const sql::Query& q,
    uint64_t query_fp, const QueryShape* shape, uint64_t config_fp,
    const IndexConfig& config, const common::EvalContext& ctx,
    double* out) const {
  TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
  num_calls_.fetch_add(1, std::memory_order_relaxed);
  Metrics().calls->Add();
  const uint64_t pair_key = common::HashCombine(query_fp, config_fp);
  // Fault draws key on the logical work item + the context's salt, so the
  // same (query, config) pair draws identically on every run, thread count,
  // and stats epoch (drift must not reshuffle fault fates), while retry
  // attempts (which re-salt) redraw.
  const uint64_t draw_key = common::HashCombine(pair_key, ctx.fault_salt);
  if (common::FaultShouldFire(common::FaultSite::kWhatIfTimeout, draw_key)) {
    obs::CountFaultFire(
        common::FaultSiteName(common::FaultSite::kWhatIfTimeout));
    return common::Status::DeadlineExceeded(
        "injected fault: engine.whatif.timeout");
  }
  // `memo` holds only this epoch's estimates: an estimate computed under
  // one data distribution must never answer a probe made under another
  // (the ClearCache() staleness hazard the drift overlay exposed).
  CacheShard& shard = memo.shards[pair_key >> 60];  // 64 - log2(16)
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const CacheEntry* hit = shard.Find(pair_key, query_fp, config_fp)) {
      if (hit->query_fp == query_fp && hit->config_fp == config_fp) {
        if (hit->checksum == EntryChecksum(query_fp, config_fp,
                                           epoch.fingerprint, hit->cost)) {
          *out = hit->cost;
          return common::Status::Ok();
        }
        // Corrupted entry (cache.shard.poison): fall through, recompute,
        // and repair below. The caller always gets the true cost.
        num_integrity_recoveries_.fetch_add(1, std::memory_order_relaxed);
        Metrics().poison_heals->Add();
      } else {
        // 64-bit collision: fall through and recompute; the recomputed pair
        // takes the slot (collisions are ~never, correctness is what
        // matters — neither pair is ever answered from the other's entry).
        num_collisions_.fetch_add(1, std::memory_order_relaxed);
        Metrics().collisions->Add();
      }
    }
  }
  // A miss costs the configuration against the precompiled shape (resolved
  // on demand for unbatched calls, so cache hits never touch the shape
  // cache). The shape-free fallback only runs on a verified fingerprint
  // collision.
  if (shape == nullptr) shape = ResolveShape(epoch, query_fp, q);
  double cost = shape != nullptr ? epoch.model.QueryCost(*shape, config)
                                 : epoch.model.QueryCost(q, config);
  if (common::FaultShouldFire(common::FaultSite::kWhatIfCostError, draw_key)) {
    obs::CountFaultFire(
        common::FaultSiteName(common::FaultSite::kWhatIfCostError));
    cost = std::numeric_limits<double>::quiet_NaN();
  }
  // Validate before caching or returning: a mis-costed plan must surface as
  // an error, never as a silently wrong (or poisonous NaN) estimate.
  if (!std::isfinite(cost) || cost < 0.0) {
    return common::Status::Internal("what-if cost model produced an invalid "
                                    "cost estimate");
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    CacheEntry entry{query_fp, config_fp, cost,
                     EntryChecksum(query_fp, config_fp, epoch.fingerprint,
                                   cost)};
    if (common::FaultShouldFire(common::FaultSite::kCacheShardPoison,
                                draw_key)) {
      // Corrupt the stored cost but not the checksum: the next hit detects
      // the mismatch and self-heals instead of serving the bad value.
      // Fire count is best-effort: racing threads may both reach here.
      obs::CountFaultFire(
          common::FaultSiteName(common::FaultSite::kCacheShardPoison),
          /*deterministic=*/false);
      entry.cost = -(cost + 1.0);
    }
    const bool inserted = shard.InsertOrAssign(pair_key, entry);
    // Count the miss only on actual insertion so two threads racing to fill
    // the same entry (both computing the identical value) report one miss.
    if (inserted) {
      num_misses_.fetch_add(1, std::memory_order_relaxed);
      Metrics().misses->Add();
    }
  }
  *out = cost;
  return common::Status::Ok();
}

void WhatIfOptimizer::RecordBatchMetrics(
    size_t items, const std::vector<uint64_t>& config_fps,
    std::vector<uint64_t>* sort_scratch, obs::TraceSpan* span) {
  // Duplicate configurations in a candidate sweep measure how much work the
  // per-entry memo absorbs within a single batch.
  std::vector<uint64_t>& fps = *sort_scratch;
  fps.assign(config_fps.begin(), config_fps.end());
  std::sort(fps.begin(), fps.end());
  size_t dups = 0;
  for (size_t i = 1; i < fps.size(); ++i) {
    if (fps[i] == fps[i - 1]) ++dups;
  }
  const WhatIfMetrics& m = Metrics();
  m.batches->Add();
  m.batch_items->Record(static_cast<int64_t>(items));
  if (dups > 0) m.dup_configs->Add(static_cast<int64_t>(dups));
  span->AddArg("items", static_cast<int64_t>(items));
  span->AddArg("configs", static_cast<int64_t>(config_fps.size()));
  if (dups > 0) span->AddArg("dup_configs", static_cast<int64_t>(dups));
}

common::Status WhatIfOptimizer::BatchCostCore(
    BatchScratch& sc, size_t nq, const IndexConfig* configs, size_t nc,
    bool weighted, BatchKind kind, const common::EvalContext& ctx,
    double* totals) const {
  // One epoch resolution per batch: every item of this batch costs against
  // ctx.snapshot's statistics, whatever other snapshots concurrent callers
  // carry (the hammer tests assert exactly this all-or-nothing property).
  const std::shared_ptr<const StatsEpoch> epoch = epochs_.Resolve(ctx.snapshot);
  CostMemo& memo = MemoFor(*epoch);
  const size_t items = nq * nc;
  // Fingerprint every query and configuration exactly once per batch (the
  // pre-batched path refingerprinted the query on every item).
  sc.query_fps.resize(nq);
  for (size_t i = 0; i < nq; ++i) {
    sc.query_fps[i] = sql::Fingerprint(*sc.query_ptrs[i]);
  }
  sc.config_fps.resize(nc);
  for (size_t c = 0; c < nc; ++c) sc.config_fps[c] = configs[c].Fingerprint();

  // Span keys are derived exactly as the per-entry-point code always did,
  // so golden trace digests are unchanged.
  uint64_t span_key = 0;
  switch (kind) {
    case BatchKind::kWorkloadCost:
      span_key = common::HashCombine(sc.config_fps[0], nq);
      break;
    case BatchKind::kWorkloadCosts: {
      uint64_t k = nq;
      for (uint64_t fp : sc.config_fps) k = common::HashCombine(k, fp);
      span_key = k;
      break;
    }
    case BatchKind::kQueryCosts: {
      uint64_t k = nc;
      for (uint64_t fp : sc.config_fps) k = common::HashCombine(k, fp);
      span_key = common::HashCombine(sc.query_fps[0], k);
      break;
    }
  }
  obs::TraceSpan span(ctx, "whatif.batch", span_key);
  RecordBatchMetrics(items, sc.config_fps, &sc.sorted_config_fps, &span);

  // Resolve each query's precompiled shape once per batch, not per item.
  // A nullptr entry (verified fingerprint collision) degrades that query to
  // shape-free costing.
  sc.shapes.resize(nq);
  for (size_t i = 0; i < nq; ++i) {
    sc.shapes[i] = ResolveShape(*epoch, sc.query_fps[i], *sc.query_ptrs[i]);
  }

  // Collapse identical (query_fp, config_fp) items: only the first
  // occurrence (the "primary") is dispatched; duplicates copy its result at
  // fold time. Candidate sweeps routinely repeat configurations, and the
  // memo cache would serve the duplicates anyway — deduplicating first
  // avoids even the cache lookups and keeps the parallel loop dense.
  sc.uniques.clear();
  sc.item_to_unique.resize(items);
  // Re-arm the flat probe table: grow to the next power of two holding the
  // batch at <= 0.5 load (a one-time allocation per high-water mark), then
  // blanket-fill the value lane — no rehash, no node allocations.
  size_t table = 16;
  while (table < items * 2) table <<= 1;
  if (sc.slot_keys.size() < table) {
    sc.slot_keys.resize(table);
    sc.slot_vals.resize(table);
  }
  const size_t mask = sc.slot_keys.size() - 1;
  std::fill(sc.slot_vals.begin(), sc.slot_vals.end(),
            BatchScratch::kEmptySlot);
  for (size_t c = 0; c < nc; ++c) {
    for (size_t i = 0; i < nq; ++i) {
      const uint64_t pair_key =
          common::HashCombine(sc.query_fps[i], sc.config_fps[c]);
      const uint32_t next_slot = static_cast<uint32_t>(sc.uniques.size());
      uint32_t slot = next_slot;
      bool primary = true;
      for (size_t pos = pair_key & mask;; pos = (pos + 1) & mask) {
        if (sc.slot_vals[pos] == BatchScratch::kEmptySlot) {
          sc.slot_keys[pos] = pair_key;
          sc.slot_vals[pos] = next_slot;
          break;
        }
        if (sc.slot_keys[pos] != pair_key) continue;
        const BatchScratch::UniquePair& u = sc.uniques[sc.slot_vals[pos]];
        if (sc.query_fps[u.qi] == sc.query_fps[i] &&
            sc.config_fps[u.ci] == sc.config_fps[c]) {
          slot = sc.slot_vals[pos];
          primary = false;
        }
        // else: HashCombine collision between two *distinct* pairs — give
        // this item its own unregistered slot (it just loses dedup against
        // later twins).
        break;
      }
      if (primary) {
        sc.uniques.push_back(
            {static_cast<uint32_t>(i), static_cast<uint32_t>(c)});
      }
      sc.item_to_unique[c * nq + i] =
          primary ? (slot | BatchScratch::kPrimaryBit) : slot;
    }
  }
  const size_t dup_pairs = items - sc.uniques.size();
  if (dup_pairs > 0) {
    Metrics().dup_pairs->Add(static_cast<int64_t>(dup_pairs));
  }

  // Evaluate the unique set in parallel, in cache-friendly grains, writing
  // into pre-sized slots (neighbouring slots are claimed by one thread, so
  // output writes do not false-share across threads).
  // Slots a cancelled pool skips keep the message-less prefill, which
  // copies without allocating; only they get the full status afterwards.
  const common::Status skipped(common::StatusCode::kCancelled, "");
  sc.unique_costs.assign(sc.uniques.size(), 0.0);
  sc.unique_statuses.assign(sc.uniques.size(), skipped);
  common::ThreadPool& pool =
      ctx.pool != nullptr ? *ctx.pool : common::GlobalPool();
  const size_t grain =
      common::ThreadPool::GrainFor(sc.uniques.size(), pool.num_threads());
  pool.ParallelForGrained(
      sc.uniques.size(), grain,
      [&](size_t u) {
        const BatchScratch::UniquePair p = sc.uniques[u];
        sc.unique_statuses[u] = CachedCostStatus(
            *epoch, memo, *sc.query_ptrs[p.qi], sc.query_fps[p.qi],
            sc.shapes[p.qi], sc.config_fps[p.ci], configs[p.ci], ctx,
            &sc.unique_costs[u]);
      },
      ctx.cancel);
  if (ctx.cancel != nullptr &&
      (ctx.cancel->cancelled() || ctx.cancel->expired())) {
    for (common::Status& st : sc.unique_statuses) {
      if (st == skipped) {
        st = common::Status::Cancelled("skipped: evaluation cancelled");
      }
    }
  }

  // Serial fold in input order: bit-identical totals and first-error
  // selection for any thread count.
  for (size_t c = 0; c < nc; ++c) {
    double total = 0.0;
    for (size_t i = 0; i < nq; ++i) {
      const uint32_t entry = sc.item_to_unique[c * nq + i];
      const uint32_t u = entry & ~BatchScratch::kPrimaryBit;
      if ((entry & BatchScratch::kPrimaryBit) == 0) {
        // Deduplicated item: keep the pre-dedup accounting — one step
        // charged, one call counted — and inherit the primary's Status
        // (fault draws key on the (query_fp, config_fp) pair, so this item
        // would have drawn the same fate).
        TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
        num_calls_.fetch_add(1, std::memory_order_relaxed);
        Metrics().calls->Add();
      }
      TRAP_RETURN_IF_ERROR(sc.unique_statuses[u]);
      total += (weighted ? sc.weights[i] : 1.0) * sc.unique_costs[u];
    }
    totals[c] = total;
  }
  return common::Status::Ok();
}

common::StatusOr<double> WhatIfOptimizer::TryQueryCost(
    const sql::Query& q, const IndexConfig& config,
    const common::EvalContext& ctx) const {
  const std::shared_ptr<const StatsEpoch> epoch = epochs_.Resolve(ctx.snapshot);
  double cost = 0.0;
  TRAP_RETURN_IF_ERROR(CachedCostStatus(*epoch, MemoFor(*epoch), q,
                                        sql::Fingerprint(q),
                                        /*shape=*/nullptr, config.Fingerprint(),
                                        config, ctx, &cost));
  return cost;
}

std::vector<double> WhatIfOptimizer::QueryCosts(
    const sql::Query& q, const std::vector<IndexConfig>& configs,
    const common::EvalContext& ctx) const {
  common::StatusOr<std::vector<double>> costs = TryQueryCosts(q, configs, ctx);
  if (costs.ok()) return *std::move(costs);
  return std::vector<double>(configs.size(), kInfiniteCost);
}

common::StatusOr<std::vector<double>> WhatIfOptimizer::TryQueryCosts(
    const sql::Query& q, const std::vector<IndexConfig>& configs,
    const common::EvalContext& ctx) const {
  ScratchLease scratch;
  BatchScratch& sc = *scratch;
  sc.query_ptrs.assign(1, &q);
  std::vector<double> costs(configs.size(), 0.0);
  TRAP_RETURN_IF_ERROR(BatchCostCore(sc, 1, configs.data(), configs.size(),
                                     /*weighted=*/false,
                                     BatchKind::kQueryCosts, ctx,
                                     costs.data()));
  return costs;
}

std::unique_ptr<PlanNode> WhatIfOptimizer::Plan(
    const sql::Query& q, const IndexConfig& config,
    const common::EvalContext& ctx) const {
  return epochs_.Resolve(ctx.snapshot)->model.Plan(q, config);
}

WhatIfOptimizer::CacheEntry* WhatIfOptimizer::CacheShard::Find(
    uint64_t pair_key, uint64_t query_fp, uint64_t config_fp) {
  if (slots.empty()) return nullptr;
  const size_t mask = slots.size() - 1;
  const uint32_t bits = Slot(pair_key, 0);
  for (size_t pos = pair_key & mask; slots[pos] != 0; pos = (pos + 1) & mask) {
    if ((slots[pos] & ~kIndexMask) != bits) continue;  // another pair key
    CacheEntry& e = at((slots[pos] & kIndexMask) - 1);
    // An exact match has this pair key; any other entry's key is recomputed.
    if ((e.query_fp == query_fp && e.config_fp == config_fp) ||
        common::HashCombine(e.query_fp, e.config_fp) == pair_key) {
      return &e;
    }
  }
  return nullptr;
}

bool WhatIfOptimizer::CacheShard::InsertOrAssign(uint64_t pair_key,
                                                 const CacheEntry& entry) {
  if (CacheEntry* e = Find(pair_key, entry.query_fp, entry.config_fp)) {
    *e = entry;
    return false;
  }
  if (size == kBudget) Clear();  // full: refill the kept storage
  if ((size + 1) * 4 > slots.size() * 3) {
    // Double the index and re-slot every entry.
    std::vector<uint32_t> grown(std::max<size_t>(64, slots.size() * 2), 0);
    const size_t mask = grown.size() - 1;
    for (size_t i = 0; i < size; ++i) {
      const CacheEntry& e = at(i);
      const uint64_t key = common::HashCombine(e.query_fp, e.config_fp);
      size_t pos = key & mask;
      while (grown[pos] != 0) pos = (pos + 1) & mask;
      grown[pos] = Slot(key, i + 1);
    }
    slots.swap(grown);
  }
  if (size == blocks.size() * kBlock) {
    blocks.emplace_back();
    blocks.back().reserve(kBlock);
  }
  blocks[size / kBlock].push_back(entry);
  ++size;
  const size_t mask = slots.size() - 1;
  size_t pos = pair_key & mask;
  while (slots[pos] != 0) pos = (pos + 1) & mask;
  slots[pos] = Slot(pair_key, size);
  return true;
}

void WhatIfOptimizer::CacheShard::Clear() {
  for (std::vector<CacheEntry>& block : blocks) block.clear();
  size = 0;
  std::fill(slots.begin(), slots.end(), 0u);
}

size_t WhatIfOptimizer::cache_size() const {
  std::lock_guard<std::mutex> memos_lock(memos_mu_);
  size_t total = 0;
  for (const auto& [epoch_fp, memo] : memos_) {
    for (const CacheShard& shard : memo.shards) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.size;
    }
  }
  return total;
}

size_t WhatIfOptimizer::shape_cache_size() const {
  size_t total = 0;
  for (const ShapeShard& shard : shape_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

void WhatIfOptimizer::ClearCache() {
  std::lock_guard<std::mutex> memos_lock(memos_mu_);
  for (auto& [epoch_fp, memo] : memos_) {
    for (CacheShard& shard : memo.shards) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.Clear();
    }
  }
}

}  // namespace trap::engine
