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

common::Status WhatIfOptimizer::AdmitPair(const common::EvalContext& ctx,
                                          uint64_t draw_key, int64_t* calls) {
  TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
  ++*calls;
  if (common::FaultShouldFire(common::FaultSite::kWhatIfTimeout, draw_key)) {
    obs::CountFaultFire(
        common::FaultSiteName(common::FaultSite::kWhatIfTimeout));
    return common::Status::DeadlineExceeded(
        "injected fault: engine.whatif.timeout");
  }
  return common::Status::Ok();
}

WhatIfOptimizer::PairState WhatIfOptimizer::ProbeLocked(
    CacheShard& shard, uint64_t pair_key, uint64_t query_fp,
    uint64_t config_fp, uint64_t epoch_fp, double* cost) {
  const CacheEntry* hit = shard.Find(pair_key, query_fp, config_fp);
  if (hit == nullptr) return PairState::kMiss;
  // 64-bit collision: recompute; the recomputed pair takes the slot
  // (collisions are ~never, correctness is what matters — neither pair is
  // ever answered from the other's entry).
  if (hit->query_fp != query_fp || hit->config_fp != config_fp) {
    return PairState::kCollision;
  }
  // Corrupted entry (cache.shard.poison): recompute and repair. The caller
  // always gets the true cost.
  if (hit->checksum !=
      EntryChecksum(query_fp, config_fp, epoch_fp, hit->cost)) {
    return PairState::kHeal;
  }
  *cost = hit->cost;
  return PairState::kHit;
}

void WhatIfOptimizer::RecordProbe(PairState probe) const {
  if (probe == PairState::kHeal) {
    num_integrity_recoveries_.fetch_add(1, std::memory_order_relaxed);
    Metrics().poison_heals->Add();
  } else if (probe == PairState::kCollision) {
    num_collisions_.fetch_add(1, std::memory_order_relaxed);
    Metrics().collisions->Add();
  }
}

common::Status WhatIfOptimizer::ComputePair(const StatsEpoch& epoch,
                                            const sql::Query& q,
                                            uint64_t query_fp,
                                            const QueryShape* shape,
                                            const IndexConfig& config,
                                            uint64_t draw_key,
                                            double* cost) const {
  // The shape-free fallback only runs on a verified fingerprint collision.
  if (shape == nullptr) shape = ResolveShape(epoch, query_fp, q);
  double c = shape != nullptr ? epoch.model.QueryCost(*shape, config)
                              : epoch.model.QueryCost(q, config);
  if (common::FaultShouldFire(common::FaultSite::kWhatIfCostError, draw_key)) {
    obs::CountFaultFire(
        common::FaultSiteName(common::FaultSite::kWhatIfCostError));
    c = std::numeric_limits<double>::quiet_NaN();
  }
  // Validate before caching or returning: a mis-costed plan must surface as
  // an error, never as a silently wrong (or poisonous NaN) estimate.
  if (!std::isfinite(c) || c < 0.0) {
    return common::Status::Internal("what-if cost model produced an invalid "
                                    "cost estimate");
  }
  *cost = c;
  return common::Status::Ok();
}

bool WhatIfOptimizer::PublishLocked(CacheShard& shard, uint64_t pair_key,
                                    uint64_t query_fp, uint64_t config_fp,
                                    uint64_t epoch_fp, double cost,
                                    uint64_t draw_key) {
  CacheEntry entry{query_fp, config_fp, cost,
                   EntryChecksum(query_fp, config_fp, epoch_fp, cost)};
  if (common::FaultShouldFire(common::FaultSite::kCacheShardPoison,
                              draw_key)) {
    // Corrupt the stored cost but not the checksum: the next hit detects
    // the mismatch and self-heals instead of serving the bad value.
    // Fire count is best-effort: racing batches may both reach here.
    obs::CountFaultFire(
        common::FaultSiteName(common::FaultSite::kCacheShardPoison),
        /*deterministic=*/false);
    entry.cost = -(cost + 1.0);
  }
  // A miss counts only on actual insertion, so two batches racing to fill
  // the same entry (both computing the identical value) report one miss.
  return shard.InsertOrAssign(pair_key, entry);
}

void WhatIfOptimizer::CountCalls(int64_t calls, int64_t misses) const {
  if (calls > 0) {
    num_calls_.fetch_add(calls, std::memory_order_relaxed);
    Metrics().calls->Add(calls);
  }
  if (misses > 0) {
    num_misses_.fetch_add(misses, std::memory_order_relaxed);
    Metrics().misses->Add(misses);
  }
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
  sc.key_clashes.clear();
  sc.item_to_unique.resize(items);
  // Re-arm the flat probe table: the next power of two holding the batch at
  // <= 0.5 load, in storage grown once per high-water mark. Only that
  // prefix is filled and probed, so a small batch after a large one does
  // not sweep the large one's table — no rehash, no node allocations.
  size_t table = 16;
  while (table < items * 2) table <<= 1;
  if (sc.slot_keys.size() < table) {
    sc.slot_keys.resize(table);
    sc.slot_vals.resize(table);
  }
  const size_t mask = table - 1;
  std::fill(sc.slot_vals.begin(), sc.slot_vals.begin() + table,
            BatchScratch::kEmptySlot);
  for (size_t c = 0; c < nc; ++c) {
    for (size_t i = 0; i < nq; ++i) {
      const uint64_t pair_key =
          common::HashCombine(sc.query_fps[i], sc.config_fps[c]);
      const uint32_t next_slot = static_cast<uint32_t>(sc.uniques.size());
      uint32_t slot = next_slot;
      bool primary = true;
      bool clash = false;
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
        } else {
          // HashCombine collision between two *distinct* pairs — give this
          // item its own unregistered slot (it just loses dedup against
          // later twins).
          clash = true;
        }
        break;
      }
      if (primary) {
        sc.uniques.push_back(
            {pair_key, static_cast<uint32_t>(i), static_cast<uint32_t>(c)});
        sc.key_clashes.push_back(clash ? 1 : 0);
      }
      sc.item_to_unique[c * nq + i] =
          primary ? (slot | BatchScratch::kPrimaryBit) : slot;
    }
  }
  const size_t dup_pairs = items - sc.uniques.size();
  if (dup_pairs > 0) {
    Metrics().dup_pairs->Add(static_cast<int64_t>(dup_pairs));
  }

  // The unique pairs go through TryQueryCost's four steps phase by phase
  // (DESIGN.md §3a).
  const size_t nu = sc.uniques.size();
  sc.outcomes.assign(nu, BatchScratch::kPending);
  sc.unique_costs.assign(nu, 0.0);
  if (sc.unique_statuses.size() < nu) sc.unique_statuses.resize(nu);
  sc.pair_states.assign(nu, static_cast<uint8_t>(PairState::kRefused));

  // Admission, in unique order as a one-lane pool would run it: a pair
  // charges its step and draws its timeout fault before its probe, and once
  // the budget is spent or the token cancelled the rest are skipped.
  int64_t calls = 0;
  for (size_t u = 0; u < nu; ++u) {
    if (ctx.cancel != nullptr &&
        (ctx.cancel->cancelled() || ctx.cancel->expired())) {
      break;
    }
    common::Status admitted =
        AdmitPair(ctx, FaultDrawKey(sc.uniques[u].pair_key, ctx), &calls);
    if (admitted.ok()) {
      sc.pair_states[u] = static_cast<uint8_t>(PairState::kAdmitted);
    } else {
      sc.unique_statuses[u] = std::move(admitted);
      sc.outcomes[u] = BatchScratch::kFailed;
    }
  }
  CountCalls(calls, 0);

  struct CostCtx {
    const WhatIfOptimizer* opt;
    const StatsEpoch* epoch;
    const BatchScratch* sc;
    const IndexConfig* configs;
    const common::EvalContext* ctx;
  };
  const CostCtx cost_ctx{this, epoch.get(), &sc, configs, &ctx};
  const CostFn cost = [](const void* raw, uint32_t u, double* out) {
    const CostCtx& c = *static_cast<const CostCtx*>(raw);
    const BatchScratch::UniquePair p = c.sc->uniques[u];
    return c.opt->ComputePair(*c.epoch, *c.sc->query_ptrs[p.qi],
                              c.sc->query_fps[p.qi], c.sc->shapes[p.qi],
                              c.configs[p.ci],
                              FaultDrawKey(p.pair_key, *c.ctx), out);
  };
  common::ThreadPool& pool =
      ctx.pool != nullptr ? *ctx.pool : common::GlobalPool();
  CountCalls(0, ProbeCostPublish(memo, epoch->fingerprint, ctx, pool, cost,
                                 &cost_ctx, sc));

  // Serial fold in input order: bit-identical totals and first-error
  // selection for any thread count.
  int64_t dup_calls = 0;
  common::Status status;
  for (size_t c = 0; c < nc && status.ok(); ++c) {
    double total = 0.0;
    for (size_t i = 0; i < nq; ++i) {
      const uint32_t entry = sc.item_to_unique[c * nq + i];
      const uint32_t u = entry & ~BatchScratch::kPrimaryBit;
      if ((entry & BatchScratch::kPrimaryBit) == 0) {
        // Deduplicated item: keep the pre-dedup accounting — one step
        // charged, one call counted — and inherit the primary's Status
        // (fault draws key on the (query_fp, config_fp) pair, so this item
        // would have drawn the same fate).
        status = ctx.CheckContinue();
        if (!status.ok()) break;
        ++dup_calls;
      }
      if (sc.outcomes[u] != BatchScratch::kCosted) {
        // Only a cancelled or spent token leaves a pair pending.
        status = sc.outcomes[u] == BatchScratch::kFailed
                     ? sc.unique_statuses[u]
                     : common::Status::Cancelled(
                           "skipped: evaluation cancelled");
        break;
      }
      total += (weighted ? sc.weights[i] : 1.0) * sc.unique_costs[u];
    }
    if (status.ok()) totals[c] = total;
  }
  CountCalls(dup_calls, 0);
  return status;
}

int64_t WhatIfOptimizer::ProbeCostPublish(CostMemo& memo, uint64_t epoch_fp,
                                          const common::EvalContext& ctx,
                                          common::ThreadPool& pool,
                                          CostFn cost, const void* cost_ctx,
                                          BatchScratch& sc) const {
  const size_t nu = sc.uniques.size();
  auto state = [&sc](size_t u) {
    return static_cast<PairState>(sc.pair_states[u]);
  };
  auto set_state = [&sc](size_t u, PairState s) {
    sc.pair_states[u] = static_cast<uint8_t>(s);
  };
  auto compute = [&](uint32_t u) {
    common::Status st = cost(cost_ctx, u, &sc.unique_costs[u]);
    if (st.ok()) {
      sc.outcomes[u] = BatchScratch::kCosted;
    } else {
      sc.unique_statuses[u] = std::move(st);
      sc.outcomes[u] = BatchScratch::kFailed;
    }
  };
  // Bucket the admitted pairs by memo shard with a stable counting sort.
  sc.shard_begin.assign(kNumShards + 1, 0);
  for (size_t u = 0; u < nu; ++u) {
    if (state(u) != PairState::kAdmitted) continue;
    ++sc.shard_begin[ShardOf(sc.uniques[u].pair_key) + 1];
  }
  for (size_t s = 0; s < kNumShards; ++s) {
    sc.shard_begin[s + 1] += sc.shard_begin[s];
  }
  sc.by_shard.resize(sc.shard_begin[kNumShards]);
  uint32_t next[kNumShards];
  std::copy(sc.shard_begin.begin(), sc.shard_begin.end() - 1, next);
  for (size_t u = 0; u < nu; ++u) {
    if (state(u) != PairState::kAdmitted) continue;
    sc.by_shard[next[ShardOf(sc.uniques[u].pair_key)]++] =
        static_cast<uint32_t>(u);
  }

  // Probe each touched shard under one lock.
  for (size_t s = 0; s < kNumShards; ++s) {
    if (sc.shard_begin[s] == sc.shard_begin[s + 1]) continue;
    CacheShard& shard = memo.shards[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (uint32_t k = sc.shard_begin[s]; k < sc.shard_begin[s + 1]; ++k) {
      const uint32_t u = sc.by_shard[k];
      const BatchScratch::UniquePair p = sc.uniques[u];
      const PairState probed =
          ProbeLocked(shard, p.pair_key, sc.query_fps[p.qi],
                      sc.config_fps[p.ci], epoch_fp, &sc.unique_costs[u]);
      set_state(u, probed);
      if (probed == PairState::kHit) sc.outcomes[u] = BatchScratch::kCosted;
    }
  }

  // Cost the pairs the memo did not answer in parallel with no lock held,
  // in cache-friendly grains, writing into pre-sized slots (neighbouring
  // slots are claimed by one thread, so output writes do not false-share
  // across threads). Every admitted pair has charged its step, so only a
  // cancelled token skips one.
  sc.misses.clear();
  for (size_t u = 0; u < nu; ++u) {
    if (state(u) == PairState::kMiss || state(u) == PairState::kHeal ||
        state(u) == PairState::kCollision) {
      sc.misses.push_back(static_cast<uint32_t>(u));
    }
  }
  pool.ParallelForGrained(
      sc.misses.size(),
      common::ThreadPool::GrainFor(sc.misses.size(), pool.num_threads()),
      [&](size_t m) {
        if (ctx.cancel != nullptr && ctx.cancel->cancelled()) return;
        compute(sc.misses[m]);
      });

  // Publish shard by shard, in unique order within each shard: the insert
  // order of a one-lane run, so budget clears, collision replacement and
  // the miss count come out the same. A pair whose shard this batch has
  // cleared, or whose pair key an earlier pair of the batch shares, is
  // probed again: a one-lane run would have probed it after those inserts.
  int64_t inserted = 0;
  for (size_t s = 0; s < kNumShards; ++s) {
    if (sc.shard_begin[s] == sc.shard_begin[s + 1]) continue;
    CacheShard& shard = memo.shards[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint64_t clears = shard.clears;
    for (uint32_t k = sc.shard_begin[s]; k < sc.shard_begin[s + 1]; ++k) {
      const uint32_t u = sc.by_shard[k];
      const BatchScratch::UniquePair p = sc.uniques[u];
      PairState probed = state(u);
      if (shard.clears != clears || sc.key_clashes[u] != 0) {
        const PairState again =
            ProbeLocked(shard, p.pair_key, sc.query_fps[p.qi],
                        sc.config_fps[p.ci], epoch_fp, &sc.unique_costs[u]);
        if (again == PairState::kHit) {
          sc.outcomes[u] = BatchScratch::kCosted;
        } else if (probed == PairState::kHit) {
          compute(u);  // answered at probe time, no longer in the memo
        }
        probed = again;
        set_state(u, probed);
      }
      if (probed == PairState::kHit) continue;
      RecordProbe(probed);
      if (sc.outcomes[u] != BatchScratch::kCosted) continue;
      if (PublishLocked(shard, p.pair_key, sc.query_fps[p.qi],
                        sc.config_fps[p.ci], epoch_fp, sc.unique_costs[u],
                        FaultDrawKey(p.pair_key, ctx))) {
        ++inserted;
      }
    }
  }
  return inserted;
}

common::StatusOr<double> WhatIfOptimizer::TryQueryCost(
    const sql::Query& q, const IndexConfig& config,
    const common::EvalContext& ctx) const {
  const std::shared_ptr<const StatsEpoch> epoch = epochs_.Resolve(ctx.snapshot);
  const uint64_t query_fp = sql::Fingerprint(q);
  const uint64_t config_fp = config.Fingerprint();
  const uint64_t pair_key = common::HashCombine(query_fp, config_fp);
  const uint64_t draw_key = FaultDrawKey(pair_key, ctx);
  int64_t calls = 0;
  const common::Status admitted = AdmitPair(ctx, draw_key, &calls);
  CountCalls(calls, 0);
  TRAP_RETURN_IF_ERROR(admitted);
  // `memo` holds only this epoch's estimates: an estimate computed under
  // one data distribution must never answer a probe made under another.
  CacheShard& shard = MemoFor(*epoch).shards[ShardOf(pair_key)];
  double cost = 0.0;
  PairState probe;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    probe = ProbeLocked(shard, pair_key, query_fp, config_fp,
                        epoch->fingerprint, &cost);
  }
  if (probe == PairState::kHit) return cost;
  RecordProbe(probe);
  // A miss resolves the shape on demand, so hits never touch the shape
  // cache.
  TRAP_RETURN_IF_ERROR(ComputePair(*epoch, q, query_fp, /*shape=*/nullptr,
                                   config, draw_key, &cost));
  bool inserted;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    inserted = PublishLocked(shard, pair_key, query_fp, config_fp,
                             epoch->fingerprint, cost, draw_key);
  }
  CountCalls(0, inserted ? 1 : 0);
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
  ++clears;
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
