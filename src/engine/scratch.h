#ifndef TRAP_ENGINE_SCRATCH_H_
#define TRAP_ENGINE_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace trap::sql {
struct Query;
}  // namespace trap::sql

namespace trap::engine {

struct QueryShape;

// Reusable per-thread scratch for batched what-if evaluation — the
// "generational pool" idiom: instead of freeing buffers between batches,
// each lease bumps a generation counter and reuses the capacity grown by
// earlier batches, so the steady-state batch path performs zero heap
// allocations once the high-water mark is reached. Nothing here is shared
// between threads: every buffer belongs to exactly one lease at a time
// (see ScratchLease), and all cross-thread writes in a batch go to the
// pre-sized outcomes/unique_costs/unique_statuses slots, folded serially
// afterwards.
struct BatchScratch {
  // One evaluated (query, config) pair after in-batch deduplication.
  struct UniquePair {
    uint64_t pair_key = 0;  // HashCombine(query_fp, config_fp)
    uint32_t qi = 0;        // query index in the batch
    uint32_t ci = 0;        // config index in the batch
  };
  // item_to_unique entries carry this bit on the pair's *primary*
  // occurrence — the one whose evaluation ran; duplicates copy its result.
  static constexpr uint32_t kPrimaryBit = 0x80000000u;
  // Empty sentinel for slot_vals (a real slot index never reaches 2^32-1:
  // batches are capped far below that by memory alone).
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

  // Batch inputs flattened by the templated entry points.
  std::vector<const sql::Query*> query_ptrs;
  std::vector<double> weights;

  // Derived per-batch state (BatchCostCore).
  std::vector<uint64_t> query_fps;
  std::vector<uint64_t> config_fps;
  std::vector<uint64_t> sorted_config_fps;  // dup-config metric counting
  std::vector<const QueryShape*> shapes;    // per batch query, may hold null
  std::vector<uint32_t> item_to_unique;     // item k -> unique slot (+bit)
  std::vector<UniquePair> uniques;
  // Open-addressing pair_key -> slot table (linear probing, power-of-two
  // size, load factor <= 0.5). Flat parallel arrays instead of a node-based
  // map so the steady-state dedup pass allocates nothing: re-arming is a
  // fill of slot_vals with kEmptySlot, not a rehash.
  std::vector<uint64_t> slot_keys;
  std::vector<uint32_t> slot_vals;
  // 1 where a unique pair's pair key equals an earlier unique pair's (a
  // HashCombine collision between distinct pairs), else 0.
  std::vector<uint8_t> key_clashes;
  // Per unique pair: where it stands (WhatIfOptimizer::PairState).
  std::vector<uint8_t> pair_states;
  // The probed pairs bucketed by memo shard, in unique order within each
  // shard: shard s holds by_shard[shard_begin[s] .. shard_begin[s + 1]).
  std::vector<uint32_t> by_shard;
  std::vector<uint32_t> shard_begin;
  std::vector<uint32_t> misses;  // unique pairs the pool costs
  // What a unique pair's output slots hold: nothing yet (the pair was
  // skipped), its cost in unique_costs, or its failure in unique_statuses.
  // Only failures write a Status.
  enum Outcome : uint8_t { kPending = 0, kCosted = 1, kFailed = 2 };
  std::vector<uint8_t> outcomes;
  std::vector<double> unique_costs;  // parallel output slots
  std::vector<common::Status> unique_statuses;  // read only when kFailed

  // Bumped on every lease; lets tests observe that repeated batches reuse
  // one arena instead of allocating fresh state.
  uint64_t generation = 0;
  bool in_use = false;
};

// Leases the calling thread's BatchScratch for the duration of one batched
// call. Reentrant use (a batch issued from inside another batch on the same
// thread, e.g. an advisor called from evaluation code that is itself inside
// a ParallelFor) falls back to a freshly allocated scratch — correct but
// cold, which is fine: nested batches degrade to serial execution anyway.
class ScratchLease {
 public:
  ScratchLease();
  ~ScratchLease();

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  BatchScratch& operator*() const { return *scratch_; }
  BatchScratch* operator->() const { return scratch_; }

  // Test hook: the calling thread's arena (its generation counter proves
  // reuse across batches).
  static const BatchScratch& ThreadLocalForTest();

 private:
  BatchScratch* scratch_;
  bool owned_;  // true when reentrant fallback allocated a private scratch
};

}  // namespace trap::engine

#endif  // TRAP_ENGINE_SCRATCH_H_
