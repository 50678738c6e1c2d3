// Layer measurements shared by several workloads: registry-derived counts
// and the engine's what-if sweep probe.
#include <cmath>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/what_if.h"
#include "sql/vocabulary.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

void AddRegistryLayers(const Counts& before, const Counts& after, double ops,
                       RunResult* out) {
  std::map<std::string, double>& L = out->layers;
  auto per_op = [&](const char* name) {
    return static_cast<double>(Delta(before, after, name)) / ops;
  };
  L["trace.ops"] = ops;
  const double calls = per_op("trap.whatif.calls");
  const double misses = per_op("trap.whatif.cache.misses");
  L["engine.whatif.calls_per_op"] = calls;
  L["engine.whatif.cache_misses_per_op"] = misses;
  L["engine.whatif.hit_ratio"] = calls > 0 ? 1.0 - misses / calls : 0.0;
  L["engine.whatif.shape_misses_per_op"] = per_op("trap.whatif.shape.misses");
  L["engine.whatif.dup_pairs_per_op"] = per_op("trap.whatif.batch.dup_pairs");
  L["advisor.rounds_per_op"] =
      static_cast<double>(
          DeltaMatching(before, after, "trap.advisor.", ".rounds")) /
      ops;
  L["advisor.whatif_items_per_op"] =
      static_cast<double>(
          DeltaMatching(before, after, "trap.advisor.", ".whatif_items")) /
      ops;
  L["trap.agent.decode_steps_per_op"] = per_op("trap.agent.decode_steps");
  L["trap.agent.episodes_per_op"] = per_op("trap.agent.episodes");
}

void ProbeWhatIfSweeps(const trap::catalog::Schema& schema, uint64_t seed,
                       double min_seconds, CpuRotation* rotation,
                       RunResult* out) {
  const trap::sql::Vocabulary vocab(schema, 8);
  trap::workload::QueryGenerator gen(vocab, trap::workload::GeneratorOptions{},
                                     trap::common::HashCombine(0x5e3, seed));
  trap::workload::Workload w;
  for (const trap::sql::Query& q : gen.GeneratePool(64)) {
    w.queries.push_back(trap::workload::WorkloadQuery{q, 1.0});
  }
  // One single-column candidate per column: an advisor's first greedy
  // round over the whole schema.
  std::vector<trap::engine::IndexConfig> configs;
  for (int g = 0; g < schema.num_columns(); ++g) {
    trap::engine::IndexConfig cfg;
    cfg.Add(trap::engine::Index{{schema.ColumnFromGlobalIndex(g)}});
    configs.push_back(cfg);
  }
  const double pairs = static_cast<double>(w.queries.size() * configs.size());
  trap::engine::WhatIfOptimizer optimizer(schema);

  std::vector<double> reference;
  auto sweep_rate = [&](int lanes) {
    trap::common::ThreadPool pool(lanes);
    trap::common::EvalContext ctx;
    ctx.pool = &pool;
    auto sweep = [&] {
      optimizer.ClearCache();  // cold costs; compiled shapes stay warm
      trap::common::StatusOr<std::vector<double>> costs =
          optimizer.TryWorkloadCosts(w, configs, ctx);
      if (!costs.ok()) {
        out->Fail("sweep: " + costs.status().ToString());
        return;
      }
      if (reference.empty()) reference = *costs;
      if (*costs != reference) out->Fail("sweep: costs differ across pools");
    };
    sweep();  // compiles shapes and warms the pool
    double done = 0.0;
    const double start = NowS();
    do {
      sweep();
      done += pairs;
    } while (NowS() - start < min_seconds);
    return done / (NowS() - start);
  };
  // Both sweeps run unpinned, so the 4-lane pool's workers may use every
  // CPU rather than inherit the rotated thread's single one.
  const CpuRotation::Unpinned unpinned(rotation);
  const double one = sweep_rate(1);
  const double four = sweep_rate(4);
  out->layers["engine.whatif.sweep_pairs_per_s_1t"] = one;
  out->layers["engine.whatif.sweep_pairs_per_s_4t"] = four;
  out->layers["engine.whatif.speedup_4_vs_1"] = four / one;
}

}  // namespace perfbench
