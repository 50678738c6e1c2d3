// advise_tpcds: the six heuristic advisors recommend for fresh 8-query
// TPC-DS workloads. One operation is one workload advised by all six, each
// advisor starting from a cleared cost cache. No TRAP agent and no neural
// network run here: the time goes to the what-if engine (cost kernel,
// cache inserts, batch dispatch, cache clears) and the advisors' greedy
// loops. Set-up builds the catalog, the optimizer and the advisors and
// generates kWorkloads input workloads; a run that outlasts them starts
// over from the first.
#include <memory>

#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "common/rng.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using trap::common::HashCombine;

constexpr int kQueriesPerWorkload = 8;
constexpr int64_t kWorkloads = 2048;
constexpr int kSetupRepeats = 7;
constexpr int64_t kDigestWorkloads = 32;

// Workload i is a pure function of (seed, i).
trap::workload::Workload MakeWorkload(const trap::sql::Vocabulary& vocab,
                                      uint64_t seed, int64_t i) {
  // BenchEnv's query shape (at most 3 tables and 3 filters): wider joins
  // make a heavy tail of slow workloads that lets a run's mean wander.
  trap::workload::GeneratorOptions gopt;
  gopt.max_tables = 3;
  gopt.max_filters = 3;
  trap::workload::QueryGenerator gen(
      vocab, gopt, HashCombine(seed, static_cast<uint64_t>(i)));
  trap::workload::Workload w;
  for (int q = 0; q < kQueriesPerWorkload; ++q) {
    w.queries.push_back(trap::workload::WorkloadQuery{gen.Generate(), 1.0});
  }
  return w;
}

struct AdviseEnv {
  explicit AdviseEnv(uint64_t seed)
      : schema(trap::catalog::MakeTpcDs()), vocab(schema, 8), optimizer(schema) {
    for (int64_t i = 0; i < kWorkloads; ++i) {
      workloads.push_back(MakeWorkload(vocab, seed, i));
    }
    for (const std::string& name : trap::advisor::HeuristicAdvisorNames()) {
      advisors.push_back(std::make_unique<CheckedAdvisor>(
          *trap::advisor::MakeAdvisor(name, optimizer), schema));
      // Table III: AutoAdmin and Drop are index-count constrained.
      constraints.push_back(
          name == "AutoAdmin" || name == "Drop"
              ? trap::advisor::TuningConstraint::IndexCount(
                    4, schema.DataSizeBytes() / 2)
              : trap::advisor::TuningConstraint::Storage(
                    schema.DataSizeBytes() / 2));
    }
  }

  trap::catalog::Schema schema;
  trap::sql::Vocabulary vocab;
  trap::engine::WhatIfOptimizer optimizer;
  std::vector<trap::workload::Workload> workloads;
  std::vector<std::unique_ptr<CheckedAdvisor>> advisors;
  std::vector<trap::advisor::TuningConstraint> constraints;
};

// Operation i: every advisor recommends for workload i % kWorkloads from a
// cleared cost cache; returns the operation's CPU milliseconds, clears
// included. (Single recommendations range from sub-millisecond to tens of
// milliseconds by advisor, so their median would sit between advisors and
// jump with the mix.) Clearing per workload keeps the cache near 13k
// entries, nearly all misses: clearing every 32 workloads let it reach
// 400k entries, tens of MB, and runs then followed the machine's
// last-level-cache contention. Adds the clears' wall time to *clear_s.
double AdviseWorkload(AdviseEnv& env, int64_t i, RunResult* out,
                      double* clear_s) {
  const trap::workload::Workload& w =
      env.workloads[static_cast<size_t>(i % kWorkloads)];
  const double cpu_start = ProcessCpuS();
  bool ok = true;
  for (size_t a = 0; a < env.advisors.size(); ++a) {
    CheckedAdvisor& advisor = *env.advisors[a];
    const double t_clear = NowS();
    env.optimizer.ClearCache();
    *clear_s += NowS() - t_clear;
    trap::common::StatusOr<trap::engine::IndexConfig> config =
        advisor.TryRecommend(w, env.constraints[a], {});
    if (!config.ok()) {
      ok = false;
    } else if (i < kDigestWorkloads) {
      out->digest = HashCombine(out->digest, config->Fingerprint());
    }
    if (advisor.violations() > 0) out->Fail(advisor.first_violation());
  }
  const double ms = (ProcessCpuS() - cpu_start) * 1e3;
  ++out->attempted;
  if (!ok) {
    ++out->failed;
    return ms;
  }
  ++out->ops;
  if (i < kDigestWorkloads) out->digest_ops = out->ops;
  return ms;
}

}  // namespace

void RunAdviseTpcds(const RunOptions& opts, RunResult* out) {
  out->op_unit = "workload";
  std::unique_ptr<AdviseEnv> env;
  for (int r = 0; r < kSetupRepeats; ++r) {
    env.reset();
    const double t = ProcessCpuS();
    env = std::make_unique<AdviseEnv>(opts.seed);
    out->setup_s.Add(ProcessCpuS() - t);
  }

  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  const double loop_start = NowS();
  const double loop_cpu_start = ProcessCpuS();
  int64_t done = 0;
  double clear_s = 0.0;
  do {
    out->op_cpu_ms.Add(AdviseWorkload(*env, done++, out, &clear_s));
  } while (NowS() - loop_start < budget);
  out->loop_cpu_s = ProcessCpuS() - loop_cpu_start;
  out->loop_s = NowS() - loop_start;
  out->untraced_ops_s = out->loop_s;
  if (!opts.trace) return;

  // Traced replay of the same workloads on a fresh environment.
  env = std::make_unique<AdviseEnv>(opts.seed);
  for (auto& advisor : env->advisors) advisor->set_timed(true);
  RunResult replay;
  const Counts before = SnapshotCounts();
  const double start = NowS();
  clear_s = 0.0;
  for (int64_t i = 0; i < done; ++i) AdviseWorkload(*env, i, &replay, &clear_s);
  out->traced_ops_s = NowS() - start;
  const Counts after = SnapshotCounts();
  if (!replay.correct) out->Fail(replay.errors.front());
  if (replay.digest != out->digest) out->Fail("advise: replay digest differs");

  AddRegistryLayers(before, after, static_cast<double>(replay.ops), out);
  double advisor_s = 0.0;
  for (const auto& advisor : env->advisors) {
    advisor_s += advisor->seconds();
    out->layers["advisor." + advisor->name() + ".recommend_ms_p50"] =
        advisor->latencies_ms().Median();
  }
  out->layers["advisor.run_share"] = advisor_s / out->traced_ops_s;
  out->layers["engine.whatif.clear_share"] = clear_s / out->traced_ops_s;
  out->layers["catalog.build_s"] = MedianSeconds(
      kSetupRepeats, [] { (void)trap::catalog::MakeTpcDs(); });
  out->layers["workload.pool_gen_s"] = MedianSeconds(kSetupRepeats, [&] {
    for (int64_t i = 0; i < kWorkloads; ++i) {
      (void)MakeWorkload(env->vocab, opts.seed, i);
    }
  });
  ProbeWhatIfSweeps(env->schema, opts.seed, 0.5, opts.rotation, out);
}

}  // namespace perfbench
