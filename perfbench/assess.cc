// assess_tpch: Fig. 6 cells on TPC-H at bench scale. One operation is one
// cell: fit a TRAP generator against a heuristic victim, then perturb and
// score every test workload (utility u, perturbed utility u', IUDR).
#include <cmath>
#include <memory>

#include "advisor/registry.h"
#include "bench/harness.h"
#include "common/rng.h"
#include "common/stats.h"
#include "trap/perturber.h"
#include "trap/training.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace tc = ::trap::trap;
using trap::common::HashCombine;

constexpr double kTheta = 0.1;
constexpr int kEpsilon = 5;
constexpr double kTpchScale = 0.15;  // bench_fig6_robustness's TPC-H scale
constexpr int kSetupRepeats = 3;
constexpr int64_t kDigestCells = 4;
// Independent BenchEnvs (query pool, training and test workloads) per run.
// Cell cost depends on the environment, so spreading cells over several
// keeps one unlucky environment from setting a run's figures. They are the
// same for every seed (the seed draws each cell's generator seed), so runs
// of different seeds time the same cells; with seed-drawn environments the
// peak resident set alone spread 9% over five seeds, against 3%. Building
// them is the workload's set-up, timed per environment.
constexpr int kEnvs = 8;

// Cell i runs in environment i % kEnvs against victim i % 4 under
// perturbation constraint i % 3, so any four consecutive cells cover every
// victim and any three every constraint.
const char* const kVictims[] = {"Extend", "DB2Advis", "AutoAdmin", "Drop"};
constexpr int kNumVictims = 4;
const tc::PerturbationConstraint kConstraints[] = {
    tc::PerturbationConstraint::kValueOnly,
    tc::PerturbationConstraint::kColumnConsistent,
    tc::PerturbationConstraint::kSharedTable};

// Wall-clock attribution of traced cells, summed over cells. Fit runs
// pretraining and then RL in one call; pretraining never consults the
// victim and RL does so first thing, so the victim's first call splits Fit.
struct CellLayers {
  double cell_s = 0.0;
  double pretrain_s = 0.0;       // Fit's start to the victim's first call
  double rl_s = 0.0;             // the rest of Fit, minus victim calls
  double generate_s = 0.0;       // Generate minus victim calls inside it
  double victim_s = 0.0;         // every victim TryRecommend of the cell
  double reference_s = 0.0;      // IsNonSargable's reference advisors
  double twin_pretrain_s = 0.0;  // trap::Pretrain alone, on a twin generator
};

// One BenchEnv and its victims.
class Assessor {
 public:
  Assessor(uint64_t seed, int env_index)
      : seed_(seed),
        env_(std::make_unique<trap::bench::BenchEnv>(
            trap::catalog::MakeTpcH(kTpchScale),
            HashCombine(0xf61, static_cast<uint64_t>(env_index)))) {
    for (const char* name : kVictims) {
      victims_.push_back(std::make_unique<CheckedAdvisor>(
          *trap::advisor::MakeAdvisor(name, env_->optimizer), env_->schema));
    }
  }

  trap::bench::BenchEnv& env() { return *env_; }

  // Runs cell `index` of the run's cell sequence and returns its wall
  // seconds. A traced cell first times trap::Pretrain on a twin generator
  // (not counted in the cell), a check on where Fit is split.
  double RunCell(int64_t index, bool traced, RunResult* out,
                 CellLayers* layers, Counts* before, Counts* after) {
    trap::bench::BenchEnv& env = *env_;
    const int v = static_cast<int>(index % kNumVictims);
    CheckedAdvisor& victim = *victims_[static_cast<size_t>(v)];
    const tc::PerturbationConstraint pc = kConstraints[index % 3];
    // Table III: AutoAdmin and Drop are index-count constrained.
    const trap::advisor::TuningConstraint constraint =
        v >= 2 ? env.CountConstraint(4) : env.StorageConstraint();
    const tc::GeneratorConfig config = trap::bench::BenchGeneratorConfig(
        tc::GenerationMethod::kTrap, pc, kEpsilon,
        HashCombine(seed_, static_cast<uint64_t>(index)));

    double twin_pretrain_s = 0.0;
    if (traced) {
      tc::AdversarialWorkloadGenerator twin(env.vocab, config);
      const double t = NowS();
      tc::Pretrain(*twin.agent(), env.pool, pc, config.epsilon,
                   config.pretrain);
      twin_pretrain_s = NowS() - t;
      *before = SnapshotCounts();
    }
    victim.ResetStats();
    victim.set_timed(traced);

    const double start = NowS();
    tc::AdversarialWorkloadGenerator generator(env.vocab, config);
    generator.Fit(&victim, nullptr, &env.optimizer, &env.utility, env.pool,
                  env.training, constraint);
    const double fit_end = NowS();
    const double victim_fit_s = victim.seconds();
    const double rl_start =
        victim.first_call_s() >= 0 ? victim.first_call_s() : fit_end;

    double sum = 0.0;
    int eligible = 0;
    int filtered = 0;
    double generate_s = 0.0;
    double reference_s = 0.0;
    for (const trap::workload::Workload& w : env.tests) {
      const double u =
          env.evaluator.IndexUtility(victim, nullptr, w, constraint);
      if (!std::isfinite(u)) out->Fail("assess: non-finite utility");
      if (u <= kTheta) continue;  // Definition 3.3 requires u(W) > theta
      const double victim_before = victim.seconds();
      double t = NowS();
      const trap::workload::Workload perturbed = generator.Generate(w);
      generate_s += (NowS() - t) - (victim.seconds() - victim_before);
      t = NowS();
      const bool non_sargable =
          trap::bench::IsNonSargable(env, perturbed, constraint, kTheta);
      reference_s += NowS() - t;
      if (non_sargable) {
        ++filtered;
        continue;
      }
      const double u_prime =
          env.evaluator.IndexUtility(victim, nullptr, perturbed, constraint);
      const double iudr = trap::advisor::RobustnessEvaluator::Iudr(u, u_prime);
      if (!std::isfinite(u_prime) || !std::isfinite(iudr)) {
        out->Fail("assess: non-finite perturbed utility or IUDR");
      }
      sum += trap::common::Clamp(iudr, -1.0, 2.0);
      ++eligible;
    }
    const double cell_s = NowS() - start;

    if (victim.violations() > 0) out->Fail(victim.first_violation());
    if (victim.errors() > 0) ++out->failed;
    if (index < kDigestCells) {
      const double mean_iudr = eligible > 0 ? sum / eligible : 0.0;
      out->digest = HashCombine(
          out->digest,
          HashCombine(DoubleBits(mean_iudr),
                      HashCombine(static_cast<uint64_t>(eligible * 1000 +
                                                        filtered),
                                  victim.fingerprint())));
      out->digest_ops = index + 1;
    }
    if (traced) {
      *after = SnapshotCounts();
      layers->cell_s += cell_s;
      layers->pretrain_s += rl_start - start;
      layers->rl_s += fit_end - rl_start - victim_fit_s;
      layers->twin_pretrain_s += twin_pretrain_s;
      layers->generate_s += generate_s;
      layers->victim_s += victim.seconds();
      layers->reference_s += reference_s;
      victim_latencies_ms_[static_cast<size_t>(v)].Append(
          victim.latencies_ms());
    }
    return cell_s;
  }

  // TryRecommend latencies of victim `v` over every traced cell.
  const Samples& victim_latencies_ms(int v) const {
    return victim_latencies_ms_[static_cast<size_t>(v)];
  }

 private:
  uint64_t seed_;
  std::unique_ptr<trap::bench::BenchEnv> env_;
  std::vector<std::unique_ptr<CheckedAdvisor>> victims_;
  std::vector<Samples> victim_latencies_ms_ =
      std::vector<Samples>(kNumVictims);
};

// Set-up phases of BenchEnv, each re-run on its own: catalog build, query
// pool generation, and the learned utility model's training.
void ProbeSetupLayers(uint64_t seed, RunResult* out) {
  out->layers["catalog.build_s"] =
      MedianSeconds(kSetupRepeats, [] { (void)trap::catalog::MakeTpcH(kTpchScale); });
  const trap::catalog::Schema schema = trap::catalog::MakeTpcH(kTpchScale);
  const trap::sql::Vocabulary vocab(schema, 8);
  trap::workload::GeneratorOptions gopt;
  gopt.max_tables = 3;
  gopt.max_filters = 3;
  std::vector<trap::sql::Query> pool;
  out->layers["workload.pool_gen_s"] = MedianSeconds(kSetupRepeats, [&] {
    trap::workload::QueryGenerator gen(vocab, gopt, HashCombine(0xf61, seed));
    pool = gen.GeneratePool(60);
  });
  // BenchEnv's recipe: the empty configuration plus two random
  // five-index configurations, on a cold optimizer each time.
  trap::common::Rng rng(seed ^ 0x77);
  std::vector<trap::engine::IndexConfig> configs(1);
  for (int c = 0; c < 2; ++c) {
    trap::engine::IndexConfig cfg;
    for (int i = 0; i < 5; ++i) {
      const int g =
          static_cast<int>(rng.UniformInt(0, schema.num_columns() - 1));
      cfg.Add(trap::engine::Index{{schema.ColumnFromGlobalIndex(g)}});
    }
    configs.push_back(cfg);
  }
  out->layers["gbdt.train_s"] = MedianSeconds(kSetupRepeats, [&] {
    trap::engine::WhatIfOptimizer optimizer(schema);
    trap::engine::TrueCostModel truth(schema);
    trap::gbdt::LearnedUtilityModel model(optimizer, truth);
    model.Train(pool, configs);
  });
}

using Envs = std::vector<std::unique_ptr<Assessor>>;

// Builds the run's environments; with `setup_s`, times each build (CPU).
Envs BuildEnvs(uint64_t seed, Samples* setup_s) {
  Envs envs;
  for (int e = 0; e < kEnvs; ++e) {
    const double t = ProcessCpuS();
    envs.push_back(std::make_unique<Assessor>(seed, e));
    if (setup_s != nullptr) setup_s->Add(ProcessCpuS() - t);
  }
  return envs;
}

}  // namespace

void RunAssessTpch(const RunOptions& opts, RunResult* out) {
  out->op_unit = "cell";
  Envs envs = BuildEnvs(opts.seed, &out->setup_s);

  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  CellLayers unused;
  Counts none;
  const double loop_start = NowS();
  const double loop_cpu_start = ProcessCpuS();
  int64_t cells = 0;
  do {
    ++out->attempted;
    const double cpu_start = ProcessCpuS();
    out->untraced_ops_s += envs[cells % kEnvs]->RunCell(
        cells, false, out, &unused, &none, &none);
    out->op_cpu_ms.Add((ProcessCpuS() - cpu_start) * 1e3);
    ++out->ops;
    ++cells;
  } while (NowS() - loop_start < budget);
  out->loop_cpu_s = ProcessCpuS() - loop_cpu_start;
  out->loop_s = NowS() - loop_start;
  if (!opts.trace) return;

  // Traced replay of the same cells from fresh, identical environments.
  envs = BuildEnvs(opts.seed, nullptr);
  RunResult replay;
  CellLayers layers;
  Counts totals;  // summed registry deltas over the traced cells
  for (int64_t i = 0; i < cells; ++i) {
    Counts before;
    Counts after;
    out->traced_ops_s +=
        envs[i % kEnvs]->RunCell(i, true, &replay, &layers, &before, &after);
    for (const auto& [name, value] : after) {
      (void)value;
      totals[name] += Delta(before, after, name);
    }
  }
  if (!replay.correct) out->Fail(replay.errors.front());
  if (replay.digest != out->digest) out->Fail("assess: replay digest differs");
  const Counts zero;
  const double n = static_cast<double>(cells);
  std::map<std::string, double>& L = out->layers;
  L["trap.pretrain_s"] = layers.pretrain_s / n;
  L["trap.rl_train_s"] = layers.rl_s / n;
  L["trap.generate_s"] = layers.generate_s / n;
  L["advisor.victim_s"] = layers.victim_s / n;
  L["advisor.reference_s"] = layers.reference_s / n;
  // Pretraining plus RL plus Fit's victim calls is Fit by construction, so
  // this share checks only the rest of the cell: Generate and scoring.
  L["trap.attribution_share"] =
      (layers.pretrain_s + layers.rl_s + layers.generate_s + layers.victim_s) /
      layers.cell_s;
  // Pretrain alone over Fit's part before the first victim call: about 1
  // when that call marks the end of pretraining, as the split assumes.
  L["trap.pretrain_twin_ratio"] = layers.twin_pretrain_s / layers.pretrain_s;
  L["trap.decode_steps_per_s"] =
      static_cast<double>(Delta(zero, totals, "trap.agent.decode_steps")) /
      (layers.rl_s + layers.generate_s);
  AddRegistryLayers(zero, totals, n, out);
  for (int v = 0; v < kNumVictims; ++v) {
    Samples latencies;
    for (const auto& env : envs) latencies.Append(env->victim_latencies_ms(v));
    L[std::string("advisor.") + kVictims[v] + ".recommend_ms_p50"] =
        latencies.Median();
  }
  ProbeSetupLayers(opts.seed, out);
  ProbeWhatIfSweeps(envs[0]->env().schema, opts.seed, 0.5, opts.rotation,
                    out);
}

}  // namespace perfbench
