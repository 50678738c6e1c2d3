#include <gtest/gtest.h>

#include <cstdio>

#include "advisor/candidates.h"
#include "advisor/registry.h"
#include "advisor/evaluation.h"
#include "advisor/remote.h"
#include "common/json.h"
#include "catalog/datasets.h"
#include "workload/generator.h"

namespace trap::advisor {
namespace {

using catalog::MakeTpcH;
using engine::Index;
using engine::IndexConfig;
using workload::GeneratorOptions;
using workload::QueryGenerator;
using workload::Workload;

class AdvisorTest : public ::testing::Test {
 protected:
  AdvisorTest()
      : schema_(MakeTpcH(0.2)),
        vocab_(schema_, 8),
        optimizer_(schema_),
        truth_(schema_) {
    GeneratorOptions opt;
    opt.max_tables = 3;
    opt.max_filters = 3;
    QueryGenerator gen(vocab_, opt, 101);
    pool_ = gen.GeneratePool(60);
    common::Rng rng(5);
    for (int i = 0; i < 6; ++i) {
      training_.push_back(workload::SampleWorkload(pool_, 6, rng));
    }
    test_workload_ = workload::SampleWorkload(pool_, 8, rng);
  }

  TuningConstraint StorageConstraint() const {
    return TuningConstraint::Storage(schema_.DataSizeBytes() / 2);
  }
  TuningConstraint CountConstraint(int n) const {
    return TuningConstraint::IndexCount(n, schema_.DataSizeBytes() / 2);
  }

  double Cost(const Workload& w, const IndexConfig& c) const {
    return optimizer_.WorkloadCost(w, c);
  }

  catalog::Schema schema_;
  sql::Vocabulary vocab_;
  engine::WhatIfOptimizer optimizer_;
  engine::TrueCostModel truth_;
  std::vector<sql::Query> pool_;
  std::vector<Workload> training_;
  Workload test_workload_;
};

TEST_F(AdvisorTest, IndexableColumnsOrderedByCount) {
  std::vector<IndexableColumn> cols = IndexableColumns(test_workload_);
  ASSERT_FALSE(cols.empty());
  for (size_t i = 1; i < cols.size(); ++i) {
    EXPECT_GE(cols[i - 1].count, cols[i].count);
  }
}

TEST_F(AdvisorTest, MultiColumnCandidatesRespectWidth) {
  std::vector<Index> cands = MultiColumnCandidates(test_workload_, schema_, 2);
  for (const Index& i : cands) {
    EXPECT_GE(i.NumColumns(), 2);
    EXPECT_LE(i.NumColumns(), 2);
    for (catalog::ColumnId c : i.columns) {
      EXPECT_EQ(c.table, i.table());
    }
  }
}

TEST_F(AdvisorTest, CandidatesAreDeduplicated) {
  std::vector<Index> cands = AllCandidates(test_workload_, schema_, true, 3);
  std::set<Index> unique(cands.begin(), cands.end());
  EXPECT_EQ(unique.size(), cands.size());
}

TEST_F(AdvisorTest, FitsConstraintChecksCountAndStorage) {
  IndexConfig config;
  Index idx{{*schema_.FindColumn("lineitem", "l_shipdate")}};
  TuningConstraint one = CountConstraint(1);
  EXPECT_TRUE(FitsConstraint(config, idx, one, schema_));
  config.Add(idx);
  Index idx2{{*schema_.FindColumn("lineitem", "l_quantity")}};
  EXPECT_FALSE(FitsConstraint(config, idx2, one, schema_));
  // Tiny storage budget rejects everything.
  TuningConstraint tiny = TuningConstraint::Storage(10);
  EXPECT_FALSE(FitsConstraint(IndexConfig(), idx, tiny, schema_));
}

// An index wider than ColumnList's inline capacity (wire-decoded keys have
// no width limit) survives the remote encoding and decoding intact.
TEST_F(AdvisorTest, WideIndexSurvivesRemoteRoundTrip) {
  const int lineitem = *schema_.FindTable("lineitem");
  Index wide;
  for (int c = 0; c < 7; ++c) wide.columns.push_back({lineitem, c});
  ASSERT_GT(wide.columns.size(), engine::ColumnList::kInline);
  IndexConfig config;
  config.Add(wide);
  config.Add(Index{{*schema_.FindColumn("orders", "o_orderdate")}});
  common::StatusOr<common::JsonValue> parsed =
      common::ParseJson(common::WriteJson(EncodeIndexConfig(config)));
  ASSERT_TRUE(parsed.ok());
  common::StatusOr<IndexConfig> decoded = DecodeIndexConfig(*parsed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == config);
  EXPECT_EQ(decoded->Fingerprint(), config.Fingerprint());
  EXPECT_TRUE(decoded->Contains(wide));
}

// -- heuristic advisors ------------------------------------------------------

TEST_F(AdvisorTest, ExtendReducesCostWithinBudget) {
  auto advisor = *MakeAdvisor("Extend", optimizer_);
  TuningConstraint c = StorageConstraint();
  IndexConfig config = advisor->Recommend(test_workload_, c);
  EXPECT_FALSE(config.empty());
  EXPECT_LE(config.TotalSizeBytes(schema_), c.storage_budget_bytes);
  EXPECT_LT(Cost(test_workload_, config),
            Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, ExtendProducesMultiColumnIndexes) {
  auto advisor = *MakeAdvisor("Extend", optimizer_);
  // Aggregate over several workloads: extension steps should fire somewhere.
  bool any_multi = false;
  for (const Workload& w : training_) {
    IndexConfig config = advisor->Recommend(w, StorageConstraint());
    for (const Index& i : config.indexes()) {
      if (i.NumColumns() > 1) any_multi = true;
    }
  }
  EXPECT_TRUE(any_multi);
}

TEST_F(AdvisorTest, Db2AdvisReducesCostWithinBudget) {
  auto advisor = *MakeAdvisor("DB2Advis", optimizer_);
  TuningConstraint c = StorageConstraint();
  IndexConfig config = advisor->Recommend(test_workload_, c);
  EXPECT_FALSE(config.empty());
  EXPECT_LE(config.TotalSizeBytes(schema_), c.storage_budget_bytes);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, AutoAdminRespectsIndexCount) {
  auto advisor = *MakeAdvisor("AutoAdmin", optimizer_);
  TuningConstraint c = CountConstraint(3);
  IndexConfig config = advisor->Recommend(test_workload_, c);
  EXPECT_LE(config.size(), 3);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, DropReturnsSingleColumnWithinCount) {
  auto advisor = *MakeAdvisor("Drop", optimizer_);
  TuningConstraint c = CountConstraint(3);
  IndexConfig config = advisor->Recommend(test_workload_, c);
  EXPECT_LE(config.size(), 3);
  for (const Index& i : config.indexes()) {
    EXPECT_TRUE(i.IsSingleColumn());
  }
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, RelaxationMeetsStorageBudget) {
  auto advisor = *MakeAdvisor("Relaxation", optimizer_);
  // Use a tight budget to force actual relaxation moves.
  TuningConstraint c = TuningConstraint::Storage(schema_.DataSizeBytes() / 20);
  IndexConfig config = advisor->Recommend(test_workload_, c);
  EXPECT_LE(config.TotalSizeBytes(schema_), c.storage_budget_bytes);
}

TEST_F(AdvisorTest, DtaReducesCostWithinBudget) {
  auto advisor = *MakeAdvisor("DTA", optimizer_);
  TuningConstraint c = StorageConstraint();
  IndexConfig config = advisor->Recommend(test_workload_, c);
  EXPECT_FALSE(config.empty());
  EXPECT_LE(config.TotalSizeBytes(schema_), c.storage_budget_bytes);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, DtaAtLeastAsGoodAsSingleColumnGreedy) {
  auto dta = *MakeAdvisor("DTA", optimizer_);
  RegistryOptions single_only;
  single_only.heuristic.multi_column = false;
  auto extend_single = *MakeAdvisor("Extend", optimizer_, single_only);
  TuningConstraint c = StorageConstraint();
  double dta_cost = Cost(test_workload_, dta->Recommend(test_workload_, c));
  double single_cost =
      Cost(test_workload_, extend_single->Recommend(test_workload_, c));
  EXPECT_LE(dta_cost, single_cost * 1.05);
}

TEST_F(AdvisorTest, InteractionSwitchChangesBehaviour) {
  RegistryOptions with;
  with.heuristic.consider_interaction = true;
  RegistryOptions without;
  without.heuristic.consider_interaction = false;
  auto a = *MakeAdvisor("Extend", optimizer_, with);
  auto b = *MakeAdvisor("Extend", optimizer_, without);
  // Across several workloads the two settings must diverge at least once,
  // and interaction-aware selection must never be (meaningfully) worse.
  bool diverged = false;
  for (const Workload& w : training_) {
    IndexConfig ca = a->Recommend(w, StorageConstraint());
    IndexConfig cb = b->Recommend(w, StorageConstraint());
    if (!(ca == cb)) diverged = true;
    EXPECT_LE(Cost(w, ca), Cost(w, cb) * 1.01);
  }
  EXPECT_TRUE(diverged);
}

TEST_F(AdvisorTest, MultiColumnSwitchChangesCandidates) {
  RegistryOptions single;
  single.heuristic.multi_column = false;
  auto a = *MakeAdvisor("Extend", optimizer_, RegistryOptions{});
  auto b = *MakeAdvisor("Extend", optimizer_, single);
  for (const Workload& w : training_) {
    IndexConfig cb = b->Recommend(w, StorageConstraint());
    for (const Index& i : cb.indexes()) EXPECT_TRUE(i.IsSingleColumn());
  }
  (void)a;
}

// -- learning advisors -------------------------------------------------------

TEST_F(AdvisorTest, SwirlTrainsAndImproves) {
  RegistryOptions opt;
  opt.rl_episodes = 80;
  opt.max_actions = 24;
  auto advisor = *MakeLearningAdvisor("SWIRL", optimizer_, opt);
  advisor->Train(training_, StorageConstraint());
  IndexConfig config = advisor->Recommend(test_workload_, StorageConstraint());
  EXPECT_LE(config.TotalSizeBytes(schema_),
            StorageConstraint().storage_budget_bytes);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, SwirlRecommendIsDeterministic) {
  RegistryOptions opt;
  opt.rl_episodes = 40;
  opt.max_actions = 16;
  auto advisor = *MakeLearningAdvisor("SWIRL", optimizer_, opt);
  advisor->Train(training_, StorageConstraint());
  IndexConfig a = advisor->Recommend(test_workload_, StorageConstraint());
  IndexConfig b = advisor->Recommend(test_workload_, StorageConstraint());
  EXPECT_EQ(a, b);
}

TEST_F(AdvisorTest, DrlIndexRespectsCountAndSingleColumn) {
  RegistryOptions opt;
  opt.rl_episodes = 60;
  opt.max_actions = 16;
  auto advisor = *MakeLearningAdvisor("DRLindex", optimizer_, opt);
  advisor->Train(training_, CountConstraint(3));
  IndexConfig config = advisor->Recommend(test_workload_, CountConstraint(3));
  EXPECT_LE(config.size(), 3);
  for (const Index& i : config.indexes()) EXPECT_TRUE(i.IsSingleColumn());
}

TEST_F(AdvisorTest, DqnAdvisorImprovesCost) {
  RegistryOptions opt;
  opt.rl_episodes = 60;
  opt.max_actions = 24;
  auto advisor = *MakeLearningAdvisor("DQN", optimizer_, opt);
  advisor->Train(training_, CountConstraint(4));
  IndexConfig config = advisor->Recommend(test_workload_, CountConstraint(4));
  EXPECT_LE(config.size(), 4);
  EXPECT_LT(Cost(test_workload_, config),
            Cost(test_workload_, IndexConfig()) * 1.0001);
}

// Bit-exact pins of the learning advisors that train on nn::Graph and Adam:
// the fold of the trained policy's recommendations on the test workload and
// every training workload. The constants were captured from the engine
// before any of its kernels were rewritten. Each case also prints an "agent
// digest" line so scripts/check.sh can compare runs across TRAP_THREADS.
uint64_t RecommendationFingerprint(LearningAdvisor& advisor,
                                   const std::vector<Workload>& workloads,
                                   const TuningConstraint& constraint) {
  uint64_t h = 0;
  for (const Workload& w : workloads) {
    h = common::HashCombine(h, advisor.Recommend(w, constraint).Fingerprint());
  }
  return h;
}

TEST_F(AdvisorTest, GoldenLearningAdvisorRecommendations) {
  struct Golden {
    const char* name;
    int episodes;
    int max_actions;
    TuningConstraint constraint;
    uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {"SWIRL", 40, 16, StorageConstraint(), 0x23f7936c557a5df8ULL},
      {"DQN", 60, 24, CountConstraint(4), 0x7784895ae1f56ed3ULL},
  };
  std::vector<Workload> workloads = training_;
  workloads.push_back(test_workload_);
  for (const Golden& golden : goldens) {
    RegistryOptions opt;
    opt.rl_episodes = golden.episodes;
    opt.max_actions = golden.max_actions;
    auto advisor = *MakeLearningAdvisor(golden.name, optimizer_, opt);
    advisor->Train(training_, golden.constraint);
    uint64_t fp =
        RecommendationFingerprint(*advisor, workloads, golden.constraint);
    std::printf("agent digest %s recommendations=%016llx\n", golden.name,
                static_cast<unsigned long long>(fp));
    EXPECT_EQ(fp, golden.fingerprint) << golden.name;
  }
}

// Bit-exact pins of the six heuristic advisors on fixed TPC-DS workloads
// (advise_tpcds's query shape): the fold of each advisor's recommendations,
// and the what-if calls and cache misses they cost on one shared optimizer.
// The constants were captured before Index kept its columns inline and
// before the batched memo probe/publish. Each advisor prints an "agent
// digest" line so scripts/check.sh can compare runs across TRAP_THREADS.
TEST(HeuristicGoldenTest, TpcDsRecommendations) {
  const catalog::Schema schema = catalog::MakeTpcDs();
  const sql::Vocabulary vocab(schema, 8);
  GeneratorOptions gopt;
  gopt.max_tables = 3;
  gopt.max_filters = 3;
  std::vector<Workload> workloads;
  for (uint64_t i = 0; i < 8; ++i) {
    QueryGenerator gen(vocab, gopt, common::HashCombine(17, i));
    Workload w;
    for (int q = 0; q < 8; ++q) {
      w.queries.push_back(workload::WorkloadQuery{gen.Generate(), 1.0});
    }
    workloads.push_back(std::move(w));
  }
  struct Golden {
    const char* name;
    uint64_t fingerprint;
    int64_t calls;
    int64_t misses;
  };
  const Golden goldens[] = {
      {"Extend", 0x35ba5f444abb79a4ULL, 20416, 20416},
      {"DB2Advis", 0x56c73cbc16c75b04ULL, 64, 0},
      {"AutoAdmin", 0xdcd3b19170e09a90ULL, 1627, 919},
      {"Drop", 0x498590bfcd662174ULL, 30616, 29936},
      {"Relaxation", 0x1acdba4257fa0259ULL, 1299, 600},
      {"DTA", 0xefe1b793b8d69e7eULL, 35380, 27188},
  };
  engine::WhatIfOptimizer optimizer(schema);
  for (const Golden& golden : goldens) {
    const std::string name = golden.name;
    const TuningConstraint constraint =
        name == "AutoAdmin" || name == "Drop"
            ? TuningConstraint::IndexCount(4, schema.DataSizeBytes() / 2)
            : TuningConstraint::Storage(schema.DataSizeBytes() / 2);
    auto advisor = *MakeAdvisor(name, optimizer);
    optimizer.ResetCounters();
    uint64_t fp = 0;
    for (const Workload& w : workloads) {
      common::StatusOr<IndexConfig> config =
          advisor->TryRecommend(w, constraint, common::EvalContext{});
      ASSERT_TRUE(config.ok()) << name << ": " << config.status().ToString();
      fp = common::HashCombine(fp, config->Fingerprint());
    }
    std::printf("agent digest %s recommendations=%016llx calls=%lld "
                "misses=%lld\n",
                golden.name, static_cast<unsigned long long>(fp),
                static_cast<long long>(optimizer.num_calls()),
                static_cast<long long>(optimizer.num_cache_misses()));
    EXPECT_EQ(fp, golden.fingerprint) << name;
    EXPECT_EQ(optimizer.num_calls(), golden.calls) << name;
    EXPECT_EQ(optimizer.num_cache_misses(), golden.misses) << name;
  }
}

TEST_F(AdvisorTest, MctsImprovesCostWithinCount) {
  RegistryOptions opt;
  opt.mcts_iterations = 150;
  auto advisor = *MakeAdvisor("MCTS", optimizer_, opt);
  IndexConfig config = advisor->Recommend(test_workload_, CountConstraint(4));
  EXPECT_LE(config.size(), 4);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

// -- evaluation --------------------------------------------------------------

TEST_F(AdvisorTest, UtilityPositiveForGoodAdvisor) {
  RobustnessEvaluator evaluator(optimizer_, truth_);
  auto extend = *MakeAdvisor("Extend", optimizer_);
  double u = evaluator.IndexUtility(*extend, nullptr, test_workload_,
                                    StorageConstraint());
  EXPECT_GT(u, 0.0);
  EXPECT_LT(u, 1.0);
}

TEST_F(AdvisorTest, IudrFormula) {
  EXPECT_DOUBLE_EQ(RobustnessEvaluator::Iudr(0.5, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(RobustnessEvaluator::Iudr(0.5, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(RobustnessEvaluator::Iudr(0.4, 0.6), 1.0 - 1.5);
  EXPECT_EQ(RobustnessEvaluator::Iudr(0.0, 0.3), 0.0);
}

TEST_F(AdvisorTest, SuiteHasTenAdvisorsWithBaselines) {
  EXPECT_EQ(AdvisorSuite::AllNames().size(), 10u);
  AdvisorSuite suite(optimizer_);
  for (const std::string& name : AdvisorSuite::AllNames()) {
    EXPECT_NE(suite.advisor(name), nullptr);
    EXPECT_EQ(suite.advisor(name)->name(), name);
  }
  EXPECT_EQ(suite.baseline_for("Extend"), nullptr);
  ASSERT_NE(suite.baseline_for("SWIRL"), nullptr);
  EXPECT_EQ(suite.baseline_for("SWIRL")->name(), "Extend");
  EXPECT_EQ(suite.baseline_for("DRLindex")->name(), "Drop");
  EXPECT_EQ(suite.baseline_for("DQN")->name(), "AutoAdmin");
  EXPECT_EQ(suite.baseline_for("MCTS")->name(), "AutoAdmin");
  EXPECT_TRUE(suite.is_learning("SWIRL"));
  EXPECT_FALSE(suite.is_learning("DTA"));
}

}  // namespace
}  // namespace trap::advisor
