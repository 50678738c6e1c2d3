#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>

#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "sql/tokenizer.h"
#include "trap/agent.h"
#include "trap/perturber.h"
#include "trap/training.h"
#include "workload/generator.h"

namespace trap::trap {
namespace {

using catalog::MakeTpcH;

class TrapTest : public ::testing::Test {
 protected:
  TrapTest()
      : schema_(MakeTpcH(0.2)),
        vocab_(schema_, 8),
        optimizer_(schema_),
        truth_(schema_) {
    workload::GeneratorOptions opt;
    opt.max_tables = 2;
    opt.max_filters = 3;
    workload::QueryGenerator gen(vocab_, opt, 909);
    pool_ = gen.GeneratePool(40);
    common::Rng rng(3);
    for (int i = 0; i < 4; ++i) {
      training_.push_back(workload::SampleWorkload(pool_, 4, rng));
    }
    test_ = workload::SampleWorkload(pool_, 4, rng);
  }

  AgentOptions SmallAgent(EncoderKind enc, bool attention) const {
    AgentOptions a;
    a.encoder = enc;
    a.attention = attention;
    a.embed_dim = 24;
    a.hidden_dim = 24;
    a.transformer = nn::TransformerConfig{24, 2, 48, 1};
    a.seed = 21;
    return a;
  }

  advisor::TuningConstraint Constraint() const {
    return advisor::TuningConstraint::Storage(schema_.DataSizeBytes() / 2);
  }

  catalog::Schema schema_;
  sql::Vocabulary vocab_;
  engine::WhatIfOptimizer optimizer_;
  engine::TrueCostModel truth_;
  std::vector<sql::Query> pool_;
  std::vector<workload::Workload> training_;
  workload::Workload test_;
};

TEST_F(TrapTest, AgentGreedyEpisodeProducesValidQuery) {
  for (EncoderKind enc :
       {EncoderKind::kNone, EncoderKind::kBiGru, EncoderKind::kTransformer}) {
    TrapAgent agent(vocab_, SmallAgent(enc, enc != EncoderKind::kNone));
    for (int i = 0; i < 5; ++i) {
      ReferenceTree tree(pool_[static_cast<size_t>(i)], vocab_,
                         PerturbationConstraint::kSharedTable, 5);
      TrapAgent::EpisodeResult r = agent.RunEpisode(
          nullptr, std::move(tree), TrapAgent::Mode::kGreedy, nullptr);
      std::optional<sql::Query> q = sql::FromTokens(r.output, vocab_);
      ASSERT_TRUE(q.has_value());
      EXPECT_TRUE(sql::ValidateQuery(*q, schema_));
      EXPECT_LE(r.edit_distance, 5);
    }
  }
}

TEST_F(TrapTest, AgentSampledEpisodeIsReproducibleWithSameRng) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  common::Rng r1(7), r2(7);
  ReferenceTree t1(pool_[0], vocab_, PerturbationConstraint::kSharedTable, 5);
  ReferenceTree t2(pool_[0], vocab_, PerturbationConstraint::kSharedTable, 5);
  auto a = agent.RunEpisode(nullptr, std::move(t1), TrapAgent::Mode::kSample, &r1);
  auto b = agent.RunEpisode(nullptr, std::move(t2), TrapAgent::Mode::kSample, &r2);
  EXPECT_EQ(a.choices, b.choices);
}

TEST_F(TrapTest, ForcedNllMatchesEpisodeLogProb) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  common::Rng rng(11);
  ReferenceTree tree(pool_[1], vocab_, PerturbationConstraint::kSharedTable, 5);
  auto sample = agent.RunEpisode(nullptr, std::move(tree),
                                 TrapAgent::Mode::kSample, &rng);
  nn::Graph g;
  nn::Graph::VarId nll = agent.ForcedNll(
      g, ReferenceTree(pool_[1], vocab_, PerturbationConstraint::kSharedTable, 5),
      sample.choices);
  EXPECT_NEAR(g.value(nll).at(0, 0), -sample.total_log_prob, 1e-9);
}

TEST_F(TrapTest, PretrainingReducesNll) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  PretrainOptions opt;
  opt.num_pairs = 60;
  opt.epochs = 4;
  opt.seed = 5;
  std::vector<double> trace =
      Pretrain(agent, pool_, PerturbationConstraint::kSharedTable, 5, opt);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_LT(trace.back(), trace.front());
}

TEST_F(TrapTest, ReinitDecoderKeepsEncoderParameters) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  // Snapshot first parameter (embedding = encoder side) and last (output
  // head = decoder side).
  std::vector<nn::Parameter*> params = agent.store().parameters();
  double enc_before = params.front()->value.at(0, 0);
  nn::Matrix dec_before = params.back()->value;
  agent.ReinitDecoder();
  EXPECT_EQ(params.front()->value.at(0, 0), enc_before);
  bool changed = false;
  for (int i = 0; i < dec_before.size(); ++i) {
    if (params.back()->value.data()[i] != dec_before.data()[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST_F(TrapTest, GruAgentHasFewerParametersThanTransformer) {
  TrapAgent gru(vocab_, SmallAgent(EncoderKind::kNone, false));
  TrapAgent trap(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  TrapAgent plm(vocab_, *PlmAgentOptions("Bert", 3));
  EXPECT_LT(gru.NumParameters(), trap.NumParameters());
  EXPECT_LT(trap.NumParameters(), plm.NumParameters());
}

TEST_F(TrapTest, RlTrainingImprovesEstimatedIudr) {
  gbdt::LearnedUtilityModel utility(optimizer_, truth_);
  utility.Train(pool_, {engine::IndexConfig()});
  auto victim = *advisor::MakeAdvisor("Extend", optimizer_);

  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  RlOptions rl;
  rl.epochs = 6;
  rl.workloads_per_epoch = 3;
  rl.theta = 0.05;
  rl.seed = 77;
  RlTrainer trainer(&agent, victim.get(), nullptr, &optimizer_, &utility,
                    PerturbationConstraint::kSharedTable, 5, Constraint(), rl);
  RlTrace trace = trainer.Train(training_);
  ASSERT_EQ(trace.mean_reward_per_epoch.size(), 6u);

  // The trained policy's perturbation should carry positive estimated IUDR
  // on at least one training workload.
  double best = -1e9;
  for (const workload::Workload& w : training_) {
    best = std::max(best, trainer.EstimatedIudr(w, trainer.Perturb(w)));
  }
  EXPECT_GT(best, 0.0);
}

TEST_F(TrapTest, GeneratorMethodsProduceValidBudgetedWorkloads) {
  gbdt::LearnedUtilityModel utility(optimizer_, truth_);
  utility.Train(pool_, {engine::IndexConfig()});
  auto victim = *advisor::MakeAdvisor("Extend", optimizer_);

  for (GenerationMethod m :
       {GenerationMethod::kRandom, GenerationMethod::kGru,
        GenerationMethod::kSeq2Seq, GenerationMethod::kTrap}) {
    GeneratorConfig cfg;
    cfg.method = m;
    cfg.constraint = PerturbationConstraint::kColumnConsistent;
    cfg.epsilon = 4;
    cfg.agent = SmallAgent(EncoderKind::kBiGru, true);
    cfg.pretrain.num_pairs = 30;
    cfg.pretrain.epochs = 1;
    cfg.rl.epochs = 2;
    cfg.rl.workloads_per_epoch = 2;
    cfg.rl.theta = 0.0;
    cfg.seed = 13;
    AdversarialWorkloadGenerator gen(vocab_, cfg);
    gen.Fit(victim.get(), nullptr, &optimizer_, &utility, pool_, training_,
            Constraint());
    workload::Workload out = gen.Generate(test_);
    ASSERT_EQ(out.size(), test_.size()) << MethodName(m);
    for (int i = 0; i < out.size(); ++i) {
      const sql::Query& pq = out.queries[static_cast<size_t>(i)].query;
      EXPECT_TRUE(sql::ValidateQuery(pq, schema_)) << MethodName(m);
      int dist = sql::EditDistance(
          sql::ToTokens(test_.queries[static_cast<size_t>(i)].query, vocab_),
          sql::ToTokens(pq, vocab_));
      EXPECT_LE(dist, cfg.epsilon) << MethodName(m);
    }
  }
}

// Satellite to the budget-boundary tree tests: end to end through the
// perturber, every constraint kind yields valid workloads that use the edit
// budget but never exceed it.
TEST_F(TrapTest, RandomPerturberRespectsEveryConstraintBudget) {
  gbdt::LearnedUtilityModel utility(optimizer_, truth_);
  utility.Train(pool_, {engine::IndexConfig()});
  auto victim = *advisor::MakeAdvisor("Extend", optimizer_);
  for (PerturbationConstraint constraint :
       {PerturbationConstraint::kValueOnly,
        PerturbationConstraint::kColumnConsistent,
        PerturbationConstraint::kSharedTable}) {
    GeneratorConfig cfg;
    cfg.method = GenerationMethod::kRandom;
    cfg.constraint = constraint;
    cfg.epsilon = 3;
    cfg.seed = 29;
    AdversarialWorkloadGenerator gen(vocab_, cfg);
    gen.Fit(victim.get(), nullptr, &optimizer_, &utility, pool_, training_,
            Constraint());
    workload::Workload out = gen.Generate(test_);
    ASSERT_EQ(out.size(), test_.size()) << ConstraintName(constraint);
    int max_dist = 0;
    for (int i = 0; i < out.size(); ++i) {
      const sql::Query& orig = test_.queries[static_cast<size_t>(i)].query;
      const sql::Query& pq = out.queries[static_cast<size_t>(i)].query;
      EXPECT_TRUE(sql::ValidateQuery(pq, schema_))
          << ConstraintName(constraint);
      int dist = sql::EditDistance(sql::ToTokens(orig, vocab_),
                                   sql::ToTokens(pq, vocab_));
      EXPECT_LE(dist, cfg.epsilon) << ConstraintName(constraint);
      max_dist = std::max(max_dist, dist);
    }
    // The budget is used (perturbation happened), never overdrawn.
    EXPECT_GT(max_dist, 0) << ConstraintName(constraint);
  }
}

TEST_F(TrapTest, EncodeQueryVectorHasExpectedDimension) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  std::vector<int> ids = sql::ToTokenIds(pool_[0], vocab_);
  std::vector<double> v = agent.EncodeQueryVector(ids);
  EXPECT_EQ(v.size(), 24u);
  // Deterministic.
  EXPECT_EQ(agent.EncodeQueryVector(ids), v);
}

TEST_F(TrapTest, PlmOptionsScaleWithModel) {
  int64_t bert = TrapAgent(vocab_, *PlmAgentOptions("Bert", 1)).NumParameters();
  int64_t bart = TrapAgent(vocab_, *PlmAgentOptions("Bart", 1)).NumParameters();
  EXPECT_GT(bart, bert);
}

// -- golden numerics ----------------------------------------------------------
//
// Bit-exact pins of the agent's training numerics, one small fixed config per
// generation method. The constants were captured from the engine before any
// of its kernels were rewritten; a kernel that changes the order of a single
// floating-point operation changes at least one of them. Each case also
// prints an "agent digest" line so scripts/check.sh can compare runs across
// TRAP_THREADS values.

// Hex image of a double's bits, so a golden compares bit for bit.
std::string Bits(double v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(v)));
  return buf;
}

std::string BitsTrace(const std::vector<double>& trace) {
  std::string out;
  for (double v : trace) {
    if (!out.empty()) out += ',';
    out += Bits(v);
  }
  return out;
}

// Fold of every parameter element's bits.
uint64_t ParameterFingerprint(nn::ParameterStore& store) {
  uint64_t h = 0;
  for (nn::Parameter* p : store.parameters()) {
    for (int i = 0; i < p->value.size(); ++i) {
      h = common::HashCombine(h, std::bit_cast<uint64_t>(p->value.data()[i]));
    }
  }
  return h;
}

struct AgentGolden {
  GenerationMethod method;
  const char* pretrain_nll;   // per-epoch mean NLL, hex double bits
  const char* mean_reward;    // per-epoch RL mean reward, hex double bits
  uint64_t perturb_fp;        // WorkloadFingerprint of the greedy Perturb
  uint64_t parameter_fp;      // ParameterFingerprint after RL
};

// Names the case in gtest output (the default would dump the raw bytes).
void PrintTo(const AgentGolden& golden, std::ostream* os) {
  *os << MethodName(golden.method);
}

class AgentGoldenTest : public TrapTest,
                        public ::testing::WithParamInterface<AgentGolden> {};

TEST_P(AgentGoldenTest, TrainingAndPerturbationAreBitExact) {
  const AgentGolden& golden = GetParam();
  AgentOptions options;
  switch (golden.method) {
    case GenerationMethod::kGru:
      options = SmallAgent(EncoderKind::kNone, false);
      break;
    case GenerationMethod::kSeq2Seq:
      options = SmallAgent(EncoderKind::kBiGru, false);
      break;
    case GenerationMethod::kTransformer:
      options = SmallAgent(EncoderKind::kTransformer, true);
      break;
    default:
      options = SmallAgent(EncoderKind::kBiGru, true);
      break;
  }
  TrapAgent agent(vocab_, options);
  PretrainOptions pretrain;
  pretrain.num_pairs = 12;
  pretrain.epochs = 2;
  pretrain.seed = 5;
  std::vector<double> nll = Pretrain(
      agent, pool_, PerturbationConstraint::kSharedTable, 5, pretrain);
  agent.ReinitDecoder();

  auto victim = *advisor::MakeAdvisor("Extend", optimizer_);
  RlOptions rl;
  rl.epochs = 2;
  rl.workloads_per_epoch = 2;
  rl.theta = 0.0;
  rl.use_learned_utility = false;
  rl.seed = 77;
  RlTrainer trainer(&agent, victim.get(), nullptr, &optimizer_, nullptr,
                    PerturbationConstraint::kSharedTable, 5, Constraint(), rl);
  RlTrace trace = trainer.Train(training_);
  uint64_t perturb_fp = advisor::WorkloadFingerprint(trainer.Perturb(test_));
  uint64_t parameter_fp = ParameterFingerprint(agent.store());

  std::printf("agent digest %s nll=%s reward=%s perturb=%016llx "
              "params=%016llx\n",
              MethodName(golden.method), BitsTrace(nll).c_str(),
              BitsTrace(trace.mean_reward_per_epoch).c_str(),
              static_cast<unsigned long long>(perturb_fp),
              static_cast<unsigned long long>(parameter_fp));
  EXPECT_EQ(BitsTrace(nll), golden.pretrain_nll);
  EXPECT_EQ(BitsTrace(trace.mean_reward_per_epoch), golden.mean_reward);
  EXPECT_EQ(perturb_fp, golden.perturb_fp);
  EXPECT_EQ(parameter_fp, golden.parameter_fp);
}

INSTANTIATE_TEST_SUITE_P(
    Golden, AgentGoldenTest,
    ::testing::Values(
        AgentGolden{GenerationMethod::kTrap,
                    "40272f617c383a57,4026f6965bd203c0",
                    "3fb3dcf6fdd86598,3fc40939aca46976",
                    0xc22b2c3261e11c85ULL, 0x7e3afe5ebe038924ULL},
        AgentGolden{GenerationMethod::kSeq2Seq,
                    "402724aa80c0248b,4026f6e62c8b7dfb",
                    "3fd1a7630bbdc640,3fc40939aca46976",
                    0x0a19b38681fa147bULL, 0x7fbdce5c47602efcULL},
        AgentGolden{GenerationMethod::kGru,
                    "40272d07e2d44837,402700f5506fcc50",
                    "3fb3dcf6fdd86598,3fc40939aca46976",
                    0x0fecc7465e7552f9ULL, 0x7c4722a9f75b8a8cULL},
        AgentGolden{GenerationMethod::kTransformer,
                    "4027c709771706c3,4025ed149bc0553c",
                    "3fc5a02b3a40b77e,3fb3ab39c509f6e0",
                    0x7a1f810beef7a786ULL, 0x56a3aca3a47e06b6ULL}),
    [](const auto& suite_info) {
      return std::string(MethodName(suite_info.param.method));
    });

}  // namespace
}  // namespace trap::trap
