// Policy-network tests across all four action-space designs: trajectory
// validity, log-prob bookkeeping, sample/recompute consistency (the PPO
// ratio must be 1 before any update), and the priori-knowledge property
// (biased designs sample targets with ~0.5 probability at init).
#include "core/policy.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "tree_path_oracle.h"

namespace poisonrec::core {
namespace {

constexpr std::size_t kTargets = 4;
constexpr std::size_t kOriginals = 21;
constexpr std::size_t kItems = kTargets + kOriginals;
constexpr std::size_t kAttackers = 5;
constexpr std::size_t kT = 6;

Policy MakePolicy(ActionSpaceKind kind, std::uint64_t seed = 12) {
  PolicyConfig config;
  config.embedding_dim = 8;
  config.action_space = kind;
  config.seed = seed;
  std::vector<data::ItemId> originals;
  for (data::ItemId i = 0; i < kOriginals; ++i) originals.push_back(i);
  std::vector<data::ItemId> targets;
  for (data::ItemId i = kOriginals; i < kItems; ++i) targets.push_back(i);
  return Policy(kAttackers, kItems, originals, targets, config);
}

class PolicyKindTest : public ::testing::TestWithParam<ActionSpaceKind> {};

TEST_P(PolicyKindTest, EpisodeShapeIsValid) {
  Policy policy = MakePolicy(GetParam());
  Rng rng(3);
  auto trajs = policy.SampleEpisode(kT, &rng);
  ASSERT_EQ(trajs.size(), kAttackers);
  for (std::size_t n = 0; n < kAttackers; ++n) {
    EXPECT_EQ(trajs[n].attacker_index, n);
    ASSERT_EQ(trajs[n].steps.size(), kT);
    for (const SampledStep& step : trajs[n].steps) {
      EXPECT_LT(step.item, kItems);
      ASSERT_FALSE(step.old_log_probs.empty());
      for (double lp : step.old_log_probs) {
        EXPECT_LE(lp, 1e-9);
        EXPECT_TRUE(std::isfinite(lp));
      }
    }
  }
}

TEST_P(PolicyKindTest, RecomputeMatchesSampledLogProbs) {
  // Before any parameter update, recomputed log-probs must equal the ones
  // recorded at sampling time (PPO ratio == 1).
  Policy policy = MakePolicy(GetParam());
  Rng rng(4);
  auto trajs = policy.SampleEpisode(kT, &rng);
  std::vector<const SampledTrajectory*> ptrs;
  for (const auto& t : trajs) ptrs.push_back(&t);
  auto batches = policy.RecomputeLogProbs(ptrs);
  ASSERT_FALSE(batches.empty());
  std::size_t total = 0;
  for (const DecisionBatch& batch : batches) {
    ASSERT_EQ(batch.new_log_probs.rows(), batch.old_log_probs.size());
    for (std::size_t i = 0; i < batch.old_log_probs.size(); ++i) {
      EXPECT_NEAR(batch.new_log_probs.at(i, 0), batch.old_log_probs[i],
                  5e-4)
          << ActionSpaceKindName(GetParam());
      ++total;
    }
  }
  // Total decision count matches the stored bookkeeping.
  std::size_t expected = 0;
  for (const auto& t : trajs) {
    for (const auto& s : t.steps) expected += s.old_log_probs.size();
  }
  EXPECT_EQ(total, expected);
}

TEST_P(PolicyKindTest, SamplingIsDeterministicInRngState) {
  Policy policy = MakePolicy(GetParam());
  Rng rng_a(9);
  Rng rng_b(9);
  auto a = policy.SampleEpisode(kT, &rng_a);
  auto b = policy.SampleEpisode(kT, &rng_b);
  for (std::size_t n = 0; n < kAttackers; ++n) {
    for (std::size_t t = 0; t < kT; ++t) {
      EXPECT_EQ(a[n].steps[t].item, b[n].steps[t].item);
    }
  }
}

TEST_P(PolicyKindTest, GradientsFlowFromDecisions) {
  Policy policy = MakePolicy(GetParam());
  Rng rng(5);
  auto trajs = policy.SampleEpisode(kT, &rng);
  std::vector<const SampledTrajectory*> ptrs;
  for (const auto& t : trajs) ptrs.push_back(&t);
  auto batches = policy.RecomputeLogProbs(ptrs);
  nn::Tensor loss;
  for (const auto& batch : batches) {
    nn::Tensor s = nn::Sum(batch.new_log_probs);
    loss = loss.defined() ? nn::Add(loss, s) : s;
  }
  loss.Backward();
  double grad_mass = 0.0;
  for (const nn::Tensor& p : policy.Parameters()) {
    for (float g : p.grad()) grad_mass += std::abs(g);
  }
  EXPECT_GT(grad_mass, 0.0) << ActionSpaceKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PolicyKindTest,
    ::testing::Values(ActionSpaceKind::kPlain, ActionSpaceKind::kBPlain,
                      ActionSpaceKind::kBcbtPopular,
                      ActionSpaceKind::kBcbtRandom,
                      ActionSpaceKind::kCbtUnbiased),
    [](const auto& info) {
      std::string name = ActionSpaceKindName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// Gradients of sum_k A[traj(k)] · log π(decision k) with respect to
// every policy parameter, from zeroed buffers. `log_probs` is a
// log-prob column for `batch`'s decisions.
std::vector<std::vector<float>> WeightedLogProbGrads(
    const Policy& policy, const DecisionBatch& batch,
    const std::vector<double>& advantages, nn::Tensor log_probs) {
  for (nn::Tensor p : policy.Parameters()) p.ZeroGrad();
  std::vector<float> weights;
  for (std::size_t i : batch.traj_index) {
    weights.push_back(static_cast<float>(advantages[i]));
  }
  log_probs.Backward(weights);
  std::vector<std::vector<float>> grads;
  for (const nn::Tensor& p : policy.Parameters()) grads.push_back(p.grad());
  return grads;
}

// Non-vacuous check of the fused tree-path backward inside the policy:
// random non-zero advantages (a saturated reward batch would give all-zero
// Eq. 8 advantages and hide a wrong backward) weight the recomputed
// log-probs, and every parameter gradient must match the one obtained by
// running the unfused oracle chain on the same query rows.
class TreePolicyOracleTest : public ::testing::TestWithParam<ActionSpaceKind> {
};

TEST_P(TreePolicyOracleTest, FusedGradientsMatchUnfusedChain) {
  Policy policy = MakePolicy(GetParam());
  const ActionTree* tree = policy.tree();
  ASSERT_NE(tree, nullptr);
  Rng rng(21);
  std::vector<std::vector<SampledTrajectory>> episodes;
  for (int e = 0; e < 3; ++e) {
    episodes.push_back(policy.SampleEpisode(kT, &rng));
  }
  std::vector<const SampledTrajectory*> ptrs;
  for (const auto& episode : episodes) {
    for (const auto& t : episode) ptrs.push_back(&t);
  }
  std::vector<double> advantages;
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    const double magnitude = rng.Uniform(0.25, 1.5);
    advantages.push_back(rng.Uniform() < 0.5 ? -magnitude : magnitude);
  }

  const std::vector<DecisionBatch> fused_batches =
      policy.RecomputeLogProbs(ptrs);
  ASSERT_EQ(fused_batches.size(), 1u);
  const std::vector<std::vector<float>> fused =
      WeightedLogProbGrads(policy, fused_batches[0], advantages,
                           fused_batches[0].new_log_probs);

  // A fresh graph; its fused nodes are left out of the loss. The column
  // joins one fused node per timestep; the oracle reads the same query
  // rows and tables (each fused node's parents) and indexes them from
  // the trajectories, independently of policy.cc.
  const std::vector<DecisionBatch> batches = policy.RecomputeLogProbs(ptrs);
  const auto& timesteps = batches[0].new_log_probs.impl()->parents;
  ASSERT_EQ(timesteps.size(), kT);  // one fused column per timestep
  std::vector<nn::Tensor> oracle_columns;
  for (std::size_t t = 0; t < kT; ++t) {
    const auto& parents = timesteps[t]->parents;
    const nn::Tensor q(parents[0]);
    const nn::Tensor item_table(parents[1]);
    const nn::Tensor node_table(parents[2]);
    EXPECT_EQ(item_table.impl(), policy.item_embeddings().impl());
    const auto feature = [&](int node) -> std::size_t {
      return tree->IsLeaf(node) ? tree->LeafItem(node)
                                : kItems + static_cast<std::size_t>(node);
    };
    std::vector<std::size_t> offsets = {0};
    std::vector<std::size_t> chosen;
    std::vector<std::size_t> sibling;
    for (const SampledTrajectory* traj : ptrs) {
      const std::vector<int>& path = traj->steps[t].path;
      for (std::size_t d = 1; d < path.size(); ++d) {
        chosen.push_back(feature(path[d]));
        sibling.push_back(feature(tree->Sibling(path[d])));
      }
      offsets.push_back(chosen.size());
    }
    oracle_columns.push_back(testing::UnfusedTreePathLogProb(
        q, item_table, node_table, offsets, chosen, sibling));
    EXPECT_EQ(oracle_columns.back().data(), timesteps[t]->data)
        << "forward must be bitwise equal, timestep " << t;
  }
  const std::vector<std::vector<float>> oracle =
      WeightedLogProbGrads(policy, batches[0], advantages,
                           nn::ConcatRows(oracle_columns));

  ASSERT_EQ(fused.size(), oracle.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    double mass = 0.0;
    for (float g : oracle[i]) mass += std::abs(g);
    EXPECT_GT(mass, 0.0) << "parameter " << i << " receives no gradient";
    EXPECT_LE(testing::MaxRelativeDeviation(fused[i], oracle[i]),
              testing::kTreePathGradRelTol)
        << ActionSpaceKindName(GetParam()) << " parameter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TreeKinds, TreePolicyOracleTest,
    ::testing::Values(ActionSpaceKind::kBcbtPopular,
                      ActionSpaceKind::kBcbtRandom,
                      ActionSpaceKind::kCbtUnbiased),
    [](const auto& info) {
      std::string name = ActionSpaceKindName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

double TargetFraction(Policy& policy, Rng* rng, std::size_t episodes) {
  std::size_t target_clicks = 0;
  std::size_t total = 0;
  for (std::size_t e = 0; e < episodes; ++e) {
    auto trajs = policy.SampleEpisode(kT, rng);
    for (const auto& t : trajs) {
      for (const auto& s : t.steps) {
        ++total;
        if (s.item >= kOriginals) ++target_clicks;
      }
    }
  }
  return static_cast<double>(target_clicks) / static_cast<double>(total);
}

TEST(PolicyPrioriKnowledge, BiasedDesignsSampleTargetsAtHalf) {
  // Paper §III-E: with the set-level root decision, target probability at
  // initialization is ~0.5 instead of |I_t| / |I ∪ I_t|.
  Rng rng(6);
  Policy bplain = MakePolicy(ActionSpaceKind::kBPlain);
  Policy bcbt = MakePolicy(ActionSpaceKind::kBcbtPopular);
  EXPECT_NEAR(TargetFraction(bplain, &rng, 40), 0.5, 0.1);
  EXPECT_NEAR(TargetFraction(bcbt, &rng, 40), 0.5, 0.1);
}

TEST(PolicyPrioriKnowledge, PlainSamplesTargetsAtCatalogFraction) {
  Rng rng(7);
  Policy plain = MakePolicy(ActionSpaceKind::kPlain);
  const double expected =
      static_cast<double>(kTargets) / static_cast<double>(kItems);
  EXPECT_NEAR(TargetFraction(plain, &rng, 40), expected, 0.08);
}

TEST(PolicyPrioriKnowledge, UnbiasedTreeSamplesTargetsNearLeafShare) {
  // Without the root bias, the tree's initial target probability depends
  // on the targets' leaf positions — far below the 0.5 of BCBT but,
  // because the (complete) tree is balanced, near their leaf share.
  Rng rng(8);
  Policy unbiased = MakePolicy(ActionSpaceKind::kCbtUnbiased);
  const double fraction = TargetFraction(unbiased, &rng, 40);
  EXPECT_LT(fraction, 0.35);
  EXPECT_GT(fraction, 0.02);
}

TEST(PolicyStructure, UnbiasedTreeCoversAllItems) {
  Policy policy = MakePolicy(ActionSpaceKind::kCbtUnbiased);
  ASSERT_NE(policy.tree(), nullptr);
  EXPECT_EQ(policy.tree()->LeavesInOrder().size(), kItems);
}

TEST(PolicyStructure, TreeOnlyForBcbt) {
  EXPECT_EQ(MakePolicy(ActionSpaceKind::kPlain).tree(), nullptr);
  EXPECT_EQ(MakePolicy(ActionSpaceKind::kBPlain).tree(), nullptr);
  EXPECT_NE(MakePolicy(ActionSpaceKind::kBcbtPopular).tree(), nullptr);
  EXPECT_NE(MakePolicy(ActionSpaceKind::kBcbtRandom).tree(), nullptr);
}

TEST(PolicyStructure, BcbtPathsAreRootToLeaf) {
  Policy policy = MakePolicy(ActionSpaceKind::kBcbtPopular);
  const ActionTree* tree = policy.tree();
  Rng rng(8);
  auto trajs = policy.SampleEpisode(kT, &rng);
  for (const auto& t : trajs) {
    for (const auto& s : t.steps) {
      ASSERT_GE(s.path.size(), 2u);
      EXPECT_EQ(s.path.front(), tree->root());
      EXPECT_TRUE(tree->IsLeaf(s.path.back()));
      EXPECT_EQ(tree->LeafItem(s.path.back()), s.item);
      EXPECT_EQ(s.old_log_probs.size(), s.path.size() - 1);
      for (std::size_t d = 0; d + 1 < s.path.size(); ++d) {
        const auto& node = tree->node(s.path[d]);
        EXPECT_TRUE(s.path[d + 1] == node.left || s.path[d + 1] == node.right);
      }
    }
  }
}

TEST(PolicyStructure, BPlainPathEncodesSetChoice) {
  Policy policy = MakePolicy(ActionSpaceKind::kBPlain);
  Rng rng(9);
  auto trajs = policy.SampleEpisode(kT, &rng);
  for (const auto& t : trajs) {
    for (const auto& s : t.steps) {
      ASSERT_EQ(s.path.size(), 1u);
      ASSERT_EQ(s.old_log_probs.size(), 2u);
      const bool is_target = s.item >= kOriginals;
      EXPECT_EQ(s.path[0], is_target ? 0 : 1);
    }
  }
}

TEST(PolicyStructure, BcbtRandomShufflesLeaves) {
  Policy popular = MakePolicy(ActionSpaceKind::kBcbtPopular, 31);
  Policy random = MakePolicy(ActionSpaceKind::kBcbtRandom, 31);
  EXPECT_NE(popular.tree()->LeavesInOrder(),
            random.tree()->LeavesInOrder());
}

TEST(PolicyStructure, ParameterCountsByKind) {
  // user emb, item emb, lstm(3), dnn(4) = 9 base tensors.
  EXPECT_EQ(MakePolicy(ActionSpaceKind::kPlain).Parameters().size(), 9u);
  EXPECT_EQ(MakePolicy(ActionSpaceKind::kBPlain).Parameters().size(), 10u);
  EXPECT_EQ(MakePolicy(ActionSpaceKind::kBcbtPopular).Parameters().size(),
            10u);
}

}  // namespace
}  // namespace poisonrec::core
