// PPO trainer tests: Algorithm 1 mechanics, reward tracking, and the
// end-to-end learning property (reward rises on an ItemPop system).
#include "core/ppo.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "rec/registry.h"
#include "tree_path_oracle.h"

namespace poisonrec::core {
namespace {

struct Fixture {
  Fixture()
      : environment(MakeLog(), rec::MakeRecommender("ItemPop").value(),
                    MakeEnvConfig()) {}

  static data::Dataset MakeLog() {
    data::SyntheticConfig cfg;
    cfg.num_users = 120;
    cfg.num_items = 100;
    cfg.num_interactions = 1200;
    cfg.seed = 3;
    return data::GenerateSynthetic(cfg);
  }

  static env::EnvironmentConfig MakeEnvConfig() {
    env::EnvironmentConfig cfg;
    cfg.num_attackers = 10;
    cfg.trajectory_length = 10;
    cfg.num_target_items = 4;
    cfg.num_candidate_originals = 30;
    cfg.top_k = 5;
    cfg.seed = 11;
    return cfg;
  }

  static PoisonRecConfig MakeAttackerConfig() {
    PoisonRecConfig cfg;
    cfg.samples_per_step = 6;
    cfg.batch_size = 6;
    cfg.update_epochs = 2;
    cfg.policy.embedding_dim = 8;
    cfg.policy.action_space = ActionSpaceKind::kBcbtPopular;
    cfg.seed = 7;
    return cfg;
  }

  env::AttackEnvironment environment;
};

TEST(TrajectoryUtilTest, ToEnvTrajectoriesStripsBookkeeping) {
  SampledTrajectory t;
  t.attacker_index = 3;
  t.steps.resize(2);
  t.steps[0].item = 5;
  t.steps[1].item = 9;
  auto env_trajs = ToEnvTrajectories({t});
  ASSERT_EQ(env_trajs.size(), 1u);
  EXPECT_EQ(env_trajs[0].attacker_index, 3u);
  EXPECT_EQ(env_trajs[0].items, (std::vector<data::ItemId>{5, 9}));
}

TEST(TrajectoryUtilTest, TargetClickRatio) {
  Episode ep;
  SampledTrajectory t;
  t.steps.resize(4);
  t.steps[0].item = 1;    // original
  t.steps[1].item = 100;  // target
  t.steps[2].item = 101;  // target
  t.steps[3].item = 2;    // original
  ep.trajectories.push_back(t);
  EXPECT_DOUBLE_EQ(TargetClickRatio(ep, 100), 0.5);
  EXPECT_DOUBLE_EQ(TargetClickRatio(Episode{}, 100), 0.0);
}

TEST(PoisonRecAttackerTest, SampleAndEvaluateProducesValidEpisode) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  Episode ep = attacker.SampleAndEvaluate();
  EXPECT_EQ(ep.trajectories.size(), 10u);
  EXPECT_GE(ep.reward, 0.0);
  for (const auto& t : ep.trajectories) {
    EXPECT_EQ(t.steps.size(), 10u);
  }
}

TEST(PoisonRecAttackerTest, TrainStepProducesStats) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  TrainStepStats stats = attacker.TrainStep();
  EXPECT_EQ(stats.step, 1u);
  EXPECT_GE(stats.max_reward, stats.mean_reward);
  EXPECT_GE(stats.mean_reward, stats.min_reward);
  EXPECT_EQ(stats.best_reward_so_far, attacker.best_episode().reward);
  EXPECT_TRUE(std::isfinite(stats.loss));
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GE(stats.target_click_ratio, 0.0);
  EXPECT_LE(stats.target_click_ratio, 1.0);
}

TEST(PoisonRecAttackerTest, BestRewardIsMonotone) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  double best = -1.0;
  for (int s = 0; s < 4; ++s) {
    TrainStepStats stats = attacker.TrainStep();
    EXPECT_GE(stats.best_reward_so_far, best);
    best = stats.best_reward_so_far;
    EXPECT_GE(stats.best_reward_so_far, stats.max_reward - 1e-9);
  }
}

TEST(PoisonRecAttackerTest, BestAttackMatchesBudget) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  attacker.TrainStep();
  auto attack = attacker.BestAttack();
  ASSERT_EQ(attack.size(), 10u);
  for (const auto& t : attack) {
    EXPECT_EQ(t.items.size(), 10u);
    for (data::ItemId item : t.items) {
      EXPECT_LT(item, f.environment.num_total_items());
    }
  }
}

TEST(PoisonRecAttackerTest, LearnsToPromoteOnItemPop) {
  // The headline property: training raises the mean episode reward and
  // the learned strategy concentrates clicks on targets (the paper's
  // ItemPop finding: ratio -> ~1).
  Fixture f;
  PoisonRecConfig cfg = Fixture::MakeAttackerConfig();
  cfg.samples_per_step = 8;
  cfg.batch_size = 8;
  cfg.update_epochs = 3;
  PoisonRecAttacker attacker(&f.environment, cfg);
  double first_mean = 0.0;
  double first_ratio = 0.0;
  double last_mean = 0.0;
  double last_ratio = 0.0;
  for (int s = 0; s < 25; ++s) {
    TrainStepStats stats = attacker.TrainStep();
    if (s == 0) {
      first_mean = stats.mean_reward;
      first_ratio = stats.target_click_ratio;
    }
    last_mean = stats.mean_reward;
    last_ratio = stats.target_click_ratio;
  }
  EXPECT_GT(last_mean, first_mean * 1.3)
      << "reward did not improve: " << first_mean << " -> " << last_mean;
  EXPECT_GT(last_ratio, first_ratio);
  EXPECT_GT(last_ratio, 0.55);
}

TEST(PoisonRecAttackerTest, TrainReturnsPerStepStats) {
  Fixture f;
  PoisonRecAttacker attacker(&f.environment, Fixture::MakeAttackerConfig());
  auto stats = attacker.Train(3);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].step, 1u);
  EXPECT_EQ(stats[2].step, 3u);
  EXPECT_EQ(attacker.steps_taken(), 3u);
}

TEST(PoisonRecAttackerTest, DeterministicAcrossRuns) {
  Fixture f1;
  Fixture f2;
  PoisonRecAttacker a(&f1.environment, Fixture::MakeAttackerConfig());
  PoisonRecAttacker b(&f2.environment, Fixture::MakeAttackerConfig());
  auto sa = a.TrainStep();
  auto sb = b.TrainStep();
  EXPECT_DOUBLE_EQ(sa.mean_reward, sb.mean_reward);
  EXPECT_DOUBLE_EQ(sa.loss, sb.loss);
}

TEST(PoisonRecAttackerTest, WorksWithEveryActionSpace) {
  for (ActionSpaceKind kind :
       {ActionSpaceKind::kPlain, ActionSpaceKind::kBPlain,
        ActionSpaceKind::kBcbtPopular, ActionSpaceKind::kBcbtRandom,
        ActionSpaceKind::kCbtUnbiased}) {
    Fixture f;
    PoisonRecConfig cfg = Fixture::MakeAttackerConfig();
    cfg.policy.action_space = kind;
    PoisonRecAttacker attacker(&f.environment, cfg);
    TrainStepStats stats = attacker.TrainStep();
    EXPECT_TRUE(std::isfinite(stats.loss)) << ActionSpaceKindName(kind);
  }
}

// Oracle for ClippedSurrogate: the surrogate as the taped chain the PPO
// update differentiated before the surrogate became host arithmetic —
// Sub, Exp, Mul by a forward-computed mask (A where the ratio term is
// selected, 0 where the clipped constant is), Sum and Scale(−1/D) — with
// the clipped constants summed on host.
struct TapedSurrogate {
  nn::Tensor masked_loss;  // −(1/D) Σ_unclipped r·A, differentiable
  double loss = 0.0;       // masked_loss − (1/D) Σ_clipped clip(r)·A
  std::size_t clipped = 0;
  std::size_t unclipped = 0;
};

TapedSurrogate TapedClippedSurrogate(const DecisionBatch& decisions,
                                     const std::vector<double>& advantages,
                                     float eps) {
  const std::size_t n = decisions.new_log_probs.rows();
  std::vector<float> old_vals(n);
  std::vector<float> mask(n, 0.0f);
  double constant = 0.0;
  TapedSurrogate out;
  for (std::size_t k = 0; k < n; ++k) {
    const double adv = advantages[decisions.traj_index[k]];
    const double r =
        std::exp(static_cast<double>(decisions.new_log_probs.at(k, 0)) -
                 decisions.old_log_probs[k]);
    const bool unclipped = adv >= 0.0 ? r <= 1.0 + eps : r >= 1.0 - eps;
    if (unclipped) {
      mask[k] = static_cast<float>(adv);
      ++out.unclipped;
    } else {
      constant += std::clamp(r, 1.0 - eps, 1.0 + eps) * adv;
      ++out.clipped;
    }
    old_vals[k] = static_cast<float>(decisions.old_log_probs[k]);
  }
  const nn::Tensor ratio = nn::Exp(nn::Sub(
      decisions.new_log_probs, nn::Tensor::FromData(n, 1, std::move(old_vals))));
  out.masked_loss =
      nn::Scale(nn::Sum(nn::Mul(ratio, nn::Tensor::FromData(n, 1, std::move(mask)))),
                -1.0f / static_cast<float>(n));
  out.loss = out.masked_loss.item() - constant / static_cast<double>(n);
  return out;
}

TEST(ClippedSurrogateTest, MatchesTapedChainOnEveryActionSpace) {
  // Random non-zero advantages of both signs: the benchmark's saturated
  // rewards give all-zero Eq. 8 advantages, so it cannot see a wrong
  // seed. Parameters are perturbed after sampling so ratios leave 1, and
  // ε is small enough that both clipped and unclipped decisions occur.
  constexpr float kEps = 0.01f;
  std::vector<data::ItemId> originals;
  for (data::ItemId i = 0; i < 20; ++i) originals.push_back(i);
  const std::vector<data::ItemId> targets = {20, 21, 22};
  for (const ActionSpaceKind kind :
       {ActionSpaceKind::kPlain, ActionSpaceKind::kBPlain,
        ActionSpaceKind::kBcbtPopular, ActionSpaceKind::kBcbtRandom,
        ActionSpaceKind::kCbtUnbiased}) {
    const std::string context = ActionSpaceKindName(kind);
    PolicyConfig config;
    config.embedding_dim = 8;
    config.action_space = kind;
    Policy policy(5, 23, originals, targets, config);
    Rng rng(31);
    std::vector<std::vector<SampledTrajectory>> episodes;
    for (int e = 0; e < 3; ++e) episodes.push_back(policy.SampleEpisode(6, &rng));
    std::vector<const SampledTrajectory*> trajs;
    std::vector<double> advantages;
    for (const auto& episode : episodes) {
      for (const SampledTrajectory& t : episode) {
        trajs.push_back(&t);
        const double magnitude = rng.Uniform(0.25, 1.5);
        advantages.push_back(rng.Uniform() < 0.5 ? -magnitude : magnitude);
      }
    }
    const std::vector<nn::Tensor> params = policy.Parameters();
    for (nn::Tensor p : params) {
      for (float& v : p.mutable_data()) {
        v += static_cast<float>(rng.Normal(0.0, 0.05));
      }
    }
    auto grads = [&params]() {
      std::vector<std::vector<float>> out;
      for (const nn::Tensor& p : params) out.push_back(p.grad());
      return out;
    };
    auto zero_grads = [&params]() {
      for (nn::Tensor p : params) p.ZeroGrad();
    };

    std::vector<DecisionBatch> host_batches = policy.RecomputeLogProbs(trajs);
    ASSERT_EQ(host_batches.size(), 1u) << context;
    const SurrogateResult host =
        ClippedSurrogate(host_batches[0], advantages, kEps);
    zero_grads();
    host_batches[0].new_log_probs.Backward(host.seed);
    const auto host_grads = grads();

    const std::vector<DecisionBatch> oracle_batches =
        policy.RecomputeLogProbs(trajs);
    TapedSurrogate oracle =
        TapedClippedSurrogate(oracle_batches[0], advantages, kEps);
    EXPECT_GT(oracle.clipped, 0u) << context;
    EXPECT_GT(oracle.unclipped, 0u) << context;
    zero_grads();
    oracle.masked_loss.Backward();
    const auto oracle_grads = grads();

    EXPECT_LE(std::abs(host.loss - oracle.loss), 1e-6 * std::abs(oracle.loss))
        << context << ": host " << host.loss << " vs taped " << oracle.loss;
    ASSERT_EQ(host_grads.size(), oracle_grads.size());
    for (std::size_t i = 0; i < host_grads.size(); ++i) {
      double mass = 0.0;
      for (float g : oracle_grads[i]) mass += std::abs(g);
      EXPECT_GT(mass, 0.0) << context << " parameter " << i;
      EXPECT_LE(testing::MaxRelativeDeviation(host_grads[i], oracle_grads[i]),
                testing::kTreePathGradRelTol)
          << context << " parameter " << i;
    }
  }
}

}  // namespace
}  // namespace poisonrec::core
