// Attacker-engine identity tests. TrainStep has one engine: per-episode
// ParallelFor sampling, then K PPO epochs that replay one recorded graph
// when B >= M and K > 1 and build fresh tapes otherwise. It must be
// bit-identical — same trajectories, rewards, post-update parameters,
// Adam moments and checkpoint bytes — at every thread count and across
// checkpoint/resume, and the graph replay must match a fresh tape
// exactly. The kernel-layer fast paths underneath (fused LSTM gates,
// threaded SparseMatMul) are checked here too.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy.h"
#include "core/ppo.h"
#include "data/synthetic.h"
#include "nn/graph.h"
#include "nn/kernels.h"
#include "nn/optimizer.h"
#include "nn/sparse.h"
#include "rec/registry.h"
#include "util/fsio.h"
#include "util/random.h"
#include "util/stats.h"

namespace poisonrec::core {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Restores the process-global kernel thread budget on scope exit so a
/// test can't leak its override into the rest of the binary.
struct ThreadGuard {
  ~ThreadGuard() { nn::SetNumThreads(0); }
};

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
    cfg.trajectory_length = 8;
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
    cfg.update_epochs = 3;
    cfg.policy.embedding_dim = 8;
    cfg.policy.action_space = ActionSpaceKind::kBcbtPopular;
    cfg.seed = 7;
    return cfg;
  }

  env::AttackEnvironment environment;
};

void ExpectTrajectoriesBitwiseEqual(
    const std::vector<SampledTrajectory>& a,
    const std::vector<SampledTrajectory>& b, const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].attacker_index, b[i].attacker_index) << context;
    ASSERT_EQ(a[i].steps.size(), b[i].steps.size()) << context;
    for (std::size_t t = 0; t < a[i].steps.size(); ++t) {
      const SampledStep& sa = a[i].steps[t];
      const SampledStep& sb = b[i].steps[t];
      ASSERT_EQ(sa.item, sb.item)
          << context << " traj " << i << " step " << t;
      ASSERT_EQ(sa.path, sb.path)
          << context << " traj " << i << " step " << t;
      ASSERT_EQ(sa.old_log_probs.size(), sb.old_log_probs.size()) << context;
      for (std::size_t d = 0; d < sa.old_log_probs.size(); ++d) {
        // Bitwise: the same RNG stream must reproduce the same
        // decisions exactly, not approximately.
        ASSERT_EQ(sa.old_log_probs[d], sb.old_log_probs[d])
            << context << " traj " << i << " step " << t << " decision " << d;
      }
    }
  }
}

std::unique_ptr<Policy> MakeStandalonePolicy(std::size_t num_attackers,
                                             ActionSpaceKind kind) {
  const std::size_t num_original = 40;
  std::vector<data::ItemId> originals(num_original);
  for (std::size_t i = 0; i < num_original; ++i) originals[i] = i;
  std::vector<data::ItemId> targets = {40, 41, 42};
  PolicyConfig cfg;
  cfg.embedding_dim = 8;
  cfg.action_space = kind;
  cfg.seed = 123;
  return std::make_unique<Policy>(num_attackers, num_original + targets.size(),
                                  originals, targets, cfg);
}

// -- SampleEpisodesBatched == M x SampleEpisode ---------------------------

TEST(BatchedSamplerTest, MatchesPerEpisodeSamplingBitwise) {
  ThreadGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    nn::SetNumThreads(threads);
    for (const std::size_t n : {std::size_t{1}, std::size_t{20},
                                std::size_t{200}}) {
      auto policy = MakeStandalonePolicy(n, ActionSpaceKind::kBcbtPopular);
      const std::size_t episodes = 3;
      const std::size_t length = 6;

      std::vector<std::vector<SampledTrajectory>> reference(episodes);
      for (std::size_t e = 0; e < episodes; ++e) {
        Rng rng(DeriveStreamSeed(99, 1, e));
        reference[e] = policy->SampleEpisode(length, &rng);
      }

      std::vector<Rng> rngs;
      for (std::size_t e = 0; e < episodes; ++e) {
        rngs.emplace_back(DeriveStreamSeed(99, 1, e));
      }
      const auto batched = policy->SampleEpisodesBatched(episodes, length,
                                                         &rngs);
      ASSERT_EQ(batched.size(), episodes);
      for (std::size_t e = 0; e < episodes; ++e) {
        ExpectTrajectoriesBitwiseEqual(
            reference[e], batched[e],
            "N=" + std::to_string(n) + " threads=" + std::to_string(threads) +
                " episode " + std::to_string(e));
      }
    }
  }
}

TEST(BatchedSamplerTest, MatchesPerEpisodeAcrossActionSpaces) {
  for (const ActionSpaceKind kind :
       {ActionSpaceKind::kPlain, ActionSpaceKind::kBPlain,
        ActionSpaceKind::kBcbtRandom, ActionSpaceKind::kCbtUnbiased}) {
    auto policy = MakeStandalonePolicy(10, kind);
    std::vector<std::vector<SampledTrajectory>> reference(2);
    for (std::size_t e = 0; e < 2; ++e) {
      Rng rng(DeriveStreamSeed(5, 2, e));
      reference[e] = policy->SampleEpisode(5, &rng);
    }
    std::vector<Rng> rngs;
    for (std::size_t e = 0; e < 2; ++e) {
      rngs.emplace_back(DeriveStreamSeed(5, 2, e));
    }
    const auto batched = policy->SampleEpisodesBatched(2, 5, &rngs);
    for (std::size_t e = 0; e < 2; ++e) {
      ExpectTrajectoriesBitwiseEqual(
          reference[e], batched[e],
          std::string(ActionSpaceKindName(kind)) + " episode " +
              std::to_string(e));
    }
  }
}

// -- TrainStep -------------------------------------------------------------

void ExpectStepStatsBitwiseEqual(const TrainStepStats& a,
                                 const TrainStepStats& b,
                                 const std::string& context) {
  EXPECT_EQ(a.step, b.step) << context;
  EXPECT_EQ(a.mean_reward, b.mean_reward) << context;
  EXPECT_EQ(a.max_reward, b.max_reward) << context;
  EXPECT_EQ(a.min_reward, b.min_reward) << context;
  EXPECT_EQ(a.best_reward_so_far, b.best_reward_so_far) << context;
  EXPECT_EQ(a.loss, b.loss) << context;
  EXPECT_EQ(a.entropy, b.entropy) << context;
  EXPECT_EQ(a.approx_kl, b.approx_kl) << context;
  EXPECT_EQ(a.pre_clip_grad_norm, b.pre_clip_grad_norm) << context;
  EXPECT_EQ(a.target_click_ratio, b.target_click_ratio) << context;
}

void ExpectParametersBitwiseEqual(const Policy& a, const Policy& b,
                                  const std::string& context) {
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size()) << context;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].data(), pb[i].data())
        << context << " parameter " << i;
  }
}

std::string CheckpointBytes(const PoisonRecAttacker& attacker,
                            const char* name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(attacker.SaveCheckpoint(path).ok()) << name;
  StatusOr<std::string> bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  EXPECT_TRUE(bytes.ok()) << name;
  return bytes.ok() ? *bytes : std::string();
}

/// Trains a fresh attacker for `steps` steps with `threads` sampling,
/// reward-query and kernel threads.
struct ThreadedRun {
  ThreadedRun(const PoisonRecConfig& base, std::size_t threads,
              std::size_t steps)
      : attacker(&fixture.environment, WithThreads(base, threads)) {
    nn::SetNumThreads(threads);
    stats = attacker.Train(steps);
  }

  static PoisonRecConfig WithThreads(PoisonRecConfig cfg,
                                     std::size_t threads) {
    cfg.num_threads = threads;
    cfg.parallel_sampling = true;
    cfg.parallel_rewards = threads > 1;
    return cfg;
  }

  Fixture fixture;
  PoisonRecAttacker attacker;
  std::vector<TrainStepStats> stats;
};

void ExpectRunsBitwiseEqual(const ThreadedRun& a, const ThreadedRun& b,
                            const std::string& context) {
  ASSERT_EQ(a.stats.size(), b.stats.size()) << context;
  for (std::size_t s = 0; s < a.stats.size(); ++s) {
    ExpectStepStatsBitwiseEqual(a.stats[s], b.stats[s],
                                context + " step " + std::to_string(s));
  }
  ExpectParametersBitwiseEqual(a.attacker.policy(), b.attacker.policy(),
                               context);
  // The checkpoint carries the Adam moments, RNG state and best episode.
  EXPECT_EQ(CheckpointBytes(a.attacker, "poisonrec_engine_a.ckpt"),
            CheckpointBytes(b.attacker, "poisonrec_engine_b.ckpt"))
      << context;
}

TEST(EngineTest, MatchesAcrossThreadCountsBitwise) {
  // B >= M and K > 1: the recorded-graph update path.
  ThreadGuard guard;
  const ThreadedRun one(Fixture::MakeAttackerConfig(), 1, 3);
  const ThreadedRun four(Fixture::MakeAttackerConfig(), 4, 3);
  ExpectRunsBitwiseEqual(one, four, "graph reuse, 1 vs 4 threads");
}

TEST(EngineTest, SubsampledBatchesMatchAcrossThreadCountsBitwise) {
  // batch_size < samples_per_step resamples the batch each epoch, so
  // every epoch builds a fresh tape; the batch draw consumes the shared
  // RNG, which must not depend on the thread count either.
  ThreadGuard guard;
  PoisonRecConfig cfg = Fixture::MakeAttackerConfig();
  cfg.samples_per_step = 6;
  cfg.batch_size = 4;
  const ThreadedRun one(cfg, 1, 2);
  const ThreadedRun four(cfg, 4, 2);
  ExpectRunsBitwiseEqual(one, four, "fresh tapes, 1 vs 4 threads");
}

TEST(EngineTest, CheckpointResumeMatchesUninterruptedBitwise) {
  // A run that never stopped vs one killed at step 2 and resumed from
  // its checkpoint: same RNG streams, same arithmetic, so the tails,
  // the final parameters and the final checkpoints must agree bitwise.
  Fixture f_full;
  Fixture f_killed;
  PoisonRecAttacker uninterrupted(&f_full.environment,
                                  Fixture::MakeAttackerConfig());
  const auto reference = uninterrupted.Train(4);

  const std::string path = TempPath("poisonrec_engine_resume.ckpt");
  {
    PoisonRecAttacker first(&f_killed.environment,
                            Fixture::MakeAttackerConfig());
    first.Train(2);
    ASSERT_TRUE(first.SaveCheckpoint(path).ok());
  }
  PoisonRecAttacker resumed(&f_killed.environment,
                            Fixture::MakeAttackerConfig());
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(resumed.steps_taken(), 2u);
  const auto tail = resumed.Train(2);
  ASSERT_EQ(tail.size(), 2u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    ExpectStepStatsBitwiseEqual(reference[2 + i], tail[i],
                                "resumed step " + std::to_string(i));
  }
  ExpectParametersBitwiseEqual(uninterrupted.policy(), resumed.policy(),
                               "resumed");
  EXPECT_EQ(CheckpointBytes(uninterrupted, "poisonrec_engine_full.ckpt"),
            CheckpointBytes(resumed, "poisonrec_engine_resumed.ckpt"));
}

TEST(EngineTest, ReplayedUpdateMatchesFreshTapeUpdateBitwise) {
  // TrainStep records the recompute on epoch 0 and replays it for epochs
  // 1..K-1. This reference redoes step 1's update from the same
  // episodes and rewards with a fresh tape every epoch, through the
  // same public pieces, and must land on the same parameters bitwise.
  const PoisonRecConfig cfg = Fixture::MakeAttackerConfig();
  ASSERT_GT(cfg.update_epochs, 1u);
  ASSERT_GE(cfg.batch_size, cfg.samples_per_step);
  Fixture f_step;
  Fixture f_ref;
  PoisonRecAttacker stepped(&f_step.environment, cfg);
  PoisonRecAttacker reference(&f_ref.environment, cfg);
  stepped.TrainStep();

  const env::AttackEnvironment& environment = f_ref.environment;
  std::vector<std::vector<SampledTrajectory>> episodes;
  std::vector<double> advantages;
  for (std::size_t m = 0; m < cfg.samples_per_step; ++m) {
    Rng rng(DeriveStreamSeed(cfg.seed, /*step=*/1, m));
    episodes.push_back(reference.policy().SampleEpisode(
        environment.trajectory_length(), &rng));
    advantages.push_back(
        environment.Evaluate(ToEnvTrajectories(episodes.back())));
  }
  NormalizeRewards(&advantages, std::vector<char>(advantages.size(), 1));
  ASSERT_NE(*std::max_element(advantages.begin(), advantages.end()), 0.0)
      << "equal rewards give zero advantages and no gradient to compare";
  std::vector<const SampledTrajectory*> trajs;
  std::vector<double> traj_advantage;
  for (std::size_t m = 0; m < episodes.size(); ++m) {
    for (const SampledTrajectory& t : episodes[m]) {
      trajs.push_back(&t);
      traj_advantage.push_back(advantages[m]);
    }
  }
  for (std::size_t epoch = 0; epoch < cfg.update_epochs; ++epoch) {
    std::vector<DecisionBatch> decisions =
        reference.policy().RecomputeLogProbs(trajs);
    const SurrogateResult surrogate =
        ClippedSurrogate(decisions[0], traj_advantage, cfg.clip_epsilon);
    reference.optimizer().ZeroGrad();
    decisions[0].new_log_probs.Backward(surrogate.seed);
    nn::ClipGradNorm(reference.optimizer().parameters(), cfg.max_grad_norm);
    reference.optimizer().Step();
  }
  ExpectParametersBitwiseEqual(stepped.policy(), reference.policy(),
                               "replayed vs fresh-tape update");
}

// -- Graph record/replay ----------------------------------------------------

TEST(GraphTapeTest, ReplayRecomputesWithFreshLeafData) {
  Rng rng(17);
  nn::Tensor w = nn::Tensor::Randn(4, 3, 0.5f, &rng, /*requires_grad=*/true);
  nn::Tensor x = nn::Tensor::Randn(5, 4, 0.5f, &rng);

  nn::GraphTape tape;
  nn::Tensor loss;
  {
    nn::GraphTape::RecordScope record(&tape);
    loss = nn::Sum(nn::Tanh(nn::MatMul(x, w)));
  }
  EXPECT_GT(tape.size(), 0u);

  // Mutate both leaves, replay, and compare against a fresh build.
  for (float& v : w.mutable_data()) v += 0.25f;
  for (float& v : x.mutable_data()) v -= 0.125f;
  tape.ReplayForward();
  nn::Tensor fresh = nn::Sum(nn::Tanh(nn::MatMul(x, w)));
  ASSERT_EQ(loss.item(), fresh.item());
}

TEST(GraphReuseTest, PolicyRecomputeReplayMatchesFreshTapeBitwise) {
  // The PPO update's identity oracle for graph reuse: record the policy
  // log-prob recompute, move the parameters with an Adam step, then
  // replay. The replayed log-probs must equal a fresh RecomputeLogProbs,
  // and Tensor::Backward from the replayed column must produce the
  // gradients it produces on a fresh tape — on a second replay after
  // ZeroGrads as well, so replays do not depend on first-run state.
  for (const ActionSpaceKind kind :
       {ActionSpaceKind::kPlain, ActionSpaceKind::kBPlain,
        ActionSpaceKind::kBcbtPopular, ActionSpaceKind::kBcbtRandom,
        ActionSpaceKind::kCbtUnbiased}) {
    const std::string context = ActionSpaceKindName(kind);
    auto policy = MakeStandalonePolicy(6, kind);
    std::vector<Rng> rngs;
    for (std::size_t e = 0; e < 2; ++e) {
      rngs.emplace_back(DeriveStreamSeed(13, 1, e));
    }
    const auto episodes = policy->SampleEpisodesBatched(2, 5, &rngs);
    std::vector<const SampledTrajectory*> trajs;
    for (const auto& episode : episodes) {
      for (const SampledTrajectory& t : episode) trajs.push_back(&t);
    }
    auto recompute = [&policy, &trajs]() {
      std::vector<DecisionBatch> batches = policy->RecomputeLogProbs(trajs);
      EXPECT_EQ(batches.size(), 1u);
      return batches[0].new_log_probs;
    };
    const std::vector<nn::Tensor> params = policy->Parameters();
    auto grads = [&params]() {
      std::vector<std::vector<float>> out;
      for (const nn::Tensor& p : params) out.push_back(p.grad());
      return out;
    };
    nn::Adam adam(params, /*lr=*/0.05f);

    nn::GraphTape tape;
    nn::Tensor recorded;
    {
      nn::GraphTape::RecordScope record(&tape);
      recorded = recompute();
    }
    // A row-weighted seed, so every decision's gradient differs.
    std::vector<float> seed(recorded.rows());
    for (std::size_t i = 0; i < seed.size(); ++i) {
      seed[i] = 0.5f + 0.25f * static_cast<float>(i % 3);
    }
    adam.ZeroGrad();
    recorded.Backward(seed);
    const auto first_grads = grads();
    const std::vector<float> first_log_probs = recorded.data();
    adam.ZeroGrad();
    recompute().Backward(seed);
    ASSERT_EQ(grads(), first_grads) << context;
    adam.Step();

    tape.ReplayForward();
    nn::Tensor fresh = recompute();
    ASSERT_EQ(recorded.data(), fresh.data()) << context;
    EXPECT_NE(recorded.data(), first_log_probs)
        << context << ": the Adam step must move the replayed log-probs";

    adam.ZeroGrad();
    fresh.Backward(seed);
    const auto fresh_grads = grads();
    EXPECT_NE(fresh_grads, first_grads) << context;
    for (int replay = 0; replay < 2; ++replay) {
      if (replay > 0) tape.ReplayForward();
      adam.ZeroGrad();
      tape.ZeroGrads();
      recorded.Backward(seed);
      EXPECT_EQ(grads(), fresh_grads) << context << ", replay " << replay;
    }
  }
}

// -- Fused LSTM gates -------------------------------------------------------

TEST(LstmGatesTest, MatchesComposedGateFormulas) {
  // The fused kernel contracts multiply-adds the composed chain spelled
  // out, so compare with a tolerance (FMA may differ in the last ulp);
  // engine-level identity is covered by the bitwise tests above, where
  // both sides run the same fused path.
  Rng rng(11);
  const std::size_t b = 5, h = 4;
  nn::Tensor preact = nn::Tensor::Randn(b, 4 * h, 1.0f, &rng);
  nn::Tensor c_prev = nn::Tensor::Randn(b, h, 1.0f, &rng);
  const nn::LstmGatesResult out = nn::LstmGates(preact, c_prev);
  auto sigmoid = [](float x) {
    return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                     : std::exp(x) / (1.0f + std::exp(x));
  };
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < h; ++j) {
      const float i = sigmoid(preact.at(r, j));
      const float f = sigmoid(preact.at(r, h + j));
      const float g = std::tanh(preact.at(r, 2 * h + j));
      const float o = sigmoid(preact.at(r, 3 * h + j));
      const float c = f * c_prev.at(r, j) + i * g;
      EXPECT_NEAR(out.c.at(r, j), c, 1e-6f);
      EXPECT_NEAR(out.h.at(r, j), o * std::tanh(c), 1e-6f);
    }
  }
}

TEST(LstmGatesTest, GradientsMatchNumerical) {
  Rng rng(13);
  const std::size_t b = 3, h = 3;
  nn::Tensor preact =
      nn::Tensor::Randn(b, 4 * h, 0.8f, &rng, /*requires_grad=*/true);
  nn::Tensor c_prev =
      nn::Tensor::Randn(b, h, 0.8f, &rng, /*requires_grad=*/true);

  auto loss_of = [&](const nn::Tensor& pa, const nn::Tensor& cp) {
    const nn::LstmGatesResult out = nn::LstmGates(pa, cp);
    return nn::Sum(nn::Add(out.h, out.c));
  };
  nn::Tensor loss = loss_of(preact, c_prev);
  loss.Backward();

  const std::vector<float> num_pre = nn::NumericalGradient(
      [&](const nn::Tensor& t) { return loss_of(t, c_prev).item(); }, preact);
  for (std::size_t i = 0; i < num_pre.size(); ++i) {
    EXPECT_NEAR(preact.grad()[i], num_pre[i], 2e-2f) << "preact grad " << i;
  }
  const std::vector<float> num_c = nn::NumericalGradient(
      [&](const nn::Tensor& t) { return loss_of(preact, t).item(); }, c_prev);
  for (std::size_t i = 0; i < num_c.size(); ++i) {
    EXPECT_NEAR(c_prev.grad()[i], num_c[i], 2e-2f) << "c_prev grad " << i;
  }
}

// -- Threaded SparseMatMul --------------------------------------------------

TEST(SparseMatMulTest, ForwardAndBackwardBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(23);
  const std::size_t m = 64, k = 48, n = 16;
  std::vector<nn::CsrMatrix::Triplet> triplets;
  for (std::size_t i = 0; i < 600; ++i) {
    triplets.push_back({rng.Index(m), rng.Index(k),
                        static_cast<float>(rng.Uniform(-1.0, 1.0))});
  }
  const nn::CsrMatrix a(m, k, triplets);

  std::vector<float> out_1t, grad_1t;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    nn::SetNumThreads(threads);
    Rng xr(29);
    nn::Tensor x = nn::Tensor::Randn(k, n, 1.0f, &xr, /*requires_grad=*/true);
    nn::Tensor y = nn::SparseMatMul(a, x);
    nn::Tensor loss = nn::Sum(nn::Mul(y, y));
    loss.Backward();
    if (threads == 1) {
      out_1t = y.data();
      grad_1t = x.grad();
    } else {
      ASSERT_EQ(y.data(), out_1t);
      ASSERT_EQ(x.grad(), grad_1t);
    }
  }
}

}  // namespace
}  // namespace poisonrec::core
