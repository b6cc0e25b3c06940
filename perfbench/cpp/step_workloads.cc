// paper_neural and attacker_scale, plus the campaign building blocks the
// fleet workload reuses for its attribution campaigns.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "nn/kernels.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "orch/status.h"
#include "util/logging.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace core = poisonrec::core;
namespace data = poisonrec::data;
namespace env = poisonrec::env;
namespace nn = poisonrec::nn;
namespace obs = poisonrec::obs;
namespace orch = poisonrec::orch;
namespace rec = poisonrec::rec;

namespace {

/// Largest possible RecNum: every eval user sees every target.
double MaxRecNum(const env::AttackEnvironment& environment) {
  return static_cast<double>(environment.config().max_eval_users *
                             environment.target_items().size());
}

std::string StepJson(const core::TrainStepStats& s, bool traced) {
  obs::JsonObjectBuilder b;
  b.Int("step", s.step)
      .Num("seconds", s.seconds)
      .Num("sample_s", s.sample_seconds)
      .Num("query_s", s.query_seconds)
      .Num("update_s", s.update_seconds)
      .Num("other_s", s.other_seconds)
      .Num("reward_min", s.min_reward)
      .Num("reward_mean", s.mean_reward)
      .Num("reward_max", s.max_reward)
      .Num("loss", s.loss)
      .Int("failed_queries", s.failed_queries)
      .Bool("traced", traced);
  return std::move(b).Finish();
}

void CheckStep(const core::TrainStepStats& s, double max_reward,
               const std::string& where, Checks* checks) {
  const std::string at = where + " step " + std::to_string(s.step);
  checks->Expect(std::isfinite(s.min_reward) && std::isfinite(s.max_reward) &&
                     std::isfinite(s.mean_reward),
                 at + ": non-finite reward");
  checks->Expect(s.min_reward >= 0.0 && s.max_reward <= max_reward,
                 at + ": reward outside [0, eval_users x |I_t|]");
  checks->Expect(std::isfinite(s.loss), at + ": non-finite loss");
  checks->Expect(s.failed_queries == 0, at + ": failed reward queries");
  checks->Expect(!s.guard.tripped(), at + ": guard tripped");
}

/// The M episodes the attacker's next TrainStep will sample: episode m
/// of step s draws from Rng(DeriveStreamSeed(seed, s, m)) and sampling
/// is read-only, so this neither perturbs nor diverges from the step.
std::vector<std::vector<core::SampledTrajectory>> SampleNextStep(
    const Campaign& c) {
  const core::PoisonRecConfig& config = c.attacker->config();
  const std::uint64_t step = c.attacker->steps_taken() + 1;
  std::vector<poisonrec::Rng> rngs;
  for (std::size_t m = 0; m < config.samples_per_step; ++m) {
    rngs.emplace_back(poisonrec::DeriveStreamSeed(config.seed, step, m));
  }
  return c.attacker->policy().SampleEpisodesBatched(
      config.samples_per_step, c.env->trajectory_length(), &rngs);
}

/// The poison log AttackEnvironment::Evaluate builds for `trajectories`.
data::Dataset PoisonLog(const env::AttackEnvironment& environment,
                        const std::vector<env::Trajectory>& trajectories) {
  const data::Dataset& clean = environment.dataset();
  data::Dataset poison(clean.num_users(), clean.num_items());
  for (const env::Trajectory& t : trajectories) {
    const data::UserId user = environment.AttackerUserId(t.attacker_index);
    for (data::ItemId item : t.items) poison.Add(user, item);
  }
  return poison;
}

bool SameStep(const core::TrainStepStats& a, const core::TrainStepStats& b) {
  return a.min_reward == b.min_reward && a.mean_reward == b.mean_reward &&
         a.max_reward == b.max_reward && a.loss == b.loss;
}

struct StepShape {
  std::string ranker;
  double scale = 0.1;
  std::size_t attackers = 20;
  std::size_t length = 20;
  std::size_t targets = 8;
  std::size_t samples = 8;
  std::size_t epochs = 3;
  std::size_t dim = 16;
  std::size_t eval_users = 200;
};

CampaignInputs MakeInputs(const StepShape& shape, std::uint64_t seed,
                          std::size_t threads) {
  CampaignInputs in;
  in.ranker = shape.ranker;
  in.data = data::PresetConfig(data::DatasetPreset::kSteam, shape.scale, seed);
  in.fit.embedding_dim = shape.dim;
  in.fit.epochs = 4;
  in.fit.update_epochs = 3;
  in.fit.seed = seed ^ 0x51u;
  in.env.num_attackers = shape.attackers;
  in.env.trajectory_length = shape.length;
  in.env.num_target_items = shape.targets;
  in.env.max_eval_users = shape.eval_users;
  in.env.seed = seed ^ 0x77u;
  core::PoisonRecConfig& pr = in.attacker;
  pr.samples_per_step = shape.samples;
  pr.batch_size = shape.samples;  // paper: M = B
  pr.update_epochs = shape.epochs;
  pr.learning_rate = 2e-3f;
  pr.clip_epsilon = 0.1f;
  pr.policy.embedding_dim = shape.dim;
  pr.policy.action_space = core::ActionSpaceKind::kBcbtPopular;
  pr.policy.seed = seed ^ 0x9e37u;
  pr.seed = seed;
  pr.num_threads = threads;
  pr.parallel_sampling = true;
  pr.parallel_rewards = threads > 1;
  return in;
}

std::string ShapeJson(const StepShape& s) {
  obs::JsonObjectBuilder b;
  b.Str("ranker", s.ranker)
      .Str("dataset", "Steam")
      .Num("scale", s.scale)
      .Int("attackers", s.attackers)
      .Int("trajectory_length", s.length)
      .Int("targets", s.targets)
      .Int("samples_per_step", s.samples)
      .Int("batch_size", s.samples)
      .Int("update_epochs", s.epochs)
      .Int("embedding_dim", s.dim)
      .Int("eval_users", s.eval_users)
      .Str("action_space", "BCBT-Popular");
  return std::move(b).Finish();
}

}  // namespace

std::unique_ptr<Campaign> SetUpCampaign(const CampaignInputs& inputs,
                                        std::size_t signature_steps,
                                        Checks* checks, OpCounts* ops) {
  auto c = std::make_unique<Campaign>();
  c->inputs = inputs;
  c->signature_steps = signature_steps;
  LayerSpan generate_span("bench/data.generate", inputs.ranker, 0);
  const data::Dataset log = data::GenerateSynthetic(inputs.data);
  c->generate_s = generate_span.Stop();
  {
    // Environment construction is the ranker's pretraining (Fit) plus
    // copying the log into the expanded id space.
    LayerSpan span("bench/rec.fit", inputs.ranker, 0);
    auto ranker = rec::MakeRecommender(inputs.ranker, inputs.fit);
    POISONREC_CHECK(ranker.ok()) << ranker.status();
    c->env = std::make_unique<env::AttackEnvironment>(
        log, std::move(ranker).value(), inputs.env);
    c->fit_s = span.Stop();
  }
  {
    LayerSpan span("bench/core.construct", inputs.ranker, 0);
    c->attacker = std::make_unique<core::PoisonRecAttacker>(c->env.get(),
                                                            inputs.attacker);
    c->construct_s = span.Stop();
  }
  const core::TrainStepStats warm = TakeStep(c.get(), checks, ops);
  c->warmup_s = warm.seconds;
  return c;
}

core::TrainStepStats TakeStep(Campaign* c, Checks* checks, OpCounts* ops) {
  const std::uint64_t step = c->attacker->steps_taken() + 1;
  core::TrainStepStats stats;
  {
    LayerSpan span("bench/core.train_step", c->inputs.ranker, step);
    stats = c->attacker->TrainStep();
  }
  CheckStep(stats, MaxRecNum(*c->env), c->inputs.ranker, checks);
  ops->attempted += c->attacker->config().samples_per_step;
  ops->failed += stats.failed_queries;
  c->step_json.push_back(StepJson(stats, obs::TracingEnabled()));
  if (stats.step <= c->signature_steps) {
    c->signature.AddU64(stats.step);
    c->signature.AddDouble(stats.min_reward);
    c->signature.AddDouble(stats.mean_reward);
    c->signature.AddDouble(stats.max_reward);
    c->signature.AddDouble(stats.loss);
    c->recnum_best = stats.best_reward_so_far;
    if (stats.step == c->signature_steps) {
      // Post-update parameters and Adam moments pin every reward and
      // gradient of the prefix, not just the per-step summaries.
      for (const nn::Tensor& p : c->attacker->policy().Parameters()) {
        c->signature.AddFloats(p.data());
      }
      for (const auto& m : c->attacker->optimizer().first_moments()) {
        c->signature.AddFloats(m);
      }
      for (const auto& v : c->attacker->optimizer().second_moments()) {
        c->signature.AddFloats(v);
      }
    }
  }
  return stats;
}

std::string AttributeCampaign(Campaign* c, std::size_t threads,
                              const std::string& state_dir, Checks* checks,
                              OpCounts* ops) {
  const std::string& who = c->inputs.ranker;
  const std::uint64_t step = c->attacker->steps_taken() + 1;
  const env::AttackEnvironment& environment = *c->env;

  // -- Query replay: clone / fine-tune / score, then Evaluate whole. ----
  const auto episodes = SampleNextStep(*c);
  std::vector<double> clone_s, update_s, recnum_s, evaluate_s, rewards;
  for (const auto& episode : episodes) {
    const std::vector<env::Trajectory> trajs =
        core::ToEnvTrajectories(episode);
    std::unique_ptr<rec::Recommender> poisoned;
    {
      LayerSpan span("bench/rec.clone", who, step);
      poisoned = environment.pretrained_ranker().Clone();
      clone_s.push_back(span.Stop());
    }
    {
      const data::Dataset poison = PoisonLog(environment, trajs);
      LayerSpan span("bench/rec.update", who, step);
      if (poison.num_interactions() > 0) poisoned->Update(poison);
      update_s.push_back(span.Stop());
    }
    double reward = 0.0;
    {
      LayerSpan span("bench/env.recnum", who, step);
      reward = environment.RecNum(*poisoned);
      recnum_s.push_back(span.Stop());
    }
    rewards.push_back(reward);
    double evaluated = 0.0;
    {
      LayerSpan span("bench/env.evaluate", who, step);
      evaluated = environment.Evaluate(trajs);
      evaluate_s.push_back(span.Stop());
    }
    checks->Expect(evaluated == reward,
                   who + ": replayed RecNum differs from Evaluate");
  }

  // -- The step itself must see exactly the replayed rewards. -----------
  const std::uint64_t gemm_calls0 = GemmCalls();
  const std::uint64_t gemm_flops0 =
      CounterValue("poisonrec_gemm_flops_total");
  const core::TrainStepStats stats = TakeStep(c, checks, ops);
  const double gemm_calls = static_cast<double>(GemmCalls() - gemm_calls0);
  const double gemm_flops = static_cast<double>(
      CounterValue("poisonrec_gemm_flops_total") - gemm_flops0);
  double sum = 0.0;
  for (double r : rewards) sum += r;
  checks->Expect(
      stats.min_reward == *std::min_element(rewards.begin(), rewards.end()) &&
          stats.max_reward ==
              *std::max_element(rewards.begin(), rewards.end()) &&
          std::fabs(stats.mean_reward * rewards.size() - sum) <=
              1e-9 * std::max(1.0, sum),
      who + ": step rewards differ from the replayed episodes");
  Signature replay_signature;
  for (double r : rewards) replay_signature.AddDouble(r);

  // -- Checkpoint and status paths. -------------------------------------
  std::filesystem::create_directories(state_dir);
  const std::string ckpt = state_dir + "/" + who + ".ckpt";
  std::vector<double> save_s;
  for (int i = 0; i < 3; ++i) {
    LayerSpan span("bench/core.checkpoint_save", who, step);
    const poisonrec::Status saved = c->attacker->SaveCheckpoint(ckpt);
    save_s.push_back(span.Stop());
    checks->Expect(saved.ok(), who + ": checkpoint save failed");
  }
  const double ckpt_bytes =
      static_cast<double>(std::filesystem::file_size(ckpt));
  std::vector<double> status_s;
  for (int i = 0; i < 3; ++i) {
    orch::FleetStatusOptions options;
    options.journal_path = state_dir + "/journal.jsonl";
    options.checkpoint_dir = state_dir;
    LayerSpan span("bench/orch.status_query", who, step);
    orch::CollectFleetStatus(options);
    status_s.push_back(span.Stop());
  }

  // -- Update thread scaling: the same step at `threads` and at 1. ------
  const core::TrainStepStats wide = TakeStep(c, checks, ops);
  const poisonrec::Status loaded = c->attacker->LoadCheckpoint(ckpt);
  checks->Expect(loaded.ok(), who + ": checkpoint load failed");
  nn::SetNumThreads(1);
  const core::TrainStepStats narrow = TakeStep(c, checks, ops);
  nn::SetNumThreads(threads);
  checks->Expect(SameStep(wide, narrow),
                 who + ": step differs between 1 and " +
                     std::to_string(threads) + " kernel threads");

  // -- Update phases on one step's episodes: recompute, backward, Adam. --
  const auto next = SampleNextStep(*c);
  std::vector<const core::SampledTrajectory*> trajs;
  for (const auto& episode : next) {
    for (const auto& t : episode) trajs.push_back(&t);
  }
  double recompute = 0.0, backward = 0.0, optim = 0.0;
  {
    c->attacker->optimizer().ZeroGrad();
    std::vector<core::DecisionBatch> batches;
    {
      LayerSpan span("bench/core.recompute", who, step);
      batches = c->attacker->policy().RecomputeLogProbs(trajs);
      recompute = span.Stop();
    }
    nn::Tensor total;
    for (const core::DecisionBatch& batch : batches) {
      const nn::Tensor s = nn::Sum(batch.new_log_probs);
      total = total.defined() ? nn::Add(total, s) : s;
    }
    checks->Expect(std::isfinite(total.data()[0]),
                   who + ": non-finite recomputed log-prob sum");
    {
      LayerSpan span("bench/nn.backward", who, step);
      total.Backward();
      backward = span.Stop();
    }
    {
      LayerSpan span("bench/nn.optim", who, step);
      c->attacker->optimizer().Step();
      optim = span.Stop();
    }
  }

  obs::JsonObjectBuilder b;
  b.Str("ranker", who)
      .Num("generate_s", c->generate_s)
      .Num("fit_s", c->fit_s)
      .Raw("clone_s", JsonNumbers(clone_s))
      .Raw("update_s", JsonNumbers(update_s))
      .Raw("recnum_s", JsonNumbers(recnum_s))
      .Raw("evaluate_s", JsonNumbers(evaluate_s))
      .Raw("rewards", JsonNumbers(rewards))
      .Str("replay_signature", replay_signature.Hex())
      .Num("gemm_calls", gemm_calls)
      .Num("gemm_flops", gemm_flops)
      .Num("update_nt_s", wide.update_seconds)
      .Num("update_1t_s", narrow.update_seconds)
      .Num("recompute_s", recompute)
      .Num("backward_s", backward)
      .Num("optim_s", optim)
      .Raw("checkpoint_save_s", JsonNumbers(save_s))
      .Num("checkpoint_bytes", ckpt_bytes)
      .Raw("status_query_s", JsonNumbers(status_s));
  return std::move(b).Finish();
}

std::string RunStepWorkload(const Args& args, Checks* checks,
                            Signature* signature, OpCounts* ops) {
  std::vector<StepShape> shapes;
  if (args.workload == "paper_neural") {
    for (const char* ranker : {"NeuMF", "GRU4Rec"}) {
      StepShape s;
      s.ranker = ranker;
      shapes.push_back(s);
    }
  } else {
    StepShape s;
    s.ranker = "ItemPop";
    s.attackers = 2000;
    shapes.push_back(s);
  }
  if (args.smoke) {
    for (StepShape& s : shapes) {
      s.scale = 0.03;
      s.attackers = std::min<std::size_t>(s.attackers, 100);
      s.length = 5;
      s.samples = 4;
      s.eval_users = 50;
    }
  }
  // Steps after the warm-up that every run takes, traced or not: the
  // signature and recnum_best cover exactly these, so they do not
  // depend on how many steps fit in the time budget.
  const std::size_t min_steps = 2;
  const std::size_t signature_steps = 1 + min_steps;
  const double budget = args.seconds / static_cast<double>(shapes.size());

  std::vector<std::string> campaigns;
  for (const StepShape& shape : shapes) {
    obs::SetTracingEnabled(args.trace);
    std::unique_ptr<Campaign> c =
        SetUpCampaign(MakeInputs(shape, args.seed, args.threads),
                      signature_steps, checks, ops);

    // Closed loop: each step waits for its own M queries. In the traced
    // pass, odd steps run traced and even ones untraced, so the pair
    // gives the tracing overhead on the same campaign.
    const double loop_start = NowSeconds();
    std::size_t measured = 0;
    while (measured < min_steps || NowSeconds() - loop_start < budget) {
      obs::SetTracingEnabled(args.trace && measured % 2 == 1);
      TakeStep(c.get(), checks, ops);
      ++measured;
    }
    const double loop_wall = NowSeconds() - loop_start;

    std::string attribution = "null";
    if (args.trace) {
      obs::SetTracingEnabled(true);
      attribution = AttributeCampaign(c.get(), args.threads,
                                      args.out_dir + "/state", checks, ops);
    }
    signature->AddU64(c->signature.value());

    obs::JsonObjectBuilder b;
    b.Str("ranker", shape.ranker)
        .Raw("params", ShapeJson(shape))
        .Num("generate_s", c->generate_s)
        .Num("fit_s", c->fit_s)
        .Num("construct_s", c->construct_s)
        .Num("warmup_s", c->warmup_s)
        .Int("measured_steps", measured)
        .Int("episodes", measured * shape.samples)
        .Num("loop_wall_s", loop_wall)
        .Raw("steps", JsonArray(c->step_json))
        .Int("signature_steps", signature_steps)
        .Num("recnum_best", c->recnum_best)
        .Str("signature", c->signature.Hex())
        .Raw("attribution", attribution);
    campaigns.push_back(std::move(b).Finish());
  }
  obs::SetTracingEnabled(false);

  obs::JsonObjectBuilder out;
  out.Raw("campaigns", JsonArray(campaigns));
  return std::move(out).Finish();
}

}  // namespace perfbench
