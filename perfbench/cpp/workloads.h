// The three benchmark workloads. Each runs closed-loop for the time
// budget in Args and returns its raw measurements as one JSON object;
// perfbench/run.py turns them into the reported metrics.
//
//   paper_neural   — NeuMF then GRU4Rec campaign at the paper's attack
//                    shape; the reward query dominates (rec, env).
//   attacker_scale — ItemPop campaign with N=2000 fake users; the PPO
//                    update dominates (core, nn).
//   fleet_sweep    — a 16-campaign shared-mode fleet over a fresh state
//                    directory; durable writes on every step (orch).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/poisonrec.h"
#include "harness.h"

namespace perfbench {

/// Work a run attempted and lost, for the result line.
struct OpCounts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

std::string RunStepWorkload(const Args& args, Checks* checks,
                            Signature* signature, OpCounts* ops);
std::string RunFleetWorkload(const Args& args, Checks* checks,
                             Signature* signature, OpCounts* ops);

// -- Campaign building blocks (shared by all three workloads) -----------

struct CampaignInputs {
  std::string ranker;
  poisonrec::data::SyntheticConfig data;
  poisonrec::rec::FitConfig fit;
  poisonrec::env::EnvironmentConfig env;
  poisonrec::core::PoisonRecConfig attacker;
};

/// A built campaign: environment with its pretrained ranker, attacker,
/// and the set-up times it took to get there.
struct Campaign {
  CampaignInputs inputs;
  std::unique_ptr<poisonrec::env::AttackEnvironment> env;
  std::unique_ptr<poisonrec::core::PoisonRecAttacker> attacker;
  double generate_s = 0.0;
  double fit_s = 0.0;
  double construct_s = 0.0;
  double warmup_s = 0.0;
  /// Every step taken, warm-up first, as a JSON object each.
  std::vector<std::string> step_json;
  /// Steps (warm-up included) the signature covers; a fixed prefix, so
  /// it does not depend on how many steps fit in the time budget.
  std::size_t signature_steps = 0;
  /// Per-step signature prefix and the best RecNum at its end.
  Signature signature;
  double recnum_best = 0.0;
};

/// Generates the dataset, pretrains the ranker (environment
/// construction), builds the attacker and takes the warm-up step.
std::unique_ptr<Campaign> SetUpCampaign(const CampaignInputs& inputs,
                                        std::size_t signature_steps,
                                        Checks* checks, OpCounts* ops);

/// One TrainStep under a bench/core.train_step span; checks its rewards
/// and loss and, while the step is within the signature prefix, folds
/// it into the campaign signature.
poisonrec::core::TrainStepStats TakeStep(Campaign* campaign, Checks* checks,
                                         OpCounts* ops);

/// Layer attribution of one campaign (traced pass): replays the next
/// step's episodes through Clone/Update/RecNum and Evaluate, takes that
/// step and checks it against the replay, then probes the update
/// (recompute/backward/Adam, 1 vs `threads` kernel threads) and the
/// checkpoint and status paths under `state_dir`. Ends the campaign:
/// the probes move the policy. Returns a JSON object.
std::string AttributeCampaign(Campaign* campaign, std::size_t threads,
                              const std::string& state_dir, Checks* checks,
                              OpCounts* ops);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
