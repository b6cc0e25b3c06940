// fleet_sweep: an in-process shared-mode FleetOrchestrator, one worker
// with max_concurrent campaigns, over a fresh state directory per sweep.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>

#include "obs/json.h"
#include "obs/trace.h"
#include "orch/fleet.h"
#include "orch/status.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {

namespace data = poisonrec::data;
namespace obs = poisonrec::obs;
namespace orch = poisonrec::orch;

namespace {

namespace fs = std::filesystem;

constexpr const char* kCounters[] = {
    "poisonrec_fleet_lease_acquired_total",
    "poisonrec_fleet_lease_renewals_total",
    "poisonrec_fleet_lease_fenced_total",
    "poisonrec_fleet_status_snapshots_total",
    "poisonrec_fleet_steps_committed_total",
    "poisonrec_defense_sweeps_total",
    "poisonrec_defense_bans_total",
    "poisonrec_ppo_failed_queries_total",
};

std::map<std::string, std::uint64_t> ReadCounters() {
  std::map<std::string, std::uint64_t> values;
  for (const char* name : kCounters) values[name] = CounterValue(name);
  return values;
}

/// Lines across the worker's journal family (`journal*.jsonl`).
std::size_t JournalRecords(const std::string& state_dir) {
  std::size_t lines = 0;
  for (const auto& entry : fs::directory_iterator(state_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal", 0) != 0 || entry.path().extension() != ".jsonl") {
      continue;
    }
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) lines += line.empty() ? 0 : 1;
  }
  return lines;
}

std::string PlanJson(const Args& args) {
  // CampaignSpec default sizes (N=6, T=5, M=4, |e|=8, 64 eval users)
  // crossed over ranker x defense x budget: 16 campaigns.
  const char* budgets = args.smoke ? "[2, 3]" : "[20, 40]";
  return std::string(R"({"name": "perfbench_fleet", "dataset": "Steam",)") +
         R"( "scale": )" + (args.smoke ? "0.03" : "0.05") +
         R"(, "dataset_seed": )" + std::to_string(args.seed) +
         R"(, "defaults": {"seed": )" + std::to_string(args.seed) +
         R"(}, "sweep": {"rankers": ["ItemPop", "CoVisitation", "PMF", "BPR"],)"
         R"( "defenses": [false, true], "budgets": )" +
         budgets + "}}";
}

/// Attribution campaigns: one undefended campaign per ranker of the
/// plan, built exactly as the supervisor builds it, so the per-layer
/// query and update numbers cover the same rankers the fleet runs.
std::string AttributeFleetRankers(const orch::FleetPlan& plan,
                                  data::DatasetPreset preset,
                                  const Args& args, Checks* checks) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const orch::CampaignSpec& spec : plan.campaigns) {
    if (spec.defense || !seen.insert(spec.ranker).second) continue;
    CampaignInputs in;
    in.ranker = spec.ranker;
    in.data = data::PresetConfig(preset, plan.scale, plan.dataset_seed);
    in.fit.embedding_dim = spec.embedding_dim;
    in.fit.seed = spec.seed ^ 0x5u;
    in.env = orch::MakeEnvironmentConfig(spec);
    in.attacker = orch::MakeAttackerConfig(spec);
    OpCounts ignored;  // benchmark-side work, not fleet operations
    std::unique_ptr<Campaign> c =
        SetUpCampaign(in, /*signature_steps=*/0, checks, &ignored);
    out.push_back(AttributeCampaign(c.get(), args.threads,
                                    args.out_dir + "/state/" + spec.ranker,
                                    checks, &ignored));
  }
  return JsonArray(out);
}

}  // namespace

std::string RunFleetWorkload(const Args& args, Checks* checks,
                             Signature* signature, OpCounts* ops) {
  auto parsed = orch::ParseFleetPlanText(PlanJson(args));
  POISONREC_CHECK(parsed.ok()) << parsed.status();
  const orch::FleetPlan plan = std::move(parsed).value();
  auto preset = data::ParseDatasetPreset(plan.dataset);
  POISONREC_CHECK(preset.ok()) << preset.status();
  const std::size_t samples = plan.campaigns.front().samples_per_step;

  // Sweep 0 is the warm-up and counts toward set-up; every later sweep
  // is measured. In the traced pass odd sweeps run traced and even ones
  // untraced, so the pair gives the tracing overhead.
  const std::size_t min_sweeps = 2;
  std::vector<std::string> sweeps;
  std::uint32_t first_signature = 0;
  double warmup_end = 0.0;
  for (std::size_t rep = 0;
       rep <= min_sweeps || NowSeconds() - warmup_end < args.seconds; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    obs::SetTracingEnabled(traced);
    const std::string state =
        args.out_dir + "/fleet/sweep" + std::to_string(rep);
    ResetDirectory(state);

    const double setup_start = NowSeconds();
    LayerSpan generate_span("bench/data.generate", "sweep", rep);
    const data::Dataset log = data::GenerateSynthetic(
        data::PresetConfig(*preset, plan.scale, plan.dataset_seed));
    const double generate_s = generate_span.Stop();
    orch::FleetOptions options;
    options.journal_path = state + "/journal.jsonl";
    options.checkpoint_dir = state + "/checkpoints";
    options.report_json_path = state + "/report.json";
    options.report_csv_path = state + "/report.csv";
    options.shared = true;
    options.worker_id = "perfbench";
    options.max_concurrent = args.threads;
    options.publish_status = true;
    std::optional<orch::FleetOrchestrator> fleet;
    {
      LayerSpan span("bench/orch.construct", "sweep", rep);
      fleet.emplace(plan, &log, options);
    }
    const double setup_s = NowSeconds() - setup_start;

    const auto before = ReadCounters();
    orch::FleetResult result;
    double run_s = 0.0;
    {
      LayerSpan span("bench/orch.run", "sweep", rep);
      result = fleet->Run();
      run_s = span.Stop();
    }
    const auto after = ReadCounters();
    fleet.reset();

    std::vector<double> status_s;
    for (int i = 0; i < 3; ++i) {
      orch::FleetStatusOptions status_options;
      status_options.journal_path = options.journal_path;
      status_options.checkpoint_dir = options.checkpoint_dir;
      LayerSpan span("bench/orch.status_query", "sweep", rep);
      const orch::FleetStatus status = orch::CollectFleetStatus(status_options);
      status_s.push_back(span.Stop());
      checks->Expect(status.campaigns_by_state.count("done") == 1 &&
                         status.campaigns_by_state.at("done") ==
                             plan.campaigns.size(),
                     "fleet sweep " + std::to_string(rep) +
                         ": status query does not show every campaign done");
    }

    // Correctness: exit 0, every campaign done, and every sweep of the
    // run reproduces the warm-up sweep bit for bit.
    checks->Expect(result.ExitCode() == 0,
                   "fleet sweep " + std::to_string(rep) + ": exit code " +
                       std::to_string(result.ExitCode()));
    std::vector<const orch::CampaignOutcome*> outcomes;
    for (const auto& o : result.outcomes) outcomes.push_back(&o);
    std::sort(outcomes.begin(), outcomes.end(),
              [](const auto* a, const auto* b) { return a->id < b->id; });
    Signature sweep_signature;
    std::size_t steps = 0, not_done = 0;
    double recnum_best = 0.0;
    std::vector<double> step_latency;
    for (const orch::CampaignOutcome* o : outcomes) {
      const bool done = o->state == orch::CampaignState::kDone;
      not_done += done ? 0 : 1;
      checks->Expect(done, "fleet sweep " + std::to_string(rep) + ": " +
                               o->id + " ended " +
                               orch::CampaignStateName(o->state));
      steps += o->steps_completed;
      recnum_best += o->best_reward;
      if (o->steps_completed > 0) {
        step_latency.push_back(o->wall_seconds /
                               static_cast<double>(o->steps_completed));
      }
      sweep_signature.Add(o->id.data(), o->id.size());
      sweep_signature.AddU64(o->steps_completed);
      sweep_signature.AddDouble(o->best_reward);
      for (const auto& [step, reward] : o->step_rewards) {
        checks->Expect(std::isfinite(reward) && reward >= 0.0,
                       o->id + ": committed reward out of range");
        sweep_signature.AddU64(step);
        sweep_signature.AddDouble(reward);
      }
    }
    checks->Expect(outcomes.size() == plan.campaigns.size(),
                   "fleet sweep " + std::to_string(rep) + ": " +
                       std::to_string(outcomes.size()) + " outcomes for " +
                       std::to_string(plan.campaigns.size()) + " campaigns");
    if (rep == 0) {
      first_signature = sweep_signature.value();
      signature->AddU64(first_signature);
    } else {
      checks->Expect(sweep_signature.value() == first_signature,
                     "fleet sweep " + std::to_string(rep) +
                         ": outcome signature differs from sweep 0");
    }
    const std::uint64_t failed_queries =
        after.at("poisonrec_ppo_failed_queries_total") -
        before.at("poisonrec_ppo_failed_queries_total");
    ops->attempted += steps * samples + plan.campaigns.size();
    ops->failed += failed_queries + not_done;

    const std::vector<double> ckpt_bytes =
        FileSizes(options.checkpoint_dir, ".ckpt");
    obs::JsonObjectBuilder b;
    b.Int("sweep", rep)
        .Bool("traced", traced)
        .Num("setup_s", setup_s)
        .Num("generate_s", generate_s)
        .Num("run_s", run_s)
        .Int("exit_code", static_cast<std::uint64_t>(result.ExitCode()))
        .Int("campaigns", outcomes.size())
        .Int("campaigns_not_done", not_done)
        .Int("steps", steps)
        .Int("episodes", steps * samples)
        .Num("recnum_best", recnum_best)
        .Str("signature", sweep_signature.Hex())
        .Raw("step_latency_s", JsonNumbers(step_latency))
        .Raw("status_query_s", JsonNumbers(status_s))
        .Int("journal_records", JournalRecords(state))
        .Raw("checkpoint_bytes", JsonNumbers(ckpt_bytes));
    for (const char* name : kCounters) {
      b.Int(name, after.at(name) - before.at(name));
    }
    sweeps.push_back(std::move(b).Finish());
    fs::remove_all(state);
    if (rep == 0) warmup_end = NowSeconds();
  }

  std::string attribution = "null";
  if (args.trace) {
    obs::SetTracingEnabled(true);
    attribution = AttributeFleetRankers(plan, *preset, args, checks);
  }
  obs::SetTracingEnabled(false);

  obs::JsonObjectBuilder params;
  params.Str("dataset", plan.dataset)
      .Num("scale", plan.scale)
      .Int("campaigns", plan.campaigns.size())
      .Str("rankers", "ItemPop,CoVisitation,PMF,BPR")
      .Str("defenses", "off,on")
      .Str("budgets", args.smoke ? "2,3" : "20,40")
      .Int("attackers", plan.campaigns.front().attackers)
      .Int("trajectory_length", plan.campaigns.front().trajectory_length)
      .Int("samples_per_step", samples)
      .Int("embedding_dim", plan.campaigns.front().embedding_dim)
      .Int("eval_users", plan.campaigns.front().max_eval_users)
      .Int("max_concurrent", args.threads)
      .Bool("shared", true)
      .Bool("publish_status", true);
  obs::JsonObjectBuilder out;
  out.Raw("params", std::move(params).Finish())
      .Raw("sweeps", JsonArray(sweeps))
      .Raw("attribution", attribution);
  return std::move(out).Finish();
}

}  // namespace perfbench
