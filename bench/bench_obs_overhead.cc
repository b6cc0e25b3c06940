// Telemetry overhead harness: the obs subsystem (trace spans around every
// TrainStep phase, sharded metric counters in the GEMM kernels, and the
// per-step structured event stream) is meant to stay on in production
// campaigns, so its cost must be a small fraction of the step itself.
// Runs identically-seeded attackers — telemetry fully off vs tracing
// enabled + event log attached — in interleaved off/on pairs of runs and
// compares per-step wall-clock within each pair. Acceptance (gated:
// nonzero exit on breach): the median per-pair overhead is under 3%.
// Both runs of every pair must find the same best RecNum, confirming
// telemetry is observe-only.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench/common.h"
#include "core/ppo.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace poisonrec::bench {
namespace {

constexpr double kMaxOverheadPct = 3.0;
constexpr int kPairs = 15;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

struct RunResult {
  double seconds = 0.0;  // summed TrainStep wall-clock
  double best_recnum = 0.0;
};

RunResult RunOne(const BenchConfig& config, const std::string& ranker,
                 bool instrumented, const std::string& events_path) {
  auto environment =
      MakeEnvironment(config, data::DatasetPreset::kSteam, ranker);
  core::PoisonRecConfig pr = MakePoisonRecConfig(
      config, core::ActionSpaceKind::kBcbtPopular, config.seed ^ 0x0b5u);
  core::PoisonRecAttacker attacker(environment.get(), pr);

  obs::EventLog event_log;
  obs::SetTracingEnabled(instrumented);
  if (instrumented) {
    if (!event_log.Open(events_path)) {
      std::printf("failed to open %s; instrumented run has no event log\n",
                  events_path.c_str());
    }
    attacker.SetEventLog(&event_log);
  }

  const auto stats = attacker.Train(config.training_steps);

  obs::SetTracingEnabled(false);
  obs::ClearTrace();

  RunResult result;
  for (const auto& s : stats) result.seconds += s.seconds;
  result.best_recnum = attacker.best_episode().reward;
  return result;
}

int Run() {
  BenchConfig config = LoadBenchConfig();
  const std::string ranker =
      config.rankers.empty() ? "ItemPop" : config.rankers.front();
  const std::string events_path =
      (std::filesystem::temp_directory_path() / "poisonrec_obs_overhead.jsonl")
          .string();
  std::printf(
      "== Telemetry overhead: obs on vs off (%s on Steam, scale=%.3g) ==\n\n",
      ranker.c_str(), config.scale);

  // A warm-up run so no timed run pays first-touch costs (thread pool
  // spawn, metric registration). Then kPairs off/on pairs of runs,
  // alternating which mode runs first so drift cancels, gated on the
  // median of the per-pair on/off ratios: at bench scale a single run
  // swings by more than the effect being measured, and the median
  // ignores the noisy pairs one unpaired comparison could not.
  (void)RunOne(config, ranker, false, events_path);
  std::vector<double> ratios;
  RunResult total[2];  // [off, on]: seconds summed over pairs
  bool identical = true;
  for (int pair = 0; pair < kPairs; ++pair) {
    RunResult run[2];
    for (const bool instrumented : {pair % 2 == 1, pair % 2 == 0}) {
      run[instrumented] = RunOne(config, ranker, instrumented, events_path);
    }
    if (run[0].seconds > 0.0) {
      ratios.push_back(run[1].seconds / run[0].seconds);
    }
    identical = identical && run[0].best_recnum == run[1].best_recnum;
    for (int i = 0; i < 2; ++i) {
      total[i].seconds += run[i].seconds;
      total[i].best_recnum = run[i].best_recnum;
    }
  }
  std::remove(events_path.c_str());

  const double overhead_pct =
      ratios.empty() ? 0.0 : (Median(ratios) - 1.0) * 100.0;
  const std::size_t steps = kPairs * config.training_steps;

  PrintTableHeader({"mode", "steps", "mean_s", "total_s", "RecNum"});
  char buffer[32];
  std::vector<std::vector<std::string>> rows;
  rows.push_back(
      {"mode", "steps", "mean_step_seconds", "total_seconds", "best_recnum",
       "overhead_pct"});
  const char* names[] = {"telemetry_off", "telemetry_on"};
  for (int i = 0; i < 2; ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.6f",
                  steps > 0 ? total[i].seconds / steps : 0.0);
    const std::string mean_s = buffer;
    std::snprintf(buffer, sizeof(buffer), "%.4f", total[i].seconds);
    const std::string total_s = buffer;
    std::snprintf(buffer, sizeof(buffer), "%.2f", i == 0 ? 0.0 : overhead_pct);
    PrintTableRow({names[i], std::to_string(steps), mean_s, total_s,
                   FormatCount(total[i].best_recnum)});
    rows.push_back({names[i], std::to_string(steps), mean_s, total_s,
                    FormatCount(total[i].best_recnum), buffer});
  }
  std::printf(
      "\ntelemetry overhead: %.2f%% per step, median of %d pairs (%s "
      "identical results)\n",
      overhead_pct, kPairs, identical ? "with" : "WITHOUT");
  WriteJsonOutput(config, "obs_overhead.json", rows);

  if (overhead_pct > kMaxOverheadPct) {
    std::printf("FAIL: telemetry overhead %.2f%% exceeds the %.1f%% budget\n",
                overhead_pct, kMaxOverheadPct);
    return 1;
  }
  std::printf("telemetry overhead within the %.1f%% budget\n",
              kMaxOverheadPct);
  return 0;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Run(); }
