// Thread-scaling sweep of the attacker's TrainStep, swept over attacker
// counts N. For each N the bench runs the full Algorithm 1 step (episode
// rollouts -> black-box reward queries -> K PPO epochs) at 1, 2 and
// `nproc` threads; sampling, reward queries and GEMM kernels all follow
// the one thread knob, as `poisonrec campaign --num-threads` does.
//
// Every thread count must produce the identical step sequence: per-step
// min/mean/max reward and PPO loss must equal the 1-thread run's
// bitwise (per-episode RNG streams, row-partitioned kernels, frozen
// backward schedules). The loss is included because the reward alone
// saturates at N=2000 (every episode reaches the RecNum maximum). The
// bench fails hard on the first mismatch. Scaling columns divide the
// 1-thread phase time by each run's.
//
//   POISONREC_THREADS        largest thread count (default: nproc)
//   POISONREC_STEPS          timed steps per run (default 25; CI uses 2)
//   POISONREC_ATTACKER_SWEEP comma list of N values (default 20,200,2000)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "nn/kernels.h"

namespace poisonrec::bench {
namespace {

struct RunResult {
  double total_seconds = 0.0;
  double sample_seconds = 0.0;
  double query_seconds = 0.0;
  double update_seconds = 0.0;
  std::vector<core::TrainStepStats> stats;
};

RunResult RunCampaign(const BenchConfig& config, std::size_t num_attackers,
                      std::size_t num_threads, std::size_t steps) {
  nn::SetNumThreads(num_threads);
  BenchConfig sized = config;
  sized.num_attackers = num_attackers;
  auto env = MakeEnvironment(sized, data::DatasetPreset::kSteam, "ItemPop");
  core::PoisonRecConfig pr = MakePoisonRecConfig(
      sized, core::ActionSpaceKind::kBcbtPopular, sized.seed);
  pr.num_threads = num_threads;
  pr.parallel_sampling = true;
  pr.parallel_rewards = num_threads > 1;
  core::PoisonRecAttacker attacker(env.get(), pr);

  RunResult result;
  for (std::size_t s = 0; s < steps; ++s) {
    const core::TrainStepStats stats = attacker.TrainStep();
    result.total_seconds += stats.seconds;
    result.sample_seconds += stats.sample_seconds;
    result.query_seconds += stats.query_seconds;
    result.update_seconds += stats.update_seconds;
    result.stats.push_back(stats);
  }
  nn::SetNumThreads(0);
  return result;
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback
                      : static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

std::vector<std::size_t> EnvSizeList(const char* name,
                                     std::vector<std::size_t> fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  std::vector<std::size_t> out;
  std::string token;
  for (const char* p = v;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) {
        out.push_back(
            static_cast<std::size_t>(std::strtoull(token.c_str(), nullptr, 10)));
        token.clear();
      }
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return out.empty() ? fallback : out;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// Steps whose rewards or loss differ from the reference run's.
std::size_t CountMismatches(const RunResult& reference, const RunResult& r) {
  std::size_t mismatches = 0;
  for (std::size_t s = 0; s < r.stats.size(); ++s) {
    const core::TrainStepStats& a = reference.stats[s];
    const core::TrainStepStats& b = r.stats[s];
    if (a.min_reward != b.min_reward || a.mean_reward != b.mean_reward ||
        a.max_reward != b.max_reward || a.loss != b.loss) {
      ++mismatches;
    }
  }
  return mismatches;
}

int Main() {
  const BenchConfig config = LoadBenchConfig();
  const std::size_t max_threads = EnvSize(
      "POISONREC_THREADS",
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  const std::size_t steps = config.training_steps;
  const std::vector<std::size_t> sweep =
      EnvSizeList("POISONREC_ATTACKER_SWEEP", {20, 200, 2000});
  std::vector<std::size_t> thread_counts = {1, 2, max_threads};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  PrintTableHeader({"attackers", "threads", "steps", "total_s", "sample_s",
                    "query_s", "update_s", "smp_scale", "upd_scale",
                    "mismatches"});
  std::vector<std::vector<std::string>> rows = {
      {"attackers", "threads", "steps", "total_s", "sample_s", "query_s",
       "update_s", "sample_scaling", "update_scaling", "mismatches"}};

  std::size_t total_mismatches = 0;
  for (const std::size_t n : sweep) {
    RunResult reference;
    for (const std::size_t t : thread_counts) {
      const RunResult r = RunCampaign(config, n, t, steps);
      if (t == thread_counts.front()) reference = r;
      const std::size_t mismatches = CountMismatches(reference, r);
      total_mismatches += mismatches;
      const auto ratio = [](double base, double v) {
        return v > 0.0 ? base / v : 0.0;
      };
      rows.push_back({std::to_string(n), std::to_string(t),
                      std::to_string(steps), Fmt(r.total_seconds),
                      Fmt(r.sample_seconds), Fmt(r.query_seconds),
                      Fmt(r.update_seconds),
                      Fmt(ratio(reference.sample_seconds, r.sample_seconds)),
                      Fmt(ratio(reference.update_seconds, r.update_seconds)),
                      std::to_string(mismatches)});
      PrintTableRow(rows.back());
    }
  }

  if (total_mismatches > 0) {
    std::printf("FAIL: %zu step mismatches across thread counts\n",
                total_mismatches);
  }
  WriteCsvOutput(config, "train_step_timing.csv", rows);
  WriteJsonOutput(config, "train_step_timing.json", rows);

  // A thread-count-dependent step is a correctness bug, not a perf
  // regression — fail loudly.
  return total_mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Main(); }
