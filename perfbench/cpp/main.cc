// Benchmark binary: runs one workload through the library's public API
// and writes its raw measurements as JSON (plus a Chrome trace in the
// traced pass). perfbench/run.py builds this binary, runs it, and turns
// the raw file into the reported metrics.
//
//   perfbench_bin --workload paper_neural|attacker_scale|fleet_sweep
//                    --seed N --seconds S --trace 0|1 --out DIR [--smoke]
//
// Exit code 0 when every correctness check passed, 3 when one failed
// (the raw file lists them), 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "nn/kernels.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_bin: %s\nusage: perfbench_bin --workload "
               "paper_neural|attacker_scale|fleet_sweep --seed N --seconds S "
               "--trace 0|1 --out DIR [--smoke]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  namespace obs = poisonrec::obs;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool step_workload =
      args.workload == "paper_neural" || args.workload == "attacker_scale";
  if (!step_workload && args.workload != "fleet_sweep") {
    return Usage("unknown workload");
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  args.threads = std::min<std::size_t>(4, nproc);
  poisonrec::nn::SetNumThreads(args.threads);
  // Per-thread trace rings are preallocated; a traced run records up to
  // ~20k spans on its busiest thread, so this leaves headroom without
  // dropping events (an overflow fails the run).
  obs::SetTraceRingCapacity(std::size_t{1} << 17);
  std::filesystem::create_directories(args.out_dir);

  Checks checks;
  Signature signature;
  OpCounts ops;
  const std::string data =
      step_workload ? RunStepWorkload(args, &checks, &signature, &ops)
                    : RunFleetWorkload(args, &checks, &signature, &ops);

  const std::string stem = args.out_dir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed) + "_trace" +
                           (args.trace ? "1" : "0");
  if (args.trace) {
    checks.Expect(obs::TraceDroppedCount() == 0,
                  "trace ring overflow: " +
                      std::to_string(obs::TraceDroppedCount()) +
                      " events dropped");
    checks.Expect(obs::WriteChromeTrace(stem + ".trace.json"),
                  "could not write the Chrome trace");
  }

  obs::JsonObjectBuilder provenance;
#if defined(__clang__)
  provenance.Str("compiler", "clang " __clang_version__)
#else
  provenance.Str("compiler", "gcc " __VERSION__)
#endif
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Int("nproc", nproc)
      .Int("threads", args.threads)
      .Int("seed", args.seed)
      .Num("seconds", args.seconds)
      .Bool("smoke", args.smoke);
  obs::JsonObjectBuilder out;
  out.Str("workload", args.workload)
      .Bool("trace", args.trace)
      .Raw("provenance", std::move(provenance).Finish())
      .Raw("data", data)
      .Num("rss_peak_mb", PeakRssMb())
      .Str("signature", signature.Hex())
      .Int("attempted", ops.attempted)
      .Int("failed", ops.failed)
      .Raw("check_failures", JsonStrings(checks.failures()));
  std::ofstream file(stem + ".raw.json");
  file << std::move(out).Finish() << "\n";
  file.close();
  if (!file) {
    std::fprintf(stderr, "perfbench_bin: could not write %s.raw.json\n",
                 stem.c_str());
    return 1;
  }
  std::printf("%s.raw.json\n", stem.c_str());
  return checks.failures().empty() ? 0 : 3;
}
