// Shared pieces of the benchmark binary: command-line arguments, the
// run signature, the correctness log, benchmark-side trace spans, and
// small JSON/measurement helpers. Everything here sits outside the
// library and reaches it only through its public headers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: tiny shapes and budgets, for the self-check only.
  bool smoke = false;
  /// Directory for the raw result, the Chrome trace and working state.
  std::string out_dir = ".bench_out";
  /// Kernel and sampling/evaluation threads (min(4, nproc)).
  std::size_t threads = 4;
};

/// CRC32C (obs/crc32c) over everything a run must reproduce bit for bit.
class Signature {
 public:
  void Add(const void* data, std::size_t size);
  void AddDouble(double v) { Add(&v, sizeof(v)); }
  void AddU64(std::uint64_t v) { Add(&v, sizeof(v)); }
  void AddFloats(const std::vector<float>& v) {
    Add(v.data(), v.size() * sizeof(float));
  }
  std::uint32_t value() const { return crc_; }
  std::string Hex() const;

 private:
  std::uint32_t crc_ = 0;
};

/// Correctness log: every failed check is recorded, none aborts the run.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// A benchmark-side span around a call into one layer. `name` is a
/// string literal "bench/<layer>.<call>"; the step id travels as the
/// span argument ("<scope>#<step>", scope = campaign or "sweep") so the
/// trace analysis can group spans by step. Recorded only while obs
/// tracing is on; Stop() always times.
class LayerSpan {
 public:
  LayerSpan(const char* name, const std::string& scope, std::uint64_t step)
      : arg_(scope + "#" + std::to_string(step)),
        span_(name, arg_.c_str()) {}
  double Stop() { return span_.Stop(); }

 private:
  std::string arg_;  // declared first: must outlive span_
  poisonrec::obs::TraceSpan span_;
};

/// Seconds on the steady clock since an arbitrary origin.
double NowSeconds();

/// Peak resident set size of this program since exec, in MiB.
double PeakRssMb();

/// Current value of a registry counter (0 when never registered).
std::uint64_t CounterValue(const char* name);

/// Sum of the three GEMM call counters.
std::uint64_t GemmCalls();

/// JSON array of numbers at round-trip precision.
std::string JsonNumbers(const std::vector<double>& values);
/// JSON array of strings.
std::string JsonStrings(const std::vector<std::string>& values);
/// JSON array of already serialized JSON values.
std::string JsonArray(const std::vector<std::string>& items);

/// Removes and recreates `path` (a directory under the output dir).
void ResetDirectory(const std::string& path);

/// Size in bytes of every regular file under `path` whose name ends in
/// `suffix`, one entry per file.
std::vector<double> FileSizes(const std::string& path,
                              const std::string& suffix);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
