// GEMM kernel microbenchmark: the seed scalar triple loop (the MatMul
// the repo shipped with) versus the cache-blocked kernels of
// nn/kernels.h, single-threaded and threaded, over the matrix shapes
// the system actually runs: the LSTM gate products and DNN head of the
// policy (src/nn/module.cc), the PPO log-prob recompute, the AutoRec
// encoder, plus the canonical 256x256x256 acceptance shape.
//
// A second table times one nn::Adam::Step over the parameter layouts
// the neural rankers train (NeuMF and GRU4Rec at Steam x0.1, dim 16),
// single-threaded and threaded, with and without subnormal optimizer
// state, plus flat layouts that bracket the Adam threading cutoff
// (results/adam_timing.json).
//
// Timing protocol: min over POISONREC_REPEATS repetitions (default 5)
// of the mean time across enough inner iterations to fill ~10ms, so
// small shapes are not measured at clock resolution. Emits a table and
// machine-readable JSON (results/kernel_timing.json).
//
//   POISONREC_REPEATS  min-of-N repetitions (default 5; CI smoke uses 2)
//   POISONREC_THREADS  threaded-kernel thread count (default 4)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "nn/kernels.h"
#include "nn/optimizer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace poisonrec::bench {
namespace {

struct Shape {
  std::string label;
  std::size_t m, k, n;
};

// The seed kernel: the naive i-k-j loop with the dense zero-skip branch
// that MatMul used before the kernel layer existed. Baseline for the
// speedup column.
void SeedGemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback
                      : static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

// Min-of-N of the per-call time of fn(), with enough inner iterations
// per sample to amortize timer resolution.
template <typename Fn>
double MinSeconds(std::size_t repeats, const Fn& fn) {
  // Calibrate the iteration count off one warm-up call.
  Timer calibrate;
  fn();
  const double once = std::max(calibrate.ElapsedSeconds(), 1e-9);
  const std::size_t iters =
      std::max<std::size_t>(1, static_cast<std::size_t>(0.01 / once));
  double best = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    Timer timer;
    for (std::size_t it = 0; it < iters; ++it) fn();
    const double per_call = timer.ElapsedSeconds() / static_cast<double>(iters);
    if (r == 0 || per_call < best) best = per_call;
  }
  return best;
}

std::string Fmt(double v, const char* format) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

struct AdamCase {
  std::string label;
  std::vector<std::pair<std::size_t, std::size_t>> shapes;  // rows, cols
  // Share of elements with a zero gradient and a subnormal value and
  // first moment: the state of NeuMF's embedding rows that go many
  // steps without a gradient (m decays by beta1 to denorm_min and stays
  // there under round-to-nearest). Over a NeuMF Fit at Steam x0.1, 12%
  // of values and 15% of first moments are subnormal; no second moment
  // is (beta2 decays too slowly).
  double subnormal_share;
};

// Parameters, gradients and Adam state for one case, ready to Step.
struct AdamState {
  std::vector<nn::Tensor> params;
  std::unique_ptr<nn::Adam> adam;
};

AdamState MakeAdamState(const AdamCase& c, std::uint64_t seed) {
  Rng rng(seed);
  AdamState state;
  std::vector<std::vector<float>> m, v;
  const float tiny = std::numeric_limits<float>::denorm_min();
  for (const auto& [rows, cols] : c.shapes) {
    nn::Tensor p = nn::Tensor::Zeros(rows, cols, /*requires_grad=*/true);
    std::vector<float>& data = p.mutable_data();
    std::vector<float>& grad = p.mutable_grad();
    m.emplace_back(data.size());
    v.emplace_back(data.size());
    for (std::size_t j = 0; j < data.size(); ++j) {
      if (rng.Uniform(0.0, 1.0) < c.subnormal_share) {
        data[j] = 5.0f * tiny;  // grad stays 0
        m.back()[j] = tiny;
        v.back()[j] = 1e-8f;
        continue;
      }
      data[j] = static_cast<float>(rng.Uniform(-0.1, 0.1));
      grad[j] = static_cast<float>(rng.Uniform(-0.01, 0.01));
      m.back()[j] = grad[j];
      v.back()[j] = grad[j] * grad[j];
    }
    state.params.push_back(p);
  }
  // The rankers' weight decay (FitConfig: 1e-4) but a zero learning
  // rate, so the state is the same for every one of the thousands of
  // timed steps: under a fixed gradient the parameters would drift until
  // weight decay cancels it, and the tiny g that leaves makes g*g
  // subnormal, so a later phase would time a slower state. The cost of
  // an element does not depend on lr.
  state.adam = std::make_unique<nn::Adam>(state.params, 0.0f, 0.9f, 0.999f,
                                          1e-8f, 1e-4f);
  POISONREC_CHECK(
      state.adam->RestoreState(1000, std::move(m), std::move(v)).ok());
  return state;
}

void RunAdamCases(const BenchConfig& config, std::size_t repeats,
                  std::size_t threads) {
  // Layouts in registration order; the rankers' parameter lists.
  const std::vector<std::pair<std::size_t, std::size_t>> neumf = {
      {651, 16}, {513, 16}, {651, 16}, {513, 16}, {32, 16},
      {1, 16},   {16, 8},   {1, 8},    {24, 1},   {1, 1}};
  const std::vector<std::pair<std::size_t, std::size_t>> gru4rec = {
      {513, 16}, {16, 48}, {16, 48}, {1, 48}, {1, 48}};
  const std::vector<AdamCase> cases = {
      {"adam_gru4rec", gru4rec, 0.0},
      {"adam_neumf", neumf, 0.0},
      {"adam_neumf_subnormal", neumf, 0.15},
      {"adam_flat_8k", {{512, 16}}, 0.0},
      {"adam_flat_16k", {{1024, 16}}, 0.0},
      {"adam_flat_32k", {{2048, 16}}, 0.0},
  };

  PrintTableHeader(
      {"adam_case", "elements", "step_1t_us", "step_mt_us", "speedup_mt"});
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"case", "elements", "subnormal_share", "threads",
                  "step_1t_us", "step_mt_us", "speedup_mt"});
  for (const AdamCase& c : cases) {
    // A fresh, identical state for each thread count.
    const auto time_steps = [&](std::size_t num_threads) {
      AdamState state = MakeAdamState(c, config.seed);
      nn::SetNumThreads(num_threads);
      const double s = MinSeconds(repeats, [&] { state.adam->Step(); });
      nn::SetNumThreads(0);
      return s;
    };
    std::size_t elements = 0;
    for (const auto& [r, k] : c.shapes) elements += r * k;
    const double one_s = time_steps(1);
    const double mt_s = time_steps(threads);
    PrintTableRow({c.label, std::to_string(elements),
                   Fmt(one_s * 1e6, "%.2f"), Fmt(mt_s * 1e6, "%.2f"),
                   Fmt(one_s / mt_s, "%.2f")});
    rows.push_back({c.label, std::to_string(elements),
                    Fmt(c.subnormal_share, "%.2f"), std::to_string(threads),
                    Fmt(one_s * 1e6, "%.3f"), Fmt(mt_s * 1e6, "%.3f"),
                    Fmt(one_s / mt_s, "%.3f")});
  }
  WriteCsvOutput(config, "adam_timing.csv", rows);
  WriteJsonOutput(config, "adam_timing.json", rows);
}

int Main() {
  const BenchConfig config = LoadBenchConfig();
  const std::size_t repeats = EnvSize("POISONREC_REPEATS", 5);
  const std::size_t threads = EnvSize("POISONREC_THREADS", 4);

  const std::size_t dim = config.embedding_dim;
  const std::vector<Shape> shapes = {
      // LSTM cell gate product as sampling issues it: the N attacker
      // rows of one episode (SampleEpisode, one episode per task).
      {"lstm_batch", config.num_attackers, dim, 4 * dim},
      // DNN head: hidden → item logits over the candidate set.
      {"dnn_head", config.num_attackers, dim, 2 * config.candidate_originals},
      // PPO recompute: the LSTM gate product over all M·N trajectories
      // of a B = M batch (RecomputeLogProbs).
      {"ppo_recompute", config.samples_per_step * config.num_attackers, dim,
       4 * dim},
      // AutoRec-style encoder on a mid-size catalog.
      {"autorec_encode", 500, dim, 500},
      // Canonical acceptance shape.
      {"gemm_256", 256, 256, 256},
  };

  PrintTableHeader({"shape", "mkn", "seed_ms", "kernel_ms",
                    "kern_mt_ms", "speedup_1t", "speedup_mt"});
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"shape", "m", "k", "n", "threads", "seed_ms", "kernel_ms",
                  "kernel_mt_ms", "gflops_mt", "speedup_1t", "speedup_mt"});

  Rng rng(config.seed);
  for (const Shape& s : shapes) {
    std::vector<float> a(s.m * s.k);
    std::vector<float> b(s.k * s.n);
    std::vector<float> c(s.m * s.n, 0.0f);
    for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));

    const double seed_s = MinSeconds(
        repeats, [&] { SeedGemm(s.m, s.k, s.n, a.data(), b.data(), c.data()); });
    nn::SetNumThreads(1);
    const double one_s = MinSeconds(repeats, [&] {
      nn::kernels::GemmNN(s.m, s.k, s.n, a.data(), b.data(), c.data());
    });
    nn::SetNumThreads(threads);
    const double mt_s = MinSeconds(repeats, [&] {
      nn::kernels::GemmNN(s.m, s.k, s.n, a.data(), b.data(), c.data());
    });
    nn::SetNumThreads(0);

    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const std::string mkn = std::to_string(s.m) + "x" + std::to_string(s.k) +
                            "x" + std::to_string(s.n);
    PrintTableRow({s.label, mkn, Fmt(seed_s * 1e3, "%.4f"),
                   Fmt(one_s * 1e3, "%.4f"), Fmt(mt_s * 1e3, "%.4f"),
                   Fmt(seed_s / one_s, "%.2f"), Fmt(seed_s / mt_s, "%.2f")});
    rows.push_back({s.label, std::to_string(s.m), std::to_string(s.k),
                    std::to_string(s.n), std::to_string(threads),
                    Fmt(seed_s * 1e3, "%.5f"), Fmt(one_s * 1e3, "%.5f"),
                    Fmt(mt_s * 1e3, "%.5f"), Fmt(flops / mt_s * 1e-9, "%.3f"),
                    Fmt(seed_s / one_s, "%.3f"), Fmt(seed_s / mt_s, "%.3f")});
  }

  WriteCsvOutput(config, "kernel_timing.csv", rows);
  WriteJsonOutput(config, "kernel_timing.json", rows);

  RunAdamCases(config, repeats, threads);
  return 0;
}

}  // namespace
}  // namespace poisonrec::bench

int main() { return poisonrec::bench::Main(); }
