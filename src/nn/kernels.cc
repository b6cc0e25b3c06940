#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace poisonrec::nn {

namespace {

// 0 = resolve to hardware concurrency at call time.
std::atomic<std::size_t> g_num_threads{0};

// Shared-dimension block: a kBlockK×n panel of B (256 floats wide at
// n=64) stays resident in L1/L2 while every row of the current range
// streams through it.
constexpr std::size_t kBlockK = 64;

// Below this many multiply-accumulates a GEMM runs single-threaded; the
// pool handoff costs more than it saves on the tiny per-step matmuls
// (e.g. the 1×d policy step).
constexpr std::size_t kParallelMinWork = std::size_t{1} << 15;

// Below this many multiply-accumulates a GEMM takes the lean unblocked
// path: no row partitioner, no lambda indirection, no k-blocking. At
// these sizes every operand fits in L1 anyway, and the fixed overhead
// of the blocked dispatch is a measurable fraction of the whole call
// (the 1×16×64 policy step runs in ~200ns). The k loop still visits kk
// in ascending order for every output element — the same accumulation
// order the blocked path produces — so the dispatch never changes a
// bit. Threshold measured with bench_kernels on the small policy
// shapes; anything under the threading cutoff gains nothing from
// blocking (k ≤ 64 is a single block there regardless).
constexpr std::size_t kSmallGemmWork = kParallelMinWork;

// axpy: crow += av * brow. Elementwise — each c[j] receives exactly one
// add per call, with no cross-element reduction — so the compiler is
// free to vectorize at any width without changing a single bit. The
// __restrict qualifiers license that vectorization without runtime
// alias checks (kernel outputs never alias their inputs).
inline void AxpyRow(float av, const float* __restrict brow,
                    float* __restrict crow, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
}

// Four consecutive shared-dimension steps fused over one pass of crow:
// each element receives the same four in-order adds the four single
// AxpyRow calls would issue, but crow streams through registers once
// instead of four times. The per-element operation sequence is
// unchanged, so this is bit-identical to the unfused loop — it only
// cuts the dominant cost of skinny GEMMs (k ~ 16–64), the repeated
// load/store of the output row.
inline void Axpy4Row(float a0, float a1, float a2, float a3,
                     const float* __restrict b0, const float* __restrict b1,
                     const float* __restrict b2, const float* __restrict b3,
                     float* __restrict crow, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    float t = crow[j] + a0 * b0[j];
    t = t + a1 * b1[j];
    t = t + a2 * b2[j];
    crow[j] = t + a3 * b3[j];
  }
}

// Runs steps [k0, k1) of the shared dimension for one output row, in
// ascending order, four at a time where possible. `a_at(kk)` supplies
// the A operand for step kk (contiguous for NN, strided for TN).
template <typename AFn>
inline void AxpyRange(std::size_t k0, std::size_t k1, const AFn& a_at,
                      const float* b, std::size_t n, float* crow) {
  std::size_t kk = k0;
  for (; kk + 4 <= k1; kk += 4) {
    Axpy4Row(a_at(kk), a_at(kk + 1), a_at(kk + 2), a_at(kk + 3),
             b + kk * n, b + (kk + 1) * n, b + (kk + 2) * n,
             b + (kk + 3) * n, crow, n);
  }
  for (; kk < k1; ++kk) AxpyRow(a_at(kk), b + kk * n, crow, n);
}

// The *Rows workers compute rows [i0, i1) of C. Each kernel's
// accumulation order for a given output element is a pure function of
// that element's indices (never of the row range), which is what makes
// row-partitioned execution bit-identical to single-threaded.

void GemmNNRows(std::size_t i0, std::size_t i1, std::size_t k, std::size_t n,
                const float* a, const float* b, float* c) {
  for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::size_t k1 = std::min(k, k0 + kBlockK);
    for (std::size_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      AxpyRange(k0, k1, [arow](std::size_t kk) { return arow[kk]; }, b, n,
                crow);
    }
  }
}

void GemmTNRows(std::size_t i0, std::size_t i1, std::size_t m, std::size_t k,
                std::size_t n, const float* a, const float* b, float* c) {
  // A stored (k×m): column i of A is the strided sequence a[p*m + i].
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t p1 = std::min(k, p0 + kBlockK);
    for (std::size_t i = i0; i < i1; ++i) {
      float* crow = c + i * n;
      AxpyRange(p0, p1, [a, m, i](std::size_t p) { return a[p * m + i]; }, b,
                n, crow);
    }
  }
}

void GemmNTRows(std::size_t i0, std::size_t i1, std::size_t k, std::size_t n,
                const float* a, const float* b, float* c) {
  // B stored (n×k): C[i][j] is a contiguous dot of A row i with B row j.
  // Four partial sums for instruction-level parallelism; the combine
  // order is fixed, so results are identical for every row partition.
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      std::size_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        s0 += arow[kk] * brow[kk];
        s1 += arow[kk + 1] * brow[kk + 1];
        s2 += arow[kk + 2] * brow[kk + 2];
        s3 += arow[kk + 3] * brow[kk + 3];
      }
      float tail = 0.0f;
      for (; kk < k; ++kk) tail += arow[kk] * brow[kk];
      crow[j] += ((s0 + s1) + (s2 + s3)) + tail;
    }
  }
}

// Row-partitions [0, m) across the kernel thread budget and runs
// `rows(i0, i1)` for each block. Rows are handed out in blocks of
// roughly m / (threads * 4) so the atomic index counter stays cold
// while load still balances when rows have uneven cost. `span` (a
// string literal) names the trace span of the threaded branch.
template <typename RowsFn>
void ForEachRowBlock(std::size_t m, std::size_t work, const char* span,
                     const RowsFn& rows) {
  if (work < kParallelMinWork) {  // skip even the thread-budget lookup
    rows(0, m);
    return;
  }
  const std::size_t threads = std::min(GetNumThreads(), m);
  if (threads <= 1) {
    rows(0, m);
    return;
  }
  const std::size_t block =
      std::max<std::size_t>(1, m / (threads * 4));
  const std::size_t num_blocks = (m + block - 1) / block;
  // Span only around the threaded branch: these are the regions the
  // perf backlog (ROADMAP.md) needs to see, and the tiny single-threaded
  // matmuls are far too frequent to trace individually.
  POISONREC_TRACE_SPAN(span);
  ParallelFor(num_blocks, threads, [&](std::size_t bi) {
    const std::size_t i0 = bi * block;
    rows(i0, std::min(m, i0 + block));
  });
}

// Call/flop accounting shared by the three variants. The counters are
// sharded (obs::Counter), so the two relaxed adds here stay off any
// contended cache line even when every pool worker issues GEMMs.
inline void CountGemm(obs::Counter* calls, std::size_t m, std::size_t k,
                      std::size_t n) {
  static obs::Counter* const flops =
      obs::MetricsRegistry::Global().GetCounter("poisonrec_gemm_flops_total");
  calls->Increment();
  flops->Increment(static_cast<std::uint64_t>(2) * m * k * n);
}

}  // namespace

void SetNumThreads(std::size_t num_threads) {
  g_num_threads.store(num_threads, std::memory_order_relaxed);
}

std::size_t GetNumThreads() {
  const std::size_t n = g_num_threads.load(std::memory_order_relaxed);
  if (n != 0) return n;
  static const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return hardware;
}

namespace kernels {

void GemmNN(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c) {
  static obs::Counter* const calls =
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_nn_calls_total");
  CountGemm(calls, m, k, n);
  if (m * k * n < kSmallGemmWork) {
    // Lean path: straight i-kk loops, same per-element accumulation
    // order as the blocked kernel (kk ascending), zero dispatch cost.
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      AxpyRange(0, k, [arow](std::size_t kk) { return arow[kk]; }, b, n,
                crow);
    }
    return;
  }
  ForEachRowBlock(m, m * k * n, "gemm/threaded",
                  [&](std::size_t i0, std::size_t i1) {
                    GemmNNRows(i0, i1, k, n, a, b, c);
                  });
}

void GemmTN(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c) {
  static obs::Counter* const calls =
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_tn_calls_total");
  CountGemm(calls, m, k, n);
  if (m * k * n < kSmallGemmWork) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      AxpyRange(0, k, [a, m, i](std::size_t p) { return a[p * m + i]; }, b, n,
                crow);
    }
    return;
  }
  ForEachRowBlock(m, m * k * n, "gemm/threaded",
                  [&](std::size_t i0, std::size_t i1) {
                    GemmTNRows(i0, i1, m, k, n, a, b, c);
                  });
}

void GemmNT(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c) {
  static obs::Counter* const calls =
      obs::MetricsRegistry::Global().GetCounter(
          "poisonrec_gemm_nt_calls_total");
  CountGemm(calls, m, k, n);
  if (m * k * n < kSmallGemmWork) {
    GemmNTRows(0, m, k, n, a, b, c);  // already unblocked per-row dots
    return;
  }
  ForEachRowBlock(m, m * k * n, "gemm/threaded",
                  [&](std::size_t i0, std::size_t i1) {
                    GemmNTRows(i0, i1, k, n, a, b, c);
                  });
}

void ParallelRows(std::size_t m, std::size_t work,
                  const std::function<void(std::size_t, std::size_t)>& rows) {
  ForEachRowBlock(m, work, "kernels/parallel_rows", rows);
}

}  // namespace kernels

}  // namespace poisonrec::nn
