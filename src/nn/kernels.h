// Dense GEMM kernel layer beneath the tensor API (the torch-style
// split: tensor.cc owns autograd bookkeeping, kernels.cc owns the
// floating-point loops). All three transpose variants used by MatMul
// and its backward pass are explicit, so callers never re-derive
// transposed access patterns inline:
//
//   forward   C  = A · B      -> GemmNN
//   backward  dA = dC · Bᵀ    -> GemmNT
//   backward  dB = Aᵀ · dC    -> GemmTN
//
// All kernels ACCUMULATE into C (C += ...), matching what the backward
// pass needs; zero-fill C first for a plain product.
//
// Determinism contract: kernels are row-partitioned across the
// persistent pool in util/parallel. Each output row is owned by exactly
// one thread and the per-row accumulation order is independent of the
// partitioning, so results are bit-identical for every thread count.
#ifndef POISONREC_NN_KERNELS_H_
#define POISONREC_NN_KERNELS_H_

#include <cstddef>
#include <functional>

namespace poisonrec::nn {

/// Process-wide kernel thread budget (mirrors torch::set_num_threads).
/// 0 (the default) resolves to std::thread::hardware_concurrency().
/// Thread-safe; takes effect on the next kernel call.
void SetNumThreads(std::size_t num_threads);

/// Resolved thread budget (never 0).
std::size_t GetNumThreads();

namespace kernels {

/// C(m×n) += A(m×k) · B(k×n). All matrices row-major and dense.
void GemmNN(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c);

/// C(m×n) += Aᵀ · B with A stored (k×m), B stored (k×n). This is the
/// dB = Aᵀ·dC accumulation of the MatMul backward pass.
void GemmTN(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c);

/// C(m×n) += A · Bᵀ with A stored (m×k), B stored (n×k). This is the
/// dA = dC·Bᵀ accumulation of the MatMul backward pass.
void GemmNT(std::size_t m, std::size_t k, std::size_t n, const float* a,
            const float* b, float* c);

/// Row-partitions [0, m) across the kernel thread budget and invokes
/// `rows(i0, i1)` for each block — the same partitioner the dense GEMMs
/// use, exported so fused elementwise ops, sparse kernels and Adam share
/// the row-ownership determinism contract: every row is owned by exactly
/// one thread, so any per-row computation that never reduces across
/// rows is bit-identical at every thread count. `work` is the total
/// multiply-accumulate (or equivalent) count; below the same threshold
/// the GEMMs use, the call runs inline as rows(0, m). The threaded
/// branch opens the `kernels/parallel_rows` trace span.
void ParallelRows(std::size_t m, std::size_t work,
                  const std::function<void(std::size_t, std::size_t)>& rows);

}  // namespace kernels

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_KERNELS_H_
