#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "nn/graph.h"
#include "nn/kernels.h"

namespace poisonrec::nn {

using internal::TensorImpl;

namespace {

thread_local bool g_grad_enabled = true;

std::shared_ptr<TensorImpl> NewNode(std::size_t rows, std::size_t cols) {
  auto node = std::make_shared<TensorImpl>();
  node->rows = rows;
  node->cols = cols;
  node->data.assign(rows * cols, 0.0f);
  return node;
}

// `Inputs` is a list of `const Tensor*`: a braced list at most call
// sites, a vector for the N-ary ConcatRows.
template <typename Inputs = std::initializer_list<const Tensor*>>
bool TrackGrad(const Inputs& inputs) {
  if (!GradMode::Enabled()) return false;
  for (const Tensor* t : inputs) {
    if (t->requires_grad()) return true;
  }
  return false;
}

// Registers parents + backward closure on `out` when tracking is on.
// `forward_fn` recomputes out's data from its parents' current data; it
// is only materialized (and the node only registered for replay) while
// a GraphTape is recording on this thread, so the normal path pays one
// thread-local read and nothing else.
template <typename FwdFn,
          typename Inputs = std::initializer_list<const Tensor*>>
void Attach(const std::shared_ptr<TensorImpl>& out, const Inputs& inputs,
            std::function<void()> backward_fn, FwdFn&& forward_fn) {
  out->requires_grad = true;
  out->EnsureGrad();
  for (const Tensor* t : inputs) {
    out->parents.push_back(t->impl());
    if (t->requires_grad()) t->impl()->EnsureGrad();
  }
  out->backward_fn = std::move(backward_fn);
  if (GraphTape* tape = GraphTape::Current()) {
    out->forward_fn = std::forward<FwdFn>(forward_fn);
    tape->Register(out);
  }
}

// Scalar formulas shared by the unary ops and the fused ops built from
// them, so a fused op reproduces its unfused chain bit-for-bit.
inline float StableSigmoid(float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
}

// log(1 + exp(x)), numerically stable.
inline float StableSoftplus(float x) {
  return x > 0.0f ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
}

}  // namespace

bool GradMode::Enabled() { return g_grad_enabled; }

void GradMode::SetEnabled(bool enabled) { g_grad_enabled = enabled; }

bool GradEnabled() { return GradMode::Enabled(); }

NoGradGuard::NoGradGuard() : previous_(GradMode::Enabled()) {
  GradMode::SetEnabled(false);
}

NoGradGuard::~NoGradGuard() { GradMode::SetEnabled(previous_); }

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

Tensor Tensor::Zeros(std::size_t rows, std::size_t cols, bool requires_grad) {
  auto node = NewNode(rows, cols);
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

Tensor Tensor::Ones(std::size_t rows, std::size_t cols, bool requires_grad) {
  return Full(rows, cols, 1.0f, requires_grad);
}

Tensor Tensor::Full(std::size_t rows, std::size_t cols, float value,
                    bool requires_grad) {
  auto node = NewNode(rows, cols);
  std::fill(node->data.begin(), node->data.end(), value);
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

Tensor Tensor::FromData(std::size_t rows, std::size_t cols,
                        std::vector<float> data, bool requires_grad) {
  POISONREC_CHECK_EQ(rows * cols, data.size());
  auto node = std::make_shared<TensorImpl>();
  node->rows = rows;
  node->cols = cols;
  node->data = std::move(data);
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

Tensor Tensor::Randn(std::size_t rows, std::size_t cols, float stddev,
                     Rng* rng, bool requires_grad) {
  POISONREC_CHECK(rng != nullptr);
  auto node = NewNode(rows, cols);
  for (float& v : node->data) {
    v = static_cast<float>(rng->Normal(0.0, stddev));
  }
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

Tensor Tensor::Rand(std::size_t rows, std::size_t cols, float lo, float hi,
                    Rng* rng, bool requires_grad) {
  POISONREC_CHECK(rng != nullptr);
  auto node = NewNode(rows, cols);
  for (float& v : node->data) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  node->requires_grad = requires_grad;
  if (requires_grad) node->EnsureGrad();
  return Tensor(std::move(node));
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

float Tensor::item() const {
  POISONREC_CHECK(is_scalar()) << "item() on tensor of shape "
                               << ShapeString();
  return impl_->data[0];
}

void Tensor::ZeroGrad() {
  if (defined() && !impl_->grad.empty()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

Tensor Tensor::DeepCopy(bool requires_grad) const {
  POISONREC_CHECK(defined());
  return FromData(rows(), cols(), impl_->data, requires_grad);
}

std::string Tensor::ShapeString() const {
  if (!defined()) return "(undefined)";
  return "(" + std::to_string(rows()) + "x" + std::to_string(cols()) + ")";
}

namespace {

// Every node with a backward closure reachable from `root` through
// parent edges, in post-order (parents visited in edge order, each node
// after all of its parents). Backward runs the closures in the reverse
// of this order. It depends on the parent edges alone, which a GraphTape
// replay leaves unchanged, so a replayed graph accumulates gradients
// into shared parents in the same sequence as a fresh tape — two valid
// topological orders are NOT interchangeable under float accumulation.
//
// A node is marked visited by writing this walk's id into its
// visit_stamp. Leaves (no backward_fn, hence no parents) are skipped
// without being read or written: they contribute nothing to the order,
// and the parameters that concurrent fine-tunes share stay untouched.
std::vector<TensorImpl*> TopologicalOrder(TensorImpl* root) {
  static std::atomic<std::uint64_t> next_walk{1};
  const std::uint64_t walk = next_walk.fetch_add(1, std::memory_order_relaxed);
  std::vector<TensorImpl*> order;
  if (!root->backward_fn) return order;
  // Iterative post-order DFS, parents visited in edge order.
  struct Frame {
    TensorImpl* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  root->visit_stamp = walk;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      TensorImpl* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->backward_fn && parent->visit_stamp != walk) {
        parent->visit_stamp = walk;
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }
  return order;
}

}  // namespace

void Tensor::Backward() {
  POISONREC_CHECK(is_scalar()) << "Backward() requires a scalar loss, got "
                               << ShapeString();
  Backward(std::vector<float>{1.0f});
}

void Tensor::Backward(const std::vector<float>& seed) {
  POISONREC_CHECK(defined());
  POISONREC_CHECK_EQ(seed.size(), size())
      << "Backward seed must match the shape " << ShapeString();
  POISONREC_CHECK(impl_->requires_grad)
      << "Backward() on a tensor that does not require grad";

  const std::vector<TensorImpl*> topo = TopologicalOrder(impl_.get());
  impl_->EnsureGrad();
  for (std::size_t i = 0; i < seed.size(); ++i) impl_->grad[i] += seed[i];
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    (*it)->backward_fn();
  }
}

// ---------------------------------------------------------------------------
// Ops
//
// Each op's forward loop lives in one *Forward helper taking raw impls:
// the op calls it once at build time, and the same helper (captured in
// a replay closure) recomputes the node when the PPO update replays its
// recorded graph. One source of truth per loop keeps replay trivially
// bit-identical to the original forward.
// ---------------------------------------------------------------------------

namespace {

void MatMulForward(const TensorImpl* ai, const TensorImpl* bi, TensorImpl* oi,
                   std::size_t m, std::size_t k, std::size_t n) {
  // GemmNN accumulates, so replay must clear the previous epoch's
  // values first (a no-op on the freshly zeroed first call).
  std::fill(oi->data.begin(), oi->data.end(), 0.0f);
  kernels::GemmNN(m, k, n, ai->data.data(), bi->data.data(),
                  oi->data.data());
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  POISONREC_CHECK_EQ(a.cols(), b.rows())
      << "MatMul shape mismatch " << a.ShapeString() << " * "
      << b.ShapeString();
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  auto out = NewNode(m, n);
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  kernels::GemmNN(m, k, n, a.data().data(), b.data().data(),
                  out->data.data());
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi, m, k, n]() {
          if (ai->requires_grad) {
            // dA(m×k) += dC(m×n) · Bᵀ (B stored k×n).
            kernels::GemmNT(m, n, k, oi->grad.data(), bi->data.data(),
                            ai->grad.data());
          }
          if (bi->requires_grad) {
            // dB(k×n) += Aᵀ · dC (A stored m×k).
            kernels::GemmTN(k, m, n, ai->data.data(), oi->grad.data(),
                            bi->grad.data());
          }
        },
        [ai, bi, oi, m, k, n]() { MatMulForward(ai, bi, oi, m, k, n); });
  }
  return result;
}

namespace {

enum class AddKind { kSame, kBroadcastRow };

AddKind CheckAddShapes(const Tensor& a, const Tensor& b) {
  if (a.rows() == b.rows() && a.cols() == b.cols()) return AddKind::kSame;
  POISONREC_CHECK(b.rows() == 1 && b.cols() == a.cols())
      << "Add/Sub shape mismatch " << a.ShapeString() << " vs "
      << b.ShapeString();
  return AddKind::kBroadcastRow;
}

// out = a + sign·b, row-partitioned. `sign` is ±1, so sign·b is exact
// and a + (−b) rounds exactly like a − b: one loop serves Add and Sub.
void AddForward(const TensorImpl* ai, const TensorImpl* bi, TensorImpl* oi,
                AddKind kind, float sign) {
  const std::size_t n = ai->cols;
  kernels::ParallelRows(
      ai->rows, ai->data.size(), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const float* a = ai->data.data() + r * n;
          const float* b =
              bi->data.data() + (kind == AddKind::kSame ? r * n : 0);
          float* o = oi->data.data() + r * n;
          for (std::size_t c = 0; c < n; ++c) o[c] = a[c] + sign * b[c];
        }
      });
}

// dst[i] += sign·src[i] over a flat buffer, partitioned by element.
void AccumulateScaled(float* dst, const float* src, std::size_t size,
                      float sign) {
  kernels::ParallelRows(size, size, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) dst[i] += sign * src[i];
  });
}

// Column width of one broadcast-bias gradient block, a 64-byte line of
// floats: every block re-reads all rows of the output gradient, so
// narrower blocks would multiply that traffic for no extra parallelism.
constexpr std::size_t kBiasColumnBlock = 16;

void AddBackward(TensorImpl* ai, TensorImpl* bi, const TensorImpl* oi,
                 AddKind kind, float sign) {
  if (ai->requires_grad) {
    AccumulateScaled(ai->grad.data(), oi->grad.data(), ai->grad.size(), 1.0f);
  }
  if (!bi->requires_grad) return;
  if (kind == AddKind::kSame) {
    AccumulateScaled(bi->grad.data(), oi->grad.data(), bi->grad.size(), sign);
    return;
  }
  // Broadcast bias: partitioned by column block, each column still
  // summing rows in ascending order — the serial loop's exact sequence.
  const std::size_t rows = oi->rows;
  const std::size_t n = oi->cols;
  const std::size_t blocks = (n + kBiasColumnBlock - 1) / kBiasColumnBlock;
  kernels::ParallelRows(
      blocks, oi->grad.size(), [&](std::size_t b0, std::size_t b1) {
        const std::size_t c0 = b0 * kBiasColumnBlock;
        const std::size_t c1 = std::min(n, b1 * kBiasColumnBlock);
        float* bg = bi->grad.data();
        for (std::size_t r = 0; r < rows; ++r) {
          const float* og = oi->grad.data() + r * n;
          for (std::size_t c = c0; c < c1; ++c) bg[c] += sign * og[c];
        }
      });
}

// Add (sign +1) and Sub (sign −1): the build-time forward and the replay
// closure run the same AddForward.
Tensor AddOrSub(const Tensor& a, const Tensor& b, float sign) {
  const AddKind kind = CheckAddShapes(a, b);
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  AddForward(ai, bi, oi, kind, sign);
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi, kind, sign]() { AddBackward(ai, bi, oi, kind, sign); },
        [ai, bi, oi, kind, sign]() { AddForward(ai, bi, oi, kind, sign); });
  }
  return result;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) { return AddOrSub(a, b, 1.0f); }

Tensor Sub(const Tensor& a, const Tensor& b) { return AddOrSub(a, b, -1.0f); }

namespace {

void MulForward(const TensorImpl* ai, const TensorImpl* bi, TensorImpl* oi,
                bool broadcast_col) {
  for (std::size_t r = 0; r < ai->rows; ++r) {
    for (std::size_t c = 0; c < ai->cols; ++c) {
      const float bv = broadcast_col ? bi->at(r, 0) : bi->at(r, c);
      oi->at(r, c) = ai->at(r, c) * bv;
    }
  }
}

}  // namespace

Tensor Mul(const Tensor& a, const Tensor& b) {
  const bool broadcast_col = (b.cols() == 1 && b.rows() == a.rows() &&
                              a.cols() != 1);
  if (!broadcast_col) {
    POISONREC_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
        << "Mul shape mismatch " << a.ShapeString() << " vs "
        << b.ShapeString();
  }
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  MulForward(ai, bi, oi, broadcast_col);
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi, broadcast_col]() {
          for (std::size_t r = 0; r < oi->rows; ++r) {
            for (std::size_t c = 0; c < oi->cols; ++c) {
              const float g = oi->gat(r, c);
              const float bv =
                  broadcast_col ? bi->data[r] : bi->at(r, c);
              if (ai->requires_grad) ai->gat(r, c) += g * bv;
              if (bi->requires_grad) {
                if (broadcast_col) {
                  bi->grad[r] += g * ai->at(r, c);
                } else {
                  bi->gat(r, c) += g * ai->at(r, c);
                }
              }
            }
          }
        },
        [ai, bi, oi, broadcast_col]() {
          MulForward(ai, bi, oi, broadcast_col);
        });
  }
  return result;
}

namespace {

// Shared scaffolding for elementwise unary ops:
// out = fwd(x), dx += dout * dfn(x, y). Both passes are partitioned by
// element, each element computed exactly as the serial loop would.
template <typename Fwd>
void UnaryForward(const TensorImpl* ai, TensorImpl* oi, const Fwd& fwd) {
  const float* x = ai->data.data();
  float* y = oi->data.data();
  kernels::ParallelRows(ai->data.size(), ai->data.size(),
                        [&](std::size_t i0, std::size_t i1) {
                          for (std::size_t i = i0; i < i1; ++i) {
                            y[i] = fwd(x[i]);
                          }
                        });
}

template <typename Fwd, typename Dfn>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Dfn dfn) {
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  UnaryForward(ai, oi, fwd);
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi, dfn]() {
          if (!ai->requires_grad) return;
          const float* x = ai->data.data();
          const float* y = oi->data.data();
          const float* gy = oi->grad.data();
          float* gx = ai->grad.data();
          kernels::ParallelRows(ai->grad.size(), ai->grad.size(),
                                [&](std::size_t i0, std::size_t i1) {
                                  for (std::size_t i = i0; i < i1; ++i) {
                                    gx[i] += gy[i] * dfn(x[i], y[i]);
                                  }
                                });
        },
        [ai, oi, fwd]() { UnaryForward(ai, oi, fwd); });
  }
  return result;
}

}  // namespace

Tensor Scale(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return StableSigmoid(x); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float slope) {
  return UnaryOp(
      a, [slope](float x) { return x > 0.0f ? x : slope * x; },
      [slope](float x, float) { return x > 0.0f ? 1.0f : slope; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        POISONREC_CHECK_GT(x, 0.0f) << "Log of non-positive value";
        return std::log(x);
      },
      [](float x, float) { return 1.0f / x; });
}

Tensor Softplus(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return StableSoftplus(x); },
      [](float x, float) { return StableSigmoid(x); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

namespace {

void SoftmaxForward(const TensorImpl* ai, TensorImpl* oi) {
  for (std::size_t r = 0; r < ai->rows; ++r) {
    float maxv = ai->at(r, 0);
    for (std::size_t c = 1; c < ai->cols; ++c) {
      maxv = std::max(maxv, ai->at(r, c));
    }
    float denom = 0.0f;
    for (std::size_t c = 0; c < ai->cols; ++c) {
      const float e = std::exp(ai->at(r, c) - maxv);
      oi->at(r, c) = e;
      denom += e;
    }
    for (std::size_t c = 0; c < ai->cols; ++c) oi->at(r, c) /= denom;
  }
}

void LogSoftmaxForward(const TensorImpl* ai, TensorImpl* oi) {
  for (std::size_t r = 0; r < ai->rows; ++r) {
    float maxv = ai->at(r, 0);
    for (std::size_t c = 1; c < ai->cols; ++c) {
      maxv = std::max(maxv, ai->at(r, c));
    }
    float denom = 0.0f;
    for (std::size_t c = 0; c < ai->cols; ++c) {
      denom += std::exp(ai->at(r, c) - maxv);
    }
    const float lse = maxv + std::log(denom);
    for (std::size_t c = 0; c < ai->cols; ++c) {
      oi->at(r, c) = ai->at(r, c) - lse;
    }
  }
}

}  // namespace

Tensor Softmax(const Tensor& a) {
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  SoftmaxForward(ai, oi);
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi]() {
          if (!ai->requires_grad) return;
          for (std::size_t r = 0; r < oi->rows; ++r) {
            float dot = 0.0f;
            for (std::size_t c = 0; c < oi->cols; ++c) {
              dot += oi->gat(r, c) * oi->at(r, c);
            }
            for (std::size_t c = 0; c < oi->cols; ++c) {
              ai->gat(r, c) += oi->at(r, c) * (oi->gat(r, c) - dot);
            }
          }
        },
        [ai, oi]() { SoftmaxForward(ai, oi); });
  }
  return result;
}

Tensor LogSoftmax(const Tensor& a) {
  auto out = NewNode(a.rows(), a.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  LogSoftmaxForward(ai, oi);
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi]() {
          if (!ai->requires_grad) return;
          for (std::size_t r = 0; r < oi->rows; ++r) {
            float gsum = 0.0f;
            for (std::size_t c = 0; c < oi->cols; ++c) gsum += oi->gat(r, c);
            for (std::size_t c = 0; c < oi->cols; ++c) {
              ai->gat(r, c) +=
                  oi->gat(r, c) - std::exp(oi->at(r, c)) * gsum;
            }
          }
        },
        [ai, oi]() { LogSoftmaxForward(ai, oi); });
  }
  return result;
}

Tensor Sum(const Tensor& a) {
  auto out = NewNode(1, 1);
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  float acc = 0.0f;
  for (float v : a.data()) acc += v;
  out->data[0] = acc;
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi]() {
          if (!ai->requires_grad) return;
          const float g = oi->grad[0];
          for (float& gv : ai->grad) gv += g;
        },
        [ai, oi]() {
          float sum = 0.0f;
          for (float v : ai->data) sum += v;
          oi->data[0] = sum;
        });
  }
  return result;
}

Tensor Mean(const Tensor& a) {
  POISONREC_CHECK_GT(a.size(), 0u);
  auto out = NewNode(1, 1);
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  float acc = 0.0f;
  for (float v : a.data()) acc += v;
  out->data[0] = acc / static_cast<float>(a.size());
  Tensor result(out);
  if (TrackGrad({&a})) {
    const float inv = 1.0f / static_cast<float>(a.size());
    Attach(
        out, {&a},
        [ai, oi, inv]() {
          if (!ai->requires_grad) return;
          const float g = oi->grad[0] * inv;
          for (float& gv : ai->grad) gv += g;
        },
        [ai, oi]() {
          float sum = 0.0f;
          for (float v : ai->data) sum += v;
          oi->data[0] = sum / static_cast<float>(ai->data.size());
        });
  }
  return result;
}

namespace {

void RowSumForward(const TensorImpl* ai, TensorImpl* oi) {
  for (std::size_t r = 0; r < ai->rows; ++r) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < ai->cols; ++c) acc += ai->at(r, c);
    oi->data[r] = acc;
  }
}

}  // namespace

Tensor RowSum(const Tensor& a) {
  auto out = NewNode(a.rows(), 1);
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  RowSumForward(ai, oi);
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi]() {
          if (!ai->requires_grad) return;
          for (std::size_t r = 0; r < ai->rows; ++r) {
            const float g = oi->grad[r];
            for (std::size_t c = 0; c < ai->cols; ++c) ai->gat(r, c) += g;
          }
        },
        [ai, oi]() { RowSumForward(ai, oi); });
  }
  return result;
}

namespace {

void TransposeForward(const TensorImpl* ai, TensorImpl* oi) {
  for (std::size_t r = 0; r < ai->rows; ++r) {
    for (std::size_t c = 0; c < ai->cols; ++c) {
      oi->at(c, r) = ai->at(r, c);
    }
  }
}

}  // namespace

Tensor Transpose(const Tensor& a) {
  auto out = NewNode(a.cols(), a.rows());
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  TransposeForward(ai, oi);
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi]() {
          if (!ai->requires_grad) return;
          for (std::size_t r = 0; r < ai->rows; ++r) {
            for (std::size_t c = 0; c < ai->cols; ++c) {
              ai->gat(r, c) += oi->gat(c, r);
            }
          }
        },
        [ai, oi]() { TransposeForward(ai, oi); });
  }
  return result;
}

namespace {

void ConcatColsForward(const TensorImpl* ai, const TensorImpl* bi,
                       TensorImpl* oi) {
  for (std::size_t r = 0; r < ai->rows; ++r) {
    for (std::size_t c = 0; c < ai->cols; ++c) oi->at(r, c) = ai->at(r, c);
    for (std::size_t c = 0; c < bi->cols; ++c) {
      oi->at(r, ai->cols + c) = bi->at(r, c);
    }
  }
}

void ConcatRowsForward(const std::vector<TensorImpl*>& parts,
                       TensorImpl* oi) {
  auto dst = oi->data.begin();
  for (const TensorImpl* pi : parts) {
    dst = std::copy(pi->data.begin(), pi->data.end(), dst);
  }
}

}  // namespace

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  POISONREC_CHECK_EQ(a.rows(), b.rows());
  auto out = NewNode(a.rows(), a.cols() + b.cols());
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  ConcatColsForward(ai, bi, oi);
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi]() {
          for (std::size_t r = 0; r < oi->rows; ++r) {
            if (ai->requires_grad) {
              for (std::size_t c = 0; c < ai->cols; ++c) {
                ai->gat(r, c) += oi->gat(r, c);
              }
            }
            if (bi->requires_grad) {
              for (std::size_t c = 0; c < bi->cols; ++c) {
                bi->gat(r, c) += oi->gat(r, ai->cols + c);
              }
            }
          }
        },
        [ai, bi, oi]() { ConcatColsForward(ai, bi, oi); });
  }
  return result;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  POISONREC_CHECK(!parts.empty());
  std::vector<const Tensor*> inputs;
  std::vector<TensorImpl*> impls;
  std::size_t rows = 0;
  for (const Tensor& part : parts) {
    POISONREC_CHECK_EQ(part.cols(), parts[0].cols());
    rows += part.rows();
    inputs.push_back(&part);
    impls.push_back(part.impl().get());
  }
  auto out = NewNode(rows, parts[0].cols());
  TensorImpl* oi = out.get();
  ConcatRowsForward(impls, oi);
  Tensor result(out);
  if (TrackGrad(inputs)) {
    Attach(
        out, inputs,
        [impls, oi]() {
          std::size_t offset = 0;
          for (TensorImpl* pi : impls) {
            if (pi->requires_grad) {
              for (std::size_t i = 0; i < pi->grad.size(); ++i) {
                pi->grad[i] += oi->grad[offset + i];
              }
            }
            offset += pi->data.size();
          }
        },
        [impls, oi]() { ConcatRowsForward(impls, oi); });
  }
  return result;
}

namespace {

void ColsForward(const TensorImpl* ai, TensorImpl* oi, std::size_t start,
                 std::size_t len) {
  for (std::size_t r = 0; r < ai->rows; ++r) {
    for (std::size_t c = 0; c < len; ++c) {
      oi->at(r, c) = ai->at(r, start + c);
    }
  }
}

}  // namespace

Tensor Cols(const Tensor& a, std::size_t start, std::size_t len) {
  POISONREC_CHECK_LE(start + len, a.cols());
  auto out = NewNode(a.rows(), len);
  TensorImpl* ai = a.impl().get();
  TensorImpl* oi = out.get();
  ColsForward(ai, oi, start, len);
  Tensor result(out);
  if (TrackGrad({&a})) {
    Attach(
        out, {&a},
        [ai, oi, start, len]() {
          if (!ai->requires_grad) return;
          for (std::size_t r = 0; r < ai->rows; ++r) {
            for (std::size_t c = 0; c < len; ++c) {
              ai->gat(r, start + c) += oi->gat(r, c);
            }
          }
        },
        [ai, oi, start, len]() { ColsForward(ai, oi, start, len); });
  }
  return result;
}

Tensor Rows(const Tensor& table, const std::vector<std::size_t>& indices) {
  const std::size_t dim = table.cols();
  auto out = NewNode(indices.size(), dim);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    POISONREC_CHECK_LT(indices[i], table.rows());
    std::copy(table.data().begin() +
                  static_cast<std::ptrdiff_t>(indices[i] * dim),
              table.data().begin() +
                  static_cast<std::ptrdiff_t>((indices[i] + 1) * dim),
              out->data.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }
  Tensor result(out);
  if (TrackGrad({&table})) {
    TensorImpl* ti = table.impl().get();
    TensorImpl* oi = out.get();
    // One shared index copy serves both closures.
    auto idx = std::make_shared<const std::vector<std::size_t>>(indices);
    Attach(
        out, {&table},
        [ti, oi, idx, dim]() {
          if (!ti->requires_grad) return;
          for (std::size_t i = 0; i < idx->size(); ++i) {
            float* dst = ti->grad.data() + (*idx)[i] * dim;
            const float* src = oi->grad.data() + i * dim;
            for (std::size_t c = 0; c < dim; ++c) dst[c] += src[c];
          }
        },
        [ti, oi, idx, dim]() {
          for (std::size_t i = 0; i < idx->size(); ++i) {
            std::copy(ti->data.begin() +
                          static_cast<std::ptrdiff_t>((*idx)[i] * dim),
                      ti->data.begin() +
                          static_cast<std::ptrdiff_t>(((*idx)[i] + 1) * dim),
                      oi->data.begin() + static_cast<std::ptrdiff_t>(i * dim));
          }
        });
  }
  return result;
}

namespace {

void RowDotForward(const TensorImpl* ai, const TensorImpl* bi,
                   TensorImpl* oi) {
  for (std::size_t r = 0; r < ai->rows; ++r) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < ai->cols; ++c) {
      acc += ai->at(r, c) * bi->at(r, c);
    }
    oi->data[r] = acc;
  }
}

}  // namespace

Tensor RowDot(const Tensor& a, const Tensor& b) {
  POISONREC_CHECK_EQ(a.rows(), b.rows());
  POISONREC_CHECK_EQ(a.cols(), b.cols());
  auto out = NewNode(a.rows(), 1);
  TensorImpl* ai = a.impl().get();
  TensorImpl* bi = b.impl().get();
  TensorImpl* oi = out.get();
  RowDotForward(ai, bi, oi);
  Tensor result(out);
  if (TrackGrad({&a, &b})) {
    Attach(
        out, {&a, &b},
        [ai, bi, oi]() {
          for (std::size_t r = 0; r < ai->rows; ++r) {
            const float g = oi->grad[r];
            for (std::size_t c = 0; c < ai->cols; ++c) {
              if (ai->requires_grad) ai->gat(r, c) += g * bi->at(r, c);
              if (bi->requires_grad) bi->gat(r, c) += g * ai->at(r, c);
            }
          }
        },
        [ai, bi, oi]() { RowDotForward(ai, bi, oi); });
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fused BCBT path log-probabilities
// ---------------------------------------------------------------------------

namespace {

// Target number of backward work chunks over the feature rows. Chunks
// only balance load; a row's accumulation order never depends on them.
constexpr std::size_t kTreePathChunks = 64;

// Index state of one TreePathLogProb node, shared by its forward, replay
// and backward closures. A recorded graph keeps its indices, so it is
// built once per op.
struct TreePathIndex {
  std::size_t item_rows = 0;
  std::vector<std::size_t> row_offsets;  // CSR over q rows (rows + 1)
  std::vector<std::size_t> chosen;       // D feature indices
  std::vector<std::size_t> sibling;      // D feature indices
  // The rest exists only when the op is taped.
  std::vector<float> diff;                  // D: o_sib − o_ch, last forward
  std::vector<std::uint32_t> decision_row;  // D: q row owning decision k
  // Feature row f receives entries [feature_offsets[f],
  // feature_offsets[f+1]) of feature_entries, in ascending decision
  // order, each encoded 2k + 1 when f is decision k's sibling and 2k when
  // it is the chosen child.
  std::vector<std::size_t> feature_offsets;
  std::vector<std::uint32_t> feature_entries;
  // Feature-row bounds of the backward's chunks (~equal entry counts).
  std::vector<std::size_t> chunk_bounds;

  const float* Feature(const TensorImpl* item, const TensorImpl* node,
                       std::size_t f, std::size_t dim) const {
    return f < item_rows ? item->data.data() + f * dim
                         : node->data.data() + (f - item_rows) * dim;
  }
};

// Inverts chosen/sibling into per-feature-row contribution lists and
// cuts the rows into load-balanced chunks.
void BuildTreePathBackwardIndex(TreePathIndex* ix, std::size_t features) {
  const std::size_t d = ix->chosen.size();
  POISONREC_CHECK_LT(d, std::size_t{1} << 31)
      << "TreePathLogProb: too many decisions for 32-bit entries";
  ix->decision_row.resize(d);
  for (std::size_t r = 0; r + 1 < ix->row_offsets.size(); ++r) {
    for (std::size_t k = ix->row_offsets[r]; k < ix->row_offsets[r + 1];
         ++k) {
      ix->decision_row[k] = static_cast<std::uint32_t>(r);
    }
  }
  ix->feature_offsets.assign(features + 1, 0);
  for (std::size_t k = 0; k < d; ++k) {
    ++ix->feature_offsets[ix->chosen[k] + 1];
    ++ix->feature_offsets[ix->sibling[k] + 1];
  }
  for (std::size_t f = 0; f < features; ++f) {
    ix->feature_offsets[f + 1] += ix->feature_offsets[f];
  }
  ix->feature_entries.resize(2 * d);
  std::vector<std::size_t> fill(ix->feature_offsets.begin(),
                                ix->feature_offsets.end() - 1);
  for (std::size_t k = 0; k < d; ++k) {
    const auto e = static_cast<std::uint32_t>(2 * k);
    ix->feature_entries[fill[ix->chosen[k]]++] = e;
    ix->feature_entries[fill[ix->sibling[k]]++] = e + 1;
  }
  const std::size_t target = std::max<std::size_t>(
      1, (2 * d + kTreePathChunks - 1) / kTreePathChunks);
  ix->chunk_bounds = {0};
  std::size_t chunk_start = 0;  // first entry of the open chunk
  for (std::size_t f = 0; f < features; ++f) {
    if (ix->feature_offsets[f + 1] - chunk_start >= target) {
      ix->chunk_bounds.push_back(f + 1);
      chunk_start = ix->feature_offsets[f + 1];
    }
  }
  if (ix->chunk_bounds.back() != features) {
    ix->chunk_bounds.push_back(features);
  }
}

// Row-parallel forward. Per decision it runs the unfused chain's exact
// float sequence: RowDot's sequential dots, Sub, Softplus, Scale(−1).
void TreePathForward(TreePathIndex* ix, const TensorImpl* qi,
                     const TensorImpl* item, const TensorImpl* node,
                     TensorImpl* oi) {
  const std::size_t dim = qi->cols;
  float* diff = ix->diff.empty() ? nullptr : ix->diff.data();
  kernels::ParallelRows(
      qi->rows, 2 * ix->chosen.size() * dim,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const float* q = qi->data.data() + r * dim;
          for (std::size_t k = ix->row_offsets[r]; k < ix->row_offsets[r + 1];
               ++k) {
            const float* ech = ix->Feature(item, node, ix->chosen[k], dim);
            const float* esib = ix->Feature(item, node, ix->sibling[k], dim);
            float o_ch = 0.0f;
            float o_sib = 0.0f;
            for (std::size_t c = 0; c < dim; ++c) o_ch += q[c] * ech[c];
            for (std::size_t c = 0; c < dim; ++c) o_sib += q[c] * esib[c];
            const float x = o_sib - o_ch;
            if (diff != nullptr) diff[k] = x;
            oi->data[k] = StableSoftplus(x) * -1.0f;
          }
        }
      });
}

// d out/d x = −σ(x), taken through the unfused chain's Scale(−1) and
// Softplus closures; the Sub then sends +g_x to the sibling's dot and
// −g_x to the chosen child's. Pass 1 owns d q by row; pass 2 owns the
// table gradients by destination feature row.
void TreePathBackward(const TreePathIndex& ix, TensorImpl* qi,
                      TensorImpl* item, TensorImpl* node,
                      const TensorImpl* oi) {
  const std::size_t dim = qi->cols;
  const std::size_t d = ix.chosen.size();
  std::vector<float> gdiff(d);
  kernels::ParallelRows(
      qi->rows, 2 * d * dim, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          float* gq = qi->requires_grad ? qi->grad.data() + r * dim : nullptr;
          for (std::size_t k = ix.row_offsets[r]; k < ix.row_offsets[r + 1];
               ++k) {
            const float g = (oi->grad[k] * -1.0f) * StableSigmoid(ix.diff[k]);
            gdiff[k] = g;
            if (gq == nullptr) continue;
            const float* ech = ix.Feature(item, node, ix.chosen[k], dim);
            const float* esib = ix.Feature(item, node, ix.sibling[k], dim);
            for (std::size_t c = 0; c < dim; ++c) gq[c] += g * esib[c];
            for (std::size_t c = 0; c < dim; ++c) gq[c] += -g * ech[c];
          }
        }
      });
  if (!item->requires_grad && !node->requires_grad) return;
  kernels::ParallelRows(
      ix.chunk_bounds.size() - 1, 2 * d * dim,
      [&](std::size_t c0, std::size_t c1) {
        for (std::size_t f = ix.chunk_bounds[c0]; f < ix.chunk_bounds[c1];
             ++f) {
          TensorImpl* table = f < ix.item_rows ? item : node;
          if (!table->requires_grad) continue;
          const std::size_t row = f < ix.item_rows ? f : f - ix.item_rows;
          float* dst = table->grad.data() + row * dim;
          for (std::size_t e = ix.feature_offsets[f];
               e < ix.feature_offsets[f + 1]; ++e) {
            const std::uint32_t entry = ix.feature_entries[e];
            const float g = (entry & 1u) != 0 ? gdiff[entry >> 1]
                                              : -gdiff[entry >> 1];
            const float* q =
                qi->data.data() + ix.decision_row[entry >> 1] * dim;
            for (std::size_t c = 0; c < dim; ++c) dst[c] += g * q[c];
          }
        }
      });
}

}  // namespace

Tensor TreePathLogProb(const Tensor& q, const Tensor& item_table,
                       const Tensor& node_table,
                       std::vector<std::size_t> row_offsets,
                       std::vector<std::size_t> chosen,
                       std::vector<std::size_t> sibling) {
  const std::size_t dim = q.cols();
  POISONREC_CHECK_EQ(item_table.cols(), dim);
  POISONREC_CHECK_EQ(node_table.cols(), dim);
  POISONREC_CHECK(item_table.impl() != node_table.impl())
      << "TreePathLogProb: item and node tables must be distinct tensors";
  POISONREC_CHECK_EQ(row_offsets.size(), q.rows() + 1);
  POISONREC_CHECK_EQ(row_offsets.front(), 0u);
  const std::size_t d = row_offsets.back();
  POISONREC_CHECK_EQ(chosen.size(), d);
  POISONREC_CHECK_EQ(sibling.size(), d);
  for (std::size_t r = 0; r < q.rows(); ++r) {
    POISONREC_CHECK_LE(row_offsets[r], row_offsets[r + 1]);
  }
  const std::size_t features = item_table.rows() + node_table.rows();
  for (std::size_t k = 0; k < d; ++k) {
    POISONREC_CHECK_LT(chosen[k], features);
    POISONREC_CHECK_LT(sibling[k], features);
  }

  auto ix = std::make_shared<TreePathIndex>();
  ix->item_rows = item_table.rows();
  ix->row_offsets = std::move(row_offsets);
  ix->chosen = std::move(chosen);
  ix->sibling = std::move(sibling);
  const bool track = TrackGrad({&q, &item_table, &node_table});
  if (track) {
    ix->diff.resize(d);
    BuildTreePathBackwardIndex(ix.get(), features);
  }

  auto out = NewNode(d, 1);
  TensorImpl* qi = q.impl().get();
  TensorImpl* itemi = item_table.impl().get();
  TensorImpl* nodei = node_table.impl().get();
  TensorImpl* oi = out.get();
  TreePathForward(ix.get(), qi, itemi, nodei, oi);
  Tensor result(out);
  if (track) {
    Attach(
        out, {&q, &item_table, &node_table},
        [ix, qi, itemi, nodei, oi]() {
          TreePathBackward(*ix, qi, itemi, nodei, oi);
        },
        [ix, qi, itemi, nodei, oi]() {
          TreePathForward(ix.get(), qi, itemi, nodei, oi);
        });
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fused LSTM gate tail
// ---------------------------------------------------------------------------

namespace {

// Forward for rows [r0, r1): activates the four gate blocks of `pre`
// into `act`, then produces c = f·c_prev + i·g and h = o·tanh(c) in the
// same per-element order the composed Sigmoid/Tanh/Mul/Add chain used.
void LstmGatesRows(std::size_t r0, std::size_t r1, std::size_t h,
                   const TensorImpl* pre, const TensorImpl* cprev,
                   TensorImpl* act, TensorImpl* cnew, TensorImpl* hnew) {
  for (std::size_t r = r0; r < r1; ++r) {
    const float* p = pre->data.data() + r * 4 * h;
    float* a = act->data.data() + r * 4 * h;
    const float* cp = cprev->data.data() + r * h;
    float* cn = cnew->data.data() + r * h;
    float* hn = hnew->data.data() + r * h;
    for (std::size_t j = 0; j < h; ++j) {
      const float ig = StableSigmoid(p[j]);
      const float fg = StableSigmoid(p[h + j]);
      const float gg = std::tanh(p[2 * h + j]);
      const float og = StableSigmoid(p[3 * h + j]);
      a[j] = ig;
      a[h + j] = fg;
      a[2 * h + j] = gg;
      a[3 * h + j] = og;
      const float c = fg * cp[j] + ig * gg;
      cn[j] = c;
      hn[j] = og * std::tanh(c);
    }
  }
}

}  // namespace

LstmGatesResult LstmGates(const Tensor& preact, const Tensor& c_prev) {
  POISONREC_CHECK_EQ(preact.rows(), c_prev.rows());
  POISONREC_CHECK_EQ(preact.cols(), 4 * c_prev.cols());
  const std::size_t rows = preact.rows();
  const std::size_t h = c_prev.cols();

  auto act = NewNode(rows, 4 * h);
  auto cnew = NewNode(rows, h);
  auto hnew = NewNode(rows, h);
  TensorImpl* pi = preact.impl().get();
  TensorImpl* ci = c_prev.impl().get();
  TensorImpl* acti = act.get();
  TensorImpl* cni = cnew.get();
  TensorImpl* hni = hnew.get();

  const auto forward = [pi, ci, acti, cni, hni, rows, h]() {
    kernels::ParallelRows(rows, rows * 4 * h,
                          [&](std::size_t r0, std::size_t r1) {
                            LstmGatesRows(r0, r1, h, pi, ci, acti, cni, hni);
                          });
  };
  forward();

  Tensor act_t(act);
  Tensor cnew_t(cnew);
  Tensor hnew_t(hnew);
  LstmGatesResult result{hnew_t, cnew_t};
  if (!TrackGrad({&preact, &c_prev})) return result;

  // Three tape nodes so reverse topological order visits h -> c -> act
  // and every cross-term (h's grad into c, c's grad into the gates)
  // lands exactly once. Each backward partitions by row with the same
  // ownership contract as the forward: a row's gradients are written
  // only by the thread that owns the row, so results are bit-identical
  // at every thread count.
  //
  // act = [σ(i) | σ(f) | tanh(g) | σ(o)] with parent `preact`. Its
  // replay closure reruns the whole fused forward (act, c, h); the
  // other two nodes' closures are no-ops, so a tape replay still
  // computes every value exactly once and in topological order (act is
  // registered first).
  Attach(
      act, {&preact},
      [pi, acti, rows, h]() {
        if (!pi->requires_grad) return;
        kernels::ParallelRows(
            rows, rows * 4 * h, [&](std::size_t r0, std::size_t r1) {
              for (std::size_t r = r0; r < r1; ++r) {
                const float* a = acti->data.data() + r * 4 * h;
                const float* ga = acti->grad.data() + r * 4 * h;
                float* gp = pi->grad.data() + r * 4 * h;
                for (std::size_t j = 0; j < h; ++j) {
                  gp[j] += ga[j] * a[j] * (1.0f - a[j]);
                  gp[h + j] += ga[h + j] * a[h + j] * (1.0f - a[h + j]);
                  gp[2 * h + j] +=
                      ga[2 * h + j] * (1.0f - a[2 * h + j] * a[2 * h + j]);
                  gp[3 * h + j] +=
                      ga[3 * h + j] * a[3 * h + j] * (1.0f - a[3 * h + j]);
                }
              }
            });
      },
      forward);

  // c = f·c_prev + i·g with parents {act, c_prev}.
  Attach(
      cnew, {&act_t, &c_prev},
      [ci, acti, cni, rows, h]() {
        kernels::ParallelRows(
            rows, rows * h, [&](std::size_t r0, std::size_t r1) {
              for (std::size_t r = r0; r < r1; ++r) {
                const float* a = acti->data.data() + r * 4 * h;
                const float* gc = cni->grad.data() + r * h;
                const float* cp = ci->data.data() + r * h;
                float* ga = acti->grad.data() + r * 4 * h;
                float* gcp =
                    ci->requires_grad ? ci->grad.data() + r * h : nullptr;
                for (std::size_t j = 0; j < h; ++j) {
                  const float g = gc[j];
                  ga[j] += g * a[2 * h + j];   // d i  = dc · g
                  ga[h + j] += g * cp[j];      // d f  = dc · c_prev
                  ga[2 * h + j] += g * a[j];   // d g  = dc · i
                  if (gcp != nullptr) gcp[j] += g * a[h + j];  // dc_prev
                }
              }
            });
      },
      []() {});

  // h = o·tanh(c) with parents {act, c}.
  Attach(
      hnew, {&act_t, &cnew_t},
      [acti, cni, hni, rows, h]() {
        kernels::ParallelRows(
            rows, rows * h, [&](std::size_t r0, std::size_t r1) {
              for (std::size_t r = r0; r < r1; ++r) {
                const float* a = acti->data.data() + r * 4 * h;
                const float* cn = cni->data.data() + r * h;
                const float* gh = hni->grad.data() + r * h;
                float* ga = acti->grad.data() + r * 4 * h;
                float* gc = cni->grad.data() + r * h;
                for (std::size_t j = 0; j < h; ++j) {
                  const float t = std::tanh(cn[j]);
                  ga[3 * h + j] += gh[j] * t;               // d o
                  gc[j] += gh[j] * a[3 * h + j] * (1.0f - t * t);
                }
              }
            });
      },
      []() {});

  return result;
}

// ---------------------------------------------------------------------------
// Fused GRU gate tail
// ---------------------------------------------------------------------------

namespace {

// Forward for rows [r0, r1). Per element it is the composed chain
//   z = σ(gx_z + 1·gh_z), r = σ(gx_r + 1·gh_r),
//   n = tanh(gx_n + 1·(r·gh_n)), h' = ((z·−1) + 1)·n + 1·(z·h_prev)
// in its op order (Add computes a + 1·b). When `act` is non-null the
// row's z, r and n are kept there, laid out like gx, for the backward.
void GruGatesRows(std::size_t r0, std::size_t r1, std::size_t h,
                  const TensorImpl* gxi, const TensorImpl* ghi,
                  const TensorImpl* hpi, float* act, TensorImpl* oi) {
  for (std::size_t r = r0; r < r1; ++r) {
    const float* x = gxi->data.data() + r * 3 * h;
    const float* g = ghi->data.data() + r * 3 * h;
    const float* hp = hpi->data.data() + r * h;
    float* out = oi->data.data() + r * h;
    float* a = act != nullptr ? act + r * 3 * h : nullptr;
    for (std::size_t j = 0; j < h; ++j) {
      const float z = StableSigmoid(x[j] + 1.0f * g[j]);
      const float rg = StableSigmoid(x[h + j] + 1.0f * g[h + j]);
      const float n = std::tanh(x[2 * h + j] + 1.0f * (rg * g[2 * h + j]));
      const float one_minus_z = z * -1.0f + 1.0f;
      out[j] = one_minus_z * n + 1.0f * (z * hp[j]);
      if (a != nullptr) {
        a[j] = z;
        a[h + j] = rg;
        a[2 * h + j] = n;
      }
    }
  }
}

// Backward for rows [r0, r1). Each step below is one composed op's
// closure, in the order the reverse-topological walk ran them: every
// intermediate gradient starts from 0 (so 0 + v, exactly as the fresh
// grad buffers did), an Add passes 0 + 1·g to both operands, and z's
// two contributions land in the walk's order (Mul(z, h_prev) first,
// then Scale(z, −1)).
void GruGatesBackwardRows(std::size_t r0, std::size_t r1, std::size_t h,
                          TensorImpl* gxi, TensorImpl* ghi, TensorImpl* hpi,
                          const float* act, const TensorImpl* oi) {
  for (std::size_t r = r0; r < r1; ++r) {
    const float* a = act + r * 3 * h;
    const float* ghv = ghi->data.data() + r * 3 * h;
    const float* hp = hpi->data.data() + r * h;
    const float* gout = oi->grad.data() + r * h;
    float* dgx = gxi->requires_grad ? gxi->grad.data() + r * 3 * h : nullptr;
    float* dgh = ghi->requires_grad ? ghi->grad.data() + r * 3 * h : nullptr;
    float* dhp = hpi->requires_grad ? hpi->grad.data() + r * h : nullptr;
    for (std::size_t j = 0; j < h; ++j) {
      const float z = a[j];
      const float rg = a[h + j];
      const float n = a[2 * h + j];
      const float one_minus_z = z * -1.0f + 1.0f;
      // h' = Add(Mul(1 − z, n), Mul(z, h_prev)).
      const float d_prod = 0.0f + 1.0f * gout[j];
      // Mul(z, h_prev).
      float dz = 0.0f + d_prod * hp[j];
      if (dhp != nullptr) dhp[j] += d_prod * z;
      // Mul(1 − z, n).
      const float d_one_minus_z = 0.0f + d_prod * n;
      const float dn = 0.0f + d_prod * one_minus_z;
      // Tanh, Add(gx_n, Mul(r, gh_n)), then that Mul.
      const float dn_sum = 0.0f + 1.0f * (0.0f + dn * (1.0f - n * n));
      const float dr = 0.0f + dn_sum * ghv[2 * h + j];
      const float dgh_n = 0.0f + dn_sum * rg;
      // Sigmoid, then Add(gx_r, gh_r).
      const float dr_sum = 0.0f + 1.0f * (0.0f + dr * (rg * (1.0f - rg)));
      // AddScalar(·, 1), then Scale(z, −1).
      dz += (0.0f + d_one_minus_z * 1.0f) * -1.0f;
      // Sigmoid, then Add(gx_z, gh_z).
      const float dz_sum = 0.0f + 1.0f * (0.0f + dz * (z * (1.0f - z)));
      // The Cols slices scatter into the gate blocks.
      if (dgh != nullptr) {
        dgh[j] += dz_sum;
        dgh[h + j] += dr_sum;
        dgh[2 * h + j] += dgh_n;
      }
      if (dgx != nullptr) {
        dgx[j] += dz_sum;
        dgx[h + j] += dr_sum;
        dgx[2 * h + j] += dn_sum;
      }
    }
  }
}

}  // namespace

Tensor GruGates(const Tensor& gx, const Tensor& gh, const Tensor& h_prev) {
  const std::size_t rows = h_prev.rows();
  const std::size_t h = h_prev.cols();
  POISONREC_CHECK(gx.rows() == rows && gx.cols() == 3 * h)
      << "GruGates: gx " << gx.ShapeString() << " vs h_prev "
      << h_prev.ShapeString();
  POISONREC_CHECK(gh.rows() == rows && gh.cols() == 3 * h)
      << "GruGates: gh " << gh.ShapeString() << " vs h_prev "
      << h_prev.ShapeString();
  auto out = NewNode(rows, h);
  TensorImpl* gxi = gx.impl().get();
  TensorImpl* ghi = gh.impl().get();
  TensorImpl* hpi = h_prev.impl().get();
  TensorImpl* oi = out.get();
  const bool track = TrackGrad({&gx, &gh, &h_prev});
  // z, r, n per element, kept for the backward only when taped.
  auto act = track ? std::make_shared<std::vector<float>>(rows * 3 * h)
                   : nullptr;
  const auto forward = [gxi, ghi, hpi, oi, act, rows, h]() {
    float* a = act != nullptr ? act->data() : nullptr;
    kernels::ParallelRows(rows, rows * 3 * h,
                          [&](std::size_t r0, std::size_t r1) {
                            GruGatesRows(r0, r1, h, gxi, ghi, hpi, a, oi);
                          });
  };
  forward();
  Tensor result(out);
  if (track) {
    Attach(
        out, {&gx, &gh, &h_prev},
        [gxi, ghi, hpi, oi, act, rows, h]() {
          kernels::ParallelRows(
              rows, rows * 3 * h, [&](std::size_t r0, std::size_t r1) {
                GruGatesBackwardRows(r0, r1, h, gxi, ghi, hpi, act->data(),
                                     oi);
              });
        },
        forward);
  }
  return result;
}

std::vector<float> NumericalGradient(
    const std::function<float(const Tensor&)>& f, Tensor x, float eps) {
  std::vector<float> grad(x.size());
  std::vector<float>& data = x.mutable_data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float saved = data[i];
    data[i] = saved + eps;
    const float fp = f(x);
    data[i] = saved - eps;
    const float fm = f(x);
    data[i] = saved;
    grad[i] = (fp - fm) / (2.0f * eps);
  }
  return grad;
}

}  // namespace poisonrec::nn
