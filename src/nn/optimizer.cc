#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"

namespace poisonrec::nn {

namespace {

// Flat elements per work item of a threaded Adam step: 8 KiB of each of
// data, grad, m and v, so one item's working set fits in L1.
constexpr std::size_t kAdamChunk = 2048;

struct AdamScalars {
  float lr, beta1, beta2, eps, weight_decay, bc1, bc2;
};

// One parameter's buffers, as seen by the element loop.
struct Segment {
  float* data;
  const float* grad;
  float* m;
  float* v;
};

// The Adam update of n consecutive elements. Every element is updated
// on its own, with the same operation sequence as a plain scalar loop;
// the __restrict pointers let the compiler vectorize it without alias
// checks (see the optimizer.cc flags in CMakeLists.txt).
void AdamElements(std::size_t n, const AdamScalars& s,
                  float* __restrict data, const float* __restrict grad,
                  float* __restrict m, float* __restrict v) {
  const float lr = s.lr, beta1 = s.beta1, beta2 = s.beta2, eps = s.eps;
  const float wd = s.weight_decay, bc1 = s.bc1, bc2 = s.bc2;
  for (std::size_t j = 0; j < n; ++j) {
    const float g = grad[j] + wd * data[j];
    m[j] = beta1 * m[j] + (1.0f - beta1) * g;
    v[j] = beta2 * v[j] + (1.0f - beta2) * g * g;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    data[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace

Optimizer::Optimizer(std::vector<Tensor> params)
    : params_(std::move(params)) {
  for (const Tensor& p : params_) {
    POISONREC_CHECK(p.requires_grad())
        << "optimizer parameter does not require grad";
  }
}

void Optimizer::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<Tensor> params, float lr, float weight_decay)
    : Optimizer(std::move(params)), lr_(lr), weight_decay_(weight_decay) {}

void Sgd::Step() {
  for (Tensor& p : params_) {
    if (p.grad().empty()) continue;
    std::vector<float>& data = p.mutable_data();
    const std::vector<float>& grad = p.grad();
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] -= lr_ * (grad[i] + weight_decay_ * data[i]);
    }
  }
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].size(), 0.0f);
    v_[i].assign(params_[i].size(), 0.0f);
  }
}

void Adam::Step() {
  ++step_count_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  // The parameters with a gradient this step, laid end to end as one
  // flat element range: segment s covers [begin[s], begin[s + 1]).
  std::vector<Segment> segments;
  std::vector<std::size_t> begin = {0};
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad().empty()) continue;
    segments.push_back({p.mutable_data().data(), p.grad().data(),
                        m_[i].data(), v_[i].data()});
    begin.push_back(begin.back() + p.size());
  }
  const std::size_t total = begin.back();
  const AdamScalars scalars{lr_, beta1_, beta2_, eps_, weight_decay_, bc1,
                            bc2};
  // Updates flat elements [lo, hi), which may span several parameters.
  const auto update = [&](std::size_t lo, std::size_t hi) {
    std::size_t s = static_cast<std::size_t>(
        std::upper_bound(begin.begin(), begin.end(), lo) - begin.begin() - 1);
    for (; lo < hi; ++s) {
      const std::size_t off = lo - begin[s];
      const std::size_t n = std::min(hi, begin[s + 1]) - lo;
      const Segment& seg = segments[s];
      AdamElements(n, scalars, seg.data + off, seg.grad + off, seg.m + off,
                   seg.v + off);
      lo += n;
    }
  };
  // One ParallelRows call per step over fixed-size chunks of the flat
  // range, with the element count as its work: bench_kernels' Adam cases
  // put the threading break-even between 16k and 32k elements, at the
  // shared cutoff, so GRU4Rec's ~10k-element steps stay inline while
  // NeuMF's ~38k-element steps thread. Every element is updated exactly
  // once, by one thread, so the result is bit-identical at every thread
  // count.
  const std::size_t chunks = (total + kAdamChunk - 1) / kAdamChunk;
  kernels::ParallelRows(chunks, total, [&](std::size_t c0, std::size_t c1) {
    update(c0 * kAdamChunk, std::min(total, c1 * kAdamChunk));
  });
}

Status Adam::RestoreState(std::size_t step_count,
                          std::vector<std::vector<float>> m,
                          std::vector<std::vector<float>> v) {
  if (m.size() != params_.size() || v.size() != params_.size()) {
    return Status::InvalidArgument(
        "Adam state has " + std::to_string(m.size()) + "/" +
        std::to_string(v.size()) + " moment vectors, model has " +
        std::to_string(params_.size()) + " parameters");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (m[i].size() != params_[i].size() || v[i].size() != params_[i].size()) {
      return Status::InvalidArgument("Adam moment size mismatch at parameter " +
                                     std::to_string(i));
    }
  }
  step_count_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

float GradNorm(const std::vector<Tensor>& params) {
  double sq = 0.0;
  for (const Tensor& p : params) {
    for (float g : p.grad()) sq += static_cast<double>(g) * g;
  }
  return static_cast<float>(std::sqrt(sq));
}

float ClipGradNorm(const std::vector<Tensor>& params, float max_norm) {
  const float norm = GradNorm(params);
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const Tensor& p : params) {
      // grad buffers are mutable through the shared impl
      auto& grad = const_cast<Tensor&>(p).mutable_grad();
      for (float& g : grad) g *= scale;
    }
  }
  return norm;
}

}  // namespace poisonrec::nn
