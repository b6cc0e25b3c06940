// Optimizer tests: SGD/Adam mechanics and convergence, gradient
// clipping, and Adam's vectorized, threaded step pinned bit for bit
// against a plain scalar loop.
#include "nn/optimizer.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels.h"
#include "nn/tensor.h"
#include "util/random.h"

namespace poisonrec::nn {
namespace {

TEST(SgdTest, SingleStepMatchesFormula) {
  Tensor w = Tensor::FromData(1, 1, {1.0f}, true);
  Sgd opt({w}, /*lr=*/0.1f);
  Tensor loss = Square(w);  // dL/dw = 2w = 2
  loss.Backward();
  opt.Step();
  EXPECT_NEAR(w.at(0, 0), 1.0f - 0.1f * 2.0f, 1e-6f);
}

TEST(SgdTest, WeightDecayShrinks) {
  Tensor w = Tensor::FromData(1, 1, {1.0f}, true);
  Sgd opt({w}, 0.1f, /*weight_decay=*/1.0f);
  w.mutable_grad().assign(1, 0.0f);
  w.mutable_grad()[0] = 0.0f;
  opt.Step();  // pure decay: w -= lr * wd * w
  EXPECT_NEAR(w.at(0, 0), 0.9f, 1e-6f);
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Tensor w = Tensor::FromData(1, 2, {5.0f, -3.0f}, true);
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    Tensor loss = Sum(Square(w));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.at(0, 0), 0.0f, 1e-4f);
  EXPECT_NEAR(w.at(0, 1), 0.0f, 1e-4f);
}

TEST(AdamTest, FirstStepIsLrSized) {
  // With bias correction, the first Adam step ~= lr * sign(grad).
  Tensor w = Tensor::FromData(1, 1, {0.0f}, true);
  Adam opt({w}, 0.01f);
  w.mutable_grad()[0] = 5.0f;
  opt.Step();
  EXPECT_NEAR(w.at(0, 0), -0.01f, 1e-4f);
}

TEST(AdamTest, ConvergesOnShiftedQuadratic) {
  Tensor w = Tensor::FromData(1, 3, {4.0f, -2.0f, 9.0f}, true);
  Tensor target = Tensor::FromData(1, 3, {1.0f, 2.0f, 3.0f});
  Adam opt({w}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    Tensor loss = Sum(Square(Sub(w, target)));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(w.at(0, c), target.at(0, c), 1e-2f);
  }
}

TEST(AdamTest, StepCountAdvances) {
  Tensor w = Tensor::FromData(1, 1, {1.0f}, true);
  Adam opt({w}, 0.01f);
  EXPECT_EQ(opt.step_count(), 0u);
  w.mutable_grad()[0] = 1.0f;
  opt.Step();
  opt.Step();
  EXPECT_EQ(opt.step_count(), 2u);
}

// Adam as a plain scalar loop over each parameter's buffers: the
// reference the optimizer's step must reproduce bit for bit. A
// parameter with an empty gradient is skipped.
struct ReferenceAdam {
  float lr = 0.0f;
  float weight_decay = 0.0f;
  std::size_t step = 0;
  std::vector<std::vector<float>> data, m, v;

  void Step(const std::vector<std::vector<float>>& grad) {
    const float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
    ++step;
    const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(step));
    const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(step));
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (grad[i].empty()) continue;
      for (std::size_t j = 0; j < data[i].size(); ++j) {
        const float g = grad[i][j] + weight_decay * data[i][j];
        m[i][j] = beta1 * m[i][j] + (1.0f - beta1) * g;
        v[i][j] = beta2 * v[i][j] + (1.0f - beta2) * g * g;
        const float mhat = m[i][j] / bc1;
        const float vhat = v[i][j] / bc2;
        data[i][j] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
    }
  }
};

// Index of the first element whose bit pattern differs, or -1.
long FirstBitMismatch(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (std::bit_cast<std::uint32_t>(a[j]) !=
        std::bit_cast<std::uint32_t>(b[j])) {
      return static_cast<long>(j);
    }
  }
  return -1;
}

std::size_t CountSubnormal(const std::vector<std::vector<float>>& buffers) {
  std::size_t n = 0;
  for (const auto& b : buffers) {
    for (float x : b) n += std::fpclassify(x) == FP_SUBNORMAL;
  }
  return n;
}

// Runs several Adam steps over a mixed parameter set and compares the
// parameters and both moments with ReferenceAdam after every step.
//   - Sizes 1, 3, 7 and 17 leave a vector epilogue; 2047, 2049 and 4101
//     straddle the optimizer's 2048-element chunks, so chunks span
//     parameter boundaries.
//   - The total (~38k elements, NeuMF's size) is above the threading
//     cutoff, so at more than one kernel thread the step is threaded.
//   - Every 7th element starts with subnormal moments, zero gradient and
//     a zero or subnormal value, and a few gradients are subnormal.
//   - One parameter has an empty gradient and must be left untouched.
void ExpectAdamMatchesReference(float weight_decay, std::size_t threads) {
  SCOPED_TRACE("weight_decay=" + std::to_string(weight_decay) +
               " threads=" + std::to_string(threads));
  SetNumThreads(threads);
  const std::vector<std::size_t> sizes = {1,    3,    7,     17,   2047, 5,
                                          2049, 4101, 10416, 20000};
  const std::size_t empty_grad = 5;  // index of the skipped parameter
  const float tiny = std::numeric_limits<float>::denorm_min();
  Rng rng(7);
  ReferenceAdam ref;
  ref.lr = 0.05f;
  ref.weight_decay = weight_decay;
  std::vector<Tensor> params;
  for (std::size_t size : sizes) {
    std::vector<float> data(size), m(size), v(size);
    for (std::size_t j = 0; j < size; ++j) {
      if (j % 7 == 3) {
        data[j] = j % 2 == 0 ? 0.0f : 5.0f * tiny;
        m[j] = tiny;
        v[j] = 3.0f * tiny;
        continue;
      }
      data[j] = static_cast<float>(rng.Uniform(-0.5, 0.5));
    }
    params.push_back(Tensor::FromData(1, size, data, /*requires_grad=*/true));
    ref.data.push_back(std::move(data));
    ref.m.push_back(std::move(m));
    ref.v.push_back(std::move(v));
  }
  params[empty_grad].mutable_grad().clear();
  const std::vector<float> skipped_before = ref.data[empty_grad];
  Adam adam(params, ref.lr, 0.9f, 0.999f, 1e-8f, weight_decay);
  ASSERT_TRUE(adam.RestoreState(0, ref.m, ref.v).ok());

  for (int step = 0; step < 5; ++step) {
    std::vector<std::vector<float>> grads(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (i == empty_grad) continue;
      std::vector<float>& g = params[i].mutable_grad();
      for (std::size_t j = 0; j < g.size(); ++j) {
        const double u = rng.Uniform(0.0, 1.0);
        // Mostly zero, as for embedding rows outside the batch.
        g[j] = j % 7 == 3 ? (u < 0.1 ? 2.0f * tiny : 0.0f)
               : u < 0.8  ? 0.0f
                          : static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
      grads[i] = g;
    }
    adam.Step();
    ref.Step(grads);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      SCOPED_TRACE("step " + std::to_string(step) + " parameter " +
                   std::to_string(i));
      EXPECT_EQ(FirstBitMismatch(params[i].data(), ref.data[i]), -1);
      EXPECT_EQ(FirstBitMismatch(adam.first_moments()[i], ref.m[i]), -1);
      EXPECT_EQ(FirstBitMismatch(adam.second_moments()[i], ref.v[i]), -1);
    }
  }
  EXPECT_EQ(FirstBitMismatch(params[empty_grad].data(), skipped_before), -1);
  // Subnormal state survives the steps. Flush-to-zero or
  // denormals-are-zero (as -ffast-math's crtfastmath.o would set)
  // would zero every one of them, in the reference loop too.
  EXPECT_GT(CountSubnormal(adam.first_moments()), 0u);
  EXPECT_GT(CountSubnormal(adam.second_moments()), 0u);
  SetNumThreads(0);
}

TEST(AdamTest, BitwiseMatchesScalarReferenceSingleThread) {
  ExpectAdamMatchesReference(0.0f, 1);
  ExpectAdamMatchesReference(1e-4f, 1);
}

TEST(AdamTest, BitwiseMatchesScalarReferenceThreaded) {
  const std::size_t hardware = GetNumThreads();  // budget 0 = nproc
  for (std::size_t threads : {std::size_t{3}, hardware}) {
    ExpectAdamMatchesReference(0.0f, threads);
    ExpectAdamMatchesReference(1e-4f, threads);
  }
}

TEST(OptimizerTest, ZeroGradClearsAll) {
  Tensor a = Tensor::FromData(1, 1, {1.0f}, true);
  Tensor b = Tensor::FromData(1, 2, {1.0f, 2.0f}, true);
  Sgd opt({a, b}, 0.1f);
  a.mutable_grad()[0] = 3.0f;
  b.mutable_grad()[1] = 4.0f;
  opt.ZeroGrad();
  EXPECT_EQ(a.grad()[0], 0.0f);
  EXPECT_EQ(b.grad()[1], 0.0f);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Tensor w = Tensor::FromData(1, 2, {0.0f, 0.0f}, true);
  w.mutable_grad() = {3.0f, 4.0f};  // norm 5
  const float before = ClipGradNorm({w}, 1.0f);
  EXPECT_NEAR(before, 5.0f, 1e-5f);
  const float after = std::sqrt(w.grad()[0] * w.grad()[0] +
                                w.grad()[1] * w.grad()[1]);
  EXPECT_NEAR(after, 1.0f, 1e-5f);
  // Direction preserved.
  EXPECT_NEAR(w.grad()[0] / w.grad()[1], 0.75f, 1e-5f);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Tensor w = Tensor::FromData(1, 2, {0.0f, 0.0f}, true);
  w.mutable_grad() = {0.3f, 0.4f};  // norm 0.5
  ClipGradNorm({w}, 1.0f);
  EXPECT_FLOAT_EQ(w.grad()[0], 0.3f);
  EXPECT_FLOAT_EQ(w.grad()[1], 0.4f);
}

}  // namespace
}  // namespace poisonrec::nn
