// Tests for nn modules: shapes, parameter plumbing, gradient flow, and
// end-to-end gradient checks through LSTM/GRU cells.
#include "nn/module.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace poisonrec::nn {
namespace {

TEST(LinearTest, OutputShapeAndBias) {
  Rng rng(1);
  Linear layer(3, 2, &rng);
  Tensor x = Tensor::Ones(4, 3);
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_EQ(layer.NumParameters(), 3u * 2u + 2u);
}

TEST(LinearTest, GradientFlowsToWeightAndBias) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  Tensor x = Tensor::Ones(1, 3);
  Tensor loss = Sum(Square(layer.Forward(x)));
  loss.Backward();
  float wg = 0.0f;
  for (float g : layer.weight().grad()) wg += std::abs(g);
  float bg = 0.0f;
  for (float g : layer.bias().grad()) bg += std::abs(g);
  EXPECT_GT(wg, 0.0f);
  EXPECT_GT(bg, 0.0f);
}

TEST(EmbeddingTest, LookupShapes) {
  Rng rng(3);
  Embedding emb(10, 4, &rng);
  Tensor rows = emb.Forward({1, 7, 1});
  EXPECT_EQ(rows.rows(), 3u);
  EXPECT_EQ(rows.cols(), 4u);
  // Repeated id returns identical rows.
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(rows.at(0, c), rows.at(2, c));
  }
}

TEST(EmbeddingTest, OnlyTouchedRowsGetGradient) {
  Rng rng(4);
  Embedding emb(5, 3, &rng);
  Tensor loss = Sum(emb.Forward({2}));
  loss.Backward();
  const std::vector<float>& g = emb.table().grad();
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (r == 2) {
        EXPECT_FLOAT_EQ(g[r * 3 + c], 1.0f);
      } else {
        EXPECT_FLOAT_EQ(g[r * 3 + c], 0.0f);
      }
    }
  }
}

TEST(MlpTest, HiddenReluFinalLinear) {
  Rng rng(5);
  Mlp mlp({4, 8, 2}, &rng);
  Tensor x = Tensor::Ones(3, 4);
  Tensor y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 2u);
  // Final layer is linear: outputs may be negative.
  EXPECT_EQ(mlp.Parameters().size(), 4u);
}

// A deep copy has the same values in parameter tensors of its own, so
// training the copy leaves the original untouched.
void ExpectOwnedCopy(const Module& original, const Module& copy) {
  const std::vector<Tensor> a = original.Parameters();
  const std::vector<Tensor> b = copy.Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NE(a[i].impl(), b[i].impl()) << "parameter " << i;
    EXPECT_EQ(a[i].data(), b[i].data()) << "parameter " << i;
    EXPECT_EQ(a[i].requires_grad(), b[i].requires_grad());
    Tensor bi = b[i];
    bi.mutable_data()[0] += 1.0f;
    EXPECT_NE(a[i].data(), b[i].data()) << "parameter " << i;
  }
}

TEST(DeepCopyTest, ModulesOwnTheirParameters) {
  Rng rng(6);
  const Mlp mlp({3, 4, 2}, &rng);
  ExpectOwnedCopy(mlp, mlp.DeepCopy());
  const Embedding emb(5, 3, &rng);
  ExpectOwnedCopy(emb, emb.DeepCopy());
  const GruCell gru(3, 4, &rng);
  ExpectOwnedCopy(gru, gru.DeepCopy());
}

TEST(LstmTest, StepShapesAndStateEvolution) {
  Rng rng(8);
  LstmCell lstm(4, 6, &rng);
  auto state = lstm.InitialState(2);
  EXPECT_EQ(state.h.rows(), 2u);
  EXPECT_EQ(state.h.cols(), 6u);
  Tensor x = Tensor::Ones(2, 4);
  auto next = lstm.Step(x, state);
  float moved = 0.0f;
  for (float v : next.h.data()) moved += std::abs(v);
  EXPECT_GT(moved, 0.0f);  // state moved away from zero
  // Cell state bounded by tanh dynamics: |h| < 1.
  for (float v : next.h.data()) EXPECT_LT(std::abs(v), 1.0f);
}

TEST(LstmTest, GradientThroughThreeSteps) {
  Rng rng(9);
  LstmCell lstm(3, 3, &rng);
  Tensor x = Tensor::Randn(2, 3, 0.5f, &rng, /*requires_grad=*/true);
  auto state = lstm.InitialState(2);
  for (int t = 0; t < 3; ++t) state = lstm.Step(x, state);
  Tensor loss = Sum(Square(state.h));
  loss.Backward();
  // Check input gradient numerically.
  std::vector<float> analytic = x.grad();
  std::vector<float> numeric = NumericalGradient(
      [&lstm](const Tensor& t) {
        NoGradGuard guard;
        auto s = lstm.InitialState(2);
        for (int i = 0; i < 3; ++i) s = lstm.Step(t, s);
        return Sum(Square(s.h)).item();
      },
      x, 1e-2f);
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    EXPECT_NEAR(analytic[i], numeric[i], 0.02f + 0.05f * std::abs(numeric[i]));
  }
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(10);
  LstmCell lstm(2, 4, &rng);
  // Parameters() returns by value; take a (shared-storage) copy instead
  // of a reference into the destroyed temporary vector.
  const Tensor bias = lstm.Parameters()[2];
  for (std::size_t c = 4; c < 8; ++c) {
    EXPECT_FLOAT_EQ(bias.at(0, c), 1.0f);
  }
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(bias.at(0, c), 0.0f);
  }
}

TEST(GruTest, StepShapes) {
  Rng rng(11);
  GruCell gru(4, 5, &rng);
  Tensor h = gru.InitialState(3);
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 5u);
  Tensor x = Tensor::Ones(3, 4);
  Tensor h2 = gru.Step(x, h);
  EXPECT_EQ(h2.rows(), 3u);
  EXPECT_EQ(h2.cols(), 5u);
}

TEST(GruTest, GradientThroughSteps) {
  Rng rng(12);
  GruCell gru(3, 3, &rng);
  Tensor x = Tensor::Randn(1, 3, 0.5f, &rng, true);
  Tensor h = gru.InitialState(1);
  for (int t = 0; t < 3; ++t) h = gru.Step(x, h);
  Tensor loss = Sum(Square(h));
  loss.Backward();
  std::vector<float> numeric = NumericalGradient(
      [&gru](const Tensor& t) {
        NoGradGuard guard;
        Tensor s = gru.InitialState(1);
        for (int i = 0; i < 3; ++i) s = gru.Step(t, s);
        return Sum(Square(s)).item();
      },
      x, 1e-2f);
  for (std::size_t i = 0; i < numeric.size(); ++i) {
    EXPECT_NEAR(x.grad()[i], numeric[i],
                0.02f + 0.05f * std::abs(numeric[i]));
  }
}

TEST(GruTest, InterpolatesBetweenStateAndCandidate) {
  // h' = (1-z) n + z h is a convex combination, so |h'| stays bounded by
  // max(|h|, 1) since |n| < 1.
  Rng rng(13);
  GruCell gru(2, 4, &rng);
  Tensor h = gru.InitialState(1);
  Tensor x = Tensor::Full(1, 2, 3.0f);
  for (int t = 0; t < 50; ++t) h = gru.Step(x, h);
  for (float v : h.data()) EXPECT_LE(std::abs(v), 1.0f + 1e-5f);
}

TEST(ModuleTest, ZeroGradClears) {
  Rng rng(14);
  Linear layer(2, 2, &rng);
  Tensor loss = Sum(layer.Forward(Tensor::Ones(1, 2)));
  loss.Backward();
  layer.ZeroGrad();
  for (float g : layer.weight().grad()) EXPECT_EQ(g, 0.0f);
}

// Training property: a 2-layer MLP learns XOR with Adam.
TEST(ModuleTest, MlpLearnsXor) {
  Rng rng(15);
  Mlp mlp({2, 8, 1}, &rng);
  Adam opt(mlp.Parameters(), 0.05f);
  Tensor x = Tensor::FromData(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y = Tensor::FromData(4, 1, {0, 1, 1, 0});
  float final_loss = 1.0f;
  for (int step = 0; step < 400; ++step) {
    Tensor pred = Sigmoid(mlp.Forward(x));
    Tensor loss = Mean(Square(Sub(pred, y)));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.05f);
}

}  // namespace
}  // namespace poisonrec::nn
