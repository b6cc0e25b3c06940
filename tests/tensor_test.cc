// Autograd correctness: forward values and gradient checks against
// numerical differentiation for every op.
#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "gru_oracle.h"
#include "nn/graph.h"
#include "nn/kernels.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tree_path_oracle.h"
#include "util/random.h"

namespace poisonrec::nn {
namespace {

constexpr float kTol = 2e-2f;   // numerical-gradient tolerance (float math)
constexpr float kEps = 1e-2f;   // finite-difference step

// Checks d(loss(x))/dx against central differences, where graph(x) must
// return a scalar tensor built from x.
void CheckGradient(Tensor x, const std::function<Tensor(const Tensor&)>& graph) {
  Tensor loss = graph(x);
  ASSERT_TRUE(loss.is_scalar());
  loss.Backward();
  std::vector<float> analytic = x.grad();
  std::vector<float> numeric = NumericalGradient(
      [&graph](const Tensor& t) {
        NoGradGuard guard;
        return graph(t).item();
      },
      x, kEps);
  ASSERT_EQ(analytic.size(), numeric.size());
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    EXPECT_NEAR(analytic[i], numeric[i],
                kTol * (1.0f + std::abs(numeric[i])))
        << "component " << i;
  }
}

Tensor RandomTensor(std::size_t rows, std::size_t cols, std::uint64_t seed,
                    bool requires_grad = true) {
  Rng rng(seed);
  return Tensor::Randn(rows, cols, 0.5f, &rng, requires_grad);
}

TEST(TensorBasics, FactoriesAndShape) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2u);
  EXPECT_EQ(z.cols(), 3u);
  EXPECT_EQ(z.size(), 6u);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);

  Tensor o = Tensor::Ones(3, 1);
  for (float v : o.data()) EXPECT_EQ(v, 1.0f);

  Tensor f = Tensor::Full(1, 4, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);

  Tensor d = Tensor::FromData(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(d.at(0, 0), 1.0f);
  EXPECT_EQ(d.at(1, 1), 4.0f);
}

TEST(TensorBasics, DeepCopyDetaches) {
  Tensor a = Tensor::FromData(1, 2, {1, 2}, /*requires_grad=*/true);
  Tensor b = a.DeepCopy();
  b.set(0, 0, 99.0f);
  EXPECT_EQ(a.at(0, 0), 1.0f);
  EXPECT_FALSE(b.requires_grad());
}

TEST(TensorBasics, CopyAliases) {
  Tensor a = Tensor::FromData(1, 2, {1, 2});
  Tensor b = a;  // aliasing copy
  b.set(0, 0, 7.0f);
  EXPECT_EQ(a.at(0, 0), 7.0f);
}

TEST(TensorBasics, ItemRequiresScalar) {
  Tensor a = Tensor::Zeros(1, 1);
  EXPECT_EQ(a.item(), 0.0f);
}

TEST(TensorForward, MatMulValues) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorForward, AddBroadcastRow) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor bias = Tensor::FromData(1, 2, {10, 20});
  Tensor c = Add(a, bias);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 24.0f);
}

TEST(TensorForward, MulBroadcastColumn) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor col = Tensor::FromData(2, 1, {2, 10});
  Tensor c = Mul(a, col);
  EXPECT_FLOAT_EQ(c.at(0, 2), 6.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 40.0f);
}

TEST(TensorForward, SoftmaxRowsSumToOne) {
  Tensor a = RandomTensor(4, 7, 11, /*requires_grad=*/false);
  Tensor s = Softmax(a);
  for (std::size_t r = 0; r < s.rows(); ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < s.cols(); ++c) {
      sum += s.at(r, c);
      EXPECT_GE(s.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorForward, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = RandomTensor(3, 5, 12, false);
  Tensor ls = LogSoftmax(a);
  Tensor s = Softmax(a);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(ls.data()[i], std::log(s.data()[i]), 1e-5f);
  }
}

TEST(TensorForward, SoftmaxStableForLargeLogits) {
  Tensor a = Tensor::FromData(1, 3, {1000.0f, 1001.0f, 999.0f});
  Tensor s = Softmax(a);
  for (float v : s.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(s.at(0, 1), s.at(0, 0));
}

TEST(TensorForward, TransposeRoundTrip) {
  Tensor a = RandomTensor(3, 4, 13, false);
  Tensor t = Transpose(Transpose(a));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], t.data()[i]);
  }
}

TEST(TensorForward, RowsGathers) {
  Tensor table = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor picked = Rows(table, {2, 0, 2});
  EXPECT_FLOAT_EQ(picked.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(picked.at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(picked.at(2, 1), 6.0f);
}

TEST(TensorForward, ColsSlices) {
  Tensor a = Tensor::FromData(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor mid = Cols(a, 1, 2);
  EXPECT_EQ(mid.cols(), 2u);
  EXPECT_FLOAT_EQ(mid.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(mid.at(1, 1), 7.0f);
}

TEST(TensorForward, ConcatColsAndRows) {
  Tensor a = Tensor::FromData(2, 1, {1, 2});
  Tensor b = Tensor::FromData(2, 2, {3, 4, 5, 6});
  Tensor cc = ConcatCols(a, b);
  EXPECT_EQ(cc.cols(), 3u);
  EXPECT_FLOAT_EQ(cc.at(1, 2), 6.0f);

  Tensor c = Tensor::FromData(1, 2, {7, 8});
  Tensor cr = ConcatRows({b, c});
  EXPECT_EQ(cr.rows(), 3u);
  EXPECT_FLOAT_EQ(cr.at(2, 1), 8.0f);
}

TEST(TensorForward, NoGradGuardSkipsTape) {
  Tensor a = RandomTensor(2, 2, 14);
  NoGradGuard guard;
  Tensor b = Relu(a);
  EXPECT_FALSE(b.requires_grad());
}

// -- Gradient checks --------------------------------------------------------

TEST(TensorGrad, MatMulLeft) {
  Tensor b = RandomTensor(3, 2, 21, false);
  CheckGradient(RandomTensor(2, 3, 20),
                [&b](const Tensor& x) { return Sum(MatMul(x, b)); });
}

TEST(TensorGrad, MatMulRight) {
  Tensor a = RandomTensor(2, 3, 22, false);
  CheckGradient(RandomTensor(3, 2, 23),
                [&a](const Tensor& x) { return Sum(MatMul(a, x)); });
}

TEST(TensorGrad, AddSameShape) {
  Tensor b = RandomTensor(2, 3, 24, false);
  CheckGradient(RandomTensor(2, 3, 25), [&b](const Tensor& x) {
    return Sum(Mul(Add(x, b), Add(x, b)));
  });
}

TEST(TensorGrad, AddBroadcastBias) {
  Tensor a = RandomTensor(4, 3, 26, false);
  CheckGradient(RandomTensor(1, 3, 27), [&a](const Tensor& x) {
    return Sum(Square(Add(a, x)));
  });
}

TEST(TensorGrad, SubBroadcast) {
  Tensor a = RandomTensor(4, 3, 28, false);
  CheckGradient(RandomTensor(1, 3, 29), [&a](const Tensor& x) {
    return Sum(Square(Sub(a, x)));
  });
}

TEST(TensorGrad, MulElementwise) {
  Tensor b = RandomTensor(3, 3, 30, false);
  CheckGradient(RandomTensor(3, 3, 31),
                [&b](const Tensor& x) { return Sum(Mul(x, b)); });
}

TEST(TensorGrad, MulBroadcastColumn) {
  Tensor a = RandomTensor(3, 4, 32, false);
  CheckGradient(RandomTensor(3, 1, 33),
                [&a](const Tensor& x) { return Sum(Mul(a, x)); });
}

TEST(TensorGrad, Sigmoid) {
  CheckGradient(RandomTensor(2, 4, 34),
                [](const Tensor& x) { return Sum(Sigmoid(x)); });
}

TEST(TensorGrad, TanhOp) {
  CheckGradient(RandomTensor(2, 4, 35),
                [](const Tensor& x) { return Sum(Tanh(x)); });
}

TEST(TensorGrad, Softplus) {
  CheckGradient(RandomTensor(2, 4, 36),
                [](const Tensor& x) { return Sum(Softplus(x)); });
}

TEST(TensorGrad, ExpLog) {
  CheckGradient(RandomTensor(2, 3, 37), [](const Tensor& x) {
    return Sum(Log(AddScalar(Exp(x), 1.0f)));
  });
}

TEST(TensorGrad, LeakyReluGrad) {
  CheckGradient(RandomTensor(3, 3, 38),
                [](const Tensor& x) { return Sum(LeakyRelu(x, 0.2f)); });
}

TEST(TensorGrad, SquareScale) {
  CheckGradient(RandomTensor(2, 2, 39), [](const Tensor& x) {
    return Mean(Scale(Square(x), 3.0f));
  });
}

TEST(TensorGrad, SoftmaxWeighted) {
  Tensor w = RandomTensor(2, 5, 40, false);
  CheckGradient(RandomTensor(2, 5, 41), [&w](const Tensor& x) {
    return Sum(Mul(Softmax(x), w));
  });
}

TEST(TensorGrad, LogSoftmaxWeighted) {
  Tensor w = RandomTensor(2, 5, 42, false);
  CheckGradient(RandomTensor(2, 5, 43), [&w](const Tensor& x) {
    return Sum(Mul(LogSoftmax(x), w));
  });
}

TEST(TensorGrad, RowSumWeighted) {
  Tensor w = RandomTensor(3, 1, 44, false);
  CheckGradient(RandomTensor(3, 4, 45), [&w](const Tensor& x) {
    return Sum(Mul(RowSum(x), w));
  });
}

TEST(TensorGrad, TransposeChain) {
  Tensor b = RandomTensor(2, 3, 46, false);
  CheckGradient(RandomTensor(3, 2, 47), [&b](const Tensor& x) {
    return Sum(Mul(Transpose(x), b));
  });
}

TEST(TensorGrad, ConcatColsBoth) {
  Tensor b = RandomTensor(2, 2, 48, false);
  CheckGradient(RandomTensor(2, 3, 49), [&b](const Tensor& x) {
    return Sum(Square(ConcatCols(x, b)));
  });
}

TEST(TensorGrad, ConcatRowsBoth) {
  Tensor b = RandomTensor(2, 3, 50, false);
  CheckGradient(RandomTensor(4, 3, 51), [&b](const Tensor& x) {
    return Sum(Square(ConcatRows({b, x})));
  });
}

TEST(TensorGrad, ConcatRowsThreePartsOneWithoutGrad) {
  // Each part's gradient is read at its row offset; the part without
  // grad in the middle is skipped but still shifts the offset after it.
  Tensor a = RandomTensor(1, 3, 52);
  Tensor b = RandomTensor(2, 3, 53, false);
  CheckGradient(RandomTensor(3, 3, 54), [&a, &b](const Tensor& x) {
    return Sum(Square(ConcatRows({a, b, x})));
  });

  Tensor x = RandomTensor(3, 3, 55);
  a.ZeroGrad();
  Tensor cat = ConcatRows({a, b, x});
  ASSERT_EQ(cat.rows(), 6u);
  std::vector<float> want = a.data();
  want.insert(want.end(), b.data().begin(), b.data().end());
  want.insert(want.end(), x.data().begin(), x.data().end());
  EXPECT_EQ(cat.data(), want);
  std::vector<float> seed(cat.size());
  for (std::size_t i = 0; i < seed.size(); ++i) seed[i] = 1.0f + i;
  cat.Backward(seed);
  EXPECT_EQ(a.grad(), std::vector<float>(seed.begin(), seed.begin() + 3));
  EXPECT_TRUE(b.grad().empty());
  EXPECT_EQ(x.grad(), std::vector<float>(seed.begin() + 9, seed.end()));
}

TEST(TensorGrad, RowsScatterAccumulates) {
  // The same row gathered twice must receive twice the gradient.
  Tensor table = Tensor::FromData(2, 2, {1, 2, 3, 4}, true);
  Tensor picked = Rows(table, {0, 0, 1});
  Tensor loss = Sum(picked);
  loss.Backward();
  EXPECT_FLOAT_EQ(table.grad()[0], 2.0f);  // row 0 twice
  EXPECT_FLOAT_EQ(table.grad()[2], 1.0f);  // row 1 once
}

TEST(TensorGrad, RowsNumerical) {
  CheckGradient(RandomTensor(4, 3, 52), [](const Tensor& x) {
    return Sum(Square(Rows(x, {1, 3, 1})));
  });
}

TEST(TensorGrad, ColsNumerical) {
  CheckGradient(RandomTensor(3, 6, 53), [](const Tensor& x) {
    return Sum(Square(Cols(x, 2, 3)));
  });
}

TEST(TensorGrad, RowDotBoth) {
  Tensor b = RandomTensor(3, 4, 54, false);
  CheckGradient(RandomTensor(3, 4, 55), [&b](const Tensor& x) {
    return Sum(Square(RowDot(x, b)));
  });
}

TEST(TensorGrad, ReusedNodeAccumulates) {
  // x used twice in the graph: d(x*x + 3x)/dx = 2x + 3.
  Tensor x = Tensor::FromData(1, 1, {2.0f}, true);
  Tensor loss = Add(Mul(x, x), Scale(x, 3.0f));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
}

TEST(TensorGrad, DeepChainStaysFinite) {
  // A 100-step chain exercises the iterative topological sort.
  Tensor x = RandomTensor(1, 8, 56);
  Tensor h = x;
  for (int i = 0; i < 100; ++i) {
    h = Tanh(h);
  }
  Tensor loss = Sum(h);
  loss.Backward();
  for (float g : x.grad()) {
    EXPECT_TRUE(std::isfinite(g));
  }
}

TEST(TapeWalkTest, FourContributionsSumInReverseTopologicalOrder) {
  // Four gradients meet y. Their values make float addition order
  // visible: each order of the last two additions rounds differently.
  const float a = -33554432.0f, b = 1.5f, c = 33554432.0f, d = 1.25f;
  Tensor x = Tensor::FromData(1, 1, {1.0f}, true);
  Tensor y = Scale(x, 1.0f);
  Tensor ca = Scale(y, a);
  Tensor cb = Scale(y, b);
  Tensor cc = Scale(y, c);
  Tensor cd = Scale(y, d);
  Tensor loss = Add(Add(cc, ca), Add(cd, cb));
  loss.Backward();
  // Post-order DFS (parents in edge order): y, cc, ca, Add(cc, ca), cd,
  // cb, Add(cd, cb), loss. Backward runs it reversed, so y receives
  // cb, cd, ca, cc — in that order, each onto the running sum.
  const float expected = (((0.0f + b) + d) + a) + c;
  EXPECT_EQ(y.grad()[0], expected);
  EXPECT_EQ(x.grad()[0], expected);
  // The reverse creation order (cd, cc, cb, ca) sums to another value,
  // so a walk that reorders these closures fails the checks above.
  EXPECT_NE(expected, (((0.0f + d) + c) + b) + a);
}

TEST(TapeWalkTest, LaterWalkRevisitsNodesAnEarlierWalkMarked) {
  // Each walk marks nodes with its own id, so a second Backward through
  // t (already marked by the first) still runs t's closure.
  Tensor x = Tensor::FromData(1, 1, {1.0f}, true);
  Tensor t = Scale(x, 2.0f);
  Sum(t).Backward();  // t.grad = 1, x.grad = 2
  EXPECT_EQ(x.grad()[0], 2.0f);
  Sum(Scale(t, 3.0f)).Backward();  // t.grad = 1 + 3, x.grad = 2 + 4·2
  EXPECT_EQ(t.grad()[0], 4.0f);
  EXPECT_EQ(x.grad()[0], 10.0f);
}

// Property sweep: random graphs of mixed ops gradient-check cleanly.
class MixedGraphGradTest : public ::testing::TestWithParam<int> {};

TEST_P(MixedGraphGradTest, NumericalAgreement) {
  const int seed = GetParam();
  Tensor w = RandomTensor(4, 4, seed * 1000 + 1, false);
  CheckGradient(RandomTensor(2, 4, seed * 1000), [&w](const Tensor& x) {
    Tensor h = Tanh(MatMul(x, w));
    h = Add(h, x);
    h = Relu(h);
    return Mean(Square(h));
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedGraphGradTest,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// TreePathLogProb against the unfused oracle chain
// ---------------------------------------------------------------------------

// Kernel thread count for the invariance checks: the machine's, but at
// least two so the threaded branch runs.
std::size_t ManyThreads() {
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

// Restores the process-wide kernel thread budget on scope exit.
struct ThreadBudget {
  explicit ThreadBudget(std::size_t n) { SetNumThreads(n); }
  ~ThreadBudget() { SetNumThreads(0); }
};

struct TreePathCase {
  Tensor q, item, node;
  std::vector<std::size_t> row_offsets, chosen, sibling;
  Tensor weights;  // (D x 1) loss weights, so every decision's grad differs
};

// Random decisions over `rows` query rows (0..max_depth each, some rows
// empty). Feature indices are drawn from a small hot range half the time
// so many decisions share table rows, as the top BCBT levels do.
TreePathCase MakeTreePathCase(std::size_t rows, std::size_t dim,
                              std::size_t item_rows, std::size_t node_rows,
                              std::size_t max_depth, std::uint64_t seed) {
  Rng rng(seed);
  TreePathCase c;
  c.q = Tensor::Randn(rows, dim, 0.5f, &rng, true);
  c.item = Tensor::Randn(item_rows, dim, 0.5f, &rng, true);
  c.node = Tensor::Randn(node_rows, dim, 0.5f, &rng, true);
  const std::size_t features = item_rows + node_rows;
  c.row_offsets.push_back(0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t depth = rng.Index(max_depth + 1);
    for (std::size_t d = 0; d < depth; ++d) {
      const std::size_t range = rng.Uniform() < 0.5 ? 6 : features;
      const std::size_t ch = rng.Index(range);
      std::size_t sib = rng.Index(features - 1);
      if (sib >= ch) ++sib;
      c.chosen.push_back(ch);
      c.sibling.push_back(sib);
    }
    c.row_offsets.push_back(c.chosen.size());
  }
  c.weights = Tensor::Randn(c.chosen.size(), 1, 1.0f, &rng);
  return c;
}

Tensor FusedOn(const TreePathCase& c) {
  return TreePathLogProb(c.q, c.item, c.node, c.row_offsets, c.chosen,
                         c.sibling);
}

Tensor OracleOn(const TreePathCase& c) {
  return testing::UnfusedTreePathLogProb(c.q, c.item, c.node, c.row_offsets,
                                         c.chosen, c.sibling);
}

struct TreePathRun {
  std::vector<float> out, dq, ditem, dnode;
};

// Forward + backward of sum(weights ⊙ op(c)), from zeroed gradients.
TreePathRun RunTreePath(const TreePathCase& c,
                        Tensor (*op)(const TreePathCase&)) {
  c.q.impl()->grad.assign(c.q.size(), 0.0f);
  c.item.impl()->grad.assign(c.item.size(), 0.0f);
  c.node.impl()->grad.assign(c.node.size(), 0.0f);
  Tensor out = op(c);
  Sum(Mul(out, c.weights)).Backward();
  return {out.data(), c.q.grad(), c.item.grad(), c.node.grad()};
}

TEST(TreePathLogProbTest, ForwardIsBitwiseEqualToUnfusedChain) {
  const TreePathCase c = MakeTreePathCase(37, 8, 11, 9, 5, 101);
  const Tensor fused = FusedOn(c);
  const Tensor oracle = OracleOn(c);
  ASSERT_EQ(fused.rows(), c.chosen.size());
  ASSERT_EQ(fused.cols(), 1u);
  EXPECT_EQ(fused.data(), oracle.data());
  for (float v : fused.data()) EXPECT_LE(v, 0.0f);  // log-probabilities
  NoGradScope no_grad;  // the untaped forward computes the same values
  EXPECT_EQ(FusedOn(c).data(), oracle.data());
}

TEST(TreePathLogProbTest, GradientsMatchUnfusedChainWithinBound) {
  const TreePathCase c = MakeTreePathCase(61, 8, 13, 12, 6, 102);
  const TreePathRun fused = RunTreePath(c, FusedOn);
  const TreePathRun oracle = RunTreePath(c, OracleOn);
  EXPECT_EQ(fused.out, oracle.out);
  EXPECT_LE(testing::MaxRelativeDeviation(fused.dq, oracle.dq),
            testing::kTreePathGradRelTol);
  EXPECT_LE(testing::MaxRelativeDeviation(fused.ditem, oracle.ditem),
            testing::kTreePathGradRelTol);
  EXPECT_LE(testing::MaxRelativeDeviation(fused.dnode, oracle.dnode),
            testing::kTreePathGradRelTol);
}

TEST(TreePathLogProbTest, ThreadCountInvariantAboveParallelThreshold) {
  // 2·D·dim multiply-adds well above the kernels' threading threshold.
  const TreePathCase c = MakeTreePathCase(512, 16, 300, 299, 10, 103);
  ASSERT_GT(2 * c.chosen.size() * 16, std::size_t{1} << 16);
  TreePathRun one, many;
  {
    ThreadBudget budget(1);
    one = RunTreePath(c, FusedOn);
  }
  {
    ThreadBudget budget(ManyThreads());
    many = RunTreePath(c, FusedOn);
  }
  EXPECT_EQ(one.out, many.out);
  EXPECT_EQ(one.dq, many.dq);
  EXPECT_EQ(one.ditem, many.ditem);
  EXPECT_EQ(one.dnode, many.dnode);
  // ...and the threaded run still agrees with the oracle.
  const TreePathRun oracle = RunTreePath(c, OracleOn);
  EXPECT_EQ(many.out, oracle.out);
  EXPECT_LE(testing::MaxRelativeDeviation(many.dq, oracle.dq),
            testing::kTreePathGradRelTol);
  EXPECT_LE(testing::MaxRelativeDeviation(many.ditem, oracle.ditem),
            testing::kTreePathGradRelTol);
  EXPECT_LE(testing::MaxRelativeDeviation(many.dnode, oracle.dnode),
            testing::kTreePathGradRelTol);
}

TEST(TreePathLogProbTest, GraphReplayMatchesFreshTape) {
  TreePathCase c = MakeTreePathCase(300, 16, 40, 39, 8, 104);
  GraphTape tape;
  Tensor out;
  {
    GraphTape::RecordScope record(&tape);
    out = FusedOn(c);
  }
  // New leaf values, as after an optimizer step, then replay.
  Rng rng(7);
  for (Tensor* t : {&c.q, &c.item, &c.node}) {
    for (float& v : t->mutable_data()) {
      v += static_cast<float>(rng.Normal(0.0, 0.1));
    }
    t->impl()->grad.assign(t->size(), 0.0f);
  }
  tape.ReplayForward();
  tape.ZeroGrads();
  // d/d out of sum(weights ⊙ out) is the weights, bit for bit.
  out.Backward(c.weights.data());
  const TreePathRun replayed = {out.data(), c.q.grad(), c.item.grad(),
                                c.node.grad()};
  const TreePathRun fresh = RunTreePath(c, FusedOn);
  EXPECT_EQ(replayed.out, fresh.out);
  EXPECT_EQ(replayed.dq, fresh.dq);
  EXPECT_EQ(replayed.ditem, fresh.ditem);
  EXPECT_EQ(replayed.dnode, fresh.dnode);
}

TEST(TreePathLogProbTest, NumericalGradients) {
  const TreePathCase c = MakeTreePathCase(5, 3, 4, 3, 3, 105);
  ASSERT_FALSE(c.chosen.empty());
  const auto graph_of = [&c](int which) {
    return [&c, which](const Tensor& x) {
      return Sum(Mul(TreePathLogProb(which == 0 ? x : c.q,
                                     which == 1 ? x : c.item,
                                     which == 2 ? x : c.node, c.row_offsets,
                                     c.chosen, c.sibling),
                     c.weights));
    };
  };
  CheckGradient(c.q.DeepCopy(true), graph_of(0));
  CheckGradient(c.item.DeepCopy(true), graph_of(1));
  CheckGradient(c.node.DeepCopy(true), graph_of(2));
}

// ---------------------------------------------------------------------------
// GruGates against the composed oracle chain
// ---------------------------------------------------------------------------

using GatesFn = Tensor (*)(const Tensor&, const Tensor&, const Tensor&);
using testing::ComposedGruGates;

// GRU4Rec's parameters: item table plus one GRU cell's weights and
// biases (random biases, so the bias gradients are not trivial).
struct GruModel {
  Tensor table, w_x, w_h, b_x, b_h;

  std::vector<Tensor> Parameters() const {
    return {table, w_x, w_h, b_x, b_h};
  }
  GruModel DeepCopy() const {
    return {table.DeepCopy(true), w_x.DeepCopy(true), w_h.DeepCopy(true),
            b_x.DeepCopy(true), b_h.DeepCopy(true)};
  }
};

GruModel MakeGruModel(std::size_t items, std::size_t dim,
                      std::uint64_t seed) {
  Rng rng(seed);
  return {Tensor::Randn(items, dim, 0.3f, &rng, true),
          Tensor::Randn(dim, 3 * dim, 0.3f, &rng, true),
          Tensor::Randn(dim, 3 * dim, 0.3f, &rng, true),
          Tensor::Randn(1, 3 * dim, 0.1f, &rng, true),
          Tensor::Randn(1, 3 * dim, 0.1f, &rng, true)};
}

// The taped per-step nodes of one sequence, for gradient comparisons.
struct GruTape {
  std::vector<Tensor> gx, gh, h;
};

// GRU4Rec's loss on one sequence (Gru4Rec::TrainEpochs): per position a
// GRU step, a sampled softmax of the next item against `negatives` items
// drawn from `seed`, the step losses chained with Add, then scaled by
// 1/steps.
Tensor GruSequenceLoss(const GruModel& m, GatesFn gates,
                       const std::vector<std::size_t>& seq,
                       std::size_t negatives, std::uint64_t seed,
                       GruTape* tape = nullptr) {
  Rng rng(seed);
  Tensor h = Tensor::Zeros(1, m.w_h.rows());
  Tensor loss;
  std::size_t steps = 0;
  for (std::size_t p = 0; p + 1 < seq.size(); ++p) {
    Tensor x = Rows(m.table, {seq[p]});
    Tensor gx = Add(MatMul(x, m.w_x), m.b_x);
    Tensor gh = Add(MatMul(h, m.w_h), m.b_h);
    h = gates(gx, gh, h);
    if (tape != nullptr) {
      tape->gx.push_back(gx);
      tape->gh.push_back(gh);
      tape->h.push_back(h);
    }
    std::vector<std::size_t> cands = {seq[p + 1]};
    for (std::size_t n = 0; n < negatives; ++n) {
      cands.push_back(rng.Index(m.table.rows()));
    }
    Tensor logits = MatMul(h, Transpose(Rows(m.table, cands)));
    Tensor step_loss = SoftmaxCrossEntropy(logits, {0});
    loss = steps == 0 ? step_loss : Add(loss, step_loss);
    ++steps;
  }
  return Scale(loss, 1.0f / static_cast<float>(steps));
}

const std::vector<std::size_t> kGruSequence = {3, 17, 5, 5, 28, 0, 11, 3,
                                               22, 9, 14, 30, 7};

TEST(GruGatesTest, SequenceForwardAndGradientsBitwiseEqualComposedChain) {
  const GruModel fused_model = MakeGruModel(31, 8, 301);
  const GruModel oracle_model = fused_model.DeepCopy();
  GruTape fused_tape, oracle_tape;
  Tensor fused = GruSequenceLoss(fused_model, GruGates, kGruSequence, 6, 302,
                                 &fused_tape);
  Tensor oracle = GruSequenceLoss(oracle_model, ComposedGruGates,
                                  kGruSequence, 6, 302, &oracle_tape);
  EXPECT_EQ(fused.item(), oracle.item());
  fused.Backward();
  oracle.Backward();
  ASSERT_EQ(fused_tape.h.size(), kGruSequence.size() - 1);
  for (std::size_t t = 0; t < fused_tape.h.size(); ++t) {
    EXPECT_EQ(fused_tape.h[t].data(), oracle_tape.h[t].data()) << "step " << t;
    EXPECT_EQ(fused_tape.gx[t].grad(), oracle_tape.gx[t].grad())
        << "step " << t;
    EXPECT_EQ(fused_tape.gh[t].grad(), oracle_tape.gh[t].grad())
        << "step " << t;
    // h_t is step t+1's h_prev.
    EXPECT_EQ(fused_tape.h[t].grad(), oracle_tape.h[t].grad()) << "step " << t;
  }
  const std::vector<Tensor> fp = fused_model.Parameters();
  const std::vector<Tensor> op = oracle_model.Parameters();
  for (std::size_t i = 0; i < fp.size(); ++i) {
    EXPECT_EQ(fp[i].grad(), op[i].grad()) << "parameter " << i;
    EXPECT_TRUE(std::any_of(fp[i].grad().begin(), fp[i].grad().end(),
                            [](float g) { return g != 0.0f; }))
        << "parameter " << i << " got no gradient";
  }
}

TEST(GruGatesTest, AdamStepsBitwiseEqualComposedChain) {
  const GruModel fused_model = MakeGruModel(31, 8, 303);
  const GruModel oracle_model = fused_model.DeepCopy();
  // Gru4Rec::TrainEpochs' optimizer settings.
  Adam fused_opt(fused_model.Parameters(), 0.05f, 0.9f, 0.999f, 1e-8f, 1e-4f);
  Adam oracle_opt(oracle_model.Parameters(), 0.05f, 0.9f, 0.999f, 1e-8f,
                  1e-4f);
  for (std::uint64_t step = 0; step < 20; ++step) {
    std::vector<std::size_t> seq = kGruSequence;
    std::rotate(seq.begin(), seq.begin() + step % seq.size(), seq.end());
    for (auto [model, opt, gates] :
         {std::tuple{&fused_model, &fused_opt, GatesFn{GruGates}},
          std::tuple{&oracle_model, &oracle_opt, GatesFn{ComposedGruGates}}}) {
      opt->ZeroGrad();
      GruSequenceLoss(*model, gates, seq, 6, 400 + step).Backward();
      opt->Step();
    }
  }
  const std::vector<Tensor> fp = fused_model.Parameters();
  const std::vector<Tensor> op = oracle_model.Parameters();
  for (std::size_t i = 0; i < fp.size(); ++i) {
    EXPECT_EQ(fp[i].data(), op[i].data()) << "parameter " << i;
  }
  EXPECT_EQ(fused_opt.first_moments(), oracle_opt.first_moments());
  EXPECT_EQ(fused_opt.second_moments(), oracle_opt.second_moments());
  // The parameters moved, so the comparison covered real updates.
  EXPECT_NE(fused_model.w_x.data(), MakeGruModel(31, 8, 303).w_x.data());
}

struct GruGatesCase {
  Tensor gx, gh, h_prev, weights;
};

GruGatesCase MakeGruGatesCase(std::size_t rows, std::size_t h,
                              std::uint64_t seed) {
  Rng rng(seed);
  return {Tensor::Randn(rows, 3 * h, 1.0f, &rng, true),
          Tensor::Randn(rows, 3 * h, 1.0f, &rng, true),
          Tensor::Randn(rows, h, 1.0f, &rng, true),
          Tensor::Randn(rows, h, 1.0f, &rng)};
}

struct GruGatesRun {
  std::vector<float> out, dgx, dgh, dh;
};

// Forward + backward of sum(weights ⊙ gates(c)), from zeroed gradients.
GruGatesRun RunGruGates(const GruGatesCase& c, GatesFn gates) {
  for (const Tensor* t : {&c.gx, &c.gh, &c.h_prev}) {
    t->impl()->grad.assign(t->size(), 0.0f);
  }
  Tensor out = gates(c.gx, c.gh, c.h_prev);
  Sum(Mul(out, c.weights)).Backward();
  return {out.data(), c.gx.grad(), c.gh.grad(), c.h_prev.grad()};
}

void ExpectSameRun(const GruGatesRun& a, const GruGatesRun& b) {
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(a.dgx, b.dgx);
  EXPECT_EQ(a.dgh, b.dgh);
  EXPECT_EQ(a.dh, b.dh);
}

TEST(GruGatesTest, ThreadCountInvariantAboveParallelThreshold) {
  // rows·3h well above the kernels' threading threshold.
  const GruGatesCase c = MakeGruGatesCase(512, 32, 304);
  ASSERT_GT(512u * 3 * 32, std::size_t{1} << 15);
  GruGatesRun one, many;
  {
    ThreadBudget budget(1);
    one = RunGruGates(c, GruGates);
  }
  {
    ThreadBudget budget(ManyThreads());
    many = RunGruGates(c, GruGates);
  }
  ExpectSameRun(one, many);
  ExpectSameRun(many, RunGruGates(c, ComposedGruGates));
  NoGradScope no_grad;  // the untaped forward computes the same values
  EXPECT_EQ(GruGates(c.gx, c.gh, c.h_prev).data(), many.out);
}

TEST(GruGatesTest, GraphReplayMatchesFreshTape) {
  GruGatesCase c = MakeGruGatesCase(7, 5, 305);
  GraphTape tape;
  Tensor out;
  {
    GraphTape::RecordScope record(&tape);
    out = GruGates(c.gx, c.gh, c.h_prev);
  }
  // New leaf values, as after an optimizer step, then replay.
  Rng rng(8);
  for (Tensor* t : {&c.gx, &c.gh, &c.h_prev}) {
    for (float& v : t->mutable_data()) {
      v += static_cast<float>(rng.Normal(0.0, 0.3));
    }
    t->impl()->grad.assign(t->size(), 0.0f);
  }
  tape.ReplayForward();
  tape.ZeroGrads();
  // d/d out of sum(weights ⊙ out) is the weights, bit for bit.
  out.Backward(c.weights.data());
  const GruGatesRun replayed = {out.data(), c.gx.grad(), c.gh.grad(),
                                c.h_prev.grad()};
  ExpectSameRun(replayed, RunGruGates(c, GruGates));
  ExpectSameRun(replayed, RunGruGates(c, ComposedGruGates));
}

TEST(GruGatesTest, NumericalGradients) {
  const GruGatesCase c = MakeGruGatesCase(3, 4, 306);
  const auto graph_of = [&c](int which) {
    return [&c, which](const Tensor& x) {
      return Sum(Mul(GruGates(which == 0 ? x : c.gx, which == 1 ? x : c.gh,
                              which == 2 ? x : c.h_prev),
                     c.weights));
    };
  };
  CheckGradient(c.gx.DeepCopy(true), graph_of(0));
  CheckGradient(c.gh.DeepCopy(true), graph_of(1));
  CheckGradient(c.h_prev.DeepCopy(true), graph_of(2));
}

// ---------------------------------------------------------------------------
// Threaded elementwise ops: thread-count invariance + serial reference
// ---------------------------------------------------------------------------

// 1024 x 48 = 49152 elements, above the kernels' threading threshold;
// 48 columns give the bias gradient three column blocks.
constexpr std::size_t kBigRows = 1024;
constexpr std::size_t kBigCols = 48;

struct ElementwiseRun {
  std::vector<float> out, da, db;
};

// out = op(a, b); loss = sum(out ⊙ w), so d out = w exactly.
ElementwiseRun RunBinary(Tensor (*op)(const Tensor&, const Tensor&),
                         const Tensor& a, const Tensor& b, const Tensor& w) {
  a.impl()->grad.assign(a.size(), 0.0f);
  b.impl()->grad.assign(b.size(), 0.0f);
  Tensor out = op(a, b);
  Sum(Mul(out, w)).Backward();
  return {out.data(), a.grad(), b.grad()};
}

// The pre-threading serial loops, written out.
ElementwiseRun SerialBinary(float sign, const Tensor& a, const Tensor& b,
                            const Tensor& w) {
  const bool bias = b.rows() == 1 && a.rows() != 1;
  ElementwiseRun ref;
  ref.out.resize(a.size());
  ref.da.assign(a.size(), 0.0f);
  ref.db.assign(b.size(), 0.0f);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const std::size_t i = r * a.cols() + c;
      const float bv = bias ? b.at(0, c) : b.at(r, c);
      ref.out[i] = sign > 0.0f ? a.data()[i] + bv : a.data()[i] - bv;
      ref.da[i] += w.data()[i];
      float& db = bias ? ref.db[c] : ref.db[i];
      if (sign > 0.0f) {
        db += w.data()[i];
      } else {
        db -= w.data()[i];
      }
    }
  }
  return ref;
}

void ExpectBinaryThreadInvariant(Tensor (*op)(const Tensor&, const Tensor&),
                                 float sign, std::size_t b_rows,
                                 std::uint64_t seed) {
  const Tensor a = RandomTensor(kBigRows, kBigCols, seed);
  const Tensor b = RandomTensor(b_rows, kBigCols, seed + 1);
  const Tensor w = RandomTensor(kBigRows, kBigCols, seed + 2, false);
  ElementwiseRun one, many;
  {
    ThreadBudget budget(1);
    one = RunBinary(op, a, b, w);
  }
  {
    ThreadBudget budget(ManyThreads());
    many = RunBinary(op, a, b, w);
  }
  const ElementwiseRun ref = SerialBinary(sign, a, b, w);
  for (const ElementwiseRun* run : {&one, &many}) {
    EXPECT_EQ(run->out, ref.out);
    EXPECT_EQ(run->da, ref.da);
    EXPECT_EQ(run->db, ref.db);
  }
}

TEST(ThreadedElementwiseTest, AddSameShapeMatchesSerialAtEveryThreadCount) {
  ExpectBinaryThreadInvariant(Add, 1.0f, kBigRows, 201);
}

TEST(ThreadedElementwiseTest, AddBiasMatchesSerialAtEveryThreadCount) {
  ExpectBinaryThreadInvariant(Add, 1.0f, 1, 204);
}

TEST(ThreadedElementwiseTest, SubSameShapeMatchesSerialAtEveryThreadCount) {
  ExpectBinaryThreadInvariant(Sub, -1.0f, kBigRows, 207);
}

TEST(ThreadedElementwiseTest, SubBiasMatchesSerialAtEveryThreadCount) {
  ExpectBinaryThreadInvariant(Sub, -1.0f, 1, 210);
}

TEST(ThreadedElementwiseTest, UnaryOpsMatchSerialAtEveryThreadCount) {
  const Tensor x = RandomTensor(kBigRows, kBigCols, 213);
  const Tensor w = RandomTensor(kBigRows, kBigCols, 214, false);
  struct Case {
    Tensor (*op)(const Tensor&);
    float (*fwd)(float);
    float (*dfn)(float x, float y);
  };
  const Case cases[] = {
      {Softplus,
       [](float v) {
         return v > 0.0f ? v + std::log1p(std::exp(-v))
                         : std::log1p(std::exp(v));
       },
       [](float v, float) {
         return v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                          : std::exp(v) / (1.0f + std::exp(v));
       }},
      {Relu, [](float v) { return v > 0.0f ? v : 0.0f; },
       [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; }},
      {Exp, [](float v) { return std::exp(v); },
       [](float, float y) { return y; }},
  };
  for (const Case& k : cases) {
    std::vector<float> ref_out(x.size());
    std::vector<float> ref_dx(x.size(), 0.0f);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ref_out[i] = k.fwd(x.data()[i]);
      ref_dx[i] += w.data()[i] * k.dfn(x.data()[i], ref_out[i]);
    }
    for (std::size_t threads : {std::size_t{1}, ManyThreads()}) {
      ThreadBudget budget(threads);
      x.impl()->grad.assign(x.size(), 0.0f);
      Tensor out = k.op(x);
      Sum(Mul(out, w)).Backward();
      EXPECT_EQ(out.data(), ref_out) << threads << " threads";
      EXPECT_EQ(x.grad(), ref_dx) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace poisonrec::nn
