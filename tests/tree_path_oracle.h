// Test oracle for nn::TreePathLogProb: the unfused op chain that
// Policy::RecomputeLogProbs ran per (timestep, depth) before the fused op
// replaced it — Rows gathers over ConcatRows(item, node), two RowDots,
// Sub, Softplus and Scale(−1). Run here over all decisions at once; each
// decision's float sequence is the same as in the per-depth batches.
#ifndef POISONREC_TESTS_TREE_PATH_ORACLE_H_
#define POISONREC_TESTS_TREE_PATH_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "nn/tensor.h"

namespace poisonrec::testing {

inline nn::Tensor UnfusedTreePathLogProb(
    const nn::Tensor& q, const nn::Tensor& item_table,
    const nn::Tensor& node_table, const std::vector<std::size_t>& row_offsets,
    const std::vector<std::size_t>& chosen,
    const std::vector<std::size_t>& sibling) {
  std::vector<std::size_t> q_rows;
  for (std::size_t r = 0; r + 1 < row_offsets.size(); ++r) {
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      q_rows.push_back(r);
    }
  }
  nn::Tensor feats = nn::ConcatRows({item_table, node_table});
  nn::Tensor qd = nn::Rows(q, q_rows);
  nn::Tensor ch = nn::Rows(feats, chosen);
  nn::Tensor sib = nn::Rows(feats, sibling);
  nn::Tensor diff = nn::Sub(nn::RowDot(qd, sib), nn::RowDot(qd, ch));
  // log σ(o_ch − o_sib) = −softplus(o_sib − o_ch)
  return nn::Scale(nn::Softplus(diff), -1.0f);
}

/// Gradient agreement bound with the oracle, in MaxRelativeDeviation
/// units: the fused backward adds the same products in another order
/// (row- and feature-owned instead of the chain's per-node scatters), so
/// it differs from the oracle by accumulated rounding only.
constexpr double kTreePathGradRelTol = 2e-6;

/// Largest |a_i − b_i| relative to max |b_i| (the absolute deviation
/// when b is all zero).
inline double MaxRelativeDeviation(const std::vector<float>& a,
                                   const std::vector<float>& b) {
  double scale = 0.0;
  double dev = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    scale = std::max(scale, std::abs(static_cast<double>(b[i])));
    dev = std::max(dev, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return scale > 0.0 ? dev / scale : dev;
}

}  // namespace poisonrec::testing

#endif  // POISONREC_TESTS_TREE_PATH_ORACLE_H_
