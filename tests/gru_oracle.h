// Test oracle for nn::GruGates: the composed op chain GruCell::Step ran
// before the fused op replaced it — Cols slices of the two (B x 3h)
// affine blocks, Add, Sigmoid, Tanh, Mul, and 1 − z as
// AddScalar(Scale(z, −1), 1). The fused op must match it bit for bit in
// the forward and in every gradient, so the tests compare with ==.
#ifndef POISONREC_TESTS_GRU_ORACLE_H_
#define POISONREC_TESTS_GRU_ORACLE_H_

#include <cstddef>

#include "nn/tensor.h"

namespace poisonrec::testing {

/// h' = (1 − z)·n + z·h_prev with gate blocks laid out [z | r | n].
inline nn::Tensor ComposedGruGates(const nn::Tensor& gx, const nn::Tensor& gh,
                                   const nn::Tensor& h_prev) {
  const std::size_t h = h_prev.cols();
  nn::Tensor z = nn::Sigmoid(nn::Add(nn::Cols(gx, 0, h), nn::Cols(gh, 0, h)));
  nn::Tensor r = nn::Sigmoid(nn::Add(nn::Cols(gx, h, h), nn::Cols(gh, h, h)));
  nn::Tensor n = nn::Tanh(
      nn::Add(nn::Cols(gx, 2 * h, h), nn::Mul(r, nn::Cols(gh, 2 * h, h))));
  nn::Tensor one_minus_z = nn::AddScalar(nn::Scale(z, -1.0f), 1.0f);
  return nn::Add(nn::Mul(one_minus_z, n), nn::Mul(z, h_prev));
}

}  // namespace poisonrec::testing

#endif  // POISONREC_TESTS_GRU_ORACLE_H_
