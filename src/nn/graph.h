// Recorded-graph reuse for the PPO update: the K update epochs of a
// TrainStep recompute byte-for-byte identical log-prob graphs — same
// ops, same shapes, same leaf set — differing only in the current
// parameter values. A GraphTape records every attached node the first
// time the graph is built; subsequent epochs call ReplayForward() to
// recompute the same nodes in creation order (a valid topological order
// by construction) instead of re-running op dispatch, shape checks, and
// node allocation.
//
// Replay never changes a node's parent edges, so Tensor::Backward on a
// replayed graph walks the same topological order and runs the same
// closures in the same sequence as on a fresh tape: reuse stays
// bit-identical without storing a backward schedule.
#ifndef POISONREC_NN_GRAPH_H_
#define POISONREC_NN_GRAPH_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace poisonrec::nn {

class GraphTape {
 public:
  GraphTape() = default;
  GraphTape(const GraphTape&) = delete;
  GraphTape& operator=(const GraphTape&) = delete;

  /// Recomputes every recorded node's data, in creation order, from its
  /// parents' current data. Leaves (never recorded) keep whatever data
  /// they hold — overwrite a leaf's data() before replaying to feed new
  /// inputs through the same graph.
  void ReplayForward();

  /// Zeroes the grad buffers of all recorded nodes (parameters and
  /// other leaves are the caller's responsibility, e.g. via the
  /// optimizer's ZeroGrad).
  void ZeroGrads();

  std::size_t size() const { return nodes_.size(); }

  /// The tape recording on this thread (nullptr when none). tensor.cc's
  /// Attach registers every tracked op output with it.
  static GraphTape* Current();

  /// RAII recording scope: ops created inside append to `tape`.
  class RecordScope {
   public:
    explicit RecordScope(GraphTape* tape);
    ~RecordScope();
    RecordScope(const RecordScope&) = delete;
    RecordScope& operator=(const RecordScope&) = delete;

   private:
    GraphTape* previous_;
  };

  /// Internal (tensor.cc): appends a node whose forward_fn is set.
  void Register(std::shared_ptr<internal::TensorImpl> node);

 private:
  std::vector<std::shared_ptr<internal::TensorImpl>> nodes_;
};

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_GRAPH_H_
