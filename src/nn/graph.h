// Recorded-graph reuse for the PPO update (the "re-taping" killer): the
// K update epochs of a TrainStep build byte-for-byte identical autograd
// graphs — same ops, same shapes, same leaf set — differing only in the
// current parameter values and the host-recomputed clip masks. A
// GraphTape records every attached node the first time the graph is
// built; subsequent epochs call ReplayForward() to recompute the same
// nodes in creation order (a valid topological order by construction)
// instead of re-running op dispatch, shape checks, and node allocation.
//
// RecordedBackward freezes the backward schedule the same way: it stores
// internal::TopologicalOrder, the closure order Tensor::Backward() runs,
// once. Replaying that stored order accumulates gradients into shared
// parents in the same sequence every epoch, which is what keeps reuse
// bit-identical to fresh-tape backward — two valid topological orders
// are NOT interchangeable under float accumulation.
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

/// Captured backward schedule for one scalar loss.
class RecordedBackward {
 public:
  /// Stores the closure order Tensor::Backward() would run over `loss`'s
  /// graph (without executing any closure). Call once after the graph is
  /// first built.
  void Capture(const Tensor& loss);

  /// Seeds d(loss)/d(loss) += 1 and invokes the captured closures in the
  /// stored order — bit-identical to loss.Backward() on this graph. The
  /// caller zeroes grads first (optimizer + GraphTape::ZeroGrads).
  void Run(const Tensor& loss) const;

  bool captured() const { return !order_.empty(); }

 private:
  // Keeps the graph alive independent of the caller's handles; raw
  // pointers in order_ stay valid as long as root_ does.
  std::shared_ptr<internal::TensorImpl> root_;
  std::vector<internal::TensorImpl*> order_;  // forward topo; run reversed
};

}  // namespace poisonrec::nn

#endif  // POISONREC_NN_GRAPH_H_
