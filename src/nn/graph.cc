#include "nn/graph.h"

#include <utility>

#include "util/logging.h"

namespace poisonrec::nn {

namespace {

thread_local GraphTape* t_current_tape = nullptr;

}  // namespace

void GraphTape::ReplayForward() {
  for (const auto& node : nodes_) {
    node->forward_fn();
  }
}

void GraphTape::ZeroGrads() {
  for (const auto& node : nodes_) {
    if (!node->grad.empty()) {
      std::fill(node->grad.begin(), node->grad.end(), 0.0f);
    }
  }
}

GraphTape* GraphTape::Current() { return t_current_tape; }

GraphTape::RecordScope::RecordScope(GraphTape* tape)
    : previous_(t_current_tape) {
  t_current_tape = tape;
}

GraphTape::RecordScope::~RecordScope() { t_current_tape = previous_; }

void GraphTape::Register(std::shared_ptr<internal::TensorImpl> node) {
  POISONREC_CHECK(node->forward_fn != nullptr);
  nodes_.push_back(std::move(node));
}

void RecordedBackward::Capture(const Tensor& loss) {
  POISONREC_CHECK(loss.defined());
  POISONREC_CHECK(loss.is_scalar());
  POISONREC_CHECK(loss.requires_grad());
  root_ = loss.impl();
  order_ = internal::TopologicalOrder(root_.get());
}

void RecordedBackward::Run(const Tensor& loss) const {
  POISONREC_CHECK(loss.defined());
  POISONREC_CHECK(loss.impl() == root_)
      << "RecordedBackward::Run on a different loss than Capture saw";
  root_->EnsureGrad();
  root_->grad[0] += 1.0f;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

}  // namespace poisonrec::nn
