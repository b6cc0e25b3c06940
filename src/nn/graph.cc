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

}  // namespace poisonrec::nn
