#include "src/core/cmd_buffer.h"

#include <utility>

namespace sbt {

OpaqueRef CmdBuffer::Push(Entry entry) {
  entries_.push_back(std::move(entry));
  return MakeSlotRef(static_cast<uint32_t>(entries_.size() - 1));
}

void CmdChainTemplate::Append(PrimitiveOp op, const InvokeParams& params) {
  steps_.push_back(Step{op, params});
}

CmdBuffer CmdChainTemplate::Stamp(
    OpaqueRef head, const std::function<HintRequest(size_t)>& hint_for_step) const {
  CmdBuffer buffer;
  OpaqueRef cur = head;
  for (size_t i = 0; i < steps_.size(); ++i) {
    CmdBuffer::Entry entry;
    entry.op = steps_[i].op;
    entry.params = steps_[i].params;
    entry.inputs = {cur};
    entry.hint = hint_for_step(i);
    cur = buffer.Push(std::move(entry));
  }
  return buffer;
}

}  // namespace sbt
