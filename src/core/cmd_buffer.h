// Fused TEE command buffers (the batching argument of paper Figure 9, applied to the boundary).
//
// A world switch costs ~300k emulated cycles, and a call-per-primitive boundary pays it once
// per chain step. A CmdBuffer instead records a whole chain of trusted-primitive commands in
// the normal world — intra-chain dataflow expressed as virtual slot refs (src/core/opaque_ref.h)
// that name an earlier command's output without ever materializing a table reference — and
// `DataPlane::Submit` executes all of it under ONE WorldSwitchGate session, emitting one audit
// record per command so the cloud verifier's symbolic replay is byte-identical to the unfused
// stream.
//
// The buffer itself is plain normal-world state: it holds only opaque refs, slot refs, and
// parameters. All validation (backward-pointing slots, liveness, forged refs) happens at the
// boundary, inside Submit.

#ifndef SRC_CORE_CMD_BUFFER_H_
#define SRC_CORE_CMD_BUFFER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/opaque_ref.h"
#include "src/primitives/registry.h"

namespace sbt {

// Consumption hint expressed in boundary vocabulary (opaque refs, not uArray ids).
struct HintRequest {
  enum class Kind : uint8_t { kNone = 0, kAfter = 1, kParallel = 2 };
  Kind kind = Kind::kNone;
  OpaqueRef after = 0;
  uint32_t lane = 0;

  static HintRequest None() { return HintRequest{}; }
  static HintRequest After(OpaqueRef ref) {
    return HintRequest{Kind::kAfter, ref, 0};
  }
  static HintRequest Parallel(uint32_t lane) {
    return HintRequest{Kind::kParallel, 0, lane};
  }
};

// Parameters for the parameterized primitives; unused fields ignored.
struct InvokeParams {
  uint32_t window_size_ms = 0;   // Segment
  uint32_t window_slide_ms = 0;  // Segment: 0 = fixed windows (slide == size)
  uint32_t k = 0;               // TopK
  int32_t lo = 0;               // FilterBand
  int32_t hi = 0;
  int32_t factor = 1;           // Scale
  uint32_t stride = 1;          // Sample
  uint32_t key = 0;             // Select
  int32_t hist_base = 0;        // Histogram
  uint32_t hist_width = 1;
  uint32_t hist_buckets = 1;
  uint32_t alpha_num = 1;       // Ewma
  uint32_t alpha_den = 2;
  uint32_t shift = 0;           // Rekey
};

// An ordered chain of trusted-primitive commands for one boundary crossing.
class CmdBuffer {
 public:
  struct Entry {
    PrimitiveOp op = PrimitiveOp::kCompact;
    // Table refs, or slot refs naming an earlier entry's output (strictly backward).
    std::vector<OpaqueRef> inputs;
    InvokeParams params;
    HintRequest hint;
    // Inputs are consumed (retired) by default, matching Invoke; slot inputs are retired
    // entirely inside the TEE.
    bool retire_inputs = true;
  };

  // Appends one command and returns the slot ref naming its first output — feed it to a later
  // entry's inputs (or hint) to chain dataflow without a normal-world reference. Multi-output
  // commands (Segment) expose output j of command i as MakeSlotRef(i, j).
  OpaqueRef Push(Entry entry);

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

// A chain shape compiled once by the control plane — the per-batch primitive chain of a
// pipeline — and stamped per segment: step 0 consumes the concrete head ref, step i consumes
// step i-1's slot. Hints vary per stamping (worker lanes, window lanes), so the stamp call
// supplies them.
class CmdChainTemplate {
 public:
  void Append(PrimitiveOp op, const InvokeParams& params);

  // Builds the CmdBuffer for one concrete chain over `head`. `hint_for_step(i)` supplies step
  // i's placement hint.
  CmdBuffer Stamp(OpaqueRef head,
                  const std::function<HintRequest(size_t)>& hint_for_step) const;

  size_t size() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }

 private:
  struct Step {
    PrimitiveOp op;
    InvokeParams params;
  };
  std::vector<Step> steps_;
};

}  // namespace sbt

#endif  // SRC_CORE_CMD_BUFFER_H_
