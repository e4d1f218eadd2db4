// Declarative pipeline API (paper §2.2, Figure 2(c)).
//
// Analytics programmers assemble pipelines from high-level operators; the control plane compiles
// them into (a) a per-batch chain of trusted-primitive invocations applied to every windowed
// segment, and (b) a per-window stage DAG triggered when a watermark closes a window. The same
// declaration exports the VerifierPipelineSpec the cloud consumer installs on its side — the
// "local copy of the same pipeline" the verifier replays against.
//
// High-level operators (Table 2 style: Windowing, GroupBy, SumByKey, Distinct, TopKPerKey,
// Filter, TempJoin, ...) are provided as named constructors in benchmarks.h.

#ifndef SRC_CONTROL_PIPELINE_H_
#define SRC_CONTROL_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/attest/verifier.h"
#include "src/common/logging.h"
#include "src/core/data_plane.h"
#include "src/primitives/registry.h"

namespace sbt {

// One per-batch step: a 1-in/1-out primitive applied to each segment output.
struct BatchStep {
  PrimitiveOp op;
  InvokeParams params;
};

// One per-window stage (superset of the verifier's WindowStage: carries params too).
struct WindowStageSpec {
  PrimitiveOp op;
  std::vector<int> input_stages{-1};  // -1 = window contributions, i >= 0 = stage i outputs
  InvokeParams params;
  int stream_filter = -1;
  bool allows_state_inputs = false;
};

class Pipeline {
 public:
  explicit Pipeline(std::string name, uint32_t window_size_ms, size_t event_size = 12)
      : name_(std::move(name)), window_size_ms_(window_size_ms),
        window_slide_ms_(window_size_ms), event_size_(event_size) {}

  // Switches to sliding windows (slide < size replicates events into overlapping windows).
  Pipeline& SlideEvery(uint32_t slide_ms) {
    window_slide_ms_ = slide_ms;
    return *this;
  }

  Pipeline& PerBatch(PrimitiveOp op, InvokeParams params = {}) {
    batch_chain_.push_back(BatchStep{op, params});
    return *this;
  }

  // Close stages are single-output: a close ticket reserves one audit id per stage, which
  // keeps close-stage ids independent of the execution schedule, and one slot ref names each
  // stage's output when the close DAG fuses. kSegment's output count is data-dependent, so it
  // is refused here; pipelines are declared in code, so this is a programming error.
  Pipeline& AtWindowClose(WindowStageSpec stage) {
    SBT_CHECK(stage.op != PrimitiveOp::kSegment);
    window_stages_.push_back(std::move(stage));
    return *this;
  }

  Pipeline& NumStreams(uint16_t n) {
    num_streams_ = n;
    return *this;
  }

  const std::string& name() const { return name_; }
  uint32_t window_size_ms() const { return window_size_ms_; }
  uint32_t window_slide_ms() const { return window_slide_ms_; }
  // Event-time end of window `index` (sliding-aware); the watermark that reaches it closes
  // the window.
  uint64_t WindowEnd(uint32_t index) const {
    return static_cast<uint64_t>(index) * window_slide_ms_ + window_size_ms_;
  }
  size_t event_size() const { return event_size_; }
  uint16_t num_streams() const { return num_streams_; }
  const std::vector<BatchStep>& batch_chain() const { return batch_chain_; }
  const std::vector<WindowStageSpec>& window_stages() const { return window_stages_; }

  // Compiles the per-batch chain into the reusable command template the Runner stamps into a
  // CmdBuffer per segment (fused boundary crossings, src/core/cmd_buffer.h).
  CmdChainTemplate CompileBatchChain() const {
    CmdChainTemplate t;
    for (const BatchStep& step : batch_chain_) {
      t.Append(step.op, step.params);
    }
    return t;
  }

  // The cloud consumer's copy of this declaration.
  VerifierPipelineSpec ToVerifierSpec() const {
    VerifierPipelineSpec spec;
    spec.window_size_ms = window_size_ms_;
    spec.window_slide_ms = window_slide_ms_;
    for (const BatchStep& step : batch_chain_) {
      spec.per_batch_chain.push_back(step.op);
    }
    for (const WindowStageSpec& stage : window_stages_) {
      spec.per_window_stages.push_back(WindowStage{
          .op = stage.op,
          .input_stages = stage.input_stages,
          .stream_filter = stage.stream_filter,
          .allows_state_inputs = stage.allows_state_inputs,
      });
    }
    return spec;
  }

 private:
  std::string name_;
  uint32_t window_size_ms_;
  uint32_t window_slide_ms_;
  size_t event_size_;
  uint16_t num_streams_ = 1;
  std::vector<BatchStep> batch_chain_;
  std::vector<WindowStageSpec> window_stages_;
};

}  // namespace sbt

#endif  // SRC_CONTROL_PIPELINE_H_
