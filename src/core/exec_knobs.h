// The execution knobs of an engine's control plane.
//
// Declared once and embedded in EngineOptions and RunnerConfig, so a knob set at the top
// reaches the Runner — the only layer that reads them — unchanged. Every knob is byte-neutral:
// any setting yields the same audit chain, egress blobs, and verifier verdict (property-tested
// in tests/property_test.cc); they trade only performance.

#ifndef SRC_CORE_EXEC_KNOBS_H_
#define SRC_CORE_EXEC_KNOBS_H_

namespace sbt {

struct ExecutionKnobs {
  // Intra-engine worker threads (elastic pipeline parallelism).
  int worker_threads = 4;
  // Command-buffer fusion: one world switch per primitive chain (default). Off reproduces the
  // call-per-primitive boundary for the fig9 comparison series.
  bool fuse_chains = true;
};

}  // namespace sbt

#endif  // SRC_CORE_EXEC_KNOBS_H_
