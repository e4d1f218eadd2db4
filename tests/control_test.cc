// Control-plane integration tests: every benchmark pipeline runs end-to-end on every engine
// version, produces numerically correct results, and passes cloud-side audit verification.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "src/control/benchmarks.h"
#include "src/control/harness.h"
#include "src/control/lifecycle.h"
#include "src/net/workloads.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

using testing::RegenerateEvents;
using testing::SmallHarnessOptions;

TEST(ControlTest, WinSumProducesCorrectSumsAndVerifies) {
  HarnessOptions opts = SmallHarnessOptions();
  opts.generator.workload.kind = WorkloadKind::kIntelLab;
  const Pipeline pipeline = MakeWinSum(1000);
  const HarnessResult result = RunHarness(pipeline, opts);

  EXPECT_EQ(result.runner().task_errors, 0u);
  EXPECT_EQ(result.runner().windows_emitted, 3u);
  ASSERT_TRUE(result.verified);
  EXPECT_TRUE(result.verify.correct)
      << (result.verify.violations.empty() ? "" : result.verify.violations[0]);
  EXPECT_EQ(result.verify.windows_verified, 3u);

  // Reference sums per window.
  std::map<uint32_t, int64_t> expected;
  for (const Event& e : RegenerateEvents(opts.generator)) {
    expected[e.ts_ms / 1000] += e.value;
  }
  const DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  ASSERT_EQ(result.window_results.size(), 3u);
  for (const WindowResult& wr : result.window_results) {
    ASSERT_EQ(wr.blobs.size(), 1u);
    const auto plain = DecryptEgressBlob(cfg, wr.blobs[0], wr.blobs[0].ctr_offset);
    ASSERT_EQ(plain.size(), sizeof(int64_t));
    int64_t sum = 0;
    std::memcpy(&sum, plain.data(), sizeof(sum));
    EXPECT_EQ(sum, expected[wr.window_index]) << "window " << wr.window_index;
  }
}

TEST(ControlTest, DistinctCountsUniqueTaxis) {
  HarnessOptions opts = SmallHarnessOptions();
  opts.generator.workload.kind = WorkloadKind::kTaxi;
  const Pipeline pipeline = MakeDistinct(1000);
  const HarnessResult result = RunHarness(pipeline, opts);

  EXPECT_EQ(result.runner().task_errors, 0u);
  ASSERT_TRUE(result.verify.correct)
      << (result.verify.violations.empty() ? "" : result.verify.violations[0]);

  std::map<uint32_t, std::set<uint32_t>> expected;
  for (const Event& e : RegenerateEvents(opts.generator)) {
    expected[e.ts_ms / 1000].insert(e.key);
  }
  const DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  ASSERT_EQ(result.window_results.size(), 3u);
  for (const WindowResult& wr : result.window_results) {
    ASSERT_EQ(wr.blobs.size(), 1u);
    const auto plain = DecryptEgressBlob(cfg, wr.blobs[0], wr.blobs[0].ctr_offset);
    ASSERT_EQ(plain.size(), sizeof(uint64_t));
    uint64_t count = 0;
    std::memcpy(&count, plain.data(), sizeof(count));
    EXPECT_EQ(count, expected[wr.window_index].size()) << "window " << wr.window_index;
  }
}

TEST(ControlTest, TopKEmitsLargestPerKey) {
  HarnessOptions opts = SmallHarnessOptions();
  opts.generator.workload.kind = WorkloadKind::kSynthetic;
  opts.generator.workload.num_keys = 50;
  const Pipeline pipeline = MakeTopK(1000, /*k=*/3);
  const HarnessResult result = RunHarness(pipeline, opts);

  EXPECT_EQ(result.runner().task_errors, 0u);
  ASSERT_TRUE(result.verify.correct)
      << (result.verify.violations.empty() ? "" : result.verify.violations[0]);

  // Reference: top-3 values per key per window.
  std::map<uint32_t, std::map<uint32_t, std::multiset<int32_t>>> expected;
  for (const Event& e : RegenerateEvents(opts.generator)) {
    auto& top = expected[e.ts_ms / 1000][e.key];
    top.insert(e.value);
    if (top.size() > 3) {
      top.erase(top.begin());
    }
  }
  const DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  for (const WindowResult& wr : result.window_results) {
    ASSERT_EQ(wr.blobs.size(), 1u);
    const auto plain = DecryptEgressBlob(cfg, wr.blobs[0], wr.blobs[0].ctr_offset);
    ASSERT_EQ(plain.size() % sizeof(PackedKV), 0u);
    std::map<uint32_t, std::multiset<int32_t>> got;
    for (size_t i = 0; i < plain.size(); i += sizeof(PackedKV)) {
      PackedKV kv;
      std::memcpy(&kv, plain.data() + i, sizeof(kv));
      got[UnpackKey(kv)].insert(UnpackValue(kv));
    }
    const auto& ref = expected[wr.window_index];
    ASSERT_EQ(got.size(), ref.size()) << "window " << wr.window_index;
    for (const auto& [key, values] : ref) {
      EXPECT_EQ(got[key], values) << "window " << wr.window_index << " key " << key;
    }
  }
}

TEST(ControlTest, FilterKeepsBandAndVerifies) {
  HarnessOptions opts = SmallHarnessOptions();
  opts.generator.workload.kind = WorkloadKind::kFilterable;
  const Pipeline pipeline = MakeFilter(1000, 0, 100);  // ~1% selectivity
  const HarnessResult result = RunHarness(pipeline, opts);

  EXPECT_EQ(result.runner().task_errors, 0u);
  ASSERT_TRUE(result.verify.correct)
      << (result.verify.violations.empty() ? "" : result.verify.violations[0]);

  std::map<uint32_t, size_t> expected;
  for (const Event& e : RegenerateEvents(opts.generator)) {
    if (e.value >= 0 && e.value < 100) {
      ++expected[e.ts_ms / 1000];
    }
  }
  const DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  for (const WindowResult& wr : result.window_results) {
    ASSERT_EQ(wr.blobs.size(), 1u);
    const auto plain = DecryptEgressBlob(cfg, wr.blobs[0], wr.blobs[0].ctr_offset);
    EXPECT_EQ(plain.size() / sizeof(Event), expected[wr.window_index])
        << "window " << wr.window_index;
  }
}

TEST(ControlTest, JoinMatchesReferenceRowCount) {
  HarnessOptions opts = SmallHarnessOptions();
  opts.generator.workload.kind = WorkloadKind::kSynthetic;
  opts.generator.workload.num_keys = 2000;
  opts.generator.workload.events_per_window = 6000;  // keep cross products small
  const Pipeline pipeline = MakeJoin(1000);
  const HarnessResult result = RunHarness(pipeline, opts);

  EXPECT_EQ(result.runner().task_errors, 0u);
  ASSERT_TRUE(result.verify.correct)
      << (result.verify.violations.empty() ? "" : result.verify.violations[0]);

  // Reference: per window, count of key matches between the two streams.
  std::map<uint32_t, std::map<uint32_t, uint64_t>> left;
  std::map<uint32_t, std::map<uint32_t, uint64_t>> right;
  for (const Event& e : RegenerateEvents(opts.generator, 0)) {
    ++left[e.ts_ms / 1000][e.key];
  }
  for (const Event& e : RegenerateEvents(opts.generator, 1)) {
    ++right[e.ts_ms / 1000][e.key];
  }
  const DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  for (const WindowResult& wr : result.window_results) {
    uint64_t expected_rows = 0;
    for (const auto& [key, ln] : left[wr.window_index]) {
      auto it = right[wr.window_index].find(key);
      if (it != right[wr.window_index].end()) {
        expected_rows += ln * it->second;
      }
    }
    ASSERT_EQ(wr.blobs.size(), 1u);
    const auto plain = DecryptEgressBlob(cfg, wr.blobs[0], wr.blobs[0].ctr_offset);
    EXPECT_EQ(plain.size() / sizeof(JoinRow), expected_rows) << "window " << wr.window_index;
  }
}

TEST(ControlTest, PowerCountsHighPowerPlugsPerHouse) {
  HarnessOptions opts = SmallHarnessOptions();
  opts.generator.workload.kind = WorkloadKind::kPowerGrid;
  opts.generator.workload.num_houses = 10;
  opts.generator.workload.plugs_per_house = 20;
  const Pipeline pipeline = MakePower(1000);
  const HarnessResult result = RunHarness(pipeline, opts);

  EXPECT_EQ(result.runner().task_errors, 0u);
  ASSERT_TRUE(result.verify.correct)
      << (result.verify.violations.empty() ? "" : result.verify.violations[0]);
  EXPECT_EQ(result.runner().windows_emitted, 3u);

  // Reference: per-plug average, keep above-mean plugs, count per house.
  GeneratorConfig copy = opts.generator;
  copy.encrypt = false;
  Generator gen(copy);
  std::map<uint32_t, std::map<uint32_t, std::pair<int64_t, int64_t>>> plug_sums;  // win->plugkey
  while (auto frame = gen.NextFrame()) {
    if (frame->is_watermark) {
      continue;
    }
    const size_t n = frame->bytes.size() / sizeof(PowerEvent);
    for (size_t i = 0; i < n; ++i) {
      PowerEvent e;
      std::memcpy(&e, frame->bytes.data() + i * sizeof(e), sizeof(e));
      auto& cell = plug_sums[e.ts_ms / 1000][(e.house << 16) | e.plug];
      cell.first += e.power;
      ++cell.second;
    }
  }
  const DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  for (const WindowResult& wr : result.window_results) {
    const auto& plugs = plug_sums[wr.window_index];
    std::vector<std::pair<uint32_t, int64_t>> avgs;  // plugkey -> avg (in kv order)
    int64_t total = 0;
    for (const auto& [pk, cell] : plugs) {
      avgs.push_back({pk, cell.first / cell.second});
      total += cell.first / cell.second;
    }
    std::map<uint32_t, int64_t> expected;  // house -> count of above-mean plugs
    const int64_t n = static_cast<int64_t>(avgs.size());
    for (const auto& [pk, avg] : avgs) {
      if (avg * n > total) {
        ++expected[pk >> 16];
      }
    }
    ASSERT_EQ(wr.blobs.size(), 1u);
    const auto plain = DecryptEgressBlob(cfg, wr.blobs[0], wr.blobs[0].ctr_offset);
    ASSERT_EQ(plain.size() % sizeof(KeyValue), 0u);
    std::map<uint32_t, int64_t> got;
    for (size_t i = 0; i < plain.size(); i += sizeof(KeyValue)) {
      KeyValue kv;
      std::memcpy(&kv, plain.data() + i, sizeof(kv));
      got[kv.key] = kv.value;
    }
    EXPECT_EQ(got, expected) << "window " << wr.window_index;
  }
}

class EngineVersionTest : public ::testing::TestWithParam<EngineVersion> {};

TEST_P(EngineVersionTest, WinSumRunsCleanOnAllVersions) {
  HarnessOptions opts = SmallHarnessOptions(GetParam());
  opts.generator.workload.kind = WorkloadKind::kIntelLab;
  const HarnessResult result = RunHarness(MakeWinSum(1000), opts);
  EXPECT_EQ(result.runner().task_errors, 0u);
  EXPECT_EQ(result.runner().windows_emitted, 3u);
  EXPECT_TRUE(result.verify.correct)
      << (result.verify.violations.empty() ? "" : result.verify.violations[0]);
  EXPECT_GT(result.events_per_sec(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllVersions, EngineVersionTest,
                         ::testing::Values(EngineVersion::kStreamBoxTz,
                                           EngineVersion::kSbtClearIngress,
                                           EngineVersion::kSbtIoViaOs, EngineVersion::kInsecure),
                         [](const ::testing::TestParamInfo<EngineVersion>& info) {
                           std::string name(EngineVersionName(info.param));
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ControlTest, HintsOffStillCorrectJustMoreMemory) {
  HarnessOptions opts = SmallHarnessOptions();
  opts.generator.workload.kind = WorkloadKind::kIntelLab;
  opts.engine.use_hints = false;
  opts.engine.placement = PlacementPolicy::kGenerational;
  const HarnessResult result = RunHarness(MakeWinSum(1000), opts);
  EXPECT_EQ(result.runner().task_errors, 0u);
  EXPECT_TRUE(result.verify.correct)
      << (result.verify.violations.empty() ? "" : result.verify.violations[0]);
}

TEST(ControlTest, MemoryFullyReclaimedAfterDrain) {
  HarnessOptions opts = SmallHarnessOptions();
  opts.generator.workload.kind = WorkloadKind::kIntelLab;
  DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  DataPlane dp(cfg);
  {
    Runner runner(&dp, MakeWinSum(1000), MakeRunnerConfig(opts.version, opts.engine));
    GeneratorConfig gen_cfg = opts.generator;
    gen_cfg.encrypt = true;
    gen_cfg.key = cfg.ingress_key;
    gen_cfg.nonce = cfg.ingress_nonce;
    Generator gen(gen_cfg);
    while (auto frame = gen.NextFrame()) {
      if (frame->is_watermark) {
        ASSERT_TRUE(runner.AdvanceWatermark(frame->watermark).ok());
      } else {
        ASSERT_TRUE(runner.IngestFrame(frame->bytes, 0, frame->ctr_offset).ok());
      }
    }
    runner.Drain();
    EXPECT_EQ(runner.stats().task_errors, 0u);
  }
  // Every window closed; all uArrays should be reclaimed and all refs gone.
  EXPECT_EQ(dp.live_refs(), 0u);
  EXPECT_EQ(dp.memory_stats().committed_bytes, 0u);
}

TEST(ControlTest, WatermarkBeforeDataWindowStillEmitsLater) {
  // Watermark for window 0 arrives, then window 1 data, then its watermark: both must emit.
  HarnessOptions opts = SmallHarnessOptions();
  DataPlaneConfig cfg = MakeEngineConfig(opts.version, opts.engine);
  cfg.decrypt_ingress = false;
  DataPlane dp(cfg);
  RunnerConfig rc = MakeRunnerConfig(opts.version, opts.engine);
  Runner runner(&dp, MakeWinSum(1000), rc);

  std::vector<Event> w0(100);
  std::vector<Event> w1(100);
  for (int i = 0; i < 100; ++i) {
    w0[i] = {.ts_ms = static_cast<EventTimeMs>(i), .key = 1, .value = 1};
    w1[i] = {.ts_ms = static_cast<EventTimeMs>(1000 + i), .key = 1, .value = 2};
  }
  auto bytes = [](const std::vector<Event>& v) {
    return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(v.data()),
                                    v.size() * sizeof(Event));
  };
  ASSERT_TRUE(runner.IngestFrame(bytes(w0)).ok());
  ASSERT_TRUE(runner.AdvanceWatermark(1000).ok());
  ASSERT_TRUE(runner.IngestFrame(bytes(w1)).ok());
  ASSERT_TRUE(runner.AdvanceWatermark(2000).ok());
  runner.Drain();
  EXPECT_EQ(runner.stats().windows_emitted, 2u);
  EXPECT_EQ(runner.stats().task_errors, 0u);
}

TEST(ControlTest, DelayMsClampsClockSkew) {
  // Clock skew (coarse test clocks, NTP steps) can put the egress timestamp before the
  // watermark's; the delay must clamp at 0 instead of underflowing into a bogus huge value.
  WindowResult wr;
  wr.watermark_time = 5000000;
  wr.egress_time = 2000000;
  EXPECT_EQ(wr.delay_ms(), 0u);
  wr.egress_time = wr.watermark_time;
  EXPECT_EQ(wr.delay_ms(), 0u);
  wr.egress_time = 5750000;
  EXPECT_EQ(wr.delay_ms(), 750u);
}

// One frame entirely inside window 0, pushed through a 4-primitive per-batch chain. Returns
// the total number of TEE entries the session paid.
uint64_t EntriesForChainRun(bool fuse_chains) {
  Pipeline pipeline("Chain4", 1000);
  pipeline.PerBatch(PrimitiveOp::kProject);
  pipeline.PerBatch(PrimitiveOp::kSort);
  pipeline.PerBatch(PrimitiveOp::kDedup);
  pipeline.PerBatch(PrimitiveOp::kCount);
  pipeline.AtWindowClose({.op = PrimitiveOp::kConcat, .input_stages = {-1}});

  DataPlane dp(testing::SmallDataPlaneConfig(/*decrypt_ingress=*/false));
  RunnerConfig rc;
  rc.knobs.worker_threads = 1;
  rc.knobs.fuse_chains = fuse_chains;
  Runner runner(&dp, pipeline, rc);
  const auto events = testing::ConstantEvents(500);
  EXPECT_TRUE(runner.IngestFrame(testing::AsBytes(events)).ok());
  EXPECT_TRUE(runner.AdvanceWatermark(1000).ok());
  runner.Drain();
  EXPECT_EQ(runner.stats().task_errors, 0u);
  EXPECT_EQ(runner.stats().windows_emitted, 1u);
  const uint64_t entries = dp.switch_stats().entries;  // before FlushAudit's own entry

  std::vector<AuditRecord> records;
  dp.FlushAudit(&records);
  CloudVerifier verifier(pipeline.ToVerifierSpec());
  const auto report = verifier.Verify(records);
  EXPECT_TRUE(report.correct) << (report.violations.empty() ? "" : report.violations[0]);
  return entries;
}

TEST(ControlTest, FusedChainsCrossTheBoundaryOncePerSegment) {
  // Unfused: ingest + segment + 4 chain invokes + watermark + close + egress = 9 entries.
  // Fused: the 4-step chain collapses to ONE submission (and the close stage stays one),
  // so the per-segment chain cost drops from 4 entries to 1: 6 entries total.
  const uint64_t unfused = EntriesForChainRun(false);
  const uint64_t fused = EntriesForChainRun(true);
  EXPECT_EQ(unfused, 9u);
  EXPECT_EQ(fused, 6u);
  EXPECT_EQ(unfused - fused, 3u) << "a 4-primitive chain must pay 1 switch, not 4";
}

class ChainFailureTest : public ::testing::TestWithParam<bool> {};

TEST_P(ChainFailureTest, FailedChainDoesNotWedgeItsWindow) {
  // A chain that fails mid-way (here: Average rejects the PackedKV elem size, deterministic in
  // both boundary modes) must still count down pending_chains: the window closes with the
  // contributions that arrived, the error is recorded, and the runner stays checkpointable —
  // one transient failure must not wedge the engine forever.
  Pipeline pipeline("BadChain", 1000);
  pipeline.PerBatch(PrimitiveOp::kProject);
  pipeline.PerBatch(PrimitiveOp::kAverage);  // wrong input type: always fails
  pipeline.AtWindowClose({.op = PrimitiveOp::kConcat, .input_stages = {-1}});

  DataPlane dp(testing::SmallDataPlaneConfig(/*decrypt_ingress=*/false));
  RunnerConfig rc;
  rc.knobs.worker_threads = 1;
  rc.knobs.fuse_chains = GetParam();
  Runner runner(&dp, pipeline, rc);
  const auto events = testing::ConstantEvents(200);
  ASSERT_TRUE(runner.IngestFrame(testing::AsBytes(events)).ok());
  ASSERT_TRUE(runner.AdvanceWatermark(1000).ok());
  runner.Drain();

  EXPECT_GE(runner.stats().task_errors, 1u);
  EXPECT_EQ(runner.stats().windows_emitted, 1u) << "window must close despite the failed chain";
  EXPECT_TRUE(EngineLifecycle(&dp, &runner).Checkpoint({}, nullptr).ok())
      << "no pending chains may linger";
  EXPECT_EQ(dp.live_refs(), 0u) << "a failed chain must not pin refs (or pool memory) forever";
}

INSTANTIATE_TEST_SUITE_P(BothBoundaryModes, ChainFailureTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Fused" : "PerInvoke";
                         });

TEST(ControlTest, PipelineExportsMatchingVerifierSpec) {
  const Pipeline p = MakeDistinct(500);
  const VerifierPipelineSpec spec = p.ToVerifierSpec();
  EXPECT_EQ(spec.window_size_ms, 500u);
  ASSERT_EQ(spec.per_batch_chain.size(), 2u);
  EXPECT_EQ(spec.per_batch_chain[0], PrimitiveOp::kProject);
  EXPECT_EQ(spec.per_batch_chain[1], PrimitiveOp::kSort);
  ASSERT_EQ(spec.per_window_stages.size(), 3u);
  EXPECT_EQ(spec.per_window_stages[0].op, PrimitiveOp::kMergeN);
  EXPECT_EQ(spec.per_window_stages[2].op, PrimitiveOp::kCount);
}

// Close stages are single-output (one reserved audit id per stage keeps close-stage ids
// schedule-independent): declaring the multi-output kSegment as one is a programming error.
TEST(PipelineDeathTest, SegmentAsWindowCloseStageAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Pipeline p("segment-at-close", 1000);
        p.AtWindowClose(WindowStageSpec{.op = PrimitiveOp::kSegment});
      },
      "SBT_CHECK failed");
}

// The execution knobs are declared once (src/core/exec_knobs.h): a knob set at the very top —
// EngineOptions — is observable at the bottom, on the live Runner's own config, with no
// hand-copied per-layer field anywhere on the way down.
TEST(ControlTest, ExecutionKnobsSetAtTheTopAreObservedAtTheBottom) {
  EngineOptions opts;
  opts.secure_pool_mb = 8;
  opts.knobs.worker_threads = 3;
  opts.knobs.fuse_chains = false;

  DataPlane dp(MakeEngineConfig(EngineVersion::kSbtClearIngress, opts));
  Runner runner(&dp, MakeWinSum(1000), MakeRunnerConfig(EngineVersion::kSbtClearIngress, opts));
  EXPECT_EQ(runner.config().knobs.worker_threads, 3);
  EXPECT_FALSE(runner.config().knobs.fuse_chains);

  // Flipping one knob at the top reaches the runner; the other is untouched.
  opts.knobs.fuse_chains = true;
  const RunnerConfig flipped = MakeRunnerConfig(EngineVersion::kSbtClearIngress, opts);
  EXPECT_TRUE(flipped.knobs.fuse_chains);
  EXPECT_EQ(flipped.knobs.worker_threads, 3);
  runner.Drain();
}

}  // namespace
}  // namespace sbt
