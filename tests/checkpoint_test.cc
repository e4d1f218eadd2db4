// Sealed engine checkpoint/restore through the one lifecycle surface (src/control/lifecycle.h,
// DataPlane::Checkpoint/ApplySeal).
//
// The acceptance scenarios: seal -> corrupt one byte -> restore is rejected with kDataLoss;
// seal -> restore -> continue produces byte-identical egress and a verifier-accepted continued
// audit chain versus an uninterrupted run of the same schedule; and the delta-seal chain —
// full seal followed by incremental deltas — restores byte-identically to a full-only seal at
// the same point while rejecting corrupted, reordered, or replayed mid-chain deltas.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/attest/audit_chain.h"
#include "src/attest/compress.h"
#include "src/attest/verifier.h"
#include "src/control/benchmarks.h"
#include "src/control/engine.h"
#include "src/control/lifecycle.h"
#include "src/core/data_plane.h"
#include "src/obs/metrics.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

constexpr uint32_t kWindows = 4;
constexpr size_t kEventsPerWindow = 5000;

DataPlaneConfig EngineConfig(size_t pool_mb = 8) {
  DataPlaneConfig cfg = testing::SmallDataPlaneConfig(/*decrypt_ingress=*/false);
  cfg.partition = testing::SmallTzPartition(pool_mb);
  return cfg;
}

RunnerConfig SingleWorker(bool fuse_chains = true) {
  RunnerConfig rc;
  // Any worker count now yields identical audit streams and egress (ticket sequencing);
  // one worker just keeps these small fixtures cheap. The delta-chain test below and
  // stress_test cover the multi-worker checkpoint/restore equivalence.
  rc.knobs.worker_threads = 1;
  rc.knobs.fuse_chains = fuse_chains;
  return rc;
}

// One frame of events inside window `w`, deterministic per window.
std::vector<Event> WindowFrame(uint32_t w) {
  return testing::MakeEvents(kEventsPerWindow, /*keys=*/64, /*window_ms=*/1000,
                             /*seed=*/100 + w);
}

void IngestWindow(Runner& runner, uint32_t w) {
  std::vector<Event> events = WindowFrame(w);
  for (Event& e : events) {
    e.ts_ms = w * 1000 + e.ts_ms % 1000;  // pin every event inside window w
  }
  ASSERT_TRUE(runner.IngestFrame(testing::AsBytes(events)).ok());
  runner.Drain();  // deterministic id allocation across runs
}

void Watermark(Runner& runner, EventTimeMs value) {
  ASSERT_TRUE(runner.AdvanceWatermark(value).ok());
  runner.Drain();
}

// Ingests all four windows, then closes windows 0 and 1. Leaves windows 2 and 3 open with
// live contributions — the state a checkpoint must carry.
void RunPrefix(Runner& runner) {
  for (uint32_t w = 0; w < kWindows; ++w) {
    IngestWindow(runner, w);
  }
  Watermark(runner, 1000);
  Watermark(runner, 2000);
}

void RunSuffix(Runner& runner) {
  Watermark(runner, 3000);
  Watermark(runner, 4000);
}

std::vector<WindowResult> SortedByWindow(std::vector<WindowResult> results) {
  std::sort(results.begin(), results.end(),
            [](const WindowResult& a, const WindowResult& b) {
              return a.window_index < b.window_index;
            });
  return results;
}

void ExpectSameEgress(const std::vector<WindowResult>& a, const std::vector<WindowResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].window_index, b[i].window_index);
    ASSERT_EQ(a[i].blobs.size(), b[i].blobs.size()) << "window " << a[i].window_index;
    for (size_t j = 0; j < a[i].blobs.size(); ++j) {
      const EgressBlob& x = a[i].blobs[j];
      const EgressBlob& y = b[i].blobs[j];
      EXPECT_EQ(x.ciphertext, y.ciphertext) << "window " << a[i].window_index;
      EXPECT_TRUE(DigestEqual(x.mac, y.mac)) << "window " << a[i].window_index;
      EXPECT_EQ(x.elems, y.elems);
      EXPECT_EQ(x.ctr_offset, y.ctr_offset);
    }
  }
}

std::vector<AuditRecord> WithoutTimestamps(std::vector<AuditRecord> records) {
  for (AuditRecord& r : records) {
    r.ts_ms = 0;
  }
  return records;
}

TEST(CheckpointTest, RestoredEngineContinuesByteIdentically) {
  const DataPlaneConfig cfg = EngineConfig();
  const Pipeline pipeline = MakeDistinct(1000);

  // Reference: one uninterrupted run.
  DataPlane ref_dp(cfg);
  std::vector<WindowResult> ref_results;
  std::vector<AuditRecord> ref_records;
  {
    Runner runner(&ref_dp, pipeline, SingleWorker());
    RunPrefix(runner);
    RunSuffix(runner);
    ref_results = SortedByWindow(runner.TakeResults());
  }
  const AuditUpload ref_upload = ref_dp.FlushAudit(&ref_records);
  ASSERT_EQ(ref_results.size(), kWindows);

  // Interrupted run: prefix, seal, restore into a fresh engine, suffix.
  DataPlane dp1(cfg);
  auto runner1 = std::make_unique<Runner>(&dp1, pipeline, SingleWorker());
  RunPrefix(*runner1);
  std::vector<WindowResult> results;
  auto bundle = EngineLifecycle(&dp1, runner1.get()).Checkpoint({}, &results);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  runner1.reset();  // the crashed/decommissioned incarnation
  ASSERT_EQ(results.size(), 2u) << "windows 0 and 1 were already closed and egressed";

  // The seal-time upload covers every record up to the seal, and the sealed header's chain
  // position follows it directly.
  EXPECT_GT(bundle->audit.record_count, 0u);
  EXPECT_EQ(bundle->sealed.identity.chain_seq, bundle->audit.chain_seq + 1);
  EXPECT_TRUE(DigestEqual(bundle->sealed.identity.chain_head, bundle->audit.mac));

  DataPlane dp2(cfg);
  Runner runner2(&dp2, pipeline, SingleWorker());
  auto annex = EngineLifecycle(&dp2, &runner2).Restore(bundle->sealed);
  ASSERT_TRUE(annex.ok()) << annex.status().ToString();
  EXPECT_TRUE(annex->empty());
  RunSuffix(runner2);
  {
    std::vector<WindowResult> tail = runner2.TakeResults();
    results.insert(results.end(), tail.begin(), tail.end());
  }
  results = SortedByWindow(std::move(results));

  // Byte-identical egress: ciphertext, MACs, keystream offsets, element counts all match the
  // uninterrupted run — for the windows closed before the seal AND the ones closed after.
  ExpectSameEgress(ref_results, results);
  EXPECT_EQ(runner2.stats().windows_emitted, kWindows);
  EXPECT_EQ(runner2.stats().events_ingested, uint64_t{kWindows} * kEventsPerWindow);

  // The decoded chain is record-identical to the uninterrupted session (timestamps aside:
  // the restored incarnation has its own epoch).
  std::vector<AuditRecord> records;
  const AuditUpload final_upload = dp2.FlushAudit(&records);
  auto first = DecodeAuditBatch(bundle->audit.compressed);
  ASSERT_TRUE(first.ok());
  std::vector<AuditRecord> chained = *first;
  chained.insert(chained.end(), records.begin(), records.end());
  EXPECT_EQ(WithoutTimestamps(chained), WithoutTimestamps(ref_records));

  // The chain verifies as a continuation: upload, resume at the sealed position, next upload.
  AuditChainVerifier chain(cfg.mac_key);
  ASSERT_TRUE(chain.Accept(bundle->audit).ok());
  ASSERT_TRUE(
      chain.AcceptResume(bundle->sealed.identity.chain_seq, bundle->sealed.identity.chain_head)
          .ok());
  ASSERT_TRUE(chain.Accept(final_upload).ok());

  // A stale checkpoint replayed after newer uploads is rejected (fork detection).
  EXPECT_EQ(
      chain.AcceptResume(bundle->sealed.identity.chain_seq, bundle->sealed.identity.chain_head)
          .code(),
      StatusCode::kDataLoss);

  // And the replayed records satisfy the cloud verifier as ONE complete session.
  const CloudVerifier verifier(pipeline.ToVerifierSpec());
  const VerifyReport report = verifier.Verify(chained, /*session_complete=*/true);
  EXPECT_TRUE(report.correct) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.windows_verified, kWindows);

  // The uninterrupted run's single-upload chain verifies too, from a fresh verifier.
  AuditChainVerifier ref_chain(cfg.mac_key);
  EXPECT_TRUE(ref_chain.Accept(ref_upload).ok());
}

TEST(CheckpointTest, CheckpointDuringFusedRunContinuesAcrossBoundaryModes) {
  // The default runner is fused (command-buffer submission); the reference above already
  // proves fused-interrupted == fused-uninterrupted. This one crosses the modes: an engine
  // checkpointed under the UNFUSED boundary restores into a FUSED runner and continues
  // byte-identically against a fused uninterrupted run. Fusion changes how chains cross the
  // boundary, not the sealed state or the dataflow — so incarnations can mix modes freely.
  const DataPlaneConfig cfg = EngineConfig();
  const Pipeline pipeline = MakeDistinct(1000);

  DataPlane ref_dp(cfg);
  std::vector<WindowResult> ref_results;
  std::vector<AuditRecord> ref_records;
  {
    Runner runner(&ref_dp, pipeline, SingleWorker(/*fuse_chains=*/true));
    RunPrefix(runner);
    RunSuffix(runner);
    ref_results = SortedByWindow(runner.TakeResults());
  }
  ref_dp.FlushAudit(&ref_records);

  DataPlane dp1(cfg);
  auto runner1 = std::make_unique<Runner>(&dp1, pipeline, SingleWorker(/*fuse_chains=*/false));
  RunPrefix(*runner1);
  std::vector<WindowResult> results;
  auto bundle = EngineLifecycle(&dp1, runner1.get()).Checkpoint({}, &results);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  runner1.reset();

  DataPlane dp2(cfg);
  Runner runner2(&dp2, pipeline, SingleWorker(/*fuse_chains=*/true));
  ASSERT_TRUE(EngineLifecycle(&dp2, &runner2).Restore(bundle->sealed).ok());
  RunSuffix(runner2);
  {
    std::vector<WindowResult> tail = runner2.TakeResults();
    results.insert(results.end(), tail.begin(), tail.end());
  }
  ExpectSameEgress(ref_results, SortedByWindow(std::move(results)));

  std::vector<AuditRecord> records;
  dp2.FlushAudit(&records);
  auto first = DecodeAuditBatch(bundle->audit.compressed);
  ASSERT_TRUE(first.ok());
  std::vector<AuditRecord> chained = *first;
  chained.insert(chained.end(), records.begin(), records.end());
  EXPECT_EQ(WithoutTimestamps(chained), WithoutTimestamps(ref_records));

  const CloudVerifier verifier(pipeline.ToVerifierSpec());
  const VerifyReport report = verifier.Verify(chained, /*session_complete=*/true);
  EXPECT_TRUE(report.correct) << (report.violations.empty() ? "" : report.violations[0]);
}

TEST(CheckpointTest, EverySingleByteCorruptionIsRejected) {
  const DataPlaneConfig cfg = EngineConfig();
  const Pipeline pipeline = MakeDistinct(1000);
  DataPlane dp(cfg);
  Runner runner(&dp, pipeline, SingleWorker());
  RunPrefix(runner);
  auto bundle = EngineLifecycle(&dp, &runner).Checkpoint({}, nullptr);
  ASSERT_TRUE(bundle.ok());
  const SealedCheckpoint& sealed = bundle->sealed;
  ASSERT_FALSE(sealed.ciphertext.empty());

  auto expect_rejected = [&](const SealedCheckpoint& corrupt, const char* what) {
    DataPlane fresh(cfg);
    auto restored = fresh.ApplySeal(corrupt);
    ASSERT_FALSE(restored.ok()) << what;
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss) << what;
  };

  // One flipped bit anywhere in the ciphertext.
  for (const size_t offset : {size_t{0}, sealed.ciphertext.size() / 2,
                              sealed.ciphertext.size() - 1}) {
    SealedCheckpoint corrupt = sealed;
    corrupt.ciphertext[offset] ^= 0x01;
    expect_rejected(corrupt, "ciphertext bit flip");
  }
  // Header fields: identity (tenant / engine / chain position), claimed head, salt.
  {
    SealedCheckpoint corrupt = sealed;
    corrupt.identity.chain_seq += 1;
    expect_rejected(corrupt, "chain_seq tamper");
  }
  {
    SealedCheckpoint corrupt = sealed;
    corrupt.identity.chain_head[0] ^= 0x80;
    expect_rejected(corrupt, "chain_head tamper");
  }
  {
    SealedCheckpoint corrupt = sealed;
    corrupt.identity.tenant += 1;
    expect_rejected(corrupt, "tenant tamper");
  }
  {
    SealedCheckpoint corrupt = sealed;
    corrupt.identity.engine_id += 1;
    expect_rejected(corrupt, "engine_id tamper");
  }
  {
    SealedCheckpoint corrupt = sealed;
    corrupt.seal_salt ^= 1;
    expect_rejected(corrupt, "seal_salt tamper");
  }
  {
    SealedCheckpoint corrupt = sealed;
    corrupt.mac[31] ^= 0x40;
    expect_rejected(corrupt, "mac tamper");
  }
  // Truncation.
  {
    SealedCheckpoint corrupt = sealed;
    corrupt.ciphertext.resize(corrupt.ciphertext.size() / 2);
    expect_rejected(corrupt, "truncation");
  }

  // The pristine seal still restores after all that.
  DataPlane fresh(cfg);
  Runner fresh_runner(&fresh, pipeline, SingleWorker());
  EXPECT_TRUE(EngineLifecycle(&fresh, &fresh_runner).Restore(sealed).ok());
}

TEST(CheckpointTest, RestorePreconditionsAndQuota) {
  const DataPlaneConfig cfg = EngineConfig();
  const Pipeline pipeline = MakeDistinct(1000);
  DataPlane dp(cfg);
  Runner runner(&dp, pipeline, SingleWorker());
  RunPrefix(runner);
  auto bundle = EngineLifecycle(&dp, &runner).Checkpoint({}, nullptr);
  ASSERT_TRUE(bundle.ok());

  // Restore into a data plane that already processed data is refused.
  {
    DataPlane used(cfg);
    const auto events = testing::MakeEvents(100);
    ASSERT_TRUE(
        used.IngestBatch(testing::AsBytes(events), sizeof(Event), 0, IngestPath::kTrustedIo)
            .ok());
    EXPECT_EQ(used.ApplySeal(bundle->sealed).status().code(), StatusCode::kFailedPrecondition);
  }
  // The lifecycle surface enforces the same precondition end to end: restoring into a pair
  // whose engine already worked is refused, not silently merged.
  {
    DataPlane used_dp(cfg);
    Runner used_runner(&used_dp, pipeline, SingleWorker());
    IngestWindow(used_runner, 0);
    EXPECT_EQ(EngineLifecycle(&used_dp, &used_runner).Restore(bundle->sealed).status().code(),
              StatusCode::kFailedPrecondition);
  }
  // A partition too small for the checkpointed state fails with the backpressure code, not a
  // crash: bounded secure memory holds on the restore path too.
  {
    DataPlaneConfig tiny = cfg;
    tiny.partition.secure_dram_bytes = 64u << 10;  // one 64KB page
    tiny.partition.group_reserve_bytes = 64u << 10;
    DataPlane small(tiny);
    EXPECT_EQ(small.ApplySeal(bundle->sealed).status().code(), StatusCode::kResourceExhausted);
  }
  // Restoring under the wrong tenant keys is indistinguishable from corruption.
  {
    DataPlaneConfig wrong = cfg;
    wrong.mac_key[0] ^= 0xff;
    DataPlane other(wrong);
    EXPECT_EQ(other.ApplySeal(bundle->sealed).status().code(), StatusCode::kDataLoss);
  }
  // A malformed control annex is rejected cleanly by a fresh pair's adopt path.
  {
    DataPlane dp2(cfg);
    auto engine_annex = dp2.ApplySeal(bundle->sealed);
    ASSERT_TRUE(engine_annex.ok());
    std::vector<uint8_t> garbage = *engine_annex;
    garbage.resize(garbage.size() / 2);
    Runner fresh(&dp2, pipeline, SingleWorker());
    EXPECT_EQ(EngineLifecycle(&dp2, &fresh).AdoptState(garbage).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(CheckpointTest, RefusalNamesTheGuardThatTripped) {
  // A refused checkpoint must say WHICH admission guard tripped — in the Status message and
  // in the reason-labeled refusal counter — so delta-cadence tuning can tell "work still
  // executing" from "not quiesced".
  const DataPlaneConfig cfg = EngineConfig();
  DataPlane dp(cfg);
  obs::Counter* refusals =
      obs::MetricsRegistry::Global().GetCounter("sbt_checkpoint_refusals_total");
  obs::Counter* open_ticket = obs::MetricsRegistry::Global().GetCounter(
      "sbt_checkpoint_refusals_total", {{"reason", "open_ticket"}});
  const uint64_t total_before = refusals->Value();
  const uint64_t ticket_before = open_ticket->Value();

  ExecTicket ticket = dp.OpenTicket(/*reserve_ids=*/0);
  auto refused = dp.Checkpoint();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("open_ticket"), std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(refusals->Value(), total_before + 1);
  EXPECT_EQ(open_ticket->Value(), ticket_before + 1);

  // Retire the ticket: the guard clears and the same plane seals.
  dp.RetireTicket(ticket);
  EXPECT_TRUE(dp.Checkpoint().ok());
}

TEST(CheckpointTest, DeltaBeforeAnyFullSealFallsBackToFull) {
  const DataPlaneConfig cfg = EngineConfig();
  const Pipeline pipeline = MakeDistinct(1000);
  DataPlane dp(cfg);
  Runner runner(&dp, pipeline, SingleWorker());
  IngestWindow(runner, 0);
  auto bundle = EngineLifecycle(&dp, &runner).Checkpoint({.mode = SealMode::kDelta}, nullptr);
  ASSERT_TRUE(bundle.ok());
  // No base to cut a delta against: the seal is a (restorable) full seal and says so.
  EXPECT_EQ(bundle->sealed.mode, SealMode::kFull);
  DataPlane fresh(cfg);
  Runner fresh_runner(&fresh, pipeline, SingleWorker());
  EXPECT_TRUE(EngineLifecycle(&fresh, &fresh_runner).Restore(bundle->sealed).ok());
}

// Runs the full + delta + delta seal chain under the given knobs and proves the standby that
// replayed the chain continues byte-identically to (a) a standby restored from a single full
// seal cut at the same point and (b) an uninterrupted run — across worker counts and both
// boundary modes, since delta state capture must be schedule-independent.
void RunDeltaChainScenario(int worker_threads, bool fuse_chains) {
  SCOPED_TRACE(::testing::Message() << "workers=" << worker_threads
                                    << " fused=" << fuse_chains);
  const DataPlaneConfig cfg = EngineConfig();
  const Pipeline pipeline = MakeDistinct(1000);
  RunnerConfig rc;
  rc.knobs.worker_threads = worker_threads;
  rc.knobs.fuse_chains = fuse_chains;

  // Reference: same ingest/watermark schedule, no seals.
  DataPlane ref_dp(cfg);
  std::vector<WindowResult> ref_results;
  {
    Runner runner(&ref_dp, pipeline, rc);
    IngestWindow(runner, 0);
    IngestWindow(runner, 1);
    IngestWindow(runner, 2);
    Watermark(runner, 1000);
    IngestWindow(runner, 3);
    Watermark(runner, 2000);
    RunSuffix(runner);
    ref_results = SortedByWindow(runner.TakeResults());
  }
  ASSERT_EQ(ref_results.size(), kWindows);

  // Primary: seal chain full -> delta -> delta while the engine keeps running, plus one full
  // seal at the final position for the full-only comparison standby.
  DataPlane dp(cfg);
  Runner runner(&dp, pipeline, rc);
  EngineLifecycle lifecycle(&dp, &runner);
  std::vector<WindowResult> shipped;

  IngestWindow(runner, 0);
  IngestWindow(runner, 1);
  auto b0 = lifecycle.Checkpoint({.mode = SealMode::kFull}, &shipped);
  ASSERT_TRUE(b0.ok()) << b0.status().ToString();
  ASSERT_EQ(b0->sealed.mode, SealMode::kFull);

  IngestWindow(runner, 2);
  Watermark(runner, 1000);
  auto b1 = lifecycle.Checkpoint({.mode = SealMode::kDelta}, &shipped);
  ASSERT_TRUE(b1.ok()) << b1.status().ToString();
  ASSERT_EQ(b1->sealed.mode, SealMode::kDelta);
  // The delta names its base: exactly the predecessor seal's chain position.
  EXPECT_EQ(b1->sealed.base_chain_seq, b0->sealed.identity.chain_seq);
  EXPECT_TRUE(DigestEqual(b1->sealed.base_chain_head, b0->sealed.identity.chain_head));

  IngestWindow(runner, 3);
  Watermark(runner, 2000);
  auto b2 = lifecycle.Checkpoint({.mode = SealMode::kDelta}, &shipped);
  ASSERT_TRUE(b2.ok()) << b2.status().ToString();
  ASSERT_EQ(b2->sealed.mode, SealMode::kDelta);
  EXPECT_EQ(b2->sealed.base_chain_seq, b1->sealed.identity.chain_seq);
  auto bf = lifecycle.Checkpoint({.mode = SealMode::kFull}, &shipped);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  ASSERT_EQ(bf->sealed.mode, SealMode::kFull);

  ASSERT_EQ(shipped.size(), 2u) << "windows 0 and 1 closed before the last seal";

  // Standby A: replay the chain — full restore, then each delta in order — and adopt the
  // latest control annex into a fresh runner (the promote-path splice).
  DataPlane dp_a(cfg);
  ASSERT_TRUE(dp_a.ApplySeal(b0->sealed).ok());
  ASSERT_TRUE(dp_a.ApplySeal(b1->sealed).ok());
  auto annex = dp_a.ApplySeal(b2->sealed);
  ASSERT_TRUE(annex.ok()) << annex.status().ToString();
  Runner runner_a(&dp_a, pipeline, rc);
  ASSERT_TRUE(EngineLifecycle(&dp_a, &runner_a).AdoptState(*annex).ok());
  RunSuffix(runner_a);
  std::vector<WindowResult> tail_a = runner_a.TakeResults();

  // Standby B: one full seal cut at the same point.
  DataPlane dp_b(cfg);
  Runner runner_b(&dp_b, pipeline, rc);
  ASSERT_TRUE(EngineLifecycle(&dp_b, &runner_b).Restore(bf->sealed).ok());
  RunSuffix(runner_b);
  std::vector<WindowResult> tail_b = runner_b.TakeResults();

  // full+delta == full-only == uninterrupted, byte for byte.
  ExpectSameEgress(SortedByWindow(tail_a), SortedByWindow(tail_b));
  std::vector<WindowResult> combined = shipped;
  combined.insert(combined.end(), tail_a.begin(), tail_a.end());
  ExpectSameEgress(ref_results, SortedByWindow(std::move(combined)));

  // The audit chain across the whole sealed history verifies gap-free: every seal-time
  // upload, resume at the last delta's position, then the standby's own continuation.
  AuditChainVerifier chain(cfg.mac_key);
  ASSERT_TRUE(chain.Accept(b0->audit).ok());
  ASSERT_TRUE(chain.Accept(b1->audit).ok());
  ASSERT_TRUE(chain.Accept(b2->audit).ok());
  ASSERT_TRUE(
      chain.AcceptResume(b2->sealed.identity.chain_seq, b2->sealed.identity.chain_head).ok());
  const AuditUpload standby_upload = dp_a.FlushAudit();
  ASSERT_TRUE(chain.Accept(standby_upload).ok());
}

TEST(CheckpointTest, DeltaChainRestoresByteIdenticallyAcrossWorkersAndModes) {
  RunDeltaChainScenario(/*worker_threads=*/1, /*fuse_chains=*/true);
  RunDeltaChainScenario(/*worker_threads=*/4, /*fuse_chains=*/true);
  RunDeltaChainScenario(/*worker_threads=*/4, /*fuse_chains=*/false);
}

TEST(CheckpointTest, DeltaChainRejectsReorderReplayAndCorruption) {
  const DataPlaneConfig cfg = EngineConfig();
  const Pipeline pipeline = MakeDistinct(1000);
  DataPlane dp(cfg);
  Runner runner(&dp, pipeline, SingleWorker());
  EngineLifecycle lifecycle(&dp, &runner);

  IngestWindow(runner, 0);
  IngestWindow(runner, 1);
  auto b0 = lifecycle.Checkpoint({.mode = SealMode::kFull}, nullptr);
  ASSERT_TRUE(b0.ok());
  IngestWindow(runner, 2);
  Watermark(runner, 1000);
  auto b1 = lifecycle.Checkpoint({.mode = SealMode::kDelta}, nullptr);
  ASSERT_TRUE(b1.ok());
  IngestWindow(runner, 3);
  Watermark(runner, 2000);
  auto b2 = lifecycle.Checkpoint({.mode = SealMode::kDelta}, nullptr);
  ASSERT_TRUE(b2.ok());

  // Reordered: skipping a link of the chain is detected by the base-position check.
  {
    DataPlane replica(cfg);
    ASSERT_TRUE(replica.ApplySeal(b0->sealed).ok());
    EXPECT_EQ(replica.ApplySeal(b2->sealed).status().code(), StatusCode::kDataLoss);
  }
  // Replayed: a delta applies exactly once; the second apply's base no longer matches.
  {
    DataPlane replica(cfg);
    ASSERT_TRUE(replica.ApplySeal(b0->sealed).ok());
    ASSERT_TRUE(replica.ApplySeal(b1->sealed).ok());
    EXPECT_EQ(replica.ApplySeal(b1->sealed).status().code(), StatusCode::kDataLoss);
  }
  // Corrupted mid-chain: the MAC rejects it, the replica's base state stays intact, and the
  // retransmitted authentic delta (and its successor) still applies.
  {
    DataPlane replica(cfg);
    ASSERT_TRUE(replica.ApplySeal(b0->sealed).ok());
    SealedCheckpoint corrupt = b1->sealed;
    corrupt.ciphertext[corrupt.ciphertext.size() / 2] ^= 0x01;
    EXPECT_EQ(replica.ApplySeal(corrupt).status().code(), StatusCode::kDataLoss);
    ASSERT_TRUE(replica.ApplySeal(b1->sealed).ok());
    ASSERT_TRUE(replica.ApplySeal(b2->sealed).ok());
  }
  // Forked base claim: rewriting the base pointer cannot graft a delta onto the wrong link.
  {
    DataPlane replica(cfg);
    ASSERT_TRUE(replica.ApplySeal(b0->sealed).ok());
    ASSERT_TRUE(replica.ApplySeal(b1->sealed).ok());
    SealedCheckpoint forged = b2->sealed;
    forged.base_chain_seq = b0->sealed.identity.chain_seq;
    forged.base_chain_head = b0->sealed.identity.chain_head;
    EXPECT_EQ(replica.ApplySeal(forged).status().code(), StatusCode::kDataLoss);
  }
  // Mode confusion is refused before any crypto: a full seal is not a delta and vice versa,
  // and a delta cannot seed a fresh plane.
  {
    DataPlane replica(cfg);
    ASSERT_TRUE(replica.ApplySeal(b0->sealed).ok());
    EXPECT_EQ(replica.ApplySeal(b0->sealed).status().code(), StatusCode::kFailedPrecondition);
  }
  {
    DataPlane fresh(cfg);
    EXPECT_EQ(fresh.ApplySeal(b1->sealed).status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(fresh.ApplySeal(b1->sealed).status().code(), StatusCode::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace sbt
