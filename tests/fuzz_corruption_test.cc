// Randomized corruption of the two tamper-evident artifacts that leave the TEE — compressed
// audit uploads and sealed engine checkpoints, full and delta alike (DESIGN.md invariants 2-3
// and the delta-seal chain rule). A seed matrix drives deterministic bit-flips, truncations,
// and chain-order violations; every corruption must surface as a kDataLoss-class rejection,
// and decode/restore/apply must never crash regardless of what the bytes decode to.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "src/attest/audit_chain.h"
#include "src/attest/compress.h"
#include "src/common/rng.h"
#include "src/control/benchmarks.h"
#include "src/control/engine.h"
#include "src/control/lifecycle.h"
#include "src/core/data_plane.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

DataPlaneConfig FuzzConfig() {
  DataPlaneConfig cfg = testing::SmallDataPlaneConfig(/*decrypt_ingress=*/false);
  cfg.partition = testing::SmallTzPartition(4);
  return cfg;
}

// One real engine session, sealed mid-flight as a chain: a full seal with live window state,
// then two delta seals as the session keeps running.
struct SealedFixture {
  DataPlaneConfig cfg = FuzzConfig();
  SealedCheckpoint sealed;  // the full seal (chain base)
  AuditUpload upload;
  SealedCheckpoint delta1;
  SealedCheckpoint delta2;
};

void IngestFuzzWindow(Runner& runner, uint32_t w) {
  std::vector<Event> events = testing::MakeEvents(2000, 32, 1000, 7 + w);
  for (Event& e : events) {
    e.ts_ms = w * 1000 + e.ts_ms % 1000;
  }
  EXPECT_TRUE(runner.IngestFrame(testing::AsBytes(events)).ok());
  runner.Drain();
}

const SealedFixture& Fixture() {
  static const SealedFixture* fixture = [] {
    auto* f = new SealedFixture();
    DataPlane dp(f->cfg);
    RunnerConfig rc;
    rc.knobs.worker_threads = 1;
    Runner runner(&dp, MakeDistinct(1000), rc);
    EngineLifecycle lifecycle(&dp, &runner);
    for (uint32_t w = 0; w < 2; ++w) {
      IngestFuzzWindow(runner, w);
    }
    auto bundle = lifecycle.Checkpoint({}, nullptr);
    EXPECT_TRUE(bundle.ok());
    f->sealed = std::move(bundle->sealed);
    f->upload = std::move(bundle->audit);
    // Extend the session and cut two deltas on top of the full base.
    IngestFuzzWindow(runner, 2);
    auto d1 = lifecycle.Checkpoint({.mode = SealMode::kDelta}, nullptr);
    EXPECT_TRUE(d1.ok());
    EXPECT_EQ(d1->sealed.mode, SealMode::kDelta);
    f->delta1 = std::move(d1->sealed);
    EXPECT_TRUE(runner.AdvanceWatermark(1000).ok());
    runner.Drain();
    auto d2 = lifecycle.Checkpoint({.mode = SealMode::kDelta}, nullptr);
    EXPECT_TRUE(d2.ok());
    EXPECT_EQ(d2->sealed.mode, SealMode::kDelta);
    f->delta2 = std::move(d2->sealed);
    return f;
  }();
  return *fixture;
}

class CorruptionFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionFuzz, CorruptAuditUploadsAreRejectedAndNeverCrash) {
  const SealedFixture& fx = Fixture();
  ASSERT_GT(fx.upload.compressed.size(), 8u);
  AuditChainVerifier pristine(fx.cfg.mac_key);
  ASSERT_TRUE(pristine.Accept(fx.upload).ok());

  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    AuditUpload corrupt = fx.upload;
    switch (rng.NextBelow(5)) {
      case 0:  // bit flip in the compressed batch
        corrupt.compressed[rng.NextBelow(corrupt.compressed.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
        break;
      case 1:  // truncation
        corrupt.compressed.resize(rng.NextBelow(corrupt.compressed.size()));
        break;
      case 2:  // MAC tamper
        corrupt.mac[rng.NextBelow(corrupt.mac.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
        break;
      case 3:  // chain position tamper
        corrupt.chain_seq += 1 + rng.NextBelow(1000);
        break;
      default:  // claimed-predecessor tamper
        corrupt.chain_prev[rng.NextBelow(corrupt.chain_prev.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
        break;
    }
    AuditChainVerifier verifier(fx.cfg.mac_key);
    const Status accepted = verifier.Accept(corrupt);
    ASSERT_FALSE(accepted.ok()) << "trial " << trial;
    EXPECT_EQ(accepted.code(), StatusCode::kDataLoss) << "trial " << trial;
    // The decoder itself must never crash on corrupt bytes, whatever it returns.
    auto decoded = DecodeAuditBatch(corrupt.compressed);
    (void)decoded;
  }
}

TEST_P(CorruptionFuzz, CorruptSealedCheckpointsAreRejectedAndNeverCrash) {
  const SealedFixture& fx = Fixture();
  ASSERT_GT(fx.sealed.ciphertext.size(), 16u);

  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 24; ++trial) {
    SealedCheckpoint corrupt = fx.sealed;
    switch (rng.NextBelow(5)) {
      case 0:  // bit flip anywhere in the ciphertext
        corrupt.ciphertext[rng.NextBelow(corrupt.ciphertext.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
        break;
      case 1:  // truncation
        corrupt.ciphertext.resize(rng.NextBelow(corrupt.ciphertext.size()));
        break;
      case 2:  // MAC tamper
        corrupt.mac[rng.NextBelow(corrupt.mac.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
        break;
      case 3:  // chain position tamper
        corrupt.identity.chain_seq += 1 + rng.NextBelow(1000);
        break;
      default:  // claimed chain head tamper
        corrupt.identity.chain_head[rng.NextBelow(corrupt.identity.chain_head.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
        break;
    }
    DataPlane fresh(fx.cfg);
    auto restored = fresh.ApplySeal(corrupt);
    ASSERT_FALSE(restored.ok()) << "trial " << trial;
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss) << "trial " << trial;
  }
  // The pristine artifact still restores: rejection above is the corruption's doing.
  DataPlane fresh(fx.cfg);
  EXPECT_TRUE(fresh.ApplySeal(fx.sealed).ok());
}

TEST_P(CorruptionFuzz, CorruptMidChainDeltasAreRejectedAndLeaveTheBaseIntact) {
  // The delta-seal chain rule under fuzz: any corrupted, reordered, or replayed mid-chain
  // delta is rejected — and because a rejected delta must not half-apply, the SAME replica
  // instance then accepts the pristine chain.
  const SealedFixture& fx = Fixture();
  ASSERT_GT(fx.delta1.ciphertext.size(), 0u);

  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    DataPlane replica(fx.cfg);
    ASSERT_TRUE(replica.ApplySeal(fx.sealed).ok()) << "trial " << trial;
    Status rejected;
    switch (rng.NextBelow(8)) {
      case 0: {  // bit flip anywhere in the delta ciphertext
        SealedCheckpoint corrupt = fx.delta1;
        corrupt.ciphertext[rng.NextBelow(corrupt.ciphertext.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
        rejected = replica.ApplySeal(corrupt).status();
        break;
      }
      case 1: {  // truncation
        SealedCheckpoint corrupt = fx.delta1;
        corrupt.ciphertext.resize(rng.NextBelow(corrupt.ciphertext.size()));
        rejected = replica.ApplySeal(corrupt).status();
        break;
      }
      case 2: {  // MAC tamper
        SealedCheckpoint corrupt = fx.delta1;
        corrupt.mac[rng.NextBelow(corrupt.mac.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
        rejected = replica.ApplySeal(corrupt).status();
        break;
      }
      case 3: {  // base position tamper (graft onto the wrong link)
        SealedCheckpoint corrupt = fx.delta1;
        corrupt.base_chain_seq += 1 + rng.NextBelow(1000);
        rejected = replica.ApplySeal(corrupt).status();
        break;
      }
      case 4: {  // claimed base head tamper
        SealedCheckpoint corrupt = fx.delta1;
        corrupt.base_chain_head[rng.NextBelow(corrupt.base_chain_head.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
        rejected = replica.ApplySeal(corrupt).status();
        break;
      }
      case 5: {  // seal-position tamper (the delta's own chain stamp)
        SealedCheckpoint corrupt = fx.delta1;
        corrupt.identity.chain_seq += 1 + rng.NextBelow(1000);
        rejected = replica.ApplySeal(corrupt).status();
        break;
      }
      case 6:  // reordered: the second delta without the first
        rejected = replica.ApplySeal(fx.delta2).status();
        break;
      default: {  // replayed: the first delta twice
        ASSERT_TRUE(replica.ApplySeal(fx.delta1).ok()) << "trial " << trial;
        rejected = replica.ApplySeal(fx.delta1).status();
        // Rewind for the pristine-chain check below: this replica already holds delta1.
        ASSERT_FALSE(rejected.ok()) << "trial " << trial;
        EXPECT_EQ(rejected.code(), StatusCode::kDataLoss) << "trial " << trial;
        EXPECT_TRUE(replica.ApplySeal(fx.delta2).ok()) << "trial " << trial;
        continue;
      }
    }
    ASSERT_FALSE(rejected.ok()) << "trial " << trial;
    EXPECT_EQ(rejected.code(), StatusCode::kDataLoss) << "trial " << trial;
    // Nothing half-applied: the pristine chain still lands on this very replica.
    EXPECT_TRUE(replica.ApplySeal(fx.delta1).ok()) << "trial " << trial;
    EXPECT_TRUE(replica.ApplySeal(fx.delta2).ok()) << "trial " << trial;
  }
}

// Seed matrix: 8 seeds by default; the nightly workflow widens it via SBT_FUZZ_SEEDS (seed
// values stay deterministic — 1..N — so a nightly failure reproduces locally by exporting the
// same count and filtering to the failing seed).
std::vector<uint64_t> FuzzSeeds() {
  size_t count = 8;
  if (const char* env = std::getenv("SBT_FUZZ_SEEDS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) {
      count = static_cast<size_t>(parsed);
    }
  }
  std::vector<uint64_t> seeds(count);
  for (size_t i = 0; i < count; ++i) {
    seeds[i] = i + 1;
  }
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(SeedMatrix, CorruptionFuzz, ::testing::ValuesIn(FuzzSeeds()));

}  // namespace
}  // namespace sbt
