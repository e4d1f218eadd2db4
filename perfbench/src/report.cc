#include "perfbench/src/report.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/attest/audit_chain.h"
#include "src/attest/compress.h"
#include "src/attest/verifier.h"

namespace perfbench {
namespace {

constexpr double kLatencyLimitMs = 1000;  // the paper's output-delay bound (open loops)

std::vector<uint8_t> DecryptEgress(const sbt::TenantSpec& spec, const sbt::EgressBlob& blob) {
  sbt::Aes128Ctr cipher(spec.egress_key, std::span<const uint8_t>(spec.egress_nonce.data(), 12));
  std::vector<uint8_t> plain = blob.ciphertext;
  cipher.Crypt(std::span<uint8_t>(plain.data(), plain.size()), blob.ctr_offset);
  return plain;
}

// The benchmark's own cloud-side verifier over one engine's complete upload chain.
bool VerifyChain(const RunContext& ctx, const sbt::TenantSpec& spec, const EngineKey& key,
                 const std::vector<sbt::AuditUpload>& chain, std::string* why) {
  sbt::AuditChainVerifier verifier(spec.mac_key);
  std::vector<sbt::AuditRecord> records;
  for (const sbt::AuditUpload& upload : chain) {
    {
      SpanScope span(ctx.spans, "verify.chain_accept", key.tenant, key.shard, -1);
      const sbt::Status s = verifier.Accept(upload);
      if (!s.ok()) {
        *why = "chain accept: " + s.ToString();
        return false;
      }
    }
    SpanScope span(ctx.spans, "verify.decode", key.tenant, key.shard, -1);
    auto decoded = sbt::DecodeAuditBatch(upload.compressed);
    if (!decoded.ok()) {
      *why = "decode: " + decoded.status().ToString();
      return false;
    }
    records.insert(records.end(), decoded->begin(), decoded->end());
  }
  SpanScope span(ctx.spans, "verify.replay", key.tenant, key.shard, -1);
  const sbt::CloudVerifier cloud(spec.pipeline.ToVerifierSpec());
  const sbt::VerifyReport report = cloud.Verify(records, /*session_complete=*/true);
  if (!report.correct) {
    *why = "replay: " + (report.violations.empty() ? std::string("incorrect")
                                                   : report.violations.front());
    return false;
  }
  return true;
}

}  // namespace

Evaluation Evaluate(const RunContext& ctx, const Stack& stack, const PhaseRaw& raw) {
  const WorkloadSpec& spec = *ctx.spec;
  Evaluation ev;
  ev.problems = raw.errors;
  for (const std::string& e : stack.errors) {
    ev.problems.push_back(e);
  }
  std::map<EngineKey, std::vector<const DeviceRun*>> engines;
  for (const DeviceRun& d : stack.devices) {
    engines[EngineKey{d.plan->id, d.shard}].push_back(&d);
    ev.events += d.events;
  }
  const uint32_t windows = raw.windows;
  ev.attempted = engines.size() * windows;

  uint64_t live_arrays = 0;
  for (const auto& [key, devices] : engines) {
    const sbt::TenantSpec& tenant = *devices.front()->spec;
    const Op op = devices.front()->plan->op;
    uint64_t sent = 0;
    for (const DeviceRun* d : devices) {
      sent += d->events;
    }
    ev.events_per_engine[key] = sent;
    const sbt::TenantShardReport* engine = nullptr;
    for (const sbt::TenantShardReport& e : raw.report.engines) {
      if (e.tenant == key.tenant && e.shard == key.shard) {
        engine = &e;
      }
    }
    const std::string label = tenant.name + "@shard" + std::to_string(key.shard);
    if (engine == nullptr) {
      ev.problems.push_back(label + ": engine missing from the server report");
      // Every window a miss, inside the measured span.
      ev.timings.resize(ev.timings.size() + windows,
                        WindowTiming{.due_us = std::numeric_limits<int64_t>::max()});
      continue;
    }
    live_arrays += engine->telemetry.allocator.live_arrays;
    if (engine->runner().events_ingested != sent) {
      ev.problems.push_back(label + ": ingested " +
                            std::to_string(engine->runner().events_ingested) + " of " +
                            std::to_string(sent) + " events sent");
    }
    if (engine->runner().task_errors + engine->dispatch_errors + engine->shed_frames > 0) {
      ev.problems.push_back(label + ": task/dispatch errors or shed frames");
    }

    std::vector<sbt::AuditUpload> chain;
    if (const auto it = stack.shipped.find(key); it != stack.shipped.end()) {
      chain = it->second;
    }
    chain.push_back(engine->audit);
    if (chain.size() != engine->uploads) {
      ev.problems.push_back(label + ": shipped " + std::to_string(chain.size()) +
                            " uploads, engine reports " + std::to_string(engine->uploads));
    }
    for (const sbt::AuditUpload& u : chain) {
      ev.upload_bytes += u.compressed.size();
      ev.upload_raw_bytes += u.raw_bytes;
    }
    std::string why;
    const int64_t verify0 = sbt::NowUs();
    const bool chain_ok = VerifyChain(ctx, tenant, key, chain, &why);
    ev.verify_ms += static_cast<double>(sbt::NowUs() - verify0) / 1e3;
    if (!chain_ok) {
      ev.problems.push_back(label + ": verifier rejected the chain: " + why);
    }

    std::map<uint32_t, std::vector<const sbt::WindowResult*>> by_window;
    for (const sbt::WindowResult& r : engine->windows) {
      by_window[r.window_index].push_back(&r);
      for (const sbt::EgressBlob& b : r.blobs) {
        ev.egress_bytes += b.ciphertext.size();
      }
      ev.last_egress_us = std::max<int64_t>(ev.last_egress_us, r.egress_time);
      if (r.window_index >= windows) {
        ev.problems.push_back(label + ": result for unscheduled window " +
                              std::to_string(r.window_index));
      }
    }
    for (uint32_t w = 0; w < windows; ++w) {
      WindowRef ref;
      int64_t due = raw.t0_us + static_cast<int64_t>(w + 1) * spec.window_ms * 1000;
      if (!spec.open_loop) {
        // Closed loop: no schedule; the window is due when its closing watermark was sent.
        due = 0;
        for (const DeviceRun* d : devices) {
          if (w < d->wm_sent_us.size()) {
            due = std::max(due, d->wm_sent_us[w]);
          }
        }
      }
      for (const DeviceRun* d : devices) {
        if (w < d->refs.size()) {
          ref.Merge(op, d->refs[w]);
        }
      }
      WindowTiming t;
      t.due_us = due;
      const auto it = by_window.find(w);
      if (chain_ok && it != by_window.end() && it->second.size() == 1 &&
          it->second.front()->blobs.size() == 1 &&
          ref.Matches(op, DecryptEgress(tenant, it->second.front()->blobs.front()))) {
        t.present = true;
        t.watermark_us = it->second.front()->watermark_time;
        t.egress_us = it->second.front()->egress_time;
      }
      ev.timings.push_back(t);
    }
  }

  // Every window counts toward failures; the latency percentiles skip the warm-up.
  const double limit_ms = spec.open_loop ? kLatencyLimitMs : kMiss;
  const LatencySplit all = SplitLatencies(ev.timings, limit_ms);
  ev.failed += all.misses;
  std::vector<WindowTiming> measured;
  const int64_t measure_from = raw.t0_us + static_cast<int64_t>(spec.warmup_ms) * 1000;
  for (const WindowTiming& t : ev.timings) {
    if (t.due_us >= measure_from) {
      measured.push_back(t);
    }
  }
  ev.split = SplitLatencies(measured, limit_ms);
  if (all.split_mismatches > 0) {
    ev.problems.push_back("delivery + close differs from the result latency");
  }
  if (live_arrays != 0) {
    ev.problems.push_back(std::to_string(live_arrays) + " uArrays still live at shutdown");
  }
  if (stack.replica != nullptr) {
    if (stack.replica->seals_applied() != stack.seals_published) {
      ev.problems.push_back("standby applied " + std::to_string(stack.replica->seals_applied()) +
                            " of " + std::to_string(stack.seals_published) + " published seals");
    }
    if (!stack.subscriber->last_error().ok()) {
      ev.problems.push_back("standby: " + stack.subscriber->last_error().ToString());
    }
  }
  if (raw.ingress.sessions_rejected > 0) {
    ev.problems.push_back("ingress rejected honest sessions");
  }
  return ev;
}

}  // namespace perfbench
