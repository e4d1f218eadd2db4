// Concurrency suite for the lock-free retire ring and the sharded id arenas: many threads
// hammer the ticket ring (stage + retire + frontier-commit election) and the allocator's
// lock-free id reservation, under TSan in CI (label "concurrent", --repeat until-fail:3).
// The properties here are the ones the byte-identity tests in property_test.cc rest on:
// commit order == ticket order under any interleaving, ids disjoint under any interleaving.
// The ring's reference is ReorderModel below, a sequential reorder buffer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/data_plane.h"
#include "src/uarray/allocator.h"
#include "tests/testing/testing.h"

namespace sbt {
namespace {

DataPlaneConfig RingConfig() {
  return testing::SmallDataPlaneConfig(/*decrypt_ingress=*/false);
}

// The retire ring's reference: a sequential reorder buffer. Records are staged per ticket
// seq; retiring a ticket commits the contiguous retired prefix of the ticket order, oldest
// first, stamping each committed record with the next logical timestamp.
class ReorderModel {
 public:
  explicit ReorderModel(uint32_t first_ts) : next_ts_(first_ts) {}

  void Stage(uint64_t seq, AuditRecord record) {
    tickets_[seq].records.push_back(std::move(record));
  }

  void Retire(uint64_t seq) {
    tickets_[seq].retired = true;
    auto it = tickets_.begin();
    while (it != tickets_.end() && it->first == frontier_ && it->second.retired) {
      for (AuditRecord& record : it->second.records) {
        record.ts_ms = next_ts_++;
        log_.push_back(std::move(record));
      }
      it = tickets_.erase(it);
      ++frontier_;
    }
  }

  const std::vector<AuditRecord>& log() const { return log_; }

 private:
  struct Ticket {
    std::vector<AuditRecord> records;
    bool retired = false;
  };
  std::map<uint64_t, Ticket> tickets_;
  uint64_t frontier_ = 0;
  uint32_t next_ts_;
  std::vector<AuditRecord> log_;
};

// --- ticket ring under contention --------------------------------------------------------

TEST(TicketRing, ConcurrentStageAndRetireCommitsInProgramOrder) {
  // More tickets than ring slots (4096): the ring wraps several times and the opener rides
  // the full-ring backpressure while 8 workers stage and retire out of order. The audit log
  // must still read back in exact program order.
  constexpr uint64_t kTickets = 10000;
  constexpr int kWorkers = 8;
  DataPlane dp(RingConfig());

  std::mutex mu;
  std::deque<ExecTicket> queue;
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      while (true) {
        ExecTicket ticket;
        bool got = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!queue.empty()) {
            ticket = queue.front();
            queue.pop_front();
            got = true;
          } else if (done.load(std::memory_order_acquire)) {
            return;
          }
        }
        if (!got) {
          std::this_thread::yield();
          continue;
        }
        // One staged record per ticket, tagged with the ticket's program position.
        EXPECT_TRUE(
            dp.IngestWatermark(static_cast<EventTimeMs>(ticket.seq), 0, &ticket).ok());
        dp.RetireTicket(ticket);
      }
    });
  }
  for (uint64_t i = 0; i < kTickets; ++i) {
    ExecTicket ticket = dp.OpenTicket(0);  // blocks while the slot's previous lap is live
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back(ticket);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : workers) {
    t.join();
  }

  EXPECT_EQ(dp.open_tickets(), 0u);
  std::vector<AuditRecord> records;
  dp.FlushAudit(&records);
  ASSERT_EQ(records.size(), kTickets);
  for (uint64_t i = 0; i < kTickets; ++i) {
    EXPECT_EQ(records[i].op, PrimitiveOp::kWatermark) << "record " << i;
    EXPECT_EQ(records[i].watermark, static_cast<EventTimeMs>(i)) << "record " << i;
  }
}

TEST(TicketRing, ReverseRetireCommitsNothingUntilTheFrontierRetires) {
  // Retire every ticket EXCEPT the frontier: nothing may commit (log order == ticket order,
  // not retire order). Retiring the frontier then commits the whole run in one batch.
  constexpr uint64_t kTickets = 64;
  DataPlane dp(RingConfig());

  std::vector<ExecTicket> tickets;
  tickets.reserve(kTickets);
  for (uint64_t i = 0; i < kTickets; ++i) {
    tickets.push_back(dp.OpenTicket(0));
    EXPECT_TRUE(
        dp.IngestWatermark(static_cast<EventTimeMs>(i), 0, &tickets.back()).ok());
  }
  for (uint64_t i = kTickets - 1; i >= 1; --i) {
    dp.RetireTicket(tickets[i]);
  }
  EXPECT_EQ(dp.open_tickets(), kTickets);  // frontier still open: zero commits
  dp.RetireTicket(tickets[0]);
  EXPECT_EQ(dp.open_tickets(), 0u);

  std::vector<AuditRecord> records;
  dp.FlushAudit(&records);
  ASSERT_EQ(records.size(), kTickets);
  for (uint64_t i = 0; i < kTickets; ++i) {
    EXPECT_EQ(records[i].watermark, static_cast<EventTimeMs>(i)) << "record " << i;
  }
}

TEST(TicketRing, ConcurrentRetireElectionNeverStrandsASuffix) {
  // The commit-election race: a ticket that retires while another thread is mid-drain (or
  // just released the commit lock) must never be stranded uncommitted. Many rounds of a
  // 2-ticket race distill exactly that window.
  DataPlane dp(RingConfig());
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    ExecTicket a = dp.OpenTicket(0);
    ExecTicket b = dp.OpenTicket(0);
    std::thread t1([&] { dp.RetireTicket(a); });
    std::thread t2([&] { dp.RetireTicket(b); });
    t1.join();
    t2.join();
    // Whoever won the election, both tickets must be committed once the calls return.
    ASSERT_EQ(dp.open_tickets(), 0u) << "round " << round;
  }
}

TEST(TicketRing, CheckpointRefusesWhileRingNonEmpty) {
  // The checkpoint admission rule extends to the ring: an open ticket (or a retired ticket
  // whose commit hasn't been drained) is in-flight state the seal must refuse.
  DataPlane dp(RingConfig());
  ExecTicket ticket = dp.OpenTicket(0);
  EXPECT_EQ(dp.Checkpoint().status().code(), StatusCode::kFailedPrecondition);
  dp.RetireTicket(ticket);
  EXPECT_TRUE(dp.Checkpoint().ok());
}

TEST(TicketRing, SeededShuffledRetireMatchesSequentialModel) {
  // Tickets wrap the 4096-slot ring more than twice. Each stages 0-3 records; one in four
  // also runs a command chain that fails partway — at its first command (nothing staged) or
  // its second (the first command's record staged) — and retires with only that executed
  // prefix. Every chunk of tickets is opened in program order, shuffled with a fixed seed, and
  // retired by 8 racing workers; the committed log must equal the model's, record for record.
  constexpr uint64_t kTickets = 10000;
  constexpr size_t kChunk = 1024;
  constexpr int kWorkers = 8;
  DataPlaneConfig cfg = RingConfig();
  cfg.logical_audit_timestamps = true;
  DataPlane dp(cfg);

  // The failing chains' first command reads this array without retiring it.
  const std::vector<Event> events = testing::ConstantEvents(16);
  auto input = dp.IngestBatch(testing::AsBytes(events), sizeof(Event), 0,
                              IngestPath::kTrustedIo);
  ASSERT_TRUE(input.ok());
  std::vector<AuditRecord> setup;
  dp.FlushAudit(&setup);
  ASSERT_EQ(setup.size(), 1u);
  const uint32_t input_id = setup[0].outputs[0];

  struct Plan {
    ExecTicket ticket;
    uint32_t watermarks = 0;
    int fail_at = -1;  // -1: no chain; else the index of the chain's rejected command
  };
  const auto watermark_value = [](const Plan& plan, uint32_t j) {
    return static_cast<EventTimeMs>(plan.ticket.seq * 4 + j);
  };
  // Runs the plan's operations under its ticket, then retires it.
  const auto execute = [&](Plan& plan) {
    for (uint32_t j = 0; j < plan.watermarks; ++j) {
      EXPECT_TRUE(dp.IngestWatermark(watermark_value(plan, j), 0, &plan.ticket).ok());
    }
    if (plan.fail_at >= 0) {
      CmdBuffer chain;
      if (plan.fail_at == 1) {
        chain.Push(CmdBuffer::Entry{PrimitiveOp::kProject, {input->ref}, {},
                                    HintRequest::None(), /*retire_inputs=*/false});
      }
      // A forward-pointing slot ref: rejected before the command runs, ending the chain.
      chain.Push(CmdBuffer::Entry{PrimitiveOp::kProject, {MakeSlotRef(7)}, {},
                                  HintRequest::None()});
      EXPECT_EQ(dp.Submit(chain, &plan.ticket).status().code(), StatusCode::kInvalidArgument);
    }
    dp.RetireTicket(plan.ticket);
  };
  // The records the plan stages, in staging order: its watermarks, then the executed prefix
  // of its chain (the first command's record, its output taking the ticket's reserved id).
  const auto staged_records = [&](const Plan& plan) {
    std::vector<AuditRecord> records(plan.watermarks);
    for (uint32_t j = 0; j < plan.watermarks; ++j) {
      records[j].op = PrimitiveOp::kWatermark;
      records[j].watermark = watermark_value(plan, j);
    }
    if (plan.fail_at == 1) {
      AuditRecord& record = records.emplace_back();
      record.op = PrimitiveOp::kProject;
      record.inputs = {input_id};
      record.outputs = {static_cast<uint32_t>(plan.ticket.ids.next)};
    }
    return records;
  };

  std::mutex mu;
  std::deque<Plan> queue;
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      while (true) {
        Plan plan;
        bool got = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!queue.empty()) {
            plan = queue.front();
            queue.pop_front();
            got = true;
          } else if (done.load(std::memory_order_acquire)) {
            return;
          }
        }
        if (got) {
          execute(plan);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  // The model sees the same plans in the same seeded order, one at a time.
  ReorderModel model(/*first_ts=*/1);  // the setup ingest record took logical timestamp 0
  Xoshiro256 rng(2026);
  for (uint64_t first = 0; first < kTickets; first += kChunk) {
    std::vector<Plan> chunk;
    for (uint64_t seq = first; seq < std::min<uint64_t>(first + kChunk, kTickets); ++seq) {
      Plan plan;
      const bool chain = rng.NextBelow(4) == 0;
      plan.fail_at = chain ? static_cast<int>(rng.NextBelow(2)) : -1;
      plan.watermarks = static_cast<uint32_t>(rng.NextBelow(plan.fail_at == 1 ? 3 : 4));
      plan.ticket = dp.OpenTicket(plan.fail_at == 1 ? 1 : 0);  // waits while the ring is full
      EXPECT_EQ(plan.ticket.seq, seq);
      chunk.push_back(plan);
    }
    for (size_t i = chunk.size(); i > 1; --i) {
      std::swap(chunk[i - 1], chunk[rng.NextBelow(i)]);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.insert(queue.end(), chunk.begin(), chunk.end());
    }
    for (const Plan& plan : chunk) {
      for (AuditRecord& record : staged_records(plan)) {
        model.Stage(plan.ticket.seq, std::move(record));
      }
      model.Retire(plan.ticket.seq);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : workers) {
    t.join();
  }

  EXPECT_EQ(dp.open_tickets(), 0u);
  std::vector<AuditRecord> records;
  dp.FlushAudit(&records);
  ASSERT_EQ(records.size(), model.log().size());
  size_t mismatches = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (!(records[i] == model.log()[i]) && mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch at record " << i << ": "
                    << PrimitiveOpName(records[i].op) << " vs model "
                    << PrimitiveOpName(model.log()[i].op);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// --- sharded id arenas under contention ---------------------------------------------------

TEST(IdArenas, ConcurrentReservationsAreDisjointAndGapless) {
  // ReserveIds is a single relaxed fetch_add: under any interleaving the handed-out arenas
  // must tile the id space — pairwise disjoint, no gaps, nothing lost.
  SecureWorld world(testing::SmallTzPartition());
  UArrayAllocator alloc(&world);
  constexpr int kThreads = 8;
  constexpr int kReservationsPerThread = 2000;

  const uint64_t first = alloc.next_array_id();
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t].reserve(kReservationsPerThread);
      for (int i = 0; i < kReservationsPerThread; ++i) {
        const uint32_t count = 1 + static_cast<uint32_t>((t + i) % 7);
        per_thread[t].emplace_back(alloc.ReserveIds(count), count);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<std::pair<uint64_t, uint32_t>> all;
  uint64_t total = 0;
  for (const auto& v : per_thread) {
    for (const auto& [base, count] : v) {
      all.emplace_back(base, count);
      total += count;
    }
  }
  std::sort(all.begin(), all.end());
  uint64_t expect = first;
  for (const auto& [base, count] : all) {
    EXPECT_EQ(base, expect) << "gap or overlap in the reserved arenas";
    expect = base + count;
  }
  EXPECT_EQ(alloc.next_array_id(), first + total);
}

TEST(IdArenas, ScratchIdsAreUniqueAndInvisibleToAuditIds) {
  // kTemporary arrays draw from per-thread arenas in the [2^62, 2^63) scratch space: ids are
  // unique across racing threads, and — the determinism property the audit chain rests on —
  // the audit-visible id counter never moves, no matter how many scratch arrays raced.
  SecureWorld world(testing::SmallTzPartition());
  UArrayAllocator alloc(&world);
  constexpr int kThreads = 8;
  constexpr int kArraysPerThread = 500;
  constexpr uint64_t kScratchIdBase = 1ull << 62;

  const uint64_t audit_id_before = alloc.next_array_id();
  std::vector<std::vector<uint64_t>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[t].reserve(kArraysPerThread);
      for (int i = 0; i < kArraysPerThread; ++i) {
        auto arr = alloc.Create(8, UArrayScope::kTemporary);
        ASSERT_TRUE(arr.ok()) << arr.status().ToString();
        per_thread[t].push_back((*arr)->id());
        (*arr)->Produce();
        alloc.Retire(*arr);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  std::vector<uint64_t> ids;
  for (const auto& v : per_thread) {
    ids.insert(ids.end(), v.begin(), v.end());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << "duplicate scratch id";
  for (const uint64_t id : ids) {
    EXPECT_GE(id, kScratchIdBase);
  }
  EXPECT_EQ(alloc.next_array_id(), audit_id_before)
      << "scratch allocation perturbed the audit-visible id sequence";
}

TEST(IdArenas, ScratchRacesDoNotShiftConcurrentAuditReservations) {
  // The mixed case the sharding exists for: audit-side ReserveIds stays gapless while
  // scratch creation storms in parallel.
  SecureWorld world(testing::SmallTzPartition());
  UArrayAllocator alloc(&world);
  const uint64_t first = alloc.next_array_id();

  std::atomic<bool> stop{false};
  std::thread scratcher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto arr = alloc.Create(8, UArrayScope::kTemporary);
      ASSERT_TRUE(arr.ok());
      (*arr)->Produce();
      alloc.Retire(*arr);
    }
  });
  std::vector<uint64_t> bases;
  for (int i = 0; i < 5000; ++i) {
    bases.push_back(alloc.ReserveIds(3));
  }
  stop.store(true, std::memory_order_release);
  scratcher.join();

  for (size_t i = 0; i < bases.size(); ++i) {
    EXPECT_EQ(bases[i], first + 3 * i) << "reservation " << i << " shifted";
  }
}

}  // namespace
}  // namespace sbt
