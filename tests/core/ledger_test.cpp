// The transaction rules shared by every classic driver: the requester's
// RequestLedger (verdicts, bounded stale map, crash reset, planted bug)
// and the serving side's serve_once()/serve_request().
#include "core/ledger.hpp"

#include <gtest/gtest.h>

namespace penelope::core {
namespace {

using Verdict = RequestLedger::Verdict;

/// Open a request sent at `sent_at` and let it time out at `now`.
void time_out(RequestLedger& ledger, std::uint64_t txn, common::Ticks sent_at,
              common::Ticks now) {
  ledger.open(txn, sent_at);
  ledger.expire(now);
}

TEST(RequestLedger, AnsweredCarriesTheOutstandingRequest) {
  RequestLedger ledger(/*period=*/10);
  ledger.open(7, /*sent_at=*/100, /*peer=*/3);
  ASSERT_TRUE(ledger.outstanding().has_value());
  RequestLedger::Arrival arrival = ledger.classify(7);
  EXPECT_EQ(arrival.verdict, Verdict::kAnswered);
  EXPECT_EQ(arrival.request.txn, 7u);
  EXPECT_EQ(arrival.request.sent_at, 100);
  EXPECT_EQ(arrival.request.peer, 3);
  EXPECT_FALSE(ledger.outstanding().has_value());
}

TEST(RequestLedger, RedeliveredGrantIsADuplicate) {
  RequestLedger ledger(10);
  ledger.open(7, 100);
  EXPECT_EQ(ledger.classify(7).verdict, Verdict::kAnswered);
  EXPECT_EQ(ledger.classify(7).verdict, Verdict::kDuplicate);
  // A duplicate of an unknown grant is a duplicate too: the first copy
  // was banked or stranded, the second must do nothing.
  EXPECT_EQ(ledger.classify(99).verdict, Verdict::kUnknown);
  EXPECT_EQ(ledger.classify(99).verdict, Verdict::kDuplicate);
}

TEST(RequestLedger, LateGrantCarriesItsSendTime) {
  RequestLedger ledger(10);
  time_out(ledger, 7, /*sent_at=*/100, /*now=*/110);
  EXPECT_FALSE(ledger.outstanding().has_value());
  EXPECT_EQ(ledger.stale_entries(), 1u);
  RequestLedger::Arrival arrival = ledger.classify(7);
  EXPECT_EQ(arrival.verdict, Verdict::kLate);
  EXPECT_EQ(arrival.request.sent_at, 100);
  EXPECT_EQ(ledger.stale_entries(), 0u);
}

TEST(RequestLedger, GrantWithNoRecordIsUnknown) {
  RequestLedger ledger(10);
  ledger.open(7, 100);
  EXPECT_EQ(ledger.classify(8).verdict, Verdict::kUnknown);
  // An unrelated grant leaves the outstanding request waiting.
  EXPECT_EQ(ledger.outstanding()->txn, 7u);
}

TEST(RequestLedger, CrashResetForgetsEverything) {
  RequestLedger ledger(10);
  time_out(ledger, 1, 100, 110);
  ledger.open(2, 120);
  EXPECT_EQ(ledger.classify(3).verdict, Verdict::kUnknown);
  ledger.reset();
  EXPECT_FALSE(ledger.outstanding().has_value());
  EXPECT_EQ(ledger.stale_entries(), 0u);
  // The timed-out and the outstanding request are both gone, and the
  // window no longer remembers txn 3.
  EXPECT_EQ(ledger.classify(1).verdict, Verdict::kUnknown);
  EXPECT_EQ(ledger.classify(2).verdict, Verdict::kUnknown);
  EXPECT_EQ(ledger.classify(3).verdict, Verdict::kUnknown);
}

TEST(RequestLedger, PlantedBugSkipsGrantDedupOnly) {
  RequestLedger ledger(10, /*test_revert_grant_fix=*/true);
  ledger.open(7, 100);
  EXPECT_EQ(ledger.classify(7).verdict, Verdict::kAnswered);
  // The redelivered grant is no longer caught: it falls through to the
  // banking path, which is exactly the bug the explorer must find.
  EXPECT_EQ(ledger.classify(7).verdict, Verdict::kUnknown);
  EXPECT_TRUE(ledger.admit_grant(7));
  // Pushes share the window and keep their dedup under the bug.
  EXPECT_TRUE(ledger.admit(1000));
  EXPECT_FALSE(ledger.admit(1000));
}

TEST(RequestLedger, StaleMapStaysAtCapUnderSustainedTimeouts) {
  // One timeout per period for thousands of periods: the horizon keeps
  // the map far below the cap.
  RequestLedger ledger(/*period=*/1);
  for (std::uint64_t t = 1; t <= 5000; ++t) {
    time_out(ledger, t, static_cast<common::Ticks>(t),
             static_cast<common::Ticks>(t));
    ASSERT_LE(ledger.stale_entries(), RequestLedger::kStaleCap);
  }
  // Thousands of timeouts inside one horizon: the hard cap holds.
  RequestLedger burst(/*period=*/1'000'000);
  for (std::uint64_t t = 1; t <= 5000; ++t) {
    time_out(burst, t, static_cast<common::Ticks>(t),
             static_cast<common::Ticks>(t));
  }
  EXPECT_EQ(burst.stale_entries(), RequestLedger::kStaleCap);
}

TEST(BoundStaleMap, UnderTheCapNothingIsTouched) {
  RequestLedger ledger(/*period=*/1);
  for (std::uint64_t t = 1; t <= 10; ++t) {
    time_out(ledger, t, static_cast<common::Ticks>(t), /*now=*/1000);
  }
  // Even long past the horizon, a map under the cap is left alone —
  // pruning is purely a memory bound, not a semantic expiry (late
  // grants against small maps must still match).
  EXPECT_EQ(ledger.stale_entries(), 10u);
  for (std::uint64_t t = 1; t <= 10; ++t)
    EXPECT_EQ(ledger.classify(t).verdict, Verdict::kLate) << t;
}

TEST(BoundStaleMap, HorizonPruneDropsExpiredEntriesFirst) {
  // Horizon = 64 periods = 128 ticks. The 257th entry expires at 228, so
  // everything sent before 100 goes; the survivors are under the cap and
  // no further eviction is needed.
  RequestLedger ledger(/*period=*/2);
  for (std::uint64_t t = 1; t <= 256; ++t) {
    time_out(ledger, t, static_cast<common::Ticks>(t),
             static_cast<common::Ticks>(t));
  }
  time_out(ledger, 257, 257, /*now=*/228);
  EXPECT_EQ(ledger.stale_entries(), 158u);
  EXPECT_EQ(ledger.classify(99).verdict, Verdict::kUnknown);
  EXPECT_EQ(ledger.classify(100).verdict, Verdict::kLate);
  EXPECT_EQ(ledger.classify(257).verdict, Verdict::kLate);
}

TEST(BoundStaleMap, HardCapEvictsOldestWhenEverythingIsRecent) {
  // A loss burst can make every entry recent: the horizon prune deletes
  // nothing and the hard cap must evict oldest-first.
  RequestLedger ledger(/*period=*/1'000'000);
  for (std::uint64_t t = 1; t <= 300; ++t) {
    time_out(ledger, t, static_cast<common::Ticks>(t),
             static_cast<common::Ticks>(t));
  }
  EXPECT_EQ(ledger.stale_entries(), 256u);
  for (std::uint64_t t = 1; t <= 44; ++t)
    EXPECT_EQ(ledger.classify(t).verdict, Verdict::kUnknown) << t;
  for (std::uint64_t t = 45; t <= 300; ++t)
    EXPECT_EQ(ledger.classify(t).verdict, Verdict::kLate) << t;
}

TEST(ServeRequest, RedeliveredRequestNeverDebitsThePoolTwice) {
  PowerPool pool;
  pool.deposit(100.0);
  TxnWindow seen;
  PowerRequest request;
  request.txn_id = 41;
  std::optional<PowerGrant> first = serve_request(seen, pool, request);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->txn_id, 41u);
  EXPECT_DOUBLE_EQ(first->watts, 10.0);  // 10% of the pool
  EXPECT_FALSE(serve_request(seen, pool, request).has_value());
  EXPECT_FALSE(serve_request(seen, pool, request).has_value());
  EXPECT_DOUBLE_EQ(pool.available(), 90.0);
  EXPECT_EQ(pool.stats().requests_served, 1u);
}

TEST(ServeRequest, ServeOnceRunsAnyServerOnFirstSightingOnly) {
  TxnWindow seen;
  int calls = 0;
  auto serve = [&calls](const PowerRequest& r) {
    ++calls;
    return r.txn_id * 2;
  };
  PowerRequest request;
  request.txn_id = 5;
  EXPECT_EQ(serve_once(seen, request, serve), std::optional<std::uint64_t>(10));
  EXPECT_FALSE(serve_once(seen, request, serve).has_value());
  // kNoTxn senders opted out of dedup: every copy is served.
  request.txn_id = kNoTxn;
  EXPECT_TRUE(serve_once(seen, request, serve).has_value());
  EXPECT_TRUE(serve_once(seen, request, serve).has_value());
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace penelope::core
