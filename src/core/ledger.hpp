// The transaction rules of Penelope's request/grant exchange, written
// once for every classic driver (PROTOCOL.md "Delivery semantics"). The
// requester's RequestLedger classifies each arriving grant exactly once;
// what a verdict does to caps, pools and metrics stays with the driver.
// The serving side is serve_once(): a redelivered request is refused
// before the pool (or central server) is touched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/units.hpp"
#include "core/pool.hpp"
#include "core/protocol.hpp"
#include "core/txn_window.hpp"

namespace penelope::core {

class RequestLedger {
 public:
  /// Hard cap on timed-out requests remembered: a loss burst can make
  /// every entry recent, so the horizon alone cannot bound the map.
  static constexpr std::size_t kStaleCap = 256;
  /// Entries older than this many control periods are certainly dead:
  /// the fabric's redelivery horizon is far shorter.
  static constexpr common::Ticks kStaleHorizonPeriods = 64;

  struct Request {
    std::uint64_t txn = kNoTxn;
    common::Ticks sent_at = 0;
    std::int32_t peer = -1;
  };

  enum class Verdict {
    kDuplicate,  ///< seen inside the window: count it, never apply
    kAnswered,   ///< answers the outstanding request
    kLate,       ///< answers a timed-out request; its watts are real
    kUnknown,    ///< no record: stale-map eviction, crash reset, spoof
  };

  struct Arrival {
    Verdict verdict = Verdict::kUnknown;
    /// kAnswered: the outstanding request. kLate: its txn and sent_at.
    Request request;
  };

  /// `period` scales the stale horizon. `test_revert_grant_fix` is the
  /// fault-schedule explorer's planted bug: grants skip the window, so
  /// a redelivered grant is applied or banked again.
  explicit RequestLedger(common::Ticks period,
                         bool test_revert_grant_fix = false)
      : stale_horizon_(kStaleHorizonPeriods * period),
        revert_grant_fix_(test_revert_grant_fix) {}

  /// A request just left for `peer`.
  void open(std::uint64_t txn, common::Ticks sent_at,
            std::int32_t peer = -1) {
    outstanding_ = Request{txn, sent_at, peer};
  }

  const std::optional<Request>& outstanding() const { return outstanding_; }

  /// The outstanding request timed out at `now`: its grant may still
  /// arrive late, so it moves to the bounded stale map.
  Request expire(common::Ticks now);

  /// At-most-once admission of a grant through the window. Under the
  /// planted bug every grant is admitted and none is recorded.
  bool admit_grant(std::uint64_t txn) {
    return revert_grant_fix_ || window_.insert(txn);
  }
  /// Admission for other power-carrying messages on the same window
  /// (peer pushes); the planted bug leaves these alone.
  bool admit(std::uint64_t txn) { return window_.insert(txn); }

  /// Match an admitted grant against the outstanding request and the
  /// stale map; a match is consumed.
  Arrival match(std::uint64_t txn);

  /// admit_grant() then match(): the full verdict for an arriving grant.
  Arrival classify(std::uint64_t txn) {
    if (!admit_grant(txn)) return Arrival{Verdict::kDuplicate, {}};
    return match(txn);
  }

  /// A crash-restart loses all of it (volatile state).
  void reset();

  std::size_t stale_entries() const { return stale_.size(); }

 private:
  common::Ticks stale_horizon_;
  bool revert_grant_fix_;
  TxnWindow window_;
  std::optional<Request> outstanding_;
  std::unordered_map<std::uint64_t, common::Ticks> stale_;  ///< txn -> sent
};

/// The serving side of one transaction: the request window, then
/// `serve`. Nothing for a redelivered request: the first copy's answer
/// was the transaction's one answer.
template <typename Request, typename Serve>
auto serve_once(TxnWindow& seen, const Request& request, Serve&& serve)
    -> std::optional<decltype(serve(request))> {
  if (!seen.insert(request.txn_id)) return std::nullopt;
  return serve(request);
}

/// serve_once() against a Penelope pool (Algorithm 2).
inline std::optional<PowerGrant> serve_request(TxnWindow& seen,
                                               PowerPool& pool,
                                               const PowerRequest& request) {
  return serve_once(seen, request, [&pool](const PowerRequest& r) {
    return PowerGrant{pool.serve(r), r.txn_id};
  });
}

}  // namespace penelope::core
