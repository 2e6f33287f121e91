#include "core/ledger.hpp"

namespace penelope::core {

RequestLedger::Request RequestLedger::expire(common::Ticks now) {
  Request expired = *outstanding_;
  outstanding_.reset();
  stale_[expired.txn] = expired.sent_at;
  if (stale_.size() > kStaleCap) {
    const common::Ticks horizon = now - stale_horizon_;
    std::erase_if(stale_,
                  [horizon](const auto& kv) { return kv.second < horizon; });
    // Everything may still be recent: evict oldest until the cap holds.
    // Linear min-scans are fine at this size.
    while (stale_.size() > kStaleCap) {
      auto oldest = stale_.begin();
      for (auto it = stale_.begin(); it != stale_.end(); ++it) {
        if (it->second < oldest->second) oldest = it;
      }
      stale_.erase(oldest);
    }
  }
  return expired;
}

RequestLedger::Arrival RequestLedger::match(std::uint64_t txn) {
  if (outstanding_ && outstanding_->txn == txn) {
    Arrival answered{Verdict::kAnswered, *outstanding_};
    outstanding_.reset();
    return answered;
  }
  auto stale = stale_.find(txn);
  if (stale == stale_.end()) return Arrival{Verdict::kUnknown, {txn}};
  Arrival late{Verdict::kLate, {txn, stale->second}};
  stale_.erase(stale);
  return late;
}

void RequestLedger::reset() {
  window_.reset();
  outstanding_.reset();
  stale_.clear();
}

}  // namespace penelope::core
