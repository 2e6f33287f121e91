#include "checks.hpp"

#include <cmath>
#include <cstddef>

namespace perfbench {
namespace {

/// Audit conservation error allowed at any audit instant.
constexpr double kConservationTolW = 1e-6;

/// The benchmark's ledger sums run in long double; the classic path
/// leaves ~1e-11 W of rounding at 1056 nodes, the arena none at 2^20.
constexpr double kLedgerTolW = 1e-6;

}  // namespace

double hungry_gain_watts(const EndState& s) {
  long double sum = 0.0L;
  for (std::size_t i = s.caps.size() / 2; i < s.caps.size(); ++i)
    sum += static_cast<long double>(s.caps[i]) - s.initial_cap;
  return static_cast<double>(sum);
}

double burst_drop_watts(const EndState& s) {
  long double sum = 0.0L;
  for (std::size_t i = 0; i < s.caps.size() / 2; ++i)
    sum += static_cast<long double>(s.initial_cap) - s.caps[i];
  return static_cast<double>(sum);
}

std::vector<std::string> check_end_state(const EndState& s) {
  std::vector<std::string> failed;
  if (!(s.max_conservation_error < kConservationTolW))
    failed.push_back("audit-conservation");

  // The benchmark's own ledger: every watt above or below the initial
  // caps must sit in a pool, the central cache, a message in flight or
  // the stranded ledger.
  long double moved = 0.0L;
  for (double cap : s.caps)
    moved += static_cast<long double>(cap) - s.initial_cap;
  const double ledger = static_cast<double>(moved) + s.pool + s.cache +
                        s.in_flight + s.stranded;
  if (!(std::fabs(ledger) <= kLedgerTolW)) failed.push_back("ledger");

  for (double cap : s.caps) {
    if (!(cap >= s.safe_min - 1e-9 && cap <= s.safe_max + 1e-9)) {
      failed.push_back("safe-range");
      break;
    }
  }
  if (!(s.energy_j > 0.0 && s.energy_j <= s.budget * s.horizon_s))
    failed.push_back("energy-bound");
  return failed;
}

std::vector<std::string> check_burst(const EndState& s,
                                     const BurstOutcome& b) {
  std::vector<std::string> failed = check_end_state(s);
  if (b.penelope && !b.t50_reached) failed.push_back("t50-reached");
  const double gain = hungry_gain_watts(s);
  const double drop = burst_drop_watts(s);
  if (!(gain <= b.shifted_watts + kLedgerTolW)) failed.push_back("net-gain<=shifted");
  if (!(drop <= b.available_watts + kLedgerTolW))
    failed.push_back("net-drop<=available");
  if (b.net_equals_gross) {
    if (!(std::fabs(gain - b.shifted_watts) <= kLedgerTolW))
      failed.push_back("net-gain==shifted");
    if (!(std::fabs(drop - b.available_watts) <= kLedgerTolW))
      failed.push_back("net-drop==available");
  }
  return failed;
}

}  // namespace perfbench
