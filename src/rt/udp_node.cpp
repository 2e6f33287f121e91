#include "rt/udp_node.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "net/codec.hpp"

namespace penelope::rt {

namespace {
sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}
}  // namespace

UdpPenelopeNode::UdpPenelopeNode(UdpNodeConfig config,
                                 std::vector<DemandPhase> demand_script)
    : config_(config),
      core_(config, config.id, std::move(demand_script), recorder_),
      rng_(config.seed ^ (0x9e3779b9ULL * (config.id + 1))),
      rx_rng_(config.seed ^ (0x85ebca6bULL * (config.id + 1))) {
  if (config_.flight_recorder_capacity > 0)
    recorder_.enable(config_.flight_recorder_capacity);
  core_.register_counters(registry_, "udp");
  telemetry::Labels labels{{"node", std::to_string(config_.id)}};
  packets_received_ = registry_.counter(
      "udp_packets_received_total", labels, "datagrams received");
  decode_failures_ = registry_.counter(
      "udp_decode_failures_total", labels, "undecodable datagrams");
  heartbeats_received_ =
      registry_.counter("udp_heartbeats_received_total", labels,
                        "membership beacons decoded");
  stale_heartbeats_ =
      registry_.counter("udp_stale_heartbeats_total", labels,
                        "beacons quarantined for an old incarnation");
  malformed_dropped_ =
      registry_.counter("udp_malformed_dropped_total", labels,
                        "datagrams rejected by the frame checksum layer");
  frames_corrupted_ =
      registry_.counter("udp_frames_corrupted_total", labels,
                        "outgoing frames bit-flipped by the nemesis");
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  int reuse = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);
  // A receive timeout lets the receiver thread poll its stop token.
  timeval timeout{};
  timeout.tv_usec = 20'000;  // 20 ms
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof timeout);

  sockaddr_in addr = loopback_addr(config_.port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
}

UdpPenelopeNode::~UdpPenelopeNode() {
  stop_decider();
  stop_receiver();
  if (fd_ >= 0) ::close(fd_);
}

void UdpPenelopeNode::set_peers(std::vector<UdpPeer> peers) {
  for (const auto& peer : peers) {
    PEN_CHECK_MSG(peer.id != config_.id, "a node cannot peer with itself");
  }
  peers_ = std::move(peers);
}

void UdpPenelopeNode::start() {
  PEN_CHECK(ok());
  PEN_CHECK_MSG(!peers_.empty(), "set_peers before start");
  receiver_thread_ =
      std::jthread([this](std::stop_token st) { receiver_loop(st); });
  decider_thread_ = std::jthread([this](std::stop_token st) {
    core_.run(
        st, [this](common::Ticks) { return decider_tick(); },
        [this](const core::PowerRequest& request) {
          const UdpPeer& peer = peers_[rng_.next_below(
              static_cast<std::uint32_t>(peers_.size()))];
          return send_frame(peer.port, net::WirePayload{request}, rng_, 0.0)
                     ? peer.id
                     : -1;
        });
  });
}

void UdpPenelopeNode::stop_decider() {
  if (decider_thread_.joinable()) {
    decider_thread_.request_stop();
    core_.grants.close();
    decider_thread_.join();
  }
  settle();
}

void UdpPenelopeNode::stop_receiver() {
  if (receiver_thread_.joinable()) {
    receiver_thread_.request_stop();
    receiver_thread_.join();
  }
  settle();
}

void UdpPenelopeNode::settle() {
  if (decider_thread_.joinable() || receiver_thread_.joinable()) return;
  for (const core::PowerGrant& grant : undelivered_) core_.accept(grant);
  undelivered_.clear();
  core_.drain_grants();
}

bool UdpPenelopeNode::send_frame(std::uint16_t port,
                                 const net::WirePayload& payload,
                                 common::Rng& rng, double watts_at_risk) {
  std::vector<std::uint8_t> bytes = net::encode_frame(payload);
  bool corrupted = false;
  if (config_.corrupt_probability > 0.0 &&
      rng.chance(config_.corrupt_probability)) {
    // One random bit flip anywhere in the frame. The FNV-1a checksum
    // (bijective per-byte step) detects every single-bit flip, so the
    // receiver is guaranteed to drop this frame.
    std::size_t byte = rng.next_below(
        static_cast<std::uint32_t>(bytes.size()));
    bytes[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    corrupted = true;
  }
  sockaddr_in addr = loopback_addr(port);
  const bool sent =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) == static_cast<ssize_t>(bytes.size());
  if (corrupted && sent) {
    frames_corrupted_.inc();
    // The grant left this node's ledger (the pool debited it) and will
    // never arrive: charge the stranded ledger so the cluster's
    // conservation identity stays exact.
    if (watts_at_risk > 0.0)
      corrupt_stranded_.fetch_add(watts_at_risk, std::memory_order_relaxed);
  }
  return sent;
}

void UdpPenelopeNode::crash_restart() {
  crash_requested_.store(true, std::memory_order_release);
}

void UdpPenelopeNode::receiver_loop(std::stop_token stop) {
  common::set_log_node(config_.id);
  std::uint8_t buffer[256];
  while (!stop.stop_requested()) {
    if (crash_requested_.exchange(false, std::memory_order_acq_rel)) {
      // The restart wipes everything a process loses: the request
      // window and the peers this receiver had vouched for here, the
      // grant ledger on the decider thread that owns it.
      core_.request_window.reset();
      peer_incarnations_.clear();
      reset_ledger_.store(true, std::memory_order_release);
      incarnation_.fetch_add(1, std::memory_order_acq_rel);
    }
    sockaddr_in from{};
    socklen_t from_len = sizeof from;
    ssize_t received =
        ::recvfrom(fd_, buffer, sizeof buffer, 0,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (received < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;  // timeout: re-check the stop token
      }
      PEN_LOG_WARN("udp node %d: recvfrom: %s", config_.id,
                   std::strerror(errno));
      continue;
    }
    packets_received_.inc();

    net::CheckedDecode checked =
        net::decode_checked(buffer, static_cast<std::size_t>(received));
    if (!checked) {
      // Hostile or bit-flipped bytes: drop, count, keep serving. A real
      // fault storm can burst this path, so the warning is rate-limited.
      malformed_dropped_.inc();
      decode_failures_.inc();
      PEN_LOG_WARN_RATED(64,
                         "udp node %d: dropping malformed datagram "
                         "(%s, %zd bytes)",
                         config_.id,
                         net::decode_error_name(checked.error), received);
      continue;
    }
    auto& payload = checked.payload;

    if (const auto* request = std::get_if<core::PowerRequest>(&*payload)) {
      const std::uint16_t reply_port = ntohs(from.sin_port);
      core_.serve(*request, [&](const core::PowerGrant& grant) {
        return send_frame(reply_port, net::WirePayload{grant}, rx_rng_,
                          grant.watts);
      });
    } else if (const auto* grant =
                   std::get_if<core::PowerGrant>(&*payload)) {
      // Dedup and matching happen on the decider thread, which owns the
      // ledger; a grant it can no longer take waits for settle().
      if (!core_.grants.try_push(*grant)) undelivered_.push_back(*grant);
    } else if (const auto* beat =
                   std::get_if<core::Heartbeat>(&*payload)) {
      heartbeats_received_.inc();
      auto [it, inserted] =
          peer_incarnations_.try_emplace(beat->node, beat->incarnation);
      if (!inserted) {
        if (beat->incarnation < it->second) {
          // Reordered pre-crash beacon: quarantined, not evidence.
          stale_heartbeats_.inc();
        } else {
          it->second = beat->incarnation;
        }
      }
    } else {
      decode_failures_.inc();
    }
  }
}

bool UdpPenelopeNode::decider_tick() {
  if (reset_ledger_.exchange(false, std::memory_order_acq_rel)) {
    // Grants queued for the dead incarnation self-reclaim into the pool
    // (through the pre-crash ledger, so a duplicate banks nothing); then
    // the ledger dies with the process.
    core_.drain_grants();
    core_.ledger.reset();
  }
  if (config_.heartbeats) {
    // Liveness beacon naming this node's current incarnation; fire and
    // forget — a lost beacon just means one more missed period on the
    // peers' suspicion clocks.
    net::WirePayload beacon{core::Heartbeat{
        config_.id, incarnation_.load(std::memory_order_acquire)}};
    for (const auto& peer : peers_) {
      (void)send_frame(peer.port, beacon, rng_, 0.0);
    }
  }
  return true;
}

UdpNodeReport UdpPenelopeNode::report() const {
  UdpNodeReport report{core_.report()};
  report.packets_received = packets_received_.value();
  report.decode_failures = decode_failures_.value();
  report.heartbeats_received = heartbeats_received_.value();
  report.stale_heartbeats = stale_heartbeats_.value();
  report.udp_malformed_dropped = malformed_dropped_.value();
  report.frames_corrupted = frames_corrupted_.value();
  report.corrupt_stranded_watts =
      corrupt_stranded_.load(std::memory_order_relaxed);
  report.incarnation = incarnation_.load(std::memory_order_acquire);
  return report;
}

// ---------------------------------------------------------------------------
// UdpCluster

UdpCluster::UdpCluster(int n_nodes, const UdpNodeConfig& base_config,
                       std::vector<std::vector<DemandPhase>> scripts)
    : initial_cap_(base_config.initial_cap_watts) {
  PEN_CHECK(n_nodes >= 2);
  PEN_CHECK(scripts.size() == static_cast<std::size_t>(n_nodes));
  for (int i = 0; i < n_nodes; ++i) {
    UdpNodeConfig config = base_config;
    config.id = i;
    config.port = 0;  // kernel-assigned
    config.seed = base_config.seed + static_cast<std::uint64_t>(i);
    nodes_.push_back(std::make_unique<UdpPenelopeNode>(
        config, std::move(scripts[static_cast<std::size_t>(i)])));
  }
  // Exchange the kernel-assigned ports.
  std::vector<UdpPeer> all;
  for (const auto& node : nodes_) {
    all.push_back(UdpPeer{node->id(), node->port()});
  }
  for (auto& node : nodes_) {
    std::vector<UdpPeer> peers;
    for (const auto& peer : all) {
      if (peer.id != node->id()) peers.push_back(peer);
    }
    node->set_peers(std::move(peers));
  }
}

bool UdpCluster::ok() const {
  for (const auto& node : nodes_) {
    if (!node->ok()) return false;
  }
  return true;
}

void UdpCluster::run_for(common::Ticks duration) {
  for (auto& node : nodes_) node->start();
  std::this_thread::sleep_for(std::chrono::microseconds(duration));
  // Two-phase shutdown: deciders stop issuing requests, receivers keep
  // answering/banking for a grace window so in-flight grants land, then
  // everything stops.
  for (auto& node : nodes_) node->stop_decider();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (auto& node : nodes_) node->stop_receiver();
}

std::vector<UdpNodeReport> UdpCluster::reports() const {
  std::vector<UdpNodeReport> reports;
  for (const auto& node : nodes_) reports.push_back(node->report());
  return reports;
}

double UdpCluster::total_live_watts() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node->cap() + node->pool_watts();
  }
  return total;
}

double UdpCluster::budget() const {
  return initial_cap_ * static_cast<double>(nodes_.size());
}

double UdpCluster::corrupt_stranded_watts() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node->report().corrupt_stranded_watts;
  }
  return total;
}

std::vector<telemetry::MetricSample> UdpCluster::metrics_snapshot() const {
  std::vector<telemetry::MetricSample> merged;
  for (const auto& node : nodes_) {
    auto samples = node->metrics_snapshot();
    merged.insert(merged.end(),
                  std::make_move_iterator(samples.begin()),
                  std::make_move_iterator(samples.end()));
  }
  return merged;
}

std::vector<telemetry::TxnRecord> UdpCluster::flight_records() const {
  std::vector<telemetry::TxnRecord> merged;
  for (const auto& node : nodes_) {
    auto records = node->flight_recorder().snapshot();
    merged.insert(merged.end(), records.begin(), records.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const telemetry::TxnRecord& a,
                      const telemetry::TxnRecord& b) { return a.at < b.at; });
  return merged;
}

}  // namespace penelope::rt
