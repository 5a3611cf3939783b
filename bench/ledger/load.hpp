// load.hpp — the ledger's load generator: at most two connections to the
// daemon, one thread each, speaking the real wire protocol.
//
// Each connection keeps a record per job it sends — when it was due, sent,
// acknowledged and reported, what the report said, and whether it matched
// the job class's reference result.  End-to-end metrics and client-side
// trace spans are both derived from these records after the phase, so the
// measured hot path is the same with tracing on or off.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/net/wire.hpp"
#include "workloads.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;

struct JobRecord {
  enum class State : std::uint8_t { kSent, kAdmitted, kShed, kRejected, kDone };

  std::uint32_t cls = 0;
  std::uint32_t key = 0;  // idempotency key number (keyed workloads)
  std::uint8_t conn = 0;  // connection that sent it
  std::uint8_t sheds = 0;  // RETRY_AFTER answers so far (each one resent)
  bool measured = false;  // attempted inside the measured window
  bool resubmit = false;  // re-sends an already-reported key
  State state = State::kSent;
  bool ok = false;        // reported, and exactly the reference result
  std::uint64_t id = 0;   // server-issued
  Clock::time_point due, sent, acked, reported;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  std::uint64_t instructions = 0;
};

/// Per-connection tallies over the connection's whole life (warm-up
/// included) — the generator's side of the drain accounting identity.
struct Tally {
  std::uint64_t attempted = 0;  // submissions sent, resends included
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;  // reports with outcome completed
  std::uint64_t deduped = 0;
  std::uint64_t reports = 0;
  std::uint64_t shed = 0;       // RETRY_AFTER answers (resent)
  std::uint64_t rejected = 0;   // error answers
  std::uint64_t failed = 0;     // not admitted, not completed, or wrong
};

/// One wire round trip a connection waited on (submit frames and stats).
struct RoundTrip {
  Clock::time_point sent, answered;
  std::uint32_t jobs = 0;  // jobs in the frame (0 for stats)
};

class Generator {
 public:
  /// Connects `w.connections` sockets to 127.0.0.1:port.  Job specs come
  /// from `w`; the seed drives class draws, arrivals and resubmits.
  Generator(const Workload& w, std::uint16_t port, std::uint64_t seed);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Send every job class `rounds` times (split across connections) and
  /// wait for every report.
  void warm_up(unsigned rounds);

  struct Window {
    Clock::time_point start, end;
  };
  /// Apply the workload's load for `duration`, then wait for every report.
  /// Connection 0 calls `at_mark` at the window's start and after each of
  /// its `slices` equal parts (so per-slice samples bracket each part).
  Window measure(std::chrono::nanoseconds duration, unsigned slices,
                 std::function<void()> at_mark);

  /// Server stats over connection 0 (no jobs may be in flight, so a
  /// snapshot before and after a phase brackets exactly its jobs).
  tangled::serve::net::StatsOk stats();
  /// Close every connection (before the daemon is asked to drain).
  void close();

  Tally tally() const;
  /// Every record, connection by connection, in send order.
  std::vector<const JobRecord*> records() const;
  std::vector<RoundTrip> round_trips() const;
  /// The first failure seen (empty when none).
  std::string first_failure() const;
  /// The spec a record was sent with.
  JobSpec spec_of(const JobRecord& r) const;

 private:
  class Connection;
  struct Phase;
  void run_phase(Phase& phase);

  const Workload& w_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace ledger
