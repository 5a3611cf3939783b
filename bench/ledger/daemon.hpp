// daemon.hpp — child processes the ledger owns for their whole life: the
// tangled_served daemon under test, and the traced run's replay process.
//
// The ledger measures the real daemon binary, so it spawns it, reads the
// bound port from its stdout, samples its CPU time and peak RSS, and ends it
// with SIGTERM to check the graceful drain.  Whatever happens — an
// exception, an early return, the generator itself being killed — no child
// outlives its owner: the destructor (or run_child's timeout) SIGKILLs and
// reaps it, a SIGTERM/SIGINT handler does the same, and every child is
// spawned with a parent-death signal as a last resort.
#pragma once

#include <sys/types.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

class Daemon {
 public:
  /// Spawn `exe args...` and wait (up to `ready_timeout`) for its
  /// "listening on 127.0.0.1:PORT" line.  Throws std::runtime_error when
  /// the process cannot start or never becomes ready.
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         std::chrono::milliseconds ready_timeout);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// CPU time of the whole process so far (all threads), in seconds, from
  /// its CPU-time clock (nanosecond resolution).
  double cpu_seconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double peak_rss_mib() const;

  struct Exit {
    bool exited = false;  // ended on its own within the timeout
    int status = -1;      // exit code when exited
    std::string output;   // everything it wrote to stdout after ready
  };
  /// SIGTERM (the graceful drain) and wait up to `timeout` for the exit.
  /// On timeout the process is killed and `exited` is false.
  Exit drain(std::chrono::milliseconds timeout);

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  clockid_t cpu_clock_{};
  int out_fd_ = -1;  // read end of the child's stdout
  std::uint16_t port_ = 0;
  std::string banner_;  // stdout read while waiting for the port line
};

/// Run `argv` to completion (stdout redirected to our stderr), like the
/// daemon under the same kill-on-death rules; returns its exit status, or
/// -1 when it outran `timeout` and was killed.
int run_child(const std::vector<std::string>& argv,
              std::chrono::milliseconds timeout);

/// SIGTERM/SIGINT in the generator kills the live child (if any), reaps
/// it, and exits 143 — so an interrupted run never strands a child.
void install_kill_on_signal();

}  // namespace ledger
