// workloads.hpp — the ledger's five traffic mixes and the correctness gate.
//
// A workload is a set of job classes (program × model × register-file
// configuration) plus the shape of the load the generator applies: closed
// loop (a window of in-flight jobs per connection, refilled as reports
// arrive) or open loop (seeded Poisson arrivals).  Every class carries the
// result it must produce — final registers, retired instructions, simulated
// cycles and Qat op count — computed in-process before any load is applied,
// so a report that differs is a failure, whatever the speed.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "serve/job.hpp"

namespace ledger {

using tangled::serve::JobReport;
using tangled::serve::JobSpec;
using tangled::serve::SimKind;

/// What a job class must produce (in-process reference run).
struct Expected {
  std::array<std::uint16_t, tangled::kNumRegs> regs{};
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t qat_ops = 0;
};

struct JobClass {
  std::string label;  // e.g. "re32_qat/pipe5/K=20"
  JobSpec spec;       // template: name/key are filled per submission
  Expected expected;
};

struct Workload {
  std::string name;
  std::vector<JobClass> classes;

  unsigned connections = 1;
  bool open_loop = false;
  // Closed loop: keep `window` jobs in flight per connection; whenever at
  // least `refill_at` slots are free, send frames of up to `batch_max`
  // jobs (kSubmitBatch when batch_frames, else one kSubmit per job).
  unsigned window = 1;
  unsigned refill_at = 1;
  unsigned batch_max = 1;
  bool batch_frames = false;
  // Open loop: total Poisson arrival rate across all connections.
  double rate_per_s = 0.0;
  // Share of arrivals that resubmit an already-reported idempotency key.
  double resubmit_frac = 0.0;
  // Jobs carry idempotency keys, and the daemon runs with --journal.
  bool keyed = false;
};

/// Names in the order `--workload=all` runs them.
const std::vector<std::string>& workload_names();

/// Build a workload and run its correctness gate (every class's reference
/// result, plus the paper's Figure 10 values).  Throws std::runtime_error
/// naming the first mismatch, or std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name);

/// Empty when `rep` is exactly what `cls` must produce; otherwise why not.
/// `resubmit` marks an idempotency-key resubmission (must be deduped).
std::string check_report(const JobReport& rep, const JobClass& cls,
                         bool resubmit);

/// The model names the per-model metrics use, in SimKind order.
const std::vector<SimKind>& all_models();

}  // namespace ledger
