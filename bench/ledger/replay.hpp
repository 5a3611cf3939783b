// replay.hpp — the traced run's layer attribution: the daemon's per-job path
// replayed one public call at a time, in a process of its own.
//
// For each of a workload's own job specs the replay times what the daemon
// does with it — frame decode, JobSpec::to_job, pool reset, simulator
// preparation, the CheckpointingRunner configured as the daemon configures
// it, the checkpoint snapshot, the ECC scrub, report encode and the journal
// appends — and, separately, the job's Qat instruction stream (recorded
// untimed) through QatEngine::execute with ECC off and with the job's ECC
// policy.  The per-job means are what the per-layer metrics report.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace ledger {

/// Per-job means (per call where noted) over the replayed specs.
struct ReplayCosts {
  std::size_t jobs = 0;
  double codec_us = 0.0;         // submit-frame decode + report-frame encode
  double to_job_us = 0.0;
  double reset_us = 0.0;         // pool acquire: reset of a warm simulator
  double prepare_us = 0.0;       // load + policy setters
  double ckpt_save_us = 0.0;     // per save_checkpoint call
  double ckpts_per_job = 0.0;    // snapshots the runner takes
  double ckpt_bytes = 0.0;       // image size
  double runner_us = 0.0;        // CheckpointingRunner::run
  double instructions = 0.0;
  double scrub_us = 0.0;         // per scrub_protected_state call
  double scrubs_per_job = 0.0;
  double qat_us = 0.0;           // Qat stream, ECC off
  double qat_ops = 0.0;
  double qat_ecc_us = 0.0;       // Qat stream, the job's ECC policy
  double ecc_words_verified = 0.0;
  double qat_storage_kib = 0.0;
  double journal_admit_us = 0.0;   // per append_admit
  double journal_ckpt_us = 0.0;    // per append_checkpoint
  double journal_report_us = 0.0;  // per append_report
  double journal_cpu_us = 0.0;     // CPU of one keyed job's appends
  double journal_ckpts_per_job = 0.0;  // durable images the daemon writes
  double wall_us = 0.0;          // whole replay of one job, timers included
  double clock_reads = 0.0;      // timer reads the replay made per job
  std::map<std::string, double> runner_ns_per_instr;  // by model name
};

/// Replay `specs` (the workload's own, with the server ids in `jobs` for the
/// trace) in a fresh child process of this binary, on as many threads as
/// the daemon has workers: like the daemon, it starts with a cold allocator
/// and cold caches, so large buffers come fresh from the kernel as they do
/// there.  Journal appends (on every spec when `journaled`, else on the
/// first few) go to a fresh journal under `tmp_dir`.  Models the specs do
/// not use are timed on the first specs re-targeted, so every model gets a
/// runner_ns_per_instr.  The replay's spans are appended to `trace`.
ReplayCosts replay(bool journaled, const std::vector<JobSpec>& specs,
                   const std::vector<std::uint64_t>& jobs,
                   const std::string& tmp_dir, TraceLog& trace);

/// The child side of replay(): `bench_ledger --replay-in=IN
/// --replay-out=OUT --tmp=DIR`.  Returns the process exit status.
int replay_main(const std::string& in, const std::string& out,
                const std::string& tmp_dir);

}  // namespace ledger
