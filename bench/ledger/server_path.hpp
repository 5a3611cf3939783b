// server_path.hpp — the daemon's per-job execution path, rebuilt from
// public calls.
//
// JobServer::execute_with (src/serve/job_server.cpp) maps a SimKind to a
// simulator type, prepares a (pooled) simulator, and drives it through a
// CheckpointingRunner whose cadence depends on the model.  The ledger needs
// that exact path twice: untimed, for the correctness gate's reference
// results, and timed, for the traced replay.  Both use the helpers here, so
// the reference and the replay can only drift from the daemon together —
// and the gate would then catch the drift as a wrong report.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "arch/multicycle_fsm.hpp"
#include "arch/recovery.hpp"
#include "arch/rtl_pipeline.hpp"
#include "arch/simulators.hpp"
#include "serve/job.hpp"
#include "serve/job_server.hpp"

namespace ledger {

template <typename T>
struct SimTag {
  using type = T;
};

/// Call f(SimTag<SimT>{}, make) where make() builds the simulator the daemon
/// builds for `job` (same constructor arguments as JobServer::execute).
template <typename F>
decltype(auto) with_sim_type(const tangled::serve::Job& job, F&& f) {
  using namespace tangled;
  using serve::SimKind;
  const unsigned w = job.ways;
  const pbp::Backend b = job.backend;
  const auto pipe = [w, b](unsigned stages, bool fwd) {
    return [=] {
      return std::make_unique<PipelineSim>(
          w, PipelineConfig{.stages = stages, .forwarding = fwd}, b);
    };
  };
  switch (job.sim) {
    case SimKind::kFunc:
      return f(SimTag<FunctionalSim>{},
               [=] { return std::make_unique<FunctionalSim>(w, b); });
    case SimKind::kMulti:
      return f(SimTag<MultiCycleSim>{},
               [=] { return std::make_unique<MultiCycleSim>(w, b); });
    case SimKind::kMultiFsm:
      return f(SimTag<MultiCycleFsmSim>{},
               [=] { return std::make_unique<MultiCycleFsmSim>(w, b); });
    case SimKind::kPipe4:
      return f(SimTag<PipelineSim>{}, pipe(4, true));
    case SimKind::kPipe5:
      return f(SimTag<PipelineSim>{}, pipe(5, true));
    case SimKind::kPipe5NoFwd:
      return f(SimTag<PipelineSim>{}, pipe(5, false));
    case SimKind::kRtl:
      break;
  }
  return f(SimTag<RtlPipelineSim>{},
           [=] { return std::make_unique<RtlPipelineSim>(w, b); });
}

/// The daemon's per-attempt simulator set-up (after pool acquire).
template <typename SimT>
void prepare_sim(SimT& sim, const tangled::serve::Job& job) {
  sim.load(job.program);
  if (!job.fault_plan.empty()) sim.set_fault_plan(job.fault_plan);
  sim.set_max_cycles(job.max_cycles);
  sim.set_ecc_mode(job.ecc);
  sim.set_ecc_epoch(job.ecc_epoch);
  sim.set_scrub_every(job.scrub_every);
  sim.set_qat_threads(job.qat_threads);
}

/// The runner the daemon builds for `job`: mid-run slicing only on the
/// instruction-atomic models, polling slices of the daemon's default size.
template <typename SimT>
tangled::CheckpointingRunner<SimT> server_runner(
    SimT& sim, const tangled::serve::Job& job) {
  const bool atomic_model = job.sim != tangled::serve::SimKind::kRtl;
  const std::uint64_t slice =
      tangled::serve::JobServerConfig{}.slice_instructions;
  return tangled::CheckpointingRunner<SimT>(
      sim, atomic_model ? job.checkpoint_every : 0, atomic_model ? slice : 0);
}

/// Drive `runner` to completion under the job's budget and validator.
template <typename SimT>
tangled::RecoveryStats run_job(tangled::CheckpointingRunner<SimT>& runner,
                               const tangled::serve::Job& job) {
  return runner.run(job.max_instructions, [&](const SimT& s) {
    return !job.validate || job.validate(s.cpu());
  });
}

/// Run the prepared simulator to completion the way the daemon does.
template <typename SimT>
tangled::RecoveryStats run_like_server(SimT& sim,
                                       const tangled::serve::Job& job) {
  auto runner = server_runner(sim, job);
  return run_job(runner, job);
}

}  // namespace ledger
