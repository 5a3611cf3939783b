#include "workloads.hpp"

#include <stdexcept>

#include "arch/multicycle_fsm.hpp"
#include "asm/programs.hpp"
#include "server_path.hpp"

namespace ledger {

namespace {

using pbp::Backend;
using pbp::EccMode;

// The trivial job: the per-job floor of the serve stack.
const char* const kFloorSource = "\tlex $1,1\n\tsys\n";

// 100 iterations of and/xor/ccnot/or/cnot plus next/pop over three
// Hadamard registers.  @1 = H(31) and @3 = H(2) compress to a handful of
// runs at any width; @2 = H(K) has 2^(32-K) runs at 32 ways, so K sets the
// RE substrate's work per op.
std::string re32_source(unsigned k) {
  return "\thad @1,31\n"
         "\thad @2," + std::to_string(k) + "\n"
         "\thad @3,2\n"
         "\tlex $2,100\n"
         "\tlex $3,-1\n"
         "loop:\n"
         "\tand @4,@1,@2\n"
         "\txor @5,@4,@3\n"
         "\tccnot @6,@4,@5\n"
         "\tor @7,@5,@6\n"
         "\tcnot @7,@2\n"
         "\tlex $4,0\n"
         "\tnext $4,@7\n"
         "\tlex $5,0\n"
         "\tpop $5,@6\n"
         "\tadd $2,$3\n"
         "\tbrt $2,loop\n"
         "\tsys\n";
}

// Host-only nested countdown: ~98 instructions per outer iteration, with a
// store/load pair so the MEM paths of the timing models are exercised.
std::string host_loop_source(unsigned outer) {
  return "\tli $1," + std::to_string(outer) + "\n"
         "\tlex $3,-1\n"
         "\tli $5,4096\n"
         "outer:\n"
         "\tlex $2,31\n"
         "inner:\n"
         "\txor $4,$2\n"
         "\tadd $2,$3\n"
         "\tbrt $2,inner\n"
         "\tstore $4,$5\n"
         "\tload $6,$5\n"
         "\tadd $1,$3\n"
         "\tbrt $1,outer\n"
         "\tsys\n";
}

JobSpec base_spec(const std::string& source, SimKind sim, Backend backend,
                  unsigned ways) {
  JobSpec s;
  s.source = source;
  s.sim = sim;
  s.backend = backend;
  s.ways = ways;
  return s;
}

/// The reference result: the daemon's execution path, in-process.
Expected reference(const JobSpec& spec, const std::string& label) {
  const tangled::serve::Job job = spec.to_job();
  return with_sim_type(job, [&](auto tag, auto make) {
    using SimT = typename decltype(tag)::type;
    const std::unique_ptr<SimT> sim = make();
    prepare_sim(*sim, job);
    const tangled::RecoveryStats rs = run_like_server(*sim, job);
    if (!rs.halted || rs.gave_up || rs.recovered || sim->cpu().trap) {
      throw std::runtime_error("gate: " + label +
                               " does not halt cleanly in-process");
    }
    Expected e;
    e.regs = sim->cpu().regs;
    e.instructions = rs.instructions;
    e.cycles = rs.cycles;
    e.qat_ops = sim->qat().stats_snapshot().ops;
    return e;
  });
}

/// The paper's Figure 10 result, as this repository's multi-cycle state
/// machine reproduces it: $0=5, $1=3 after 91 instructions, 447 cycles.
void check_figure10_reference() {
  tangled::MultiCycleFsmSim sim(8);
  sim.load(tangled::assemble(tangled::figure10_source()));
  const tangled::SimStats s = sim.run();
  if (!s.halted || s.trap || sim.cpu().regs[0] != 5 ||
      sim.cpu().regs[1] != 3 || s.instructions != 91 || s.cycles != 447) {
    throw std::runtime_error(
        "gate: Figure 10 on multi-fsm gave $0=" +
        std::to_string(sim.cpu().regs[0]) + " $1=" +
        std::to_string(sim.cpu().regs[1]) + ", " +
        std::to_string(s.instructions) + " instructions, " +
        std::to_string(s.cycles) + " cycles (want 5, 3, 91, 447)");
  }
}

void add_class(Workload& w, const std::string& variant, JobSpec spec) {
  JobClass c;
  c.label = w.name + "/" + tangled::serve::sim_kind_name(spec.sim) +
            (variant.empty() ? "" : "/" + variant);
  c.expected = reference(spec, c.label);
  // The daemon checks every final register too: a wrong value makes the
  // run count as corrupted, so it can never come back as a clean report.
  for (std::uint16_t r = 0; r < tangled::kNumRegs; ++r) {
    spec.expect.emplace_back(r, c.expected.regs[r]);
  }
  c.spec = std::move(spec);
  w.classes.push_back(std::move(c));
}

}  // namespace

const std::vector<SimKind>& all_models() {
  static const std::vector<SimKind> models = {
      SimKind::kFunc,  SimKind::kMulti, SimKind::kMultiFsm,
      SimKind::kPipe4, SimKind::kPipe5, SimKind::kPipe5NoFwd,
      SimKind::kRtl};
  return models;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "floor_batched", "fig10_ecc16", "re32_qat", "host_loop", "keyed_open"};
  return names;
}

Workload make_workload(const std::string& name) {
  check_figure10_reference();
  Workload w;
  w.name = name;
  if (name == "floor_batched") {
    // 2-instruction jobs in 16-job batch frames: the fixed per-job cost of
    // codec, admission, queue, pool reset and report send.
    add_class(w, "", base_spec(kFloorSource, SimKind::kFunc, Backend::kDense,
                               8));
    // The daemon sheds a connection's submissions past 64 unreported jobs,
    // and a report the client holds may still count there for one frame:
    // window + batch <= 64 keeps every submission admitted.
    w.connections = 2;
    w.window = 32;
    w.refill_at = 16;
    w.batch_max = 16;
    w.batch_frames = true;
  } else if (name == "fig10_ecc16") {
    // Figure 10 on the dense 16-way register file with SECDED correction:
    // the dense substrate, ECC and the 2 MiB reset and snapshot paths.
    for (const SimKind m : all_models()) {
      JobSpec s = base_spec(tangled::figure10_source(), m, Backend::kDense, 16);
      s.ecc = EccMode::kCorrect;
      s.ecc_epoch = 1;
      add_class(w, "", std::move(s));
    }
    w.connections = 2;
    w.window = 8;
    w.refill_at = 1;
    w.batch_max = 8;
    w.batch_frames = true;
  } else if (name == "re32_qat") {
    // A Qat-heavy loop on the RE-compressed 32-way register file: the
    // run/chunk-pool substrate; wire and pool are negligible.
    for (const SimKind m : all_models()) {
      for (const unsigned k : {19u, 20u, 21u}) {
        add_class(w, "K=" + std::to_string(k),
                  base_spec(re32_source(k), m, Backend::kCompressed, 32));
      }
    }
    w.connections = 1;
    w.window = 4;
  } else if (name == "host_loop") {
    // 40-60k host instructions and no Qat work: fetch, decode, dispatch
    // and the seven timing models.
    for (const SimKind m : all_models()) {
      for (const unsigned n : {400u, 500u, 600u}) {
        add_class(w, "outer=" + std::to_string(n),
                  base_spec(host_loop_source(n), m, Backend::kDense, 8));
      }
    }
    w.connections = 1;
    w.window = 4;
  } else if (name == "keyed_open") {
    // Open-loop keyed Figure 10 jobs with durable checkpoints and 20%
    // resubmits: journal fsyncs beside dedup reads.
    for (const SimKind m : all_models()) {
      JobSpec s = base_spec(tangled::figure10_source(), m, Backend::kDense, 8);
      s.checkpoint_every = 50;
      add_class(w, "", std::move(s));
    }
    w.connections = 2;
    w.open_loop = true;
    w.rate_per_s = 400.0;
    w.resubmit_frac = 0.2;
    w.keyed = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::string check_report(const JobReport& rep, const JobClass& cls,
                         bool resubmit) {
  const Expected& e = cls.expected;
  std::string why;
  const auto want = [&](bool ok, const std::string& what) {
    if (!ok && why.empty()) why = what;
  };
  want(rep.outcome == tangled::serve::JobOutcome::kCompleted,
       std::string("outcome ") + tangled::serve::job_outcome_name(rep.outcome) +
           (rep.error.empty() ? "" : " (" + rep.error + ")"));
  want(rep.deduped == resubmit,
       resubmit ? "resubmitted key was run again" : "fresh job was deduped");
  want(rep.instructions == e.instructions,
       "instructions " + std::to_string(rep.instructions) + " != " +
           std::to_string(e.instructions));
  want(rep.cycles == e.cycles, "cycles " + std::to_string(rep.cycles) +
                                   " != " + std::to_string(e.cycles));
  want(rep.qat_ops == e.qat_ops, "qat_ops " + std::to_string(rep.qat_ops) +
                                     " != " + std::to_string(e.qat_ops));
  want(rep.retries == 0 && rep.attempts == 1,
       "retried (" + std::to_string(rep.retries) + " retries)");
  want(rep.ecc_detected == 0 && rep.ecc_corrected == 0,
       "ECC saw upsets on a fault-free run");
  want(rep.backend_migrations == 0, "RE->dense migration");
  return why.empty() ? why : cls.label + ": " + why;
}

}  // namespace ledger
