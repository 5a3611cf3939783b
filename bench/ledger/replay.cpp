#include "replay.hpp"

#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "arch/checkpoint.hpp"
#include "daemon.hpp"
#include "serve/journal.hpp"
#include "serve/net/wire.hpp"
#include "serve/sim_pool.hpp"
#include "server_path.hpp"

namespace ledger {

namespace {

namespace net = tangled::serve::net;
using Clock = TraceLog::Clock;
using tangled::serve::Job;

double us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double thread_cpu_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

// Journal appends on non-keyed workloads (which never journal) are timed on
// this many specs only: the per-call cost is what the metric reports, and
// dense 16-way images are 2 MiB each.
constexpr std::size_t kUnkeyedJournalSamples = 32;
// Specs re-targeted per model the workload does not use.
constexpr std::size_t kModelProbeSpecs = 8;
// Replay threads: the daemon is run with --threads=2.
constexpr unsigned kReplayWorkers = 2;

/// One Qat instruction as the program issued it: the decoded instruction,
/// the Tangled $d value it received, and the retired-instruction clock.
struct QatOp {
  tangled::Instr instr;
  std::uint16_t d_in = 0;
  std::uint64_t retired = 0;
};

/// Step the program architecturally (untimed) and record its Qat stream.
std::vector<QatOp> record_qat_stream(const Job& job) {
  using namespace tangled;
  CpuState cpu;
  Memory mem;
  QatEngine qat(job.ways, job.backend);
  if (!mem.load(job.program.words)) {
    throw std::runtime_error("replay: program image too large");
  }
  std::vector<QatOp> ops;
  std::uint64_t retired = 0;
  while (!cpu.halted && retired < job.max_instructions) {
    const Decoded d = decode(mem.read(cpu.pc),
                             mem.read(static_cast<std::uint16_t>(cpu.pc + 1)));
    if (is_qat(d.instr.op)) ops.push_back({d.instr, cpu.reg(d.instr.d), retired});
    cpu.pc = execute_instr(cpu, mem, qat, d.instr, d.words).next_pc;
    ++retired;
  }
  return ops;
}

// ReplayCosts fields that are per-job means, and per-journaled-job means.
constexpr double ReplayCosts::*kPerJob[] = {
    &ReplayCosts::codec_us,        &ReplayCosts::to_job_us,
    &ReplayCosts::reset_us,        &ReplayCosts::prepare_us,
    &ReplayCosts::ckpt_save_us,    &ReplayCosts::ckpts_per_job,
    &ReplayCosts::ckpt_bytes,      &ReplayCosts::runner_us,
    &ReplayCosts::instructions,    &ReplayCosts::scrub_us,
    &ReplayCosts::scrubs_per_job,  &ReplayCosts::qat_us,
    &ReplayCosts::qat_ops,         &ReplayCosts::qat_ecc_us,
    &ReplayCosts::ecc_words_verified, &ReplayCosts::qat_storage_kib,
    &ReplayCosts::journal_ckpts_per_job, &ReplayCosts::wall_us,
    &ReplayCosts::clock_reads};
constexpr double ReplayCosts::*kPerJournalJob[] = {
    &ReplayCosts::journal_admit_us, &ReplayCosts::journal_ckpt_us,
    &ReplayCosts::journal_report_us, &ReplayCosts::journal_cpu_us};

/// Sums over replayed jobs, merged across workers before averaging.
struct Totals {
  ReplayCosts sum;
  std::size_t journal_jobs = 0;
  std::map<std::string, std::pair<double, double>> models;  // us, instructions
};

/// One replay worker: its own simulator pools (the daemon's pools are per
/// worker), its own spans, and the journal shared like the daemon's.
class Replayer {
 public:
  Replayer(bool journaled, tangled::serve::Journal& journal, TraceLog& trace,
           unsigned index)
      : journaled_(journaled), journal_(journal), trace_(trace), index_(index) {}

  /// Replay one spec through every timed step; accumulates into totals_.sum.
  void job(const JobSpec& spec, std::uint64_t id, bool journal_sample) {
    const auto t_begin = now();
    const std::int64_t root =
        trace_.add("replay.job", t_begin, t_begin, TraceLog::kNoParent, id);

    // Submit frame: the daemon parses the header, CRCs and decodes.
    pbp::ByteWriter sw;
    net::SubmitRequest{spec}.encode(sw);
    const std::vector<std::uint8_t> frame =
        net::encode_frame(net::MsgType::kSubmit, sw.bytes());
    const auto t0 = now();
    net::FrameHeader h;
    const std::vector<std::uint8_t> payload(frame.begin() + net::kHeaderBytes,
                                            frame.end());
    if (net::parse_header(frame.data(), net::kDefaultMaxFrameBytes, &h) !=
            net::FrameCheck::kOk ||
        net::verify_payload(h, payload) != net::FrameCheck::kOk) {
      throw std::runtime_error("replay: submit frame does not verify");
    }
    pbp::ByteReader sr(payload);
    const JobSpec decoded = net::SubmitRequest::decode(sr);
    const auto t1 = now();
    trace_.add("net.decode", t0, t1, root, id);
    totals_.sum.codec_us += us(t1 - t0);

    const Job job = decoded.to_job();
    const auto t2 = now();
    trace_.add("asm.to_job", t1, t2, root, id);
    totals_.sum.to_job_us += us(t2 - t1);

    JobReport rep;
    std::uint64_t persisted = 0;
    // The snapshot lives only for this job, like the daemon's runner
    // buffers: a buffer outliving the job would sit above them on the heap,
    // the allocator could no longer hand their pages back, and the replay
    // would miss the page faults the daemon pays on every snapshot.
    std::vector<std::uint8_t> image;
    with_sim_type(job, [&](auto tag, auto make) {
      using SimT = typename decltype(tag)::type;
      // The daemon's sequence on its warm pool: acquire (reset), prepare,
      // run — the run includes the runner's own start-of-run snapshot.
      const auto a0 = now();
      const std::shared_ptr<SimT> sim =
          pool_.acquire<SimT>(job.sim, job.backend, job.ways, make);
      const auto a1 = now();
      prepare_sim(*sim, job);
      const auto a2 = now();
      auto runner = server_runner(*sim, job);
      if (journaled_ && job.checkpoint_every != 0) {
        // The daemon's sink throttle: a durable image at most every
        // checkpoint_every lineage instructions.
        runner.set_checkpoint_sink(
            [&persisted, every = job.checkpoint_every, next = job.checkpoint_every](
                const std::vector<std::uint8_t>&, std::uint64_t done) mutable {
              if (done < next) return;
              next = done + every;
              ++persisted;
            });
      }
      const tangled::RecoveryStats rs = run_job(runner, job);
      const auto a3 = now();
      const bool ecc = sim->ecc_enabled();
      tangled::scrub_protected_state(sim->qat(), sim->memory());
      const auto a4 = now();
      if (!rs.halted || rs.gave_up || rs.recovered) {
        throw std::runtime_error("replay: job did not complete cleanly");
      }
      // The start-of-run snapshot alone, on a second simulator brought to
      // the same point (reset, prepare) — the cache state the daemon's
      // snapshot meets.
      const std::shared_ptr<SimT> probe =
          snap_pool_.acquire<SimT>(job.sim, job.backend, job.ways, make);
      prepare_sim(*probe, job);
      const auto b0 = now();
      image = tangled::save_checkpoint(probe->cpu(), probe->memory(),
                                       probe->qat());
      const auto b1 = now();
      trace_.add("arch.sim_reset", a0, a1, root, id);
      trace_.add("arch.sim_prepare", a1, a2, root, id);
      trace_.add("arch.runner_run", a2, a3, root, id);
      trace_.add("pbp.ecc_scrub", a3, a4, root, id);
      trace_.add("arch.ckpt_save", b0, b1, root, id);
      totals_.sum.reset_us += us(a1 - a0);
      totals_.sum.prepare_us += us(a2 - a1);
      totals_.sum.runner_us += us(a3 - a2);
      totals_.sum.scrub_us += us(a4 - a3);
      totals_.sum.ckpt_save_us += us(b1 - b0);
      totals_.sum.ckpt_bytes += static_cast<double>(image.size());
      totals_.sum.ckpts_per_job += static_cast<double>(rs.checkpoints_taken);
      totals_.sum.instructions += static_cast<double>(rs.instructions);
      // Scrubs inside the run: the clean-halt sweep, plus one before each
      // mid-run snapshot.
      if (ecc) {
        totals_.sum.scrubs_per_job +=
            1.0 + (job.checkpoint_every != 0 && job.sim != SimKind::kRtl
                       ? static_cast<double>(rs.checkpoints_taken - 1)
                       : 0.0);
      }
      totals_.sum.journal_ckpts_per_job += static_cast<double>(persisted);
      sim->qat().drain_ecc();
      const tangled::QatStatsSnapshot qs = sim->qat().stats_snapshot();
      totals_.sum.ecc_words_verified += static_cast<double>(
          qs.ecc_words_verified + sim->memory().ecc_words_verified());
      totals_.sum.qat_storage_kib +=
          static_cast<double>(sim->qat().storage_bytes()) / 1024.0;
      auto& m = totals_.models[tangled::serve::sim_kind_name(job.sim)];
      m.first += us(a3 - a2);
      m.second += static_cast<double>(rs.instructions);

      rep.id = id;
      rep.name = job.name;
      rep.outcome = tangled::serve::JobOutcome::kCompleted;
      rep.attempts = 1;
      rep.instructions = rs.instructions;
      rep.cycles = rs.cycles;
      rep.qat_ops = qs.ops;
      rep.idem_key = job.idempotency_key;
    });

    // Report frame: encode + frame (the daemon's report pump).
    const auto r0 = now();
    pbp::ByteWriter rw;
    net::encode_report(rep, rw);
    const std::vector<std::uint8_t> out =
        net::encode_frame(net::MsgType::kReport, rw.bytes());
    const auto r1 = now();
    trace_.add("net.encode", r0, r1, root, id);
    totals_.sum.codec_us += us(r1 - r0);
    if (out.size() <= net::kHeaderBytes) {
      throw std::runtime_error("replay: empty report frame");
    }

    qat(job, rep.qat_ops, id, root);
    if (journal_sample) journal(spec, rep, image, persisted, id, root);
    const auto t_end = now();
    trace_.close(root, t_end);
    totals_.sum.wall_us += us(t_end - t_begin);
    ++totals_.sum.jobs;
  }

  /// Run `spec` through the pool and runner; with `timed`, count the run
  /// toward its model's ns/instruction (per-model probes), otherwise it
  /// only warms both pools the way a running daemon's is warm.
  void run_only(const JobSpec& spec, bool timed) {
    const Job job = spec.to_job();
    with_sim_type(job, [&](auto tag, auto make) {
      using SimT = typename decltype(tag)::type;
      const std::shared_ptr<SimT> sim =
          pool_.acquire<SimT>(job.sim, job.backend, job.ways, make);
      prepare_sim(*sim, job);
      const auto t0 = Clock::now();
      const tangled::RecoveryStats rs = run_like_server(*sim, job);
      if (timed) {
        auto& m = totals_.models[tangled::serve::sim_kind_name(job.sim)];
        m.first += us(Clock::now() - t0);
        m.second += static_cast<double>(rs.instructions);
      } else {
        const std::shared_ptr<SimT> probe =
            snap_pool_.acquire<SimT>(job.sim, job.backend, job.ways, make);
        prepare_sim(*probe, job);
        tangled::save_checkpoint(probe->cpu(), probe->memory(), probe->qat());
      }
    });
  }

  /// Add this worker's sums into `t`.
  void add_to(Totals& t) const {
    for (const auto m : kPerJob) t.sum.*m += totals_.sum.*m;
    for (const auto m : kPerJournalJob) t.sum.*m += totals_.sum.*m;
    t.sum.jobs += totals_.sum.jobs;
    t.journal_jobs += totals_.journal_jobs;
    for (const auto& [model, run] : totals_.models) {
      t.models[model].first += run.first;
      t.models[model].second += run.second;
    }
  }

 private:
  /// The job's Qat stream through QatEngine::execute, ECC off and then with
  /// the job's policy, on a reset engine of the job's shape.  `ops_run` is
  /// the op count the real run reported; the recording must match it.
  void qat(const Job& job, std::uint64_t ops_run, std::uint64_t id,
           std::int64_t root) {
    const auto key = std::make_tuple(job.program.words, job.ways,
                                     static_cast<int>(job.backend));
    auto it = streams_.find(key);
    if (it == streams_.end()) {
      it = streams_.emplace(key, record_qat_stream(job)).first;
    }
    if (it->second.size() != ops_run) {
      throw std::runtime_error("replay: recorded Qat stream has " +
                               std::to_string(it->second.size()) +
                               " ops, the run executed " +
                               std::to_string(ops_run));
    }
    const auto ekey = std::make_pair(job.ways, static_cast<int>(job.backend));
    auto& engine = engines_[ekey];
    if (engine == nullptr) {
      engine = std::make_unique<tangled::QatEngine>(job.ways, job.backend);
    }
    const std::vector<QatOp>& ops = it->second;
    const auto run = [&](pbp::EccMode mode) {
      engine->reset();
      engine->set_ecc_mode(mode);
      engine->set_ecc_epoch(job.ecc_epoch);
      const bool ecc = mode != pbp::EccMode::kOff;
      const auto t0 = now();
      for (const QatOp& op : ops) {
        if (ecc) engine->ecc_tick(op.retired);
        std::uint16_t d = op.d_in;
        engine->execute(op.instr, d);
      }
      return std::make_pair(t0, now());
    };
    const auto [o0, o1] = run(pbp::EccMode::kOff);
    const auto [e0, e1] = run(job.ecc);
    trace_.add("pbp.qat_replay", o0, o1, root, id);
    trace_.add("pbp.qat_replay_ecc", e0, e1, root, id);
    totals_.sum.qat_us += us(o1 - o0);
    totals_.sum.qat_ecc_us += us(e1 - e0);
    totals_.sum.qat_ops += static_cast<double>(ops.size());
  }

  /// The journal appends a keyed job costs, on a journal of its own.  Wall
  /// time is what a keyed job waits; CPU time (the appends mostly wait on
  /// fsync) is what it adds to the daemon's CPU per job, for `persisted`
  /// durable images.
  void journal(const JobSpec& spec, const JobReport& rep,
               const std::vector<std::uint8_t>& image, std::uint64_t persisted,
               std::uint64_t id, std::int64_t root) {
    JobSpec keyed = spec;
    keyed.idempotency_key = "replay-" + std::to_string(index_) + "-" +
                            std::to_string(totals_.journal_jobs);
    JobReport done = rep;
    done.idem_key = keyed.idempotency_key;
    const double c0 = thread_cpu_us();
    const auto j0 = now();
    const bool a = journal_.append_admit(keyed);
    const auto j1 = now();
    const double c1 = thread_cpu_us();
    const bool c = journal_.append_checkpoint(keyed.idempotency_key, image);
    const auto j2 = now();
    const double c2 = thread_cpu_us();
    const bool r = journal_.append_report(done);
    const auto j3 = now();
    const double c3 = thread_cpu_us();
    if (!a || !c || !r) throw std::runtime_error("replay: journal append failed");
    totals_.sum.journal_cpu_us += (c1 - c0) + (c3 - c2) +
                             static_cast<double>(persisted) * (c2 - c1);
    trace_.add("serve.journal_admit", j0, j1, root, id);
    trace_.add("serve.journal_ckpt", j1, j2, root, id);
    trace_.add("serve.journal_report", j2, j3, root, id);
    totals_.sum.journal_admit_us += us(j1 - j0);
    totals_.sum.journal_ckpt_us += us(j2 - j1);
    totals_.sum.journal_report_us += us(j3 - j2);
    ++totals_.journal_jobs;
  }

  /// Every timestamp of the replayed path goes through here, so the replay
  /// knows how much of its own time its timers take.
  Clock::time_point now() {
    totals_.sum.clock_reads += 1.0;
    return Clock::now();
  }

  bool journaled_;
  tangled::serve::Journal& journal_;
  TraceLog& trace_;
  unsigned index_;
  // The daemon's per-worker pool, at its default size and entry cap, and a
  // second one for the snapshot probe.
  tangled::serve::SimulatorPool pool_{
      tangled::serve::JobServerConfig{}.sim_pool, std::size_t{8} << 20};
  tangled::serve::SimulatorPool snap_pool_{
      tangled::serve::JobServerConfig{}.sim_pool, std::size_t{8} << 20};
  std::map<std::tuple<std::vector<std::uint16_t>, unsigned, int>,
           std::vector<QatOp>>
      streams_;
  std::map<std::pair<unsigned, int>, std::unique_ptr<tangled::QatEngine>>
      engines_;
  Totals totals_;
};

ReplayCosts run_replay(bool journaled, const std::vector<JobSpec>& specs,
                       const std::vector<std::uint64_t>& jobs,
                       const std::string& tmp_dir, TraceLog& trace) {
  if (specs.empty()) throw std::invalid_argument("replay: no specs");
  // Models the workload does not use get probe specs re-targeted to them.
  std::vector<JobSpec> probes;
  for (const SimKind m : all_models()) {
    bool used = false;
    for (const JobSpec& s : specs) used = used || s.sim == m;
    for (std::size_t i = 0; !used && i < std::min(kModelProbeSpecs, specs.size());
         ++i) {
      probes.push_back(specs[i]);
      probes.back().sim = m;
    }
  }

  const std::string dir = tmp_dir + "/replay-journal";
  std::filesystem::remove_all(dir);
  Totals t;
  {
    tangled::serve::Journal::Recovery rec;
    std::string err;
    const auto journal = tangled::serve::Journal::open({dir}, &rec, &err);
    if (journal == nullptr) throw std::runtime_error("replay journal: " + err);
    std::vector<TraceLog> logs(kReplayWorkers, TraceLog(Clock::time_point{}));
    std::vector<std::unique_ptr<Replayer>> workers;
    for (unsigned i = 0; i < kReplayWorkers; ++i) {
      workers.push_back(
          std::make_unique<Replayer>(journaled, *journal, logs[i], i));
    }
    // One spec per simulator shape, run untimed by each worker first so
    // every timed acquire is the warm-pool reset a running daemon does.
    std::vector<JobSpec> shapes;
    std::vector<std::tuple<int, int, unsigned>> seen;
    for (const std::vector<JobSpec>* list :
         std::initializer_list<const std::vector<JobSpec>*>{&specs, &probes}) {
      for (const JobSpec& s : *list) {
        const auto shape = std::make_tuple(static_cast<int>(s.sim),
                                           static_cast<int>(s.backend), s.ways);
        if (std::find(seen.begin(), seen.end(), shape) == seen.end()) {
          seen.push_back(shape);
          shapes.push_back(s);
        }
      }
    }
    // The replay runs on as many threads as the daemon has workers, so
    // shared caches, memory bandwidth and the journal lock are contended the
    // way they are in the daemon.  Worker k takes every k-th spec.
    const auto work = [&](unsigned k) {
      for (const JobSpec& s : shapes) workers[k]->run_only(s, /*timed=*/false);
      for (std::size_t i = k; i < specs.size(); i += kReplayWorkers) {
        workers[k]->job(specs[i], jobs[i], journaled || i < kUnkeyedJournalSamples);
      }
      for (std::size_t i = k; i < probes.size(); i += kReplayWorkers) {
        workers[k]->run_only(probes[i], /*timed=*/true);
      }
    };
    std::exception_ptr err1;
    std::thread second([&] {
      try {
        work(1);
      } catch (...) {
        err1 = std::current_exception();
      }
    });
    std::exception_ptr err0;
    try {
      work(0);
    } catch (...) {
      err0 = std::current_exception();
    }
    second.join();

    if (err0) std::rethrow_exception(err0);
    if (err1) std::rethrow_exception(err1);
    for (unsigned i = 0; i < kReplayWorkers; ++i) {
      workers[i]->add_to(t);
      trace.absorb(logs[i].spans());
    }
  }
  std::filesystem::remove_all(dir);

  ReplayCosts c = t.sum;
  const double n = static_cast<double>(std::max<std::size_t>(c.jobs, 1));
  for (const auto m : kPerJob) c.*m /= n;
  const double js = static_cast<double>(std::max<std::size_t>(t.journal_jobs, 1));
  for (const auto m : kPerJournalJob) c.*m /= js;
  for (const auto& [model, run] : t.models) {
    c.runner_ns_per_instr[model] = run.first * 1000.0 / run.second;
  }
  return c;
}


void put_str(pbp::ByteWriter& w, const std::string& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const char c : v) w.u8(static_cast<std::uint8_t>(c));
}

std::string get_str(pbp::ByteReader& r) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining()) throw std::runtime_error("replay: truncated string");
  std::string v(n, '\0');
  for (char& c : v) c = static_cast<char>(r.u8());
  return v;
}

void put_f64(pbp::ByteWriter& w, double v) { w.u64(std::bit_cast<std::uint64_t>(v)); }
double get_f64(pbp::ByteReader& r) { return std::bit_cast<double>(r.u64()); }

void put_time(pbp::ByteWriter& w, Clock::time_point t) {
  w.u64(static_cast<std::uint64_t>(t.time_since_epoch().count()));
}
Clock::time_point get_time(pbp::ByteReader& r) {
  return Clock::time_point(Clock::duration(static_cast<Clock::rep>(r.u64())));
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f.flush()) throw std::runtime_error("replay: cannot write " + path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("replay: cannot read " + path);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

}  // namespace

ReplayCosts replay(bool journaled, const std::vector<JobSpec>& specs,
                   const std::vector<std::uint64_t>& jobs,
                   const std::string& tmp_dir, TraceLog& trace) {
  const std::string in = tmp_dir + "/replay.in";
  const std::string out = tmp_dir + "/replay.out";
  pbp::ByteWriter w;
  w.u8(journaled ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(specs.size()));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    w.u64(jobs[i]);
    specs[i].serialize(w);
  }
  write_file(in, w.bytes());
  const int status = run_child({"/proc/self/exe", "--replay-in=" + in,
                                "--replay-out=" + out, "--tmp=" + tmp_dir},
                               std::chrono::seconds(150));
  if (status != 0) {
    throw std::runtime_error("replay process failed (status " +
                             std::to_string(status) + ")");
  }
  const std::vector<std::uint8_t> bytes = read_file(out);
  std::filesystem::remove(in);
  std::filesystem::remove(out);

  pbp::ByteReader r(bytes);
  ReplayCosts c;
  c.jobs = r.u64();
  for (const auto m : kPerJob) c.*m = get_f64(r);
  for (const auto m : kPerJournalJob) c.*m = get_f64(r);
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    std::string model = get_str(r);
    c.runner_ns_per_instr[model] = get_f64(r);
  }
  std::vector<TraceLog::Span> spans(r.u32());
  for (TraceLog::Span& s : spans) {
    s.name = get_str(r);
    s.start = get_time(r);
    s.end = get_time(r);
    s.parent = static_cast<std::int64_t>(r.u64());
    s.job = r.u64();
  }
  trace.absorb(spans);
  return c;
}

int replay_main(const std::string& in, const std::string& out,
                const std::string& tmp_dir) {
  try {
    const std::vector<std::uint8_t> bytes = read_file(in);
    pbp::ByteReader r(bytes);
    const bool journaled = r.u8() != 0;
    std::vector<JobSpec> specs;
    std::vector<std::uint64_t> jobs;
    for (std::uint32_t n = r.u32(); n > 0; --n) {
      jobs.push_back(r.u64());
      specs.push_back(JobSpec::deserialize(r));
    }
    TraceLog trace(Clock::time_point{});
    const ReplayCosts c = run_replay(journaled, specs, jobs, tmp_dir, trace);

    pbp::ByteWriter w;
    w.u64(c.jobs);
    for (const auto m : kPerJob) put_f64(w, c.*m);
    for (const auto m : kPerJournalJob) put_f64(w, c.*m);
    w.u32(static_cast<std::uint32_t>(c.runner_ns_per_instr.size()));
    for (const auto& [model, ns] : c.runner_ns_per_instr) {
      put_str(w, model);
      put_f64(w, ns);
    }
    w.u32(static_cast<std::uint32_t>(trace.spans().size()));
    for (const TraceLog::Span& s : trace.spans()) {
      put_str(w, s.name);
      put_time(w, s.start);
      put_time(w, s.end);
      w.u64(static_cast<std::uint64_t>(s.parent));
      w.u64(s.job);
    }
    write_file(out, w.bytes());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ledger: replay: %s\n", e.what());
    return 1;
  }
}

}  // namespace ledger
