// ledger.cpp — the repository's benchmark: five workloads through the real
// tangled_served daemon, end to end, plus a traced replay that attributes a
// job's cost to the layers it passes through.  See README.md.
//
//   bench_ledger --served=PATH --out=DIR [--workload=NAME|all] [--seed=N]
//                [--seconds=S] [--trace[=0|1]] [--smoke] [--tmp=DIR]
//
// Prints every metric as "workload metric value unit", writes the JSON
// summary to DIR, and prints it again as the last line of stdout.  Exits 1
// when any output is wrong or the daemon's accounting or drain fails, 2 on
// a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "daemon.hpp"
#include "load.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace ledger {
namespace {

namespace net = tangled::serve::net;

// Daemon settings: everything else is left at its default.
const std::vector<std::string> kDaemonArgs = {"--port=0", "--threads=2",
                                              "--queue=256"};
// Set-up (spawn → listening → warm) is repeated this many times per run and
// reported as the median; the last daemon is the one measured.
constexpr unsigned kSetups = 5;
// The measured window is cut into this many equal slices; rates, CPU per
// job and median latency are per-slice medians, so a burst of outside load
// during one slice does not move them.
constexpr unsigned kSlices = 5;
// Warm-up: every class at least this many times, and at least kWarmJobs.
constexpr unsigned kWarmRounds = 4;
constexpr unsigned kWarmJobs = 64;
// The traced run replays this many of the workload's own specs (fewer in
// --smoke, which only proves the path works).
constexpr std::size_t kReplaySpecs = 200;
constexpr std::size_t kSmokeReplaySpecs = 8;
// Client spans are written for at most this many jobs.
constexpr std::size_t kTracedJobs = 4000;

struct Options {
  std::vector<std::string> workloads = workload_names();
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string served;
  std::string out;
  std::string tmp;
  // The traced run's replay child (see replay.hpp).
  std::string replay_in;
  std::string replay_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_ledger: %s\n"
               "usage: bench_ledger --served=PATH --out=DIR [--workload=NAME|all]\n"
               "                    [--seed=N] [--seconds=S] [--trace[=0|1]]\n"
               "                    [--smoke] [--tmp=DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    // "--flag value" as well as "--flag=value"; --trace's value is optional.
    const auto take = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    const auto number = [&](const std::string& v) {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(d >= 0)) {
        usage("invalid value '" + v + "' for " + arg);
      }
      return d;
    };
    if (arg == "--workload") {
      const std::string v = take();
      if (v == "all") {
        o.workloads = workload_names();
      } else if (std::find(workload_names().begin(), workload_names().end(),
                           v) != workload_names().end()) {
        o.workloads = {v};
      } else {
        usage("unknown workload '" + v + "'");
      }
    } else if (arg == "--seed") {
      const std::string v = take();
      if (v.empty() || v.size() > 19 ||
          v.find_first_not_of("0123456789") != std::string::npos) {
        usage("invalid value '" + v + "' for --seed");
      }
      o.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      o.seconds = number(take());
      if (o.seconds <= 0) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (!has_value && i + 1 < argc &&
          (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1")) {
        value = argv[++i];
        has_value = true;
      }
      if (has_value && value != "0" && value != "1") {
        usage("invalid value '" + value + "' for --trace");
      }
      o.trace = !has_value || value == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--served") {
      o.served = take();
    } else if (arg == "--out") {
      o.out = take();
    } else if (arg == "--tmp") {
      o.tmp = take();
    } else if (arg == "--replay-in") {
      o.replay_in = take();
    } else if (arg == "--replay-out") {
      o.replay_out = take();
    } else {
      usage("unknown argument '" + std::string(argv[i]) + "'");
    }
  }
  if (!o.replay_in.empty()) {
    if (o.replay_out.empty() || o.tmp.empty()) {
      usage("--replay-in needs --replay-out and --tmp");
    }
    return o;
  }
  if (o.served.empty()) usage("--served is required");
  if (o.out.empty()) usage("--out is required");
  if (o.tmp.empty()) o.tmp = o.out + "/tmp";
  if (o.smoke) {
    o.workloads = workload_names();
    o.seconds = 1.0;
    o.trace = true;
  }
  return o;
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Linear-interpolated quantile (q in [0,1]) of unsorted values.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The drain accounting identity: the generator's counts equal the daemon's
/// snapshot, then SIGTERM drains to exit 0 with the matching summary line.
void finish(Daemon& d, Generator& gen, Result& res) {
  const net::StatsOk s = gen.stats();
  const Tally t = gen.tally();
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) res.problems.push_back("accounting: " + what);
  };
  check(s.jobs.submitted == t.admitted,
        "daemon admitted " + std::to_string(s.jobs.submitted) +
            ", generator saw " + std::to_string(t.admitted));
  check(s.jobs.completed == t.completed,
        "daemon completed " + std::to_string(s.jobs.completed) +
            ", generator saw " + std::to_string(t.completed));
  check(s.jobs.reports_deduped == t.deduped,
        "daemon deduped " + std::to_string(s.jobs.reports_deduped) +
            ", generator saw " + std::to_string(t.deduped));
  check(s.reports_streamed == t.reports,
        "daemon streamed " + std::to_string(s.reports_streamed) +
            " reports, generator received " + std::to_string(t.reports));
  check(t.attempted == t.admitted + t.shed + t.rejected &&
            s.retry_after_sent == t.shed,
        "attempted " + std::to_string(t.attempted) + " != admitted " +
            std::to_string(t.admitted) + " + shed " + std::to_string(t.shed) +
            " + rejected " + std::to_string(t.rejected));
  gen.close();
  const Daemon::Exit e = d.drain(std::chrono::seconds(30));
  const std::string want = "drained; " + std::to_string(t.admitted) +
                           " submitted, " + std::to_string(t.completed) +
                           " completed";
  if (!e.exited || e.status != 0 || e.output.find(want) == std::string::npos) {
    res.problems.push_back("drain: SIGTERM gave " +
                           (e.exited ? "exit " + std::to_string(e.status)
                                     : std::string("no exit")) +
                           ", want exit 0 and '" + want + "'; stdout: " +
                           e.output);
  }
}

/// Time one steady_clock read (for the replay's own-timer overhead).
double clock_read_ns() {
  constexpr int kReads = 100000;
  const auto t0 = Clock::now();
  Clock::time_point last{};
  for (int i = 0; i < kReads; ++i) last = std::max(last, Clock::now());
  return std::chrono::duration<double, std::nano>(last - t0).count() / kReads;
}

Result run_workload(const Options& o, const std::string& name,
                    TraceLog& trace) {
  Result res;
  const Workload w = make_workload(name);  // includes the correctness gate
  const unsigned rounds = std::max<unsigned>(
      kWarmRounds, static_cast<unsigned>((kWarmJobs + w.classes.size() - 1) /
                                         w.classes.size()));
  const unsigned setups = o.smoke ? 1 : kSetups;

  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Generator> gen;
  std::vector<double> setup_s;
  std::string journal;
  for (unsigned i = 0; i < setups; ++i) {
    std::vector<std::string> args = kDaemonArgs;
    if (w.keyed) {
      journal = o.tmp + "/" + name + "-journal-" + std::to_string(i);
      std::filesystem::remove_all(journal);
      args.push_back("--journal=" + journal);
    }
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(o.served, args, std::chrono::seconds(30));
    gen = std::make_unique<Generator>(w, daemon->port(), o.seed);
    gen->warm_up(rounds);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (i + 1 < setups) {
      finish(*daemon, *gen, res);
      if (gen->tally().failed != 0) {
        res.problems.push_back("warm-up: " + gen->first_failure());
      }
      gen.reset();
      daemon.reset();
      std::filesystem::remove_all(journal);
    }
  }

  // The warmed daemon's footprint.  Read before the measured phase: the
  // daemon keeps every report it publishes, so a later reading would grow
  // with the number of jobs served rather than with what a job costs.
  const double rss = daemon->peak_rss_mib();
  const net::StatsOk s0 = gen->stats();
  struct Mark {
    Clock::time_point at;
    double cpu_s;
  };
  std::vector<Mark> marks;
  Daemon& d = *daemon;
  const Generator::Window win = gen->measure(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double>(o.seconds)),
      kSlices, [&] { marks.push_back({Clock::now(), d.cpu_seconds()}); });
  const net::StatsOk s1 = gen->stats();

  // Per-job views of the measured window, and per-slice tallies (a report
  // counts in the slice it arrived in, a latency in the slice it was due).
  struct Slice {
    double jobs = 0, instructions = 0;
    std::vector<double> latency;
  };
  std::vector<Slice> slices(marks.size() - 1);
  const auto slice_of = [&](Clock::time_point t) -> Slice* {
    for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
      if (t >= marks[i].at && t < marks[i + 1].at) return &slices[i];
    }
    return nullptr;
  };
  std::vector<double> latency, queue, exec, outside, late;
  std::uint64_t attempted = 0, ok = 0, deduped = 0, phase_jobs = 0;
  std::vector<const JobRecord*> traced;
  for (const JobRecord* r : gen->records()) {
    if (r->state == JobRecord::State::kDone && r->reported >= win.start) {
      ++phase_jobs;
      if (Slice* sl = slice_of(r->reported)) {
        sl->jobs += 1;
        sl->instructions += static_cast<double>(r->instructions);
      }
    }
    if (!r->measured) continue;
    ++attempted;
    late.push_back(ms(r->sent - r->due));
    if (r->state != JobRecord::State::kDone || !r->ok) continue;
    ++ok;
    const double lat = ms(r->reported - r->due);
    latency.push_back(lat);
    if (Slice* sl = slice_of(r->due)) sl->latency.push_back(lat);
    if (r->resubmit) {
      ++deduped;
      continue;
    }
    queue.push_back(r->queue_ms);
    exec.push_back(r->exec_ms);
    outside.push_back(lat - r->queue_ms - r->exec_ms);
    traced.push_back(r);
  }
  res.attempted = attempted;
  res.failed = attempted - ok;
  // Every job of the phase (none were in flight before it or after it).
  const double cpu_us_per_job = (marks.back().cpu_s - marks.front().cpu_s) *
                                1e6 / std::max<double>(1.0, static_cast<double>(phase_jobs));
  std::vector<double> rate, minstr, cpu_per_job, p50;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const double secs =
        std::chrono::duration<double>(marks[i + 1].at - marks[i].at).count();
    rate.push_back(slices[i].jobs / secs);
    minstr.push_back(slices[i].instructions / secs / 1e6);
    cpu_per_job.push_back((marks[i + 1].cpu_s - marks[i].cpu_s) * 1e6 /
                          std::max(1.0, slices[i].jobs));
    p50.push_back(quantile(slices[i].latency, 0.5));
  }

  if (!o.trace) {
    res.metrics = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"jobs_per_s", quantile(rate, 0.5), "1/s"},
        {"latency_p50_ms", quantile(p50, 0.5), "ms"},
        {"sim_minstr_per_s", quantile(minstr, 0.5), "Minstr/s"},
        {"server_cpu_us_per_job", quantile(cpu_per_job, 0.5), "us"},
        {"server_peak_rss_mb", rss, "MiB"},
        {"ok_frac",
         static_cast<double>(ok) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
         "frac"},
    };
    // Tails are printed but not gated: on keyed_open they follow the shared
    // disk's fsync stalls, which move them several-fold between runs.
    std::printf("%s latency_p95_ms %.6g ms\n", name.c_str(), quantile(latency, 0.95));
    std::printf("%s latency_p99_ms %.6g ms\n", name.c_str(), quantile(latency, 0.99));
  } else {
    // Client spans for a spread-out sample of the window's jobs.
    const std::size_t stride = std::max<std::size_t>(1, traced.size() / kTracedJobs);
    for (std::size_t i = 0; i < traced.size(); i += stride) {
      const JobRecord& r = *traced[i];
      const std::int64_t job =
          trace.add("client.job", r.due, r.reported, TraceLog::kNoParent, r.id);
      trace.add("net.submit_rtt", r.sent, r.acked, job, r.id);
    }
    std::vector<double> rtt;
    for (const RoundTrip& t : gen->round_trips()) {
      if (t.jobs > 0 && t.sent >= win.start && t.sent < win.end) {
        rtt.push_back(std::chrono::duration<double, std::micro>(t.answered - t.sent).count());
      }
    }
    // Replay the window's own fresh jobs, cycling if the window was short.
    const std::size_t want = o.smoke ? kSmokeReplaySpecs : kReplaySpecs;
    std::vector<JobSpec> specs;
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; !traced.empty() && specs.size() < want; ++i) {
      const JobRecord& r = *traced[i % traced.size()];
      specs.push_back(gen->spec_of(r));
      ids.push_back(r.id);
    }
    if (specs.empty()) throw std::runtime_error("no completed jobs to replay");
    const ReplayCosts c = replay(w.keyed, specs, ids, o.tmp, trace);

    const double admitted = std::max(1.0, static_cast<double>(s1.jobs.submitted - s0.jobs.submitted));
    const double hits = static_cast<double>(s1.jobs.sim_pool_hits - s0.jobs.sim_pool_hits);
    const double misses = static_cast<double>(s1.jobs.sim_pool_misses - s0.jobs.sim_pool_misses);
    const double dedup_frac = static_cast<double>(deduped) / std::max(1.0, static_cast<double>(ok));
    const double fresh = 1.0 - dedup_frac;
    // Every job is decoded, assembled and reported; only fresh ones run
    // and journal.  Journal appends count at their CPU time: the daemon's
    // CPU clock does not run while it waits on fsync.
    const double attributed =
        c.codec_us + c.to_job_us +
        fresh * (c.reset_us + c.prepare_us + c.runner_us +
                 (w.keyed ? c.journal_cpu_us : 0.0));
    const double host_us = c.runner_us - c.ckpts_per_job * c.ckpt_save_us -
                           c.scrubs_per_job * c.scrub_us - c.qat_ecc_us;
    res.metrics = {
        {"net.submit_rtt_us", quantile(rtt, 0.5), "us"},
        {"net.outside_exec_ms_p50", quantile(outside, 0.5), "ms"},
        {"net.codec_us_per_job", c.codec_us, "us"},
        {"net.frames_per_job",
         static_cast<double>((s1.frames_rx - s0.frames_rx) + (s1.frames_tx - s0.frames_tx)) / admitted,
         "count"},
        {"serve.queue_ms_p50", quantile(queue, 0.50), "ms"},
        {"serve.queue_ms_p99", quantile(queue, 0.99), "ms"},
        {"serve.exec_ms_p50", quantile(exec, 0.50), "ms"},
        {"serve.pool_hit_frac", hits / std::max(1.0, hits + misses), "frac"},
        {"serve.journal_admit_us", c.journal_admit_us, "us"},
        {"serve.journal_report_us", c.journal_report_us, "us"},
        {"serve.journal_ckpt_us", c.journal_ckpt_us, "us"},
        {"serve.journal_bytes_per_job",
         static_cast<double>(s1.jobs.journal_bytes - s0.jobs.journal_bytes) / admitted, "B"},
        {"serve.dedup_frac", dedup_frac, "frac"},
        {"serve.unattributed_us_per_job", cpu_us_per_job - attributed, "us"},
        {"asm.to_job_us", c.to_job_us, "us"},
        {"arch.sim_reset_us", c.reset_us, "us"},
        {"arch.sim_prepare_us", c.prepare_us, "us"},
        {"arch.ckpt_save_us", c.ckpt_save_us, "us"},
        {"arch.ckpts_per_job", c.ckpts_per_job, "count"},
        {"arch.ckpt_bytes", c.ckpt_bytes, "B"},
        {"arch.run_us_per_job", c.runner_us, "us"},
        {"arch.host_ns_per_instr", host_us * 1000.0 / std::max(1.0, c.instructions), "ns"},
    };
    for (const SimKind m : all_models()) {
      const std::string model = tangled::serve::sim_kind_name(m);
      res.metrics.push_back({"arch.run_ns_per_instr." + model,
                             c.runner_ns_per_instr.at(model), "ns"});
    }
    const std::vector<Metric> tail = {
        {"pbp.qat_us_per_job", c.qat_us, "us"},
        // Per op; a workload with no Qat ops reports its empty replay.
        {"pbp.qat_ns_per_op", c.qat_us * 1000.0 / std::max(1.0, c.qat_ops), "ns"},
        {"pbp.ecc_us_per_job", c.qat_ecc_us - c.qat_us, "us"},
        {"pbp.ecc_scrub_us", c.scrub_us, "us"},
        {"pbp.ecc_words_verified_per_job", c.ecc_words_verified, "count"},
        {"pbp.qat_storage_kb", c.qat_storage_kib, "KiB"},
        {"gen.late_ms_p99", quantile(late, 0.99), "ms"},
        {"trace.overhead_frac",
         c.clock_reads * clock_read_ns() / 1000.0 / std::max(1e-9, c.wall_us), "frac"},
    };
    res.metrics.insert(res.metrics.end(), tail.begin(), tail.end());
    std::fprintf(stderr,
                 "bench_ledger: %s: server %.1f us/job; snapshot share %.0f%%; "
                 "replayed %zu jobs\n",
                 name.c_str(), cpu_us_per_job,
                 100.0 * c.ckpts_per_job * c.ckpt_save_us / std::max(1e-9, cpu_us_per_job),
                 c.jobs);
  }

  finish(*daemon, *gen, res);
  const Tally t = gen->tally();
  if (t.failed != 0) res.problems.push_back("jobs: " + gen->first_failure());
  std::filesystem::remove_all(journal);
  res.correct = res.problems.empty();
  return res;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  const Options o = parse(argc, argv);
  if (!o.replay_in.empty()) return replay_main(o.replay_in, o.replay_out, o.tmp);
  install_kill_on_signal();
  std::filesystem::create_directories(o.out);
  std::filesystem::create_directories(o.tmp);

  Result total;
  std::string metrics_json;
  const bool single = o.workloads.size() == 1;
  for (const std::string& name : o.workloads) {
    TraceLog trace(Clock::now());
    Result r;
    try {
      r = run_workload(o, name, trace);
    } catch (const std::exception& e) {
      r.correct = false;
      r.problems.push_back(e.what());
    }
    for (const std::string& p : r.problems) {
      std::fprintf(stderr, "bench_ledger: %s: FAIL %s\n", name.c_str(), p.c_str());
    }
    if (o.trace && r.correct) {
      const std::string path = o.out + "/" + name + ".trace.jsonl";
      if (!trace.write(path)) {
        r.correct = false;
        std::fprintf(stderr, "bench_ledger: cannot write %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "bench_ledger: %zu spans in %s\n", trace.spans().size(),
                     path.c_str());
      }
    }
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    for (const Metric& m : r.metrics) {
      std::printf("%s %s %.6g %s\n", name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
      const std::string key = single ? m.name : name + "." + m.name;
      metrics_json += std::string(metrics_json.empty() ? "" : ", ") + "\"" +
                      key + "\": {\"value\": " + json_number(m.value) +
                      ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  const std::string line =
      std::string("{\"correct\": ") + (total.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(total.attempted, 1)) +
      ", \"failed\": " + std::to_string(total.failed) + ", \"metrics\": {" +
      metrics_json + "}}";
  const std::string summary = o.out + "/ledger-" +
                              (single ? o.workloads.front() : "all") + "-s" +
                              std::to_string(o.seed) +
                              (o.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(summary.c_str(), "w")) {
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  return total.correct ? 0 : 1;
}
