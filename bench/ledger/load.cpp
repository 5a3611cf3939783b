#include "load.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <functional>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "serve/net/client.hpp"
#include "serve/net/socket.hpp"

namespace ledger {

namespace net = tangled::serve::net;
using net::Frame;
using net::MsgType;

namespace {

// A reply that takes this long means the daemon is wedged: fail the run.
constexpr auto kReplyTimeout = std::chrono::seconds(30);
// Resubmits pick among keys at least this old (by due time), so in a normal
// run every candidate has long been reported and the choice depends on the
// seed alone.
constexpr auto kResubmitAge = std::chrono::milliseconds(200);

}  // namespace

struct Generator::Phase {
  bool warm = false;
  std::vector<std::vector<std::uint32_t>> warm_lists;  // per connection
  Clock::time_point start, end;
  // Measured phase: connection 0 calls at_mark once each mark has passed.
  std::vector<Clock::time_point> marks;
  std::size_t next_mark = 0;
  std::function<void()> at_mark;
};

class Generator::Connection {
 public:
  Connection(const Workload& w, unsigned index, std::uint64_t seed,
             std::uint16_t port)
      : w_(w), index_(index), seed_(seed), rng_(seed * 0x9e3779b97f4a7c15ULL + index) {
    std::string err;
    sock_ = net::connect_tcp("127.0.0.1", port, std::chrono::seconds(5), &err);
    if (!sock_.valid()) throw std::runtime_error("connect failed: " + err);
  }

  void drive(Phase& ph) {
    const std::vector<std::uint32_t> none;
    const std::vector<std::uint32_t>& warm =
        ph.warm ? ph.warm_lists[index_] : none;
    std::size_t warm_pos = 0;

    // Open loop: this connection's share of the Poisson arrivals.
    std::exponential_distribution<double> gap(
        w_.open_loop ? w_.rate_per_s / static_cast<double>(w_.connections)
                     : 1.0);
    const auto draw_gap = [&] {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng_)));
    };
    Clock::time_point next_due{};
    if (w_.open_loop) next_due = Clock::now() + draw_gap();

    const bool marking = index_ == 0;
    const auto marks_left = [&] {
      return marking && ph.next_mark < ph.marks.size();
    };
    for (;;) {
      const auto now = Clock::now();
      while (marks_left() && now >= ph.marks[ph.next_mark]) {
        ph.at_mark();
        ++ph.next_mark;
      }
      while (!retries_.empty() && now >= retries_.begin()->first) {
        const std::uint32_t idx = retries_.begin()->second;
        submit(idx, {spec_of(records[idx])});
        retries_.erase(retries_.begin());
      }
      const bool stopping =
          ph.warm ? warm_pos >= warm.size()
                  : (w_.open_loop ? next_due >= ph.end : now >= ph.end);
      if (!stopping) {
        if (w_.open_loop) {
          if (now >= next_due) {
            send_jobs(1, next_due, ph, warm, &warm_pos);
            next_due += draw_gap();
            continue;
          }
        } else if (w_.window - inflight_ >= w_.refill_at) {
          std::size_t n = std::min<std::size_t>(w_.window - inflight_, w_.batch_max);
          if (ph.warm) n = std::min(n, warm.size() - warm_pos);
          send_jobs(static_cast<unsigned>(n), now, ph, warm, &warm_pos);
          continue;
        }
      } else if (inflight_ == 0 && awaiting_.empty() && !marks_left()) {
        return;
      }
      // Sleep until a reply, the next arrival (open loop), the next mark or
      // the next resend.
      const bool pacing = w_.open_loop && !stopping;
      Clock::time_point until = pacing ? next_due : now + kReplyTimeout;
      bool timed_wake = pacing;
      if (marks_left() && ph.marks[ph.next_mark] < until) {
        until = ph.marks[ph.next_mark];
        timed_wake = true;
      }
      if (!retries_.empty() && retries_.begin()->first < until) {
        until = retries_.begin()->first;
        timed_wake = true;
      }
      if (!readable_by(until)) {
        if (timed_wake) continue;
        throw std::runtime_error("no reply from the daemon within 30 s");
      }
      receive();
    }
  }

  net::StatsOk stats_sync() {
    net::StatsOk s;
    request_stats(&s);
    while (!awaiting_.empty()) {
      if (!readable_by(Clock::now() + kReplyTimeout)) {
        throw std::runtime_error("no stats reply within 30 s");
      }
      receive();
    }
    return s;
  }

  void close() { sock_.close(); }

  std::deque<JobRecord> records;
  std::vector<RoundTrip> trips;
  Tally tally;
  std::string first_failure;

  JobSpec spec_of(const JobRecord& r) const {
    JobSpec s = w_.classes[r.cls].spec;
    if (w_.keyed) {
      s.idempotency_key = std::to_string(seed_);
      s.idempotency_key += '-';
      s.idempotency_key += std::to_string(index_);
      s.idempotency_key += '-';
      s.idempotency_key += std::to_string(r.key);
    }
    return s;
  }

 private:
  struct Await {
    MsgType request;
    std::uint32_t first = 0;  // record index of the frame's first job
    std::uint32_t count = 0;
    std::size_t trip = 0;
    net::StatsOk* stats = nullptr;
  };

  /// Fill one record: warm-up lists are fixed; measured draws come from the
  /// seeded generator, a fixed number of draws per job.
  void draw(JobRecord& r, const Phase& ph,
            const std::vector<std::uint32_t>& warm, std::size_t* warm_pos) {
    if (ph.warm) {
      r.cls = warm[(*warm_pos)++];
    } else {
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      const double c = coin(rng_);
      const double pick = coin(rng_);
      // Fresh keyed jobs due long enough ago to have been reported.
      while (old_keys_ < fresh_keys_.size() &&
             records[fresh_keys_[old_keys_]].due + kResubmitAge <= r.due) {
        ++old_keys_;
      }
      // A key whose report has not arrived (a stall outlasting the age
      // above) is still live in the daemon, which would answer with the
      // original job instead of a stored report: take the nearest older
      // reported key, or send a fresh job.
      // `at` counts candidates: fresh_keys_[at - 1] is the chosen one.
      auto at = std::min(static_cast<std::size_t>(
                             pick * static_cast<double>(old_keys_)) + 1,
                         old_keys_);
      while (at > 0 &&
             records[fresh_keys_[at - 1]].state != JobRecord::State::kDone) {
        --at;
      }
      if (c < w_.resubmit_frac && at > 0) {
        const JobRecord& orig = records[fresh_keys_[at - 1]];
        r.cls = orig.cls;
        r.key = orig.key;
        r.resubmit = true;
        return;
      }
      r.cls = static_cast<std::uint32_t>(
          pick * static_cast<double>(w_.classes.size()));
      r.cls = std::min<std::uint32_t>(
          r.cls, static_cast<std::uint32_t>(w_.classes.size() - 1));
    }
    if (w_.keyed) {
      r.key = next_key_++;
      fresh_keys_.push_back(static_cast<std::uint32_t>(records.size()));
    }
  }

  void send_jobs(unsigned n, Clock::time_point due, const Phase& ph,
                 const std::vector<std::uint32_t>& warm,
                 std::size_t* warm_pos) {
    const auto first = static_cast<std::uint32_t>(records.size());
    std::vector<JobSpec> specs;
    specs.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      JobRecord r;
      r.conn = static_cast<std::uint8_t>(index_);
      r.due = due;
      r.measured = !ph.warm && due >= ph.start && due < ph.end;
      draw(r, ph, warm, warm_pos);
      records.push_back(r);
      specs.push_back(spec_of(records.back()));
    }
    inflight_ += n;
    submit(first, std::move(specs));
  }

  /// Send `specs` (records first, first + 1, ...) as the workload's
  /// frames: one kSubmitBatch, or one kSubmit per job.
  void submit(std::uint32_t first, std::vector<JobSpec> specs) {
    const auto n = static_cast<std::uint32_t>(specs.size());
    tally.attempted += n;
    if (w_.batch_frames) {
      net::SubmitBatchRequest req;
      req.jobs = std::move(specs);
      send(MsgType::kSubmitBatch, req, Await{MsgType::kSubmitBatch, first, n});
    } else {
      for (std::uint32_t i = 0; i < n; ++i) {
        send(MsgType::kSubmit, net::SubmitRequest{specs[i]},
             Await{MsgType::kSubmit, first + i, 1});
      }
    }
  }

  template <typename Msg>
  void send(MsgType type, const Msg& msg, Await a) {
    pbp::ByteWriter w;
    msg.encode(w);
    a.trip = trips.size();
    const auto now = Clock::now();
    trips.push_back(RoundTrip{now, {}, a.count});
    for (std::uint32_t i = 0; i < a.count; ++i) records[a.first + i].sent = now;
    awaiting_.push_back(a);
    if (!net::send_frame(sock_.fd(), type, w.bytes(), std::chrono::seconds(10))) {
      throw std::runtime_error("send to the daemon failed");
    }
  }

  void request_stats(net::StatsOk* out) {
    struct Empty {
      void encode(pbp::ByteWriter&) const {}
    };
    Await a{MsgType::kStats};
    a.stats = out;
    send(MsgType::kStats, Empty{}, a);
  }

  bool readable_by(Clock::time_point until) {
    const auto left = std::max(Clock::duration::zero(), until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
    pollfd p{sock_.fd(), POLLIN, 0};
    int r = 0;
    do {
      r = ::ppoll(&p, 1, &ts, nullptr);
    } while (r < 0 && errno == EINTR);
    return r > 0;
  }

  Await pop(MsgType request, const char* reply) {
    if (awaiting_.empty() || awaiting_.front().request != request) {
      throw std::runtime_error(std::string("unexpected ") + reply + " reply");
    }
    Await a = awaiting_.front();
    awaiting_.pop_front();
    trips[a.trip].answered = Clock::now();
    return a;
  }

  void receive() {
    Frame f;
    const net::FrameLimits limits{net::kDefaultMaxFrameBytes,
                                  std::chrono::seconds(10),
                                  std::chrono::seconds(10)};
    const net::RecvStatus st = net::recv_frame(sock_.fd(), limits, &f);
    if (st != net::RecvStatus::kOk) {
      throw std::runtime_error(std::string("receive failed: ") +
                               net::recv_status_name(st));
    }
    const auto now = Clock::now();
    pbp::ByteReader r(f.payload);
    switch (f.type) {
      case MsgType::kReport:
        on_report(net::decode_report(r), now);
        break;
      case MsgType::kReportBatch:
        for (JobReport& rep : net::ReportBatch::decode(r).reports) {
          on_report(rep, now);
        }
        break;
      case MsgType::kSubmitOk: {
        const Await a = pop(MsgType::kSubmit, "submit");
        admit(a.first, net::SubmitOk::decode(r).id, now);
        break;
      }
      case MsgType::kRetryAfter: {
        const Await a = pop(MsgType::kSubmit, "retry-after");
        shed(a.first, net::RetryAfter::decode(r).delay_ms, now);
        break;
      }
      case MsgType::kSubmitBatchOk: {
        const Await a = pop(MsgType::kSubmitBatch, "batch");
        const net::SubmitBatchOk ok = net::SubmitBatchOk::decode(r);
        if (ok.items.size() != a.count) {
          throw std::runtime_error("batch reply item count mismatch");
        }
        for (std::uint32_t i = 0; i < a.count; ++i) {
          const auto& item = ok.items[i];
          if (item.status == net::SubmitBatchOk::Status::kAdmitted) {
            admit(a.first + i, item.id, now);
          } else if (item.status == net::SubmitBatchOk::Status::kRetry) {
            shed(a.first + i, item.delay_ms, now);
          } else {
            rejected(a.first + i, "not admitted: " + item.message);
          }
        }
        break;
      }
      case MsgType::kError: {
        const net::ErrorReply e = net::ErrorReply::decode(r);
        if (awaiting_.empty() || awaiting_.front().request == MsgType::kStats) {
          throw std::runtime_error("daemon error: " + e.message);
        }
        const Await a = pop(awaiting_.front().request, "error");
        for (std::uint32_t i = 0; i < a.count; ++i) {
          rejected(a.first + i, "rejected: " + e.message);
        }
        break;
      }
      case MsgType::kStatsOk: {
        const Await a = pop(MsgType::kStats, "stats");
        *a.stats = net::StatsOk::decode(r);
        break;
      }
      default:
        throw std::runtime_error(std::string("unexpected frame ") +
                                 net::msg_type_name(f.type));
    }
  }

  void admit(std::uint32_t idx, std::uint64_t id, Clock::time_point now) {
    JobRecord& rec = records[idx];
    rec.state = JobRecord::State::kAdmitted;
    rec.acked = now;
    rec.id = id;
    ++tally.admitted;
    if (!by_id_.emplace(id, idx).second) {
      // The daemon handed out a live job's id again (a resubmitted key that
      // was not yet reported): this record gets no report of its own.
      --inflight_;
      fail("admitted as live job " + std::to_string(id) + " again");
      return;
    }
    if (const auto it = early_.find(id); it != early_.end()) {
      const JobReport rep = std::move(it->second);
      early_.erase(it);
      on_report(rep, now);
    }
  }

  /// RETRY_AFTER: the job was not admitted, so resending it cannot run it
  /// twice.  Like the repository's client, resend after the hinted delay,
  /// and give up after as many sheds as that client absorbs.
  void shed(std::uint32_t idx, std::uint32_t delay_ms, Clock::time_point now) {
    JobRecord& rec = records[idx];
    ++tally.shed;
    if (++rec.sheds > net::ServeClientConfig{}.submit_retries) {
      rec.state = JobRecord::State::kShed;
      --inflight_;
      fail("shed " + std::to_string(rec.sheds) + " times (RETRY_AFTER)");
      return;
    }
    retries_.emplace(now + std::chrono::milliseconds(delay_ms), idx);
  }

  void rejected(std::uint32_t idx, const std::string& why) {
    records[idx].state = JobRecord::State::kRejected;
    ++tally.rejected;
    --inflight_;
    fail(why);
  }



  void on_report(const JobReport& rep, Clock::time_point now) {
    const auto it = by_id_.find(rep.id);
    if (it == by_id_.end()) {
      // The report overtook its admission reply; match it up later.
      early_.emplace(rep.id, rep);
      return;
    }
    JobRecord& rec = records[it->second];
    by_id_.erase(it);
    rec.state = JobRecord::State::kDone;
    rec.reported = now;
    rec.queue_ms = rep.queue_ms;
    rec.exec_ms = rep.exec_ms;
    rec.instructions = rep.deduped ? 0 : rep.instructions;
    --inflight_;
    ++tally.reports;
    if (rep.outcome == tangled::serve::JobOutcome::kCompleted) ++tally.completed;
    if (rep.deduped) ++tally.deduped;
    const std::string why = check_report(rep, w_.classes[rec.cls], rec.resubmit);
    rec.ok = why.empty();
    if (!rec.ok) fail(why);
  }

  void fail(const std::string& why) {
    ++tally.failed;
    if (first_failure.empty()) first_failure = why;
  }

  const Workload& w_;
  unsigned index_;
  std::uint64_t seed_;
  std::mt19937_64 rng_;
  tangled::serve::net::Socket sock_;
  std::deque<Await> awaiting_;
  std::unordered_map<std::uint64_t, std::uint32_t> by_id_;
  std::unordered_map<std::uint64_t, JobReport> early_;
  std::multimap<Clock::time_point, std::uint32_t> retries_;  // shed jobs
  std::size_t inflight_ = 0;
  std::uint32_t next_key_ = 0;
  std::vector<std::uint32_t> fresh_keys_;  // records of fresh keyed jobs
  std::size_t old_keys_ = 0;  // prefix of fresh_keys_ old enough to resubmit
};

Generator::Generator(const Workload& w, std::uint16_t port, std::uint64_t seed)
    : w_(w), seed_(seed) {
  for (unsigned i = 0; i < w.connections; ++i) {
    conns_.push_back(std::make_unique<Connection>(w, i, seed, port));
  }
}

Generator::~Generator() = default;

void Generator::run_phase(Phase& phase) {
  // One thread per connection: connection 0 runs on the calling thread.
  std::exception_ptr err1;
  std::thread second;
  if (conns_.size() > 1) {
    second = std::thread([&] {
      try {
        conns_[1]->drive(phase);
      } catch (...) {
        err1 = std::current_exception();
      }
    });
  }
  std::exception_ptr err0;
  try {
    conns_[0]->drive(phase);
  } catch (...) {
    err0 = std::current_exception();
  }
  if (second.joinable()) second.join();
  if (err0) std::rethrow_exception(err0);
  if (err1) std::rethrow_exception(err1);
}

void Generator::warm_up(unsigned rounds) {
  Phase ph;
  ph.warm = true;
  ph.warm_lists.resize(conns_.size());
  // Every class `rounds` times, shuffled by the seed, dealt round-robin.
  std::vector<std::uint32_t> all;
  for (unsigned r = 0; r < rounds; ++r) {
    for (std::uint32_t c = 0; c < w_.classes.size(); ++c) all.push_back(c);
  }
  std::mt19937_64 rng(seed_ ^ 0x5a5a5a5aULL);
  std::shuffle(all.begin(), all.end(), rng);
  for (std::size_t i = 0; i < all.size(); ++i) {
    ph.warm_lists[i % conns_.size()].push_back(all[i]);
  }
  ph.start = ph.end = Clock::now();
  run_phase(ph);
}

Generator::Window Generator::measure(std::chrono::nanoseconds duration,
                                     unsigned slices,
                                     std::function<void()> at_mark) {
  Phase ph;
  ph.start = Clock::now();
  const auto span = std::chrono::duration_cast<Clock::duration>(duration);
  ph.end = ph.start + span;
  for (unsigned i = 0; i <= slices; ++i) {
    ph.marks.push_back(ph.start + span * i / slices);
  }
  ph.at_mark = std::move(at_mark);
  run_phase(ph);
  return Window{ph.start, ph.end};
}

tangled::serve::net::StatsOk Generator::stats() {
  return conns_[0]->stats_sync();
}

void Generator::close() {
  for (auto& c : conns_) c->close();
}

Tally Generator::tally() const {
  Tally t;
  for (const auto& c : conns_) {
    t.attempted += c->tally.attempted;
    t.admitted += c->tally.admitted;
    t.completed += c->tally.completed;
    t.deduped += c->tally.deduped;
    t.reports += c->tally.reports;
    t.shed += c->tally.shed;
    t.rejected += c->tally.rejected;
    t.failed += c->tally.failed;
  }
  return t;
}

std::vector<const JobRecord*> Generator::records() const {
  std::vector<const JobRecord*> out;
  for (const auto& c : conns_) {
    for (const JobRecord& r : c->records) out.push_back(&r);
  }
  return out;
}

std::vector<RoundTrip> Generator::round_trips() const {
  std::vector<RoundTrip> out;
  for (const auto& c : conns_) {
    out.insert(out.end(), c->trips.begin(), c->trips.end());
  }
  return out;
}

std::string Generator::first_failure() const {
  for (const auto& c : conns_) {
    if (!c->first_failure.empty()) return c->first_failure;
  }
  return {};
}

JobSpec Generator::spec_of(const JobRecord& r) const {
  return conns_.at(r.conn)->spec_of(r);
}

}  // namespace ledger
