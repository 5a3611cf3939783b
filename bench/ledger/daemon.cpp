#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace ledger {

namespace {

using Clock = std::chrono::steady_clock;

// The one live child, for the signal handler (lock-free, so signal-safe).
std::atomic<pid_t> g_live_pid{-1};
static_assert(std::atomic<pid_t>::is_always_lock_free);

extern "C" void kill_child_and_exit(int) {
  const pid_t pid = g_live_pid.load();
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  ::_exit(143);
}

/// Read what is available on `fd` into `out` until `until`; false on EOF.
bool read_some(int fd, std::string* out, Clock::time_point until) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      until - Clock::now());
  pollfd p{fd, POLLIN, 0};
  const int r = ::poll(&p, 1, static_cast<int>(std::max<long>(0, left.count())));
  if (r <= 0) return true;  // timeout (or EINTR): caller re-checks its clock
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  if (n == 0) return false;
  if (n > 0) out->append(buf, static_cast<std::size_t>(n));
  return n > 0 || errno == EINTR || errno == EAGAIN;
}

/// fork + exec `argv` with its stdout on `out_fd`; the child gets SIGKILL
/// if this process dies, and becomes the one the signal handler kills.
pid_t spawn(const std::vector<std::string>& args, int out_fd) {
  std::vector<std::string> all = args;
  std::vector<char*> argv;
  for (std::string& a : all) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Child: async-signal-safe calls only until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out_fd, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  g_live_pid.store(pid);
  return pid;
}

void kill_and_reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  g_live_pid.store(-1);
}

}  // namespace

int run_child(const std::vector<std::string>& argv,
              std::chrono::milliseconds timeout) {
  // The child's stdout goes to our stderr: the last line of our stdout is
  // the result line.
  const pid_t pid = spawn(argv, STDERR_FILENO);
  const auto until = Clock::now() + timeout;
  while (Clock::now() < until) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      g_live_pid.store(-1);
      return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill_and_reap(pid);
  return -1;
}

void install_kill_on_signal() {
  struct sigaction sa {};
  sa.sa_handler = kill_child_and_exit;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               std::chrono::milliseconds ready_timeout) {
  std::vector<std::string> argv{exe};
  argv.insert(argv.end(), args.begin(), args.end());
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("daemon: pipe failed");
  }
  try {
    pid_ = spawn(argv, fds[1]);
  } catch (...) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw;
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (::clock_getcpuclockid(pid_, &cpu_clock_) != 0) {
    kill_and_reap();
    throw std::runtime_error("daemon: no CPU clock for the child");
  }

  const std::string marker = "listening on 127.0.0.1:";
  const auto until = Clock::now() + ready_timeout;
  while (Clock::now() < until) {
    const auto at = banner_.find(marker);
    if (at != std::string::npos) {
      const auto eol = banner_.find('\n', at);
      if (eol != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::atoi(banner_.c_str() + at + marker.size()));
        break;
      }
    }
    if (!read_some(out_fd_, &banner_, until)) break;
  }
  if (port_ == 0) {
    kill_and_reap();
    throw std::runtime_error("daemon: " + exe +
                             " did not report a listening port; stdout: " +
                             banner_);
  }
}

Daemon::~Daemon() { kill_and_reap(); }

void Daemon::kill_and_reap() {
  if (pid_ > 0) {
    ledger::kill_and_reap(pid_);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

double Daemon::cpu_seconds() const {
  timespec ts{};
  if (::clock_gettime(cpu_clock_, &ts) != 0) {
    throw std::runtime_error("daemon: cannot read its CPU clock");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Daemon::peak_rss_mib() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("daemon: no VmHWM in /proc status");
}

Daemon::Exit Daemon::drain(std::chrono::milliseconds timeout) {
  Exit e;
  if (pid_ <= 0) return e;
  ::kill(pid_, SIGTERM);
  const auto until = Clock::now() + timeout;
  std::string out = banner_.substr(banner_.find('\n') + 1);
  while (Clock::now() < until && read_some(out_fd_, &out, until)) {
  }
  while (Clock::now() < until) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      e.exited = true;
      e.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      g_live_pid.store(-1);
      pid_ = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  e.output = std::move(out);
  kill_and_reap();  // no-op when it exited; otherwise the timeout path
  return e;
}

}  // namespace ledger
