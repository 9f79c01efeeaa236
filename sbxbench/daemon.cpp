#include "daemon.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "bench_util.h"
#include "serve/protocol.h"
#include "util/error.h"

extern char** environ;

namespace sbxbench {
namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Opens and connects a unix socket; -1 (errno set) on failure.
int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw sbx::IoError(errno_text("sbxbench: send"));
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void read_all(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n == 0) throw sbx::IoError("sbxbench: daemon closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw sbx::IoError(errno_text("sbxbench: recv"));
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

}  // namespace

ProcSample sample_process(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  ProcSample out;
  const long long ticks = parse_stat_cpu_ticks(read_text_file(dir + "/stat"));
  const long hz = ::sysconf(_SC_CLK_TCK);
  out.cpu_us = ticks < 0 ? 0 : static_cast<double>(ticks) * 1e6 /
                                   static_cast<double>(hz);
  const std::string status = read_text_file(dir + "/status");
  out.rss_kb = parse_status_kb(status, "VmRSS");
  out.hwm_kb = parse_status_kb(status, "VmHWM");
  return out;
}

double process_cpu_us() { return sample_process(::getpid()).cpu_us; }

Connection::Connection(const std::string& socket_path) {
  fd_ = connect_unix(socket_path);
  if (fd_ < 0) throw sbx::IoError(errno_text("sbxbench: connect"));
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::round_trip(const std::vector<std::uint8_t>& frame,
                            std::vector<std::uint8_t>& payload) {
  write_all(fd_, frame.data(), frame.size());
  std::uint8_t prefix[4];
  read_all(fd_, prefix, sizeof(prefix));
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len > sbx::serve::kMaxFrameBytes) {
    throw sbx::IoError("sbxbench: oversized response frame");
  }
  payload.resize(len);
  read_all(fd_, payload.data(), len);
}

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& socket_path, const std::string& log_path)
    : socket_path_(socket_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const auto spawned = Clock::now();
  const int rc = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw sbx::IoError("sbxbench: cannot spawn " + exe + ": " +
                       std::strerror(rc));
  }

  try {
    wait_ready(spawned, log_path);
  } catch (...) {
    kill_and_reap();
    throw;
  }
}

void Daemon::wait_ready(Clock::time_point spawned,
                        const std::string& log_path) {
  const std::vector<std::uint8_t> stats =
      sbx::serve::encode_frame(sbx::serve::Request(sbx::serve::StatsRequest{}));
  std::vector<std::uint8_t> payload;
  while (true) {
    const int fd = connect_unix(socket_path_);
    if (fd >= 0) {
      ::close(fd);
      Connection conn(socket_path_);
      conn.round_trip(stats, payload);
      setup_seconds_ = seconds_between(spawned, Clock::now());
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw sbx::IoError("sbxbench: daemon exited during start-up (see " +
                         log_path + ")");
    }
    if (seconds_between(spawned, Clock::now()) > 60) {
      throw sbx::IoError("sbxbench: daemon not ready after 60 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void Daemon::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

Daemon::~Daemon() { kill_and_reap(); }

int Daemon::shutdown() {
  if (pid_ <= 0) return -1;
  {
    Connection conn(socket_path_);
    std::vector<std::uint8_t> payload;
    conn.round_trip(sbx::serve::encode_frame(
                        sbx::serve::Request(sbx::serve::ShutdownRequest{})),
                    payload);
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) throw sbx::IoError(errno_text("sbxbench: waitpid"));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace sbxbench
