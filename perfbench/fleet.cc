#include "fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "stats.h"

namespace perfbench {

using influmax::Result;
using influmax::Status;

namespace {

void CloseFd(int* fd) {
  if (*fd >= 0) ::close(*fd);
  *fd = -1;
}

/// Parses "key=value" out of a whitespace-separated line; -1 if absent.
long long FieldOf(const std::string& line, const std::string& key) {
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token.rfind(key + "=", 0) == 0) {
      return std::stoll(token.substr(key.size() + 1));
    }
  }
  return -1;
}

}  // namespace

std::uint64_t PeakRssOf(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
    }
  }
  return 0;
}

Result<std::unique_ptr<ServerFleet>> ServerFleet::Start(
    const std::string& server_bin, const std::string& dir,
    std::size_t num_shards, int timeout_ms) {
  std::unique_ptr<ServerFleet> fleet(new ServerFleet());
  for (std::size_t i = 0; i < num_shards; ++i) {
    // argv is built before fork: the child may only make
    // async-signal-safe calls until exec.
    std::vector<std::string> args = {server_bin, "--dir=" + dir,
                                     "--shard=" + std::to_string(i),
                                     "--port=0", "--metrics_port=-1"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int in_pipe[2];
    int out_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
      return Status::IoError("pipe: " + std::string(std::strerror(errno)));
    }
    if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      return Status::IoError("pipe: " + std::string(std::strerror(errno)));
    }
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
        ::close(fd);
      }
      return Status::IoError("fork: " + std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    Child child;
    child.pid = pid;
    child.stdin_fd = in_pipe[1];
    child.stdout_fd = out_pipe[0];
    fleet->children_.push_back(child);
  }
  for (Child& child : fleet->children_) {
    std::string line;
    if (!fleet->ReadLine(child, timeout_ms, &line)) {
      return Status::Unavailable("shard_server pid " +
                                 std::to_string(child.pid) +
                                 " did not report a port");
    }
    const long long port = FieldOf(line, "port");
    if (port <= 0) {
      return Status::Unavailable("unexpected shard_server banner: " + line);
    }
    child.port = static_cast<int>(port);
  }
  return fleet;
}

ServerFleet::~ServerFleet() { Stop(); }

bool ServerFleet::ReadLine(Child& child, int timeout_ms, std::string* line) {
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(timeout_ms) * 1000000ull;
  while (true) {
    const std::size_t nl = child.pending.find('\n');
    if (nl != std::string::npos) {
      *line = child.pending.substr(0, nl);
      child.pending.erase(0, nl + 1);
      return true;
    }
    const std::uint64_t now = NowNs();
    if (now >= deadline || child.stdout_fd < 0) return false;
    pollfd pfd{child.stdout_fd, POLLIN, 0};
    const int wait_ms = static_cast<int>((deadline - now) / 1000000ull) + 1;
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(child.stdout_fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    child.pending.append(buf, static_cast<std::size_t>(n));
  }
}

std::string ServerFleet::EndpointSpec() const {
  std::string spec;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i != 0) spec += ',';
    spec += "127.0.0.1:" + std::to_string(children_[i].port);
  }
  return spec;
}

std::uint64_t ServerFleet::PeakRssBytes() const {
  std::uint64_t peak = 0;
  for (const Child& child : children_) {
    if (child.pid > 0) peak = std::max(peak, PeakRssOf(child.pid));
  }
  return peak;
}

std::int64_t ServerFleet::RejectedTotal() {
  std::int64_t total = 0;
  for (Child& child : children_) {
    static constexpr char kStats[] = "stats\n";
    if (child.stdin_fd < 0 ||
        ::write(child.stdin_fd, kStats, sizeof(kStats) - 1) !=
            static_cast<ssize_t>(sizeof(kStats) - 1)) {
      return -1;
    }
    std::string line;
    if (!ReadLine(child, 5000, &line)) return -1;
    const long long rejected = FieldOf(line, "rejected");
    if (rejected < 0) return -1;
    total += rejected;
  }
  return total;
}

void ServerFleet::Stop(int timeout_ms) {
  for (Child& child : children_) CloseFd(&child.stdin_fd);
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(timeout_ms) * 1000000ull;
  for (Child& child : children_) {
    while (child.pid > 0) {
      const pid_t done = ::waitpid(child.pid, nullptr, WNOHANG);
      if (done == child.pid || (done < 0 && errno != EINTR)) {
        child.pid = -1;
        break;
      }
      if (NowNs() >= deadline) {
        ::kill(child.pid, SIGKILL);
        while (::waitpid(child.pid, nullptr, 0) < 0 && errno == EINTR) {
        }
        child.pid = -1;
        break;
      }
      ::usleep(2000);
    }
    CloseFd(&child.stdout_fd);
  }
}

}  // namespace perfbench
