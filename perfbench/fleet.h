#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

// A set of shard_server child processes on loopback, one per shard of a
// generation directory. Every child is stopped and reaped by Stop() or
// the destructor, on success and failure paths alike; a child also dies
// with the benchmark process (parent-death signal, and EOF on its stdin).

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class ServerFleet {
 public:
  /// Spawns `num_shards` `server_bin --dir=D --shard=i --port=0` children
  /// and waits (up to `timeout_ms`) for each to print its listening port.
  static influmax::Result<std::unique_ptr<ServerFleet>> Start(
      const std::string& server_bin, const std::string& dir,
      std::size_t num_shards, int timeout_ms = 20000);

  ~ServerFleet();

  ServerFleet(const ServerFleet&) = delete;
  ServerFleet& operator=(const ServerFleet&) = delete;

  /// "127.0.0.1:P0,127.0.0.1:P1,..." in shard order.
  std::string EndpointSpec() const;

  /// Largest VmHWM among the live children, in bytes.
  std::uint64_t PeakRssBytes() const;

  /// Sum of the children's net.server.rejected counters, read through
  /// each child's `stats` command. -1 when a child did not answer.
  std::int64_t RejectedTotal();

  /// Closes every child's stdin (a clean shutdown), waits up to
  /// `timeout_ms`, then kills and reaps whatever is left. Idempotent.
  void Stop(int timeout_ms = 5000);

 private:
  struct Child {
    pid_t pid = -1;
    int stdin_fd = -1;
    int stdout_fd = -1;
    int port = 0;
    std::string pending;  // stdout bytes read past the last line
  };

  ServerFleet() = default;

  /// Reads one '\n'-terminated line from the child's stdout.
  bool ReadLine(Child& child, int timeout_ms, std::string* line);

  std::vector<Child> children_;
};

/// VmHWM of process `pid` (0 = this process) in bytes; 0 if unreadable.
std::uint64_t PeakRssOf(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
