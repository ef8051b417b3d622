// Shard-serving daemon (docs/networking.md): one process serving one
// action-range shard (or a whole generation) of a sharded generation
// directory over the length-prefixed TCP wire protocol, plus an
// optional HTTP /metrics endpoint.
//
//   shard_server --dir=D [--shard=N] [--port=0] [--metrics_port=-1]
//       [--max_sessions=64] [--recover] [--failpoints=name=spec;...]
//
// --port=0 picks an ephemeral port; the chosen ports are printed as the
// first stdout line (`listening port=... metrics_port=... generation=...
// actions=[b,e)`) so scripts and tests can scrape them. --shard=-1
// (default) serves every shard of the generation — the single-process
// fallback; a scale-out deployment runs one process per shard and a
// RemoteShardRouter (serve_shards --connect) fans each query out to
// them and folds their gain terms in range order.
//
// The daemon then reads commands from stdin (EOF stops the server —
// killing the parent pipe is a clean shutdown):
//   refresh           pick up a new CURRENT generation (rolling swap);
//                     existing connections stay pinned, clients re-pin
//                     on their next reconnect
//   stats             generation, ports, live sessions, request counters
//   metrics [prom]    registry table / Prometheus text on stdout
//   failpoint list | arm NAME SPEC | disarm NAME|all
//   stop | quit
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "common/failpoint.h"
#include "common/flags.h"
#include "net/shard_server.h"
#include "obs/metrics.h"
#include "obs/prom_text.h"
#include "serve_common.h"

namespace influmax {
namespace {

void HandleFailpointCommand(std::istringstream& in) {
  std::string verb;
  in >> verb;
  if (verb == "list") {
    const auto names = FailpointCatalog();
    if (!FailpointsCompiledIn()) {
      std::printf("! failpoints are compiled out "
                  "(build with -DINFLUMAX_FAILPOINTS=ON)\n");
    } else if (names.empty()) {
      std::printf("# no failpoints armed or evaluated yet\n");
    }
    for (const std::string& name : names) {
      std::printf("%s\ttrips=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(FailpointTripCount(name)));
    }
  } else if (verb == "arm") {
    std::string name;
    std::string spec_text;
    in >> name >> spec_text;
    if (name.empty() || spec_text.empty()) {
      std::printf("! usage: failpoint arm NAME SPEC (e.g. torn:40@1#2)\n");
      return;
    }
    auto spec = ParseFailpointSpec(spec_text);
    if (!spec.ok()) {
      std::printf("! %s\n", spec.status().ToString().c_str());
      return;
    }
    if (Status status = ArmFailpoint(name, *spec); !status.ok()) {
      std::printf("! %s\n", status.ToString().c_str());
      return;
    }
    std::printf("# armed %s=%s\n", name.c_str(), spec_text.c_str());
  } else if (verb == "disarm") {
    std::string name;
    in >> name;
    if (name == "all") {
      DisarmAllFailpoints();
      std::printf("# all failpoints disarmed\n");
    } else if (!name.empty()) {
      DisarmFailpoint(name);
      std::printf("# disarmed %s\n", name.c_str());
    } else {
      std::printf("! usage: failpoint disarm NAME|all\n");
    }
  } else {
    std::printf("! usage: failpoint list | arm NAME SPEC | disarm NAME|all\n");
  }
}

int Main(int argc, char** argv) {
  std::string dir;
  std::string failpoints_spec;
  int shard = -1;
  int port = 0;
  int metrics_port = -1;
  int max_sessions = 64;
  bool recover = false;
  FlagParser flags;
  flags.AddString("dir", &dir, "sharded generation directory");
  flags.AddInt("shard", &shard,
               "shard index to serve (-1 = the whole generation)");
  flags.AddInt("port", &port, "RPC port (0 = ephemeral, printed on stdout)");
  flags.AddInt("metrics_port", &metrics_port,
               "HTTP /metrics + /healthz port (-1 = disabled, 0 = ephemeral)");
  flags.AddInt("max_sessions", &max_sessions,
               "concurrent pinned client sessions before refusing hellos");
  flags.AddBool("recover", &recover,
                "run crash recovery on --dir before opening");
  flags.AddString("failpoints", &failpoints_spec,
                  "arm failpoints: name=spec;... (needs an "
                  "INFLUMAX_FAILPOINTS build)");
  if (Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return 1;
  }
  if (max_sessions < 1) {
    std::fprintf(stderr, "--max_sessions must be >= 1\n");
    return 1;
  }
  if (!failpoints_spec.empty()) {
    if (Status status = ArmFailpointsFromSpec(failpoints_spec); !status.ok()) {
      return Fail(status);
    }
  }

  ShardServerOptions options;
  options.dir = dir;
  options.shard = shard;
  options.port = port;
  options.metrics_port = metrics_port;
  options.max_sessions = static_cast<std::size_t>(max_sessions);
  options.recover = recover;
  auto server_or = ShardServer::Start(options);
  if (!server_or.ok()) return Fail(server_or.status());
  ShardServer& server = **server_or;

  // First line is machine-readable: tests and launch scripts parse the
  // ephemeral ports out of it.
  std::printf("listening port=%d metrics_port=%d generation=%llu shard=%d\n",
              server.port(), server.metrics_port(),
              static_cast<unsigned long long>(server.current_generation()),
              shard);
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty() || command[0] == '#') continue;
    if (command == "stop" || command == "quit" || command == "exit") break;
    if (command == "refresh") {
      auto swapped = server.Refresh();
      if (!swapped.ok()) {
        std::printf("! %s\n", swapped.status().ToString().c_str());
      } else {
        std::printf("# generation %llu%s\n",
                    static_cast<unsigned long long>(
                        server.current_generation()),
                    *swapped ? " (swapped)" : " (unchanged)");
      }
    } else if (command == "stats") {
      const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
      const auto counter_of = [&snap](const char* name) {
        const auto* c = snap.FindCounter(name);
        return c != nullptr ? c->value : 0;
      };
      std::printf(
          "generation=%llu port=%d metrics_port=%d sessions=%zu "
          "requests=%llu errors=%llu rejected=%llu deadline_exceeded=%llu\n",
          static_cast<unsigned long long>(server.current_generation()),
          server.port(), server.metrics_port(), server.sessions_active(),
          static_cast<unsigned long long>(counter_of("net.server.requests")),
          static_cast<unsigned long long>(counter_of("net.server.errors")),
          static_cast<unsigned long long>(counter_of("net.server.rejected")),
          static_cast<unsigned long long>(
              counter_of("net.server.deadline_exceeded")));
    } else if (command == "metrics") {
      std::string sub;
      in >> sub;
      if (sub == "prom") {
        const std::string text =
            PrometheusText(MetricsRegistry::Global().Scrape());
        std::fwrite(text.data(), 1, text.size(), stdout);
      } else {
        PrintMetricsTable(MetricsRegistry::Global().Scrape());
      }
    } else if (command == "failpoint") {
      HandleFailpointCommand(in);
    } else {
      std::printf("! unknown command '%s' (refresh | stats | metrics [prom] "
                  "| failpoint ... | stop)\n",
                  command.c_str());
    }
    std::fflush(stdout);
  }

  server.Stop();
  return 0;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
