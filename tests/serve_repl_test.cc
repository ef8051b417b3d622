// The serving REPL (tools/serve_repl.h), the one command loop of
// serve_shards for both transports. One command script answered
// through a local GenerationManager session and through a
// RemoteShardRouter on in-process shard servers over the same directory
// must print the same bytes, and once the fleet is gone a `reset` after
// the failed `refresh` must say Unavailable rather than "# session
// reset": the router stays unbound and refuses every query.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../tools/serve_repl.h"
#include "common/logging.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "obs/trace.h"
#include "shard/generation_manager.h"
#include "shard/shard_manifest.h"
#include "shard/shard_writer.h"

namespace influmax {
namespace {

constexpr std::size_t kShards = 4;

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A 4-shard generation of a small synthetic cascade model in `dir`;
/// returns the model's top three seeds, for the script's operands.
std::vector<NodeId> WriteGeneration(const std::string& dir) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.05));
  INFLUMAX_CHECK(data.ok());
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.001;
  auto model =
      CreditDistributionModel::Build(data->graph, data->log, credit, config);
  INFLUMAX_CHECK(model.ok());
  ShardedSnapshotWriter writer(dir, kShards);
  INFLUMAX_CHECK(writer.WriteFromModel(*model, 1).ok());
  INFLUMAX_CHECK(WriteCurrentManifestName(dir, ManifestFileName(1)).ok());
  auto top = model->SelectSeeds(3);
  INFLUMAX_CHECK(top.ok() && top->seeds.size() == 3);
  return top->seeds;
}

/// One in-process ShardServer per shard of `dir` on ephemeral loopback
/// ports, and the router options that reach them.
struct Fleet {
  std::vector<std::unique_ptr<ShardServer>> servers;
  RemoteRouterOptions options;
};

Fleet StartFleet(const std::string& dir) {
  Fleet fleet;
  for (std::size_t i = 0; i < kShards; ++i) {
    ShardServerOptions options;
    options.dir = dir;
    options.shard = static_cast<int>(i);
    auto server = ShardServer::Start(options);
    INFLUMAX_CHECK(server.ok());
    fleet.options.replica_sets.push_back({{"127.0.0.1", (*server)->port()}});
    fleet.servers.push_back(std::move(*server));
  }
  // A dead fleet fails fast instead of retrying for seconds.
  fleet.options.retry.max_attempts = 2;
  fleet.options.retry.initial_backoff_ms = 1;
  fleet.options.retry.budget_ms = 20;
  fleet.options.connect_timeout_ms = 200;
  return fleet;
}

/// Everything the REPL prints to stdout for `script`.
std::string RunScript(ReplTransport& transport, const std::string& script) {
  std::istringstream input(script);
  ::testing::internal::CaptureStdout();
  const int rc = RunServingRepl(input, transport, MetricsDump{});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

class ServeReplTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("serve_repl");
    seeds_ = WriteGeneration(dir_);
    const std::string a = std::to_string(seeds_[0]);
    const std::string b = std::to_string(seeds_[1]);
    const std::string c = std::to_string(seeds_[2]);
    script_ = "# every query command, a usage error and an unknown command\n"
              "topk 5\n"
              "reset\n"
              "gain " + b + "\n"
              "commit " + a + "\n"
              "gain " + b + "\n"
              "spread " + a + " " + b + " " + c + "\n"
              "gain " + c + "\n"
              "reset\n"
              "gain " + a + "\n"
              "refresh\n"
              "topk 0\n"
              "commit\n"
              "frobnicate\n"
              "quit\n"
              "gain " + a + "\n";
  }

  std::string dir_;
  std::vector<NodeId> seeds_;
  std::string script_;
};

TEST_F(ServeReplTest, LocalAndRemoteTransportsPrintTheSameAnswers) {
  auto manager = GenerationManager::Open(dir_);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  LocalReplTransport local(**manager);
  const std::string local_out = RunScript(local, script_);

  Fleet fleet = StartFleet(dir_);
  auto router = RemoteShardRouter::Connect(fleet.options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  TraceCollector collector;
  RemoteReplTransport remote(**router, collector);
  const std::string remote_out = RunScript(remote, script_);

  EXPECT_EQ(local_out, remote_out);
  const std::vector<std::string> lines = Lines(local_out);
  // topk 5: five seed lines and a summary; then reset, gain, commit,
  // gain, spread, gain, reset, gain, refresh and the three refusals.
  // `quit` ends the script before its last line.
  ASSERT_EQ(lines.size(), 6u + 12u) << local_out;
  EXPECT_EQ(lines[0].substr(0, lines[0].find('\t')),
            std::to_string(seeds_[0]));
  EXPECT_EQ(lines[5].rfind("# 5 seeds, ", 0), 0u) << lines[5];
  EXPECT_EQ(lines[6], "# session reset");
  EXPECT_EQ(lines[8], "# 1 session seeds");
  EXPECT_NE(lines[7], lines[9]) << "committing a must change b's gain";
  EXPECT_EQ(lines[11], "0.000000") << "c is a seed after the spread";
  EXPECT_EQ(lines[12], "# session reset");
  EXPECT_EQ(lines[14], "# generation 1 (unchanged)");
  EXPECT_EQ(lines[15], "! usage: topk K [BUDGET]");
  EXPECT_EQ(lines[16], "! usage: commit NODE");
  EXPECT_EQ(lines[17].rfind("! unknown command 'frobnicate' (", 0), 0u)
      << lines[17];

  // `stats` is each transport's own line; both answer it.
  EXPECT_EQ(RunScript(local, "stats\n").rfind("generation=1 latest=1 shards=4 ", 0),
            0u);
  EXPECT_EQ(RunScript(remote, "stats\n").rfind("generation=1 slots=4 ", 0), 0u);
  // The --connect REPL records its queries in its span ring too.
  const std::string spans = RunScript(remote, "gain " + std::to_string(seeds_[0]) +
                                            "\nmetrics spans\n");
  EXPECT_NE(spans.find("query.gain"), std::string::npos) << spans;
}

TEST_F(ServeReplTest, ResetAfterAFailedRefreshSaysUnavailable) {
  Fleet fleet = StartFleet(dir_);
  auto router = RemoteShardRouter::Connect(fleet.options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  TraceCollector collector;
  RemoteReplTransport remote(**router, collector);
  const std::string a = std::to_string(seeds_[0]);
  ASSERT_EQ(Lines(RunScript(remote, "commit " + a + "\n")),
            std::vector<std::string>{"# 1 session seeds"});

  for (auto& server : fleet.servers) server->Kill();
  const std::vector<std::string> lines =
      Lines(RunScript(remote, "refresh\nreset\ngain " + a + "\n"));
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("! Unavailable", 0), 0u) << line;
  }
}

}  // namespace
}  // namespace influmax
