#ifndef INFLUMAX_TESTS_ONE_SHARD_H_
#define INFLUMAX_TESTS_ONE_SHARD_H_

// Monolithic serving in the tests: a 1-shard generation of a snapshot,
// written to a private temp directory and opened, with a ShardRouter
// (the query front over one engine) on top. The engine-level suites
// run their greedy, spread and session assertions through it.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/parallel.h"
#include "serve/snapshot_view.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"

namespace influmax {
namespace testing_fixtures {

class OneShard {
 public:
  /// Slices all of `view` into one shard; `pool` (optional) must outlive
  /// the router.
  explicit OneShard(const CreditSnapshotView& view,
                    WorkerPool* pool = nullptr) {
    static std::atomic<int> counter{0};
    dir_ = ::testing::TempDir() + "/one_shard_" + std::to_string(getpid()) +
           "_" + std::to_string(counter++);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    INFLUMAX_CHECK(ShardedSnapshotWriter(dir_, 1).WriteFromView(view, 1).ok());
    auto shards = OpenShardedSnapshot(dir_ + "/" + ManifestFileName(1));
    INFLUMAX_CHECK(shards.ok());
    shards_ = std::make_unique<ShardedSnapshot>(std::move(shards).value());
    INFLUMAX_CHECK(shards_->views.size() == 1);
    router_.emplace(*shards_, pool);
  }

  ~OneShard() {
    router_.reset();
    shards_.reset();
    std::filesystem::remove_all(dir_);
  }

  OneShard(const OneShard&) = delete;
  OneShard& operator=(const OneShard&) = delete;

  ShardRouter& router() { return *router_; }
  /// The opened generation, for further routers over the same views.
  const ShardedSnapshot& shards() const { return *shards_; }
  ShardRouter* operator->() { return &*router_; }

 private:
  std::string dir_;
  std::unique_ptr<ShardedSnapshot> shards_;
  std::optional<ShardRouter> router_;
};

}  // namespace testing_fixtures
}  // namespace influmax

#endif  // INFLUMAX_TESTS_ONE_SHARD_H_
