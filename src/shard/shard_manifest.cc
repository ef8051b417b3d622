#include "shard/shard_manifest.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/memory.h"
#include "serve/snapshot_format.h"

namespace influmax {
namespace {

std::uint64_t HashChain(std::uint64_t h, std::uint64_t v) {
  return HashMix64(h ^ HashMix64(v));
}

/// Longest sane relative file name inside a manifest.
constexpr std::uint64_t kMaxShardFileName = 4096;

std::string DirOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

std::string ManifestFileName(std::uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%06llu",
                static_cast<unsigned long long>(generation));
  return buf;
}

std::string ShardFileName(std::uint64_t generation, std::size_t shard) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "gen%06llu-shard%03zu.snap",
                static_cast<unsigned long long>(generation), shard);
  return buf;
}

Result<std::uint64_t> FingerprintShardFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::IoError("cannot open shard file '" + path + "'");
  }
  const std::uint64_t size = static_cast<std::uint64_t>(in.tellg());
  if (size < kSnapshotPreludeBytes) {
    return Status::Corruption("shard file '" + path + "' is " +
                              std::to_string(size) +
                              " bytes, shorter than the snapshot prelude");
  }
  in.seekg(0);
  std::uint64_t prelude[kSnapshotPreludeBytes / sizeof(std::uint64_t)];
  in.read(reinterpret_cast<char*>(prelude), sizeof(prelude));
  if (!in) {
    return Status::IoError("cannot read shard prelude of '" + path + "'");
  }
  std::uint64_t h = HashChain(0x73686172645F6670ULL, size);
  for (std::uint64_t word : prelude) h = HashChain(h, word);
  return h;
}

Status ValidateShardManifest(const ShardManifest& manifest) {
  const std::size_t shards = manifest.shard_files.size();
  if (shards == 0) {
    return Status::Corruption("shard manifest names no shards");
  }
  if (shards > kMaxShards) {
    return Status::Corruption("shard manifest names " +
                              std::to_string(shards) +
                              " shards, over the sanity limit");
  }
  if (manifest.shard_fingerprints.size() != shards) {
    return Status::Corruption(
        "shard manifest has " +
        std::to_string(manifest.shard_fingerprints.size()) +
        " fingerprints for " + std::to_string(shards) + " shards");
  }
  if (manifest.range_begin.size() != shards + 1) {
    return Status::Corruption(
        "shard manifest has " + std::to_string(manifest.range_begin.size()) +
        " range boundaries for " + std::to_string(shards) + " shards");
  }
  // The partitioning invariant the gain merge rests on (docs/sharding.md):
  // contiguous, sorted, non-overlapping, covering action ranges — a user's
  // global ascending slot order is then the concatenation of the shards'
  // local slot orders, so the router's fold replays the monolithic one.
  if (manifest.range_begin.front() != 0) {
    return Status::Corruption("shard action ranges do not start at 0");
  }
  if (manifest.range_begin.back() != manifest.num_actions) {
    return Status::Corruption(
        "shard action ranges end at " +
        std::to_string(manifest.range_begin.back()) + ", not num_actions " +
        std::to_string(manifest.num_actions));
  }
  for (std::size_t i = 0; i < shards; ++i) {
    if (manifest.range_begin[i] >= manifest.range_begin[i + 1]) {
      return Status::Corruption(
          "shard action ranges not strictly ascending at shard " +
          std::to_string(i) + " ([" +
          std::to_string(manifest.range_begin[i]) + ", " +
          std::to_string(manifest.range_begin[i + 1]) +
          ")): shards must be sorted, non-overlapping, and non-empty");
    }
  }
  if (manifest.au.size() != manifest.num_users) {
    return Status::Corruption("shard manifest au has " +
                              std::to_string(manifest.au.size()) +
                              " entries for " +
                              std::to_string(manifest.num_users) + " users");
  }
  for (const std::string& name : manifest.shard_files) {
    if (name.empty() || name.find('/') != std::string::npos) {
      return Status::Corruption("shard file name '" + name +
                                "' is not a bare relative name");
    }
  }
  return Status::OK();
}

namespace {

Status WriteShardManifestImpl(const ShardManifest& manifest,
                              const std::string& path) {
  BinaryWriter writer(path, kShardManifestMagic, kShardManifestVersion);
  INFLUMAX_RETURN_IF_ERROR(writer.status());
  writer.set_failpoint("manifest.write");
  writer.WriteU64(manifest.generation);
  writer.WriteU32(manifest.num_users);
  writer.WriteU32(manifest.num_actions);
  writer.WriteU64(manifest.graph_fingerprint);
  writer.WriteU64(manifest.log_fingerprint);
  writer.WriteDouble(manifest.truncation_threshold);
  writer.WriteVector(manifest.range_begin);
  writer.WriteVector(manifest.au);
  writer.WriteVector(manifest.shard_fingerprints);
  writer.WriteU64(manifest.shard_files.size());
  for (const std::string& name : manifest.shard_files) {
    writer.WriteVector(std::vector<char>(name.begin(), name.end()));
  }
  INFLUMAX_RETURN_IF_ERROR(writer.Finish());
  // Durable before CURRENT may name it (docs/durability.md).
  INFLUMAX_FAILPOINT("manifest.fsync");
  return SyncFileToDisk(path);
}

}  // namespace

Status WriteShardManifest(const ShardManifest& manifest,
                          const std::string& path) {
  if (Status status = ValidateShardManifest(manifest); !status.ok()) {
    return Status::InvalidArgument("refusing to write invalid manifest: " +
                                   status.message());
  }
  const Status status = WriteShardManifestImpl(manifest, path);
  if (!status.ok()) std::remove(path.c_str());  // no partial manifests
  return status;
}

Result<ShardManifest> ReadShardManifest(const std::string& path) {
  BinaryReader reader(path, kShardManifestMagic, kShardManifestVersion);
  INFLUMAX_RETURN_IF_ERROR(reader.status());
  reader.set_failpoint("manifest.read");
  ShardManifest manifest;
  manifest.generation = reader.ReadU64();
  manifest.num_users = reader.ReadU32();
  manifest.num_actions = reader.ReadU32();
  manifest.graph_fingerprint = reader.ReadU64();
  manifest.log_fingerprint = reader.ReadU64();
  manifest.truncation_threshold = reader.ReadDouble();
  const std::uint64_t ranges_offset = reader.bytes_read();
  // Bound by the structural shard limit, not the file-controlled
  // num_actions — a crafted num_actions of 2^32-1 must not size a
  // multi-GiB allocation before the short read is noticed.
  manifest.range_begin = reader.ReadVector<ActionId>(kMaxShards + 1);
  manifest.au = reader.ReadVector<std::uint32_t>(manifest.num_users);
  manifest.shard_fingerprints = reader.ReadVector<std::uint64_t>(kMaxShards);
  const std::uint64_t num_files = reader.ReadU64();
  if (reader.status().ok() && num_files > kMaxShards) {
    return Status::Corruption("manifest '" + path + "': " +
                              std::to_string(num_files) +
                              " shard files exceeds the sanity limit (at "
                              "byte offset " +
                              std::to_string(reader.bytes_read() - 8) + ")");
  }
  for (std::uint64_t i = 0; reader.status().ok() && i < num_files; ++i) {
    const std::vector<char> name = reader.ReadVector<char>(kMaxShardFileName);
    manifest.shard_files.emplace_back(name.begin(), name.end());
  }
  INFLUMAX_RETURN_IF_ERROR(reader.Finish());
  if (Status status = ValidateShardManifest(manifest); !status.ok()) {
    // Range/count inconsistencies are file corruption from the reader's
    // point of view; report them with the section's byte offset so a
    // mangled manifest is diagnosable like a mangled snapshot (PR 2).
    return Status::Corruption("manifest '" + path +
                              "': " + status.message() +
                              " (sections start at byte offset " +
                              std::to_string(ranges_offset) + ")");
  }
  return manifest;
}

Result<ShardedSnapshot> OpenShardedSnapshot(const std::string& manifest_path,
                                            ShardRange range) {
  auto manifest = ReadShardManifest(manifest_path);
  INFLUMAX_RETURN_IF_ERROR(manifest.status());

  ShardedSnapshot sharded;
  sharded.dir = DirOf(manifest_path);
  sharded.manifest = std::move(manifest).value();
  const ShardManifest& m = sharded.manifest;
  const std::size_t end =
      range.end == ShardRange::kLastShard ? m.num_shards() : range.end;
  if (range.begin >= end) {
    return Status::InvalidArgument("empty shard range [" +
                                   std::to_string(range.begin) + ", " +
                                   std::to_string(end) + ")");
  }
  if (end > m.num_shards()) {
    return Status::FailedPrecondition(
        "generation " + std::to_string(m.generation) + " has " +
        std::to_string(m.num_shards()) + " shards, but shards [" +
        std::to_string(range.begin) + ", " + std::to_string(end) +
        ") were asked for");
  }
  sharded.first_shard = range.begin;
  sharded.views.reserve(end - range.begin);
  for (std::size_t i = range.begin; i < end; ++i) {
    const std::string path = sharded.dir + "/" + m.shard_files[i];
    auto fingerprint = FingerprintShardFile(path);
    INFLUMAX_RETURN_IF_ERROR(fingerprint.status());
    if (*fingerprint != m.shard_fingerprints[i]) {
      return Status::Corruption("shard file '" + path +
                                "' does not match the manifest fingerprint "
                                "(rebuilt, swapped, or truncated)");
    }
    auto view = CreditSnapshotView::Open(path);
    INFLUMAX_RETURN_IF_ERROR(view.status());
    const ActionId range_width = m.range_begin[i + 1] - m.range_begin[i];
    if (view->num_users() != m.num_users) {
      return Status::Corruption("shard " + std::to_string(i) + " has " +
                                std::to_string(view->num_users()) +
                                " users, manifest says " +
                                std::to_string(m.num_users));
    }
    if (view->num_actions() != range_width) {
      return Status::Corruption("shard " + std::to_string(i) + " holds " +
                                std::to_string(view->num_actions()) +
                                " actions, manifest range is " +
                                std::to_string(range_width));
    }
    if (view->truncation_threshold() != m.truncation_threshold) {
      return Status::Corruption("shard " + std::to_string(i) +
                                " lambda differs from the manifest");
    }
    if (view->graph_fingerprint() != m.graph_fingerprint) {
      return Status::Corruption("shard " + std::to_string(i) +
                                " was scanned against a different graph");
    }
    if (!sharded.views.empty()) {
      const auto first = sharded.views[0].seeds();
      const auto mine = view->seeds();
      if (first.size() != mine.size() ||
          !std::equal(first.begin(), first.end(), mine.begin())) {
        return Status::Corruption(
            "shard " + std::to_string(i) + " disagrees with shard " +
            std::to_string(range.begin) + " about the frozen seed set");
      }
    }
    // The shard's gains divide by the global A_u. Open validated the
    // blob's headroom under its local au; a user's global A_u counts at
    // least the actions the shard saw, so every global quotient is at
    // most the validated local one and the view's pool keeps that
    // headroom.
    const auto local_au = view->au();
    for (NodeId u = 0; u < m.num_users; ++u) {
      if (m.au[u] < local_au[u]) {
        return Status::Corruption(
            "shard " + std::to_string(i) + " credits user " +
            std::to_string(u) +
            " with more actions than the manifest's A_u");
      }
    }
    view->DivideGainsBy(m.au);
    sharded.views.push_back(std::move(view).value());
  }
  return sharded;
}

ShardedSnapshot InMemoryShardedSnapshot(CreditSnapshotView view) {
  ShardedSnapshot sharded;
  ShardManifest& m = sharded.manifest;
  m.num_users = view.num_users();
  m.num_actions = view.num_actions();
  m.graph_fingerprint = view.graph_fingerprint();
  m.log_fingerprint = view.log_fingerprint();
  m.truncation_threshold = view.truncation_threshold();
  m.range_begin = {0, view.num_actions()};
  m.au.assign(view.au().begin(), view.au().end());
  m.shard_fingerprints = {0};
  m.shard_files = {""};
  sharded.views.push_back(std::move(view));  // divides by its own A_u
  return sharded;
}

const CreditSnapshotView& ShardedSnapshot::view(std::size_t i) const {
  INFLUMAX_CHECK(i >= first_shard && i < end_shard())
      << "shard " << i << " is not open (opened [" << first_shard << ", "
      << end_shard() << "))";
  return views[i - first_shard];
}

std::uint64_t ShardedSnapshot::mapped_bytes() const {
  std::uint64_t bytes = 0;
  for (const CreditSnapshotView& v : views) bytes += v.ApproxMemoryBytes();
  return bytes;
}

std::uint64_t ShardedSnapshot::pool_bytes() const {
  std::uint64_t bytes = 0;
  for (const CreditSnapshotView& v : views) bytes += v.pool_bytes();
  return bytes;
}

Result<std::string> ReadCurrentManifestName(const std::string& dir) {
  INFLUMAX_FAILPOINT("current.read");
  std::ifstream in(dir + "/CURRENT");
  if (!in) {
    return Status::NotFound("no CURRENT file in '" + dir + "'");
  }
  std::string name;
  std::getline(in, name);
  if (name.empty() || name.find('/') != std::string::npos) {
    return Status::Corruption("CURRENT in '" + dir +
                              "' does not name a manifest");
  }
  return name;
}

namespace {

Status WriteCurrentImpl(const std::string& dir, const std::string& tmp,
                        const std::string& manifest_name) {
  const std::string line = manifest_name + "\n";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::IoError("cannot write '" + tmp + "'");
#ifdef INFLUMAX_FAILPOINTS
    if (auto hit = failpoint_internal::CheckSite("current.write")) {
      if (hit->mode == FailpointMode::kTorn ||
          hit->mode == FailpointMode::kTornCrash) {
        const std::size_t keep =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                hit->arg, line.size()));
        out.write(line.data(), static_cast<std::streamsize>(keep));
        out.flush();
        failpoint_internal::RecordTornTrip("current.write");
        if (hit->mode == FailpointMode::kTornCrash) {
          failpoint_internal::Crash("current.write");
        }
        return Status::IoError(
            "injected failpoint 'current.write': torn write at byte offset " +
            std::to_string(keep));
      }
      INFLUMAX_RETURN_IF_ERROR(
          failpoint_internal::HitEffect("current.write", *hit));
    }
#endif
    out << line;
    if (!out.flush()) return Status::IoError("cannot flush '" + tmp + "'");
  }
  // Commit protocol (docs/durability.md): the rename below is the
  // commit point, so the pointer's bytes must be durable before it and
  // the directory entry after it — a crash straddling the flip then
  // yields either the old or the new CURRENT, both fully valid.
  INFLUMAX_FAILPOINT("current.fsync");
  INFLUMAX_RETURN_IF_ERROR(SyncFileToDisk(tmp));
  INFLUMAX_FAILPOINT("current.rename");
  if (std::rename(tmp.c_str(), (dir + "/CURRENT").c_str()) != 0) {
    return Status::IoError("cannot rename '" + tmp + "' over CURRENT");
  }
  INFLUMAX_FAILPOINT("current.dirsync");
  return SyncDirToDisk(dir);
}

}  // namespace

Status WriteCurrentManifestName(const std::string& dir,
                                const std::string& manifest_name) {
  const std::string tmp = dir + "/CURRENT.tmp";
  const Status status = WriteCurrentImpl(dir, tmp, manifest_name);
  if (!status.ok()) std::remove(tmp.c_str());
  return status;
}

}  // namespace influmax
