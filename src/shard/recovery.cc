#include "shard/recovery.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "shard/shard_manifest.h"

namespace influmax {
namespace {

namespace fs = std::filesystem;

struct RecMetrics {
  Counter* recovery_events;
  Counter* quarantined;
};

const RecMetrics& GetRecMetrics() {
  static const RecMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return RecMetrics{
        reg.FindOrCreateCounter("gen.recovery_events"),
        reg.FindOrCreateCounter("gen.quarantined"),
    };
  }();
  return metrics;
}

bool ParseManifestName(const std::string& name, std::uint64_t* generation) {
  char extra = 0;
  return std::sscanf(name.c_str(), "MANIFEST-%" SCNu64 "%c", generation,
                     &extra) == 1;
}

bool ParseShardBlobName(const std::string& name, std::uint64_t* generation) {
  unsigned long long gen = 0;
  unsigned shard = 0;
  if (std::sscanf(name.c_str(), "gen%llu-shard%u.snap", &gen, &shard) != 2) {
    return false;
  }
  *generation = gen;
  return name.size() >= 5 && name.compare(name.size() - 5, 5, ".snap") == 0;
}

std::string SanitizeReason(std::string_view reason) {
  std::string out;
  for (char c : reason.substr(0, 40)) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "unknown";
  return out;
}

}  // namespace

Result<std::string> QuarantineGenerationFiles(
    const std::string& dir, std::uint64_t generation, std::string_view reason,
    std::span<const std::string> files) {
  const std::string qname = "QUARANTINE-" + std::to_string(generation) + "-" +
                            SanitizeReason(reason);
  const fs::path qdir = fs::path(dir) / qname;
  std::size_t moved = 0;
  for (const std::string& name : files) {
    const fs::path src = fs::path(dir) / name;
    std::error_code ec;
    if (!fs::exists(src, ec)) continue;
    if (moved == 0) {
      fs::create_directories(qdir, ec);
      if (ec) {
        return Status::IoError("cannot create '" + qdir.string() +
                               "': " + ec.message());
      }
    }
    fs::rename(src, qdir / name, ec);
    if (ec) {
      return Status::IoError("cannot quarantine '" + name +
                             "': " + ec.message());
    }
    ++moved;
  }
  if (moved > 0) {
    GetRecMetrics().quarantined->Increment();
    INFLUMAX_LOG_WARN << "quarantined " << moved << " file(s) of generation "
                      << generation << " into " << qname << " (" << reason
                      << ")";
  }
  return qname;
}

Status QuarantineGeneration(const std::string& dir, std::uint64_t generation,
                            std::string_view reason) {
  // Blobs a *different* readable manifest references must stay: newer
  // generations legally re-reference an older generation's untouched
  // shard blobs by name.
  std::set<std::string> referenced;
  std::vector<std::string> files;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot scan '" + dir + "': " + ec.message());
  }
  for (; it != fs::directory_iterator(); it.increment(ec)) {
    if (ec) break;
    std::error_code tec;
    if (!it->is_regular_file(tec)) continue;
    const std::string name = it->path().filename().string();
    std::uint64_t gen = 0;
    if (ParseManifestName(name, &gen)) {
      if (gen == generation) {
        files.push_back(name);
      } else if (auto m = ReadShardManifest(dir + "/" + name); m.ok()) {
        referenced.insert(m->shard_files.begin(), m->shard_files.end());
      }
    } else if (ParseShardBlobName(name, &gen) && gen == generation) {
      files.push_back(name);
    }
  }
  std::erase_if(files, [&](const std::string& name) {
    return referenced.count(name) != 0;
  });
  return QuarantineGenerationFiles(dir, generation, reason, files).status();
}

Result<RecoveryReport> RecoverGenerationDir(const std::string& dir) {
  INFLUMAX_FAILPOINT("recover.scan");
  RecoveryReport report;

  std::vector<std::string> names;
  {
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
      return Status::IoError("cannot scan '" + dir + "': " + ec.message());
    }
    for (; it != fs::directory_iterator(); it.increment(ec)) {
      if (ec) {
        return Status::IoError("cannot scan '" + dir + "': " + ec.message());
      }
      std::error_code tec;
      if (!it->is_regular_file(tec)) continue;
      names.push_back(it->path().filename().string());
    }
  }

  // 1. Temp leftovers: the CURRENT.tmp of an aborted flip, the
  // .mono-<g>.tmp that older writers staged a split through, and any
  // partial file predating the unlink-on-error fix. All are mid-write artifacts by
  // construction — nothing durable ever carries the .tmp suffix.
  std::erase_if(names, [&](const std::string& name) {
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".tmp") != 0) {
      return false;
    }
    std::remove((dir + "/" + name).c_str());
    report.removed.push_back(name);
    return true;
  });

  struct ManifestFile {
    std::uint64_t gen;
    std::string name;
  };
  std::vector<ManifestFile> manifests;
  std::vector<std::string> blobs;
  for (const std::string& name : names) {
    std::uint64_t gen = 0;
    if (ParseManifestName(name, &gen)) {
      manifests.push_back({gen, name});
    } else if (ParseShardBlobName(name, &gen)) {
      blobs.push_back(name);
    }
  }
  std::sort(manifests.begin(), manifests.end(),
            [](const ManifestFile& a, const ManifestFile& b) {
              return a.gen > b.gen;
            });

  // 2. Full validation of every generation — OpenShardedSnapshot runs
  // the same fingerprint/structure/seed checks a serving process would.
  // Invalid generations are quarantined (manifest + blobs no valid
  // manifest references); valid ones contribute their referenced-blob
  // set for the orphan sweep below.
  struct ValidGen {
    std::uint64_t gen;
    std::string name;
  };
  std::vector<ValidGen> valid;  // descending by generation
  std::set<std::string> referenced;
  std::vector<std::pair<ManifestFile, Status>> invalid;
  for (const ManifestFile& m : manifests) {
    auto opened = OpenShardedSnapshot(dir + "/" + m.name);
    if (opened.ok()) {
      valid.push_back({m.gen, m.name});
      referenced.insert(opened->manifest.shard_files.begin(),
                        opened->manifest.shard_files.end());
    } else {
      invalid.emplace_back(m, opened.status());
    }
  }
  std::set<std::string> moved;
  for (const auto& [m, status] : invalid) {
    std::vector<std::string> files{m.name};
    std::uint64_t blob_gen = 0;
    for (const std::string& blob : blobs) {
      if (ParseShardBlobName(blob, &blob_gen) && blob_gen == m.gen &&
          referenced.count(blob) == 0) {
        files.push_back(blob);
      }
    }
    auto qname = QuarantineGenerationFiles(
        dir, m.gen, StatusCodeToString(status.code()), files);
    INFLUMAX_RETURN_IF_ERROR(qname.status());
    moved.insert(files.begin(), files.end());
    report.quarantined.push_back(std::move(qname).value());
  }

  // 3. CURRENT: keep it when its target is one of the valid
  // generations (the rename was the commit point — a fully-written but
  // never-flipped newer generation is NOT served); otherwise repoint,
  // durably, at the newest valid one.
  auto current = ReadCurrentManifestName(dir);
  std::string chosen;
  if (current.ok()) {
    for (const ValidGen& v : valid) {
      if (v.name == *current) {
        chosen = v.name;
        report.generation = v.gen;
        break;
      }
    }
  }
  if (chosen.empty()) {
    if (valid.empty()) {
      if (manifests.empty() && !current.ok()) {
        return Status::NotFound("no generations in '" + dir + "'");
      }
      return Status::Corruption(
          "no fully-valid generation in '" + dir + "' (CURRENT: " +
          (current.ok() ? "'" + *current + "'" : current.status().message()) +
          ")");
    }
    chosen = valid.front().name;
    report.generation = valid.front().gen;
    INFLUMAX_RETURN_IF_ERROR(WriteCurrentManifestName(dir, chosen));
    report.current_rewritten = true;
  }
  report.current_manifest = chosen;

  // 4. Orphan blobs: referenced by no surviving manifest — the blobs of
  // a crash that died between blob writes and the manifest write.
  for (const std::string& blob : blobs) {
    if (referenced.count(blob) != 0 || moved.count(blob) != 0) continue;
    std::remove((dir + "/" + blob).c_str());
    report.removed.push_back(blob);
  }

  if (!report.removed.empty() || !report.quarantined.empty() ||
      report.current_rewritten) {
    GetRecMetrics().recovery_events->Increment();
    INFLUMAX_LOG_INFO << "recovered '" << dir << "': serving "
                      << report.current_manifest << " (repointed="
                      << (report.current_rewritten ? "yes" : "no")
                      << ", removed=" << report.removed.size()
                      << ", quarantined dirs=" << report.quarantined.size()
                      << ")";
  }
  return report;
}

}  // namespace influmax
