//===- engine/EvalCache.h - Memoizing evaluation store ---------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's persistent memo table: every completed evaluation is
/// stored under a stable key derived from (variant fingerprint, machine
/// fingerprint, Env bindings) — inputs known before the variant is
/// instantiated, so a hit skips instantiation entirely — so
///
///  * points the search revisits within one tune (shape search backtracks
///    constantly) are free,
///  * a tune re-run on identical input replays from the JSON file at
///    >90% hit rate (the acceptance bar for --cache-file),
///  * a killed tune re-run over its cache file resumes: it replays every
///    saved point as a hit and evaluates only the rest.
///
/// The map is sharded (one mutex per shard) so concurrent workers
/// publishing results do not serialize on one lock.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_ENGINE_EVALCACHE_H
#define ECO_ENGINE_EVALCACHE_H

#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

namespace eco {

/// A stable cache key: the three component hashes plus their rendered
/// text form (the JSON field name).
struct EvalKey {
  /// variantFingerprint() of the evaluated variant (core/Variant.h),
  /// under a historical field name.
  uint64_t NestHash = 0;
  /// MachineDesc::fingerprint() salted with EvalBackend::cacheSalt().
  uint64_t MachineHash = 0;
  /// hashEnv() of the full configuration.
  uint64_t EnvHash = 0;

  /// "variant-machine-env" in fixed-width hex; the persistent form.
  std::string str() const;
  uint64_t combined() const;
};

/// Thread-safe memoizing store of evaluation costs with optional JSON
/// persistence.
class EvalCache {
public:
  /// The file format save() writes. Version 1 keyed entries by the
  /// instantiated nest's hash; load() rejects such files whole, since
  /// none of their keys can ever hit.
  static constexpr int FormatVersion = 2;

  EvalCache() = default;

  /// Returns the memoized cost for \p Key, if present. Counts a hit or
  /// miss for hitRate().
  std::optional<double> lookup(const EvalKey &Key);

  /// Memoizes \p Cost under \p Key (last write wins; evaluations are
  /// deterministic so concurrent writers agree).
  void insert(const EvalKey &Key, double Cost);

  size_t size() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  double hitRate() const {
    uint64_t H = hits(), M = misses();
    return H + M ? static_cast<double>(H) / static_cast<double>(H + M) : 0;
  }
  void resetCounters();

  /// Loads entries from a JSON file previously written by save(); merges
  /// into the current contents. Returns the number of entries loaded
  /// (0 for a missing or malformed file — a fresh cache is not an error —
  /// and 0 with one warning for a file of another FormatVersion).
  ///
  /// When \p RequireMachineHash is non-zero, only entries whose key's
  /// machine-fingerprint segment matches it are accepted; entries from
  /// another machine (someone pointed --cache-file at a different
  /// target's cache) are rejected and counted in the `cache.loaded`
  /// event (the "cache.foreign_rejected" metric) instead of sitting in
  /// memory and being re-saved into this machine's file. Foreign costs
  /// could never be *served* (the lookup key embeds the machine hash),
  /// but silently carrying them forward made a wrong file look valid
  /// forever.
  size_t load(const std::string &Path, uint64_t RequireMachineHash = 0);

  /// Writes every entry to \p Path as pretty JSON (atomic rename).
  /// Non-finite costs (a failed native compile) are not written: JSON
  /// has no infinity, and one read back as a finite number would turn a
  /// failure into a measurement. A resumed tune re-evaluates them.
  bool save(const std::string &Path) const;

private:
  static constexpr size_t NumShards = 16;
  struct Shard {
    mutable Mutex M{"evalcache.shard"};
    std::unordered_map<std::string, double> Map ECO_GUARDED_BY(M);
  };
  Shard &shardFor(const std::string &KeyText);
  const Shard &shardFor(const std::string &KeyText) const;

  Shard Shards[NumShards];
  std::atomic<uint64_t> Hits{0}, Misses{0};
};

} // namespace eco

#endif // ECO_ENGINE_EVALCACHE_H
