//===- engine/EvalCache.cpp - Memoizing evaluation store ------------------===//

#include "engine/EvalCache.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <cmath>
#include <fstream>

using namespace eco;

std::string EvalKey::str() const {
  return hashHex(NestHash) + "-" + hashHex(MachineHash) + "-" +
         hashHex(EnvHash);
}

uint64_t EvalKey::combined() const {
  uint64_t H = hashCombine(Fnv1aOffset, NestHash);
  H = hashCombine(H, MachineHash);
  return hashCombine(H, EnvHash);
}

EvalCache::Shard &EvalCache::shardFor(const std::string &KeyText) {
  return Shards[hashString(KeyText) % NumShards];
}

const EvalCache::Shard &EvalCache::shardFor(const std::string &KeyText) const {
  return Shards[hashString(KeyText) % NumShards];
}

std::optional<double> EvalCache::lookup(const EvalKey &Key) {
  std::string Text = Key.str();
  Shard &S = shardFor(Text);
  MutexLock Lock(S.M);
  auto It = S.Map.find(Text);
  if (It == S.Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  return It->second;
}

void EvalCache::insert(const EvalKey &Key, double Cost) {
  std::string Text = Key.str();
  Shard &S = shardFor(Text);
  MutexLock Lock(S.M);
  S.Map[Text] = Cost;
}

size_t EvalCache::size() const {
  size_t Total = 0;
  for (const Shard &S : Shards) {
    MutexLock Lock(S.M);
    Total += S.Map.size();
  }
  return Total;
}

void EvalCache::resetCounters() {
  Hits.store(0, std::memory_order_relaxed);
  Misses.store(0, std::memory_order_relaxed);
}

size_t EvalCache::load(const std::string &Path,
                       uint64_t RequireMachineHash) {
  Json Root = Json::loadFile(Path);
  const Json &Entries = Root.get("entries");
  if (!Entries.isObject()) {
    // A missing file is the normal first run; an existing file that
    // does not parse into the expected shape deserves a warning.
    if (std::ifstream(Path).good()) {
      ECO_LOG(Warn) << "eval cache: ignoring unreadable " << Path
                    << "; starting empty";
    }
    return 0;
  }
  // Version-1 files keyed the first segment by the instantiated nest's
  // hash; no version-2 lookup can ever hit them.
  int64_t Version = Root.get("version").asInt(0);
  if (Version != FormatVersion) {
    ECO_LOG(Warn) << "eval cache: ignoring " << Path << " (format version "
                  << Version << ", expected " << FormatVersion
                  << "); starting empty";
    return 0;
  }
  // Keys render as "variant-machine-env" in fixed-width hex; the middle
  // segment is the machine fingerprint the entry was measured on.
  const std::string Expected =
      RequireMachineHash ? hashHex(RequireMachineHash) : std::string();
  size_t Loaded = 0, Foreign = 0;
  for (const auto &[KeyText, Cost] : Entries.fields()) {
    if (!Cost.isNumber())
      continue;
    if (!Expected.empty() &&
        (KeyText.size() < 50 || KeyText.compare(17, 16, Expected) != 0)) {
      ++Foreign;
      continue;
    }
    Shard &S = shardFor(KeyText);
    MutexLock Lock(S.M);
    S.Map[KeyText] = Cost.asNumber();
    ++Loaded;
  }
  if (Foreign) {
    ECO_LOG(Warn) << "eval cache: rejected " << Foreign
                  << " entr" << (Foreign == 1 ? "y" : "ies") << " from "
                  << Path << " measured on a different machine";
  }
  ECO_LOG(Info) << "eval cache: loaded " << Loaded << " entries from "
                << Path;
  if (obs::eventsEnabled()) {
    Json F = Json::object();
    F.set("entries", Loaded);
    F.set("foreign", Foreign);
    obs::publishEvent("cache.loaded", std::move(F));
  }
  return Loaded;
}

bool EvalCache::save(const std::string &Path) const {
  Json Entries = Json::object();
  for (const Shard &S : Shards) {
    MutexLock Lock(S.M);
    for (const auto &[KeyText, Cost] : S.Map)
      if (std::isfinite(Cost)) // JSON has no inf; a failure re-evaluates
        Entries.set(KeyText, Cost);
  }
  Json Root = Json::object();
  Root.set("version", FormatVersion);
  Root.set("entries", std::move(Entries));
  bool Ok = Root.saveFile(Path);
  if (!Ok)
    ECO_LOG(Warn) << "eval cache: cannot save to " << Path;
  else if (obs::eventsEnabled())
    obs::publishEvent("cache.saved", Json::object());
  return Ok;
}
