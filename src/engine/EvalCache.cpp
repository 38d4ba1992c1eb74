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

bool EvalKey::parse(const std::string &Text, EvalKey &Out) {
  std::string_view T = Text;
  return T.size() == 50 && T[16] == '-' && T[33] == '-' &&
         parseHex64(T.substr(0, 16), Out.NestHash) &&
         parseHex64(T.substr(17, 16), Out.MachineHash) &&
         parseHex64(T.substr(34), Out.EnvHash);
}

std::optional<double> EvalCache::lookup(const EvalKey &Key) {
  MutexLock Lock(M);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  return It->second;
}

void EvalCache::insert(const EvalKey &Key, double Cost) {
  MutexLock Lock(M);
  Map[Key] = Cost;
}

size_t EvalCache::size() const {
  MutexLock Lock(M);
  return Map.size();
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
  // A key or cost that does not parse is skipped; a key measured on
  // another machine is counted as foreign.
  size_t Loaded = 0, Foreign = 0;
  for (const auto &[KeyText, Cost] : Entries.fields()) {
    EvalKey Key;
    if (!Cost.isNumber() || !EvalKey::parse(KeyText, Key))
      continue;
    if (RequireMachineHash && Key.MachineHash != RequireMachineHash) {
      ++Foreign;
      continue;
    }
    insert(Key, Cost.asNumber());
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
  {
    MutexLock Lock(M);
    for (const auto &[Key, Cost] : Map)
      if (std::isfinite(Cost)) // JSON has no inf; a failure re-evaluates
        Entries.append(Key.str(), Cost); // map keys are unique
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
