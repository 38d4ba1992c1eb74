//===- serve/ConfigDB.cpp - Persistent tuned-config database --------------===//

#include "serve/ConfigDB.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <cmath>
#include <fstream>

using namespace eco;
using namespace eco::serve;

std::string ConfigDB::keyOf(const std::string &Kernel,
                            uint64_t MachineHash, int64_t N) {
  return Kernel + "-" + hashHex(MachineHash) + "-n" + std::to_string(N);
}

ConfigDB::ConfigDB(std::string Path) : PersistPath(std::move(Path)) {
  if (!PersistPath.empty())
    load(PersistPath);
}

std::optional<TunedEntry> ConfigDB::exact(const std::string &Kernel,
                                          uint64_t MachineHash,
                                          int64_t N) const {
  MutexLock Lock(M);
  auto It = Entries.find(keyOf(Kernel, MachineHash, N));
  if (It == Entries.end())
    return std::nullopt;
  return It->second;
}

std::optional<TunedEntry> ConfigDB::nearest(const std::string &Kernel,
                                            uint64_t MachineHash,
                                            int64_t N) const {
  MutexLock Lock(M);
  const TunedEntry *Best = nullptr;
  double BestDist = 0;
  for (const auto &[Key, E] : Entries) {
    (void)Key;
    if (E.Kernel != Kernel || E.MachineHash != MachineHash || E.N <= 0 ||
        N <= 0)
      continue;
    // Log-space distance: tile footprints scale multiplicatively with
    // the problem size, so 64 is as close to 128 as 128 is to 256.
    double Dist = std::fabs(std::log(static_cast<double>(E.N)) -
                            std::log(static_cast<double>(N)));
    // Equidistant seeds (N=64 vs N=256 for a query at 128) tie-break to
    // the smaller N explicitly. Without this the winner depended on the
    // lexicographic key order of the entries map ("128" < "32"), which
    // made warm starts — and therefore evaluation counts — flip with
    // unrelated DB contents.
    if (!Best || Dist < BestDist ||
        (Dist == BestDist && E.N < Best->N)) {
      Best = &E;
      BestDist = Dist;
    }
  }
  if (!Best)
    return std::nullopt;
  return *Best;
}

bool ConfigDB::put(const TunedEntry &E) {
  MutexLock Lock(M);
  std::string Key = keyOf(E.Kernel, E.MachineHash, E.N);
  auto It = Entries.find(Key);
  if (It != Entries.end() && It->second.BestCost < E.BestCost)
    return false; // keep the better stored result
  Entries[Key] = E;
  return true;
}

size_t ConfigDB::size() const {
  MutexLock Lock(M);
  return Entries.size();
}

void ConfigDB::forEach(
    const std::function<void(const TunedEntry &)> &Fn) const {
  MutexLock Lock(M);
  for (const auto &[Key, E] : Entries) {
    (void)Key;
    Fn(E);
  }
}

bool ConfigDB::save() const {
  if (PersistPath.empty())
    return true;
  return save(PersistPath);
}

bool ConfigDB::save(const std::string &Path) const {
  Json List = Json::array();
  {
    MutexLock Lock(M);
    for (const auto &[Key, E] : Entries) {
      (void)Key;
      Json Config = Json::object();
      for (const auto &[Name, Value] : E.Config)
        Config.set(Name, Value);
      Json Row = Json::object();
      Row.set("kernel", E.Kernel);
      Row.set("machineName", E.MachineName);
      Row.set("scale", static_cast<int64_t>(E.Scale));
      Row.set("machine", hashHex(E.MachineHash));
      Row.set("n", E.N);
      Row.set("variant", E.Variant);
      Row.set("config", std::move(Config));
      Row.set("cost", E.BestCost);
      Row.set("evaluations", E.Evaluations);
      Row.set("seconds", E.Seconds);
      Row.set("warmStart", E.WarmStart);
      // Compact provenance blob: the tune's pruning ledger + winner
      // lineage. Written unconditionally so every new row explains
      // itself; absent in legacy rows, which load with zeros.
      Json Prov = Json::object();
      Prov.set("cacheHits", E.CacheHits);
      Prov.set("variantsDerived", E.VariantsDerived);
      Prov.set("variantsSearched", E.VariantsSearched);
      Prov.set("variantsRejected", E.VariantsRejected);
      Prov.set("infeasiblePruned", E.InfeasiblePruned);
      Prov.set("configsRejected", E.ConfigsRejected);
      Prov.set("wallMs", E.WallMs);
      Prov.set("seedN", E.SeedN);
      Prov.set("seedVariant", E.SeedVariant);
      Row.set("provenance", std::move(Prov));
      List.push(std::move(Row));
    }
  }
  Json Root = Json::object();
  Root.set("version", 1);
  Root.set("entries", std::move(List));
  bool Ok = Root.saveFile(Path);
  if (!Ok)
    ECO_LOG(Warn) << "config db: cannot save to " << Path;
  else if (obs::eventsEnabled())
    obs::publishEvent("db.saved", Json::object());
  return Ok;
}

size_t ConfigDB::load(const std::string &Path) {
  Json Root = Json::loadFile(Path);
  const Json &List = Root.get("entries");
  if (!List.isArray()) {
    if (std::ifstream(Path).good()) {
      ECO_LOG(Warn) << "config db: ignoring unreadable " << Path
                    << "; starting empty";
    }
    return 0;
  }
  size_t Loaded = 0;
  for (size_t I = 0; I < List.size(); ++I) {
    const Json &Row = List.at(I);
    TunedEntry E;
    E.Kernel = Row.get("kernel").asString();
    E.MachineName = Row.get("machineName").asString();
    E.Scale = static_cast<unsigned>(Row.get("scale").asInt(1));
    E.N = Row.get("n").asInt();
    E.Variant = Row.get("variant").asString();
    E.BestCost = Row.get("cost").asNumber();
    E.Evaluations = static_cast<uint64_t>(Row.get("evaluations").asInt());
    E.Seconds = Row.get("seconds").asNumber();
    E.WarmStart = Row.get("warmStart").asString();
    // Legacy rows predate the provenance blob: they load with the
    // zero/empty defaults and stay valid (audits treat 0 as "unknown").
    const Json &Prov = Row.get("provenance");
    if (Prov.isObject()) {
      E.CacheHits = static_cast<uint64_t>(Prov.get("cacheHits").asInt());
      E.VariantsDerived =
          static_cast<uint64_t>(Prov.get("variantsDerived").asInt());
      E.VariantsSearched =
          static_cast<uint64_t>(Prov.get("variantsSearched").asInt());
      E.VariantsRejected =
          static_cast<uint64_t>(Prov.get("variantsRejected").asInt());
      E.InfeasiblePruned =
          static_cast<uint64_t>(Prov.get("infeasiblePruned").asInt());
      E.ConfigsRejected =
          static_cast<uint64_t>(Prov.get("configsRejected").asInt());
      E.WallMs = Prov.get("wallMs").asNumber();
      E.SeedN = Prov.get("seedN").asInt();
      E.SeedVariant = Prov.get("seedVariant").asString();
    }
    // The machine hash persists as fixed-width hex (same rendering as
    // the eval-cache keys); reparse it.
    if (E.Kernel.empty() || E.N <= 0 || !Row.get("config").isObject() ||
        !parseHex64(Row.get("machine").asString(), E.MachineHash))
      continue; // malformed row: skip, keep loading the rest
    for (const auto &[Name, Value] : Row.get("config").fields())
      E.Config.emplace_back(Name, Value.asInt());
    MutexLock Lock(M);
    Entries[keyOf(E.Kernel, E.MachineHash, E.N)] = std::move(E);
    ++Loaded;
  }
  if (Loaded) {
    ECO_LOG(Info) << "config db: loaded " << Loaded << " entries from "
                  << Path;
  }
  return Loaded;
}
