//===- check/DbAudit.cpp - Tuned-config database replay audit -------------===//

#include "check/DbAudit.h"

#include "core/DeriveVariants.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "serve/Server.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cmath>

using namespace eco;
using namespace eco::check;

std::string DbAuditReport::summary() const {
  std::string S = strformat(
      "db audit: %zu entr%s, %zu replayed, %zu issue(s)\n", Entries,
      Entries == 1 ? "y" : "ies", Replayed, Issues.size());
  for (const DbIssue &I : Issues)
    S += strformat("  [%s] %s: %s\n", I.Kind.c_str(), I.Key.c_str(),
                   I.Detail.c_str());
  return S;
}

static void auditEntry(const serve::TunedEntry &E, DbAuditReport &Report) {
  std::string Key = E.Kernel + "@" + E.MachineName +
                    (E.MachineName == "host"
                         ? ""
                         : "/" + std::to_string(E.Scale)) +
                    " n=" + std::to_string(E.N);
  auto issue = [&](const char *Kind, std::string Detail) {
    Report.Issues.push_back({Kind, Key, std::move(Detail)});
  };

  if (E.N <= 0 || E.Config.empty() || !std::isfinite(E.BestCost) ||
      E.BestCost <= 0) {
    issue("schema", "entry is not well-formed (bad n, empty config, or "
                    "non-finite/non-positive cost)");
    return;
  }

  LoopNest Nest;
  MachineDesc Machine;
  if (!serve::buildKernel(E.Kernel, Nest)) {
    issue("schema", "unknown kernel '" + E.Kernel + "'");
    return;
  }
  if (!serve::buildMachine(E.MachineName, E.Scale, Machine)) {
    issue("schema", "unknown machine '" + E.MachineName + "'");
    return;
  }
  if (Machine.fingerprint() != E.MachineHash) {
    issue("identity",
          strformat("stored machine fingerprint %s != rebuilt %s (edited "
                    "file or incompatible simulator)",
                    hashHex(E.MachineHash).c_str(),
                    hashHex(Machine.fingerprint()).c_str()));
    return;
  }

  // Provenance sanity (rows written before the provenance blob carry
  // zeros, which every check below treats as "unknown" and skips).
  if (E.VariantsSearched > E.VariantsDerived && E.VariantsDerived > 0)
    issue("provenance",
          strformat("searched %llu variants but only %llu were derived",
                    static_cast<unsigned long long>(E.VariantsSearched),
                    static_cast<unsigned long long>(E.VariantsDerived)));
  if (E.WarmStart == "nearest" && E.VariantsDerived > 0 &&
      (E.SeedN <= 0 || E.SeedVariant.empty()))
    issue("provenance",
          "warm start 'nearest' but the provenance names no seed");
  if (E.WarmStart == "cold" && (E.SeedN != 0 || !E.SeedVariant.empty()))
    issue("provenance", "cold tune carries a warm-start seed lineage");

  std::vector<DerivedVariant> Variants = deriveVariants(Nest, Machine);
  const DerivedVariant *V = nullptr;
  for (const DerivedVariant &Cand : Variants)
    if (Cand.Spec.Name == E.Variant)
      V = &Cand;
  if (!V) {
    issue("variant", "winning variant '" + E.Variant +
                         "' is not in the derived set");
    return;
  }

  // Rebind by name against the fresh skeleton; every stored name must
  // resolve and every Param/ProblemSize must be covered (makeEnv would
  // assert on either hole — an audit reports instead).
  for (const auto &[Name, Value] : E.Config) {
    (void)Value;
    if (V->Skeleton.Syms.lookup(Name) < 0) {
      issue("config", "config names unknown symbol '" + Name + "'");
      return;
    }
  }
  for (size_t Id = 0; Id < V->Skeleton.Syms.size(); ++Id) {
    SymbolKind Kind = V->Skeleton.Syms.kind(static_cast<SymbolId>(Id));
    if (Kind == SymbolKind::LoopVar)
      continue;
    const std::string &Name =
        V->Skeleton.Syms.name(static_cast<SymbolId>(Id));
    bool Found = false;
    for (const auto &[CName, CValue] : E.Config) {
      (void)CValue;
      if (CName == Name)
        Found = true;
    }
    if (!Found) {
      issue("config", "config is missing symbol '" + Name + "'");
      return;
    }
  }

  Env Config = makeEnv(V->Skeleton, E.Config);
  SimEvalBackend Backend(Machine);
  EvalEngine Eval(Backend);
  ++Report.Replayed;
  double Replayed = Eval.evaluate(*V, Config, "audit").Cost;
  // Bitwise, not approximate: the simulator is a pure function, so the
  // only sources of drift are corruption, tampering, or a simulator
  // change — each of which must fail the audit.
  if (Replayed != E.BestCost)
    issue("cost-mismatch",
          strformat("stored cost %.17g != replayed %.17g", E.BestCost,
                    Replayed));
}

DbAuditReport check::auditConfigDB(const serve::ConfigDB &Db) {
  DbAuditReport Report;
  // Copy entries out first: auditing re-runs simulations, and forEach
  // holds the DB lock.
  std::vector<serve::TunedEntry> Entries;
  Db.forEach([&](const serve::TunedEntry &E) { Entries.push_back(E); });
  Report.Entries = Entries.size();
  for (const serve::TunedEntry &E : Entries)
    auditEntry(E, Report);
  return Report;
}

DbAuditReport check::auditConfigDBFile(const std::string &Path) {
  serve::ConfigDB Db;
  size_t Loaded = Db.load(Path);
  if (Loaded == 0 && !Json::loadFile(Path).isObject()) {
    DbAuditReport Report;
    Report.Issues.push_back(
        {"schema", Path, "file is missing or not a JSON object"});
    return Report;
  }
  return auditConfigDB(Db);
}
