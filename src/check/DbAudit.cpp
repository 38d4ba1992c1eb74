//===- check/DbAudit.cpp - Tuned-config database replay audit -------------===//

#include "check/DbAudit.h"

#include "serve/Fleet.h"
#include "serve/Protocol.h"
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

static void auditEntry(const serve::TunedEntry &E,
                       serve::PointResolver &Resolver,
                       DbAuditReport &Report) {
  std::string Key =
      serve::JobSpec{E.Kernel, E.MachineName, E.Scale, E.N}.summary();
  auto issue = [&](const char *Kind, std::string Detail) {
    Report.Issues.push_back({Kind, Key, std::move(Detail)});
  };

  if (E.N <= 0 || E.Config.empty() || !std::isfinite(E.BestCost) ||
      E.BestCost <= 0) {
    issue("schema", "entry is not well-formed (bad n, empty config, or "
                    "non-finite/non-positive cost)");
    return;
  }

  std::string Error;
  const serve::PointContext *Ctx =
      Resolver.resolve({E.Kernel, E.MachineName, E.Scale, E.N}, &Error);
  if (!Ctx) {
    issue("schema", Error);
    return;
  }
  if (Ctx->Machine.fingerprint() != E.MachineHash) {
    issue("identity",
          strformat("stored machine fingerprint %s != rebuilt %s (edited "
                    "file or incompatible simulator)",
                    hashHex(E.MachineHash).c_str(),
                    hashHex(Ctx->Machine.fingerprint()).c_str()));
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

  const DerivedVariant *V = Ctx->variant(E.Variant);
  if (!V) {
    issue("variant", "winning variant '" + E.Variant +
                         "' is not in the derived set");
    return;
  }
  // Rebind by name against the fresh skeleton (symbol ids may differ).
  Env Config;
  if (!serve::PointContext::bind(*V, E.Config, Config, &Error)) {
    issue("config", Error);
    return;
  }

  ++Report.Replayed;
  double Replayed =
      EvalEngine(*Ctx->Backend).evaluate(*V, Config, "audit").Cost;
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
  serve::PointResolver Resolver;
  for (const serve::TunedEntry &E : Entries)
    auditEntry(E, Resolver, Report);
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
