//===- check/DbAudit.h - Tuned-config database replay audit ----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replay auditing for the serve layer's ConfigDB, in the same spirit as
/// the trace audit: the database is the service's public promise ("this
/// configuration costs this much on this machine"), and the simulator is
/// a pure function, so every stored entry must be *bitwise* reproducible
/// from scratch. For each entry the audit
///
///  * rebuilds the named kernel and machine preset and re-derives the
///    variant set at the row's n, through the resolver the fleet worker
///    uses (serve::PointResolver), and checks the stored machine
///    fingerprint matches (a fingerprint drift means the entry was tuned
///    by an incompatible simulator or the file was edited);
///  * finds the stored winning variant and rebinds the stored
///    configuration against its skeleton by name, strictly: a name that
///    is no parameter, or a parameter left unbound, is an issue;
///  * sanity-checks the provenance blob (searched <= derived, a
///    "nearest" warm start names its seed, a cold tune carries none);
///    legacy rows without provenance load as zeros and are skipped;
///  * re-evaluates through an EvalEngine over the resolver's fresh
///    simulator and compares the cost to the stored best bit-for-bit.
///
/// Any mismatch is corruption, tampering, or a simulator behavior change
/// — all of which must fail loudly before the entry is served again.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CHECK_DBAUDIT_H
#define ECO_CHECK_DBAUDIT_H

#include "serve/ConfigDB.h"

#include <string>
#include <vector>

namespace eco {
namespace check {

/// One invariant violation found in the database.
struct DbIssue {
  std::string Kind; ///< "schema", "identity", "variant", "config",
                    ///  "provenance", "cost-mismatch"
  std::string Key;  ///< "kernel@machine n=N" of the offending entry
  std::string Detail;
};

struct DbAuditReport {
  size_t Entries = 0;  ///< entries examined
  size_t Replayed = 0; ///< entries that reached the re-evaluation step
  std::vector<DbIssue> Issues;

  bool ok() const { return Issues.empty(); }
  std::string summary() const;
};

/// Audits every entry of \p Db (replaying each through a fresh
/// simulator).
DbAuditReport auditConfigDB(const serve::ConfigDB &Db);

/// Loads \p Path as a ConfigDB and audits it. An unreadable file yields
/// one "schema" issue (an empty-but-readable DB audits clean).
DbAuditReport auditConfigDBFile(const std::string &Path);

} // namespace check
} // namespace eco

#endif // ECO_CHECK_DBAUDIT_H
