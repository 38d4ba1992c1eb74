//===- check/FaultInject.h - Persistence fault injection -------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fault injection for the engine's persistent artifact — the eval-cache
/// JSON, which is also the only state a killed tune resumes from. The
/// contract under attack: a damaged file must never crash a loader, and
/// must never be silently *wrong* — the engine warns, starts empty,
/// re-evaluates, and produces the same answer a cold run would. The
/// injected faults model what a kill or a concurrent writer actually
/// leaves behind:
///
///   Empty          0-byte file (killed before the first write flushed)
///   TruncateHalf   first half only (killed mid-write, no atomic rename)
///   TruncateTail   last byte dropped (torn final block)
///   CorruptMiddle  one byte flipped mid-file (torn page / interleave)
///   Garbage        valid-length non-JSON noise (foreign file at the path)
///
/// runPersistenceFaultChecks() also hammers the save path from several
/// threads against one target file while a reader loads it in a loop —
/// with non-atomic publication (the old fixed ".tmp" temp name) the
/// reader observes interleaved torn JSON; with unique-temp + rename it
/// must only ever see complete snapshots.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CHECK_FAULTINJECT_H
#define ECO_CHECK_FAULTINJECT_H

#include <string>
#include <vector>

namespace eco {
namespace check {

enum class Fault {
  Empty,
  TruncateHalf,
  TruncateTail,
  CorruptMiddle,
  Garbage,
};

inline constexpr Fault AllFaults[] = {Fault::Empty, Fault::TruncateHalf,
                                      Fault::TruncateTail,
                                      Fault::CorruptMiddle, Fault::Garbage};

const char *faultName(Fault F);

/// Applies \p F to the file at \p Path in place. Returns false when the
/// file cannot be read or rewritten.
bool injectFault(const std::string &Path, Fault F);

/// One failed expectation during the fault sweep.
struct FaultIssue {
  std::string Scenario; ///< e.g. "cache:TruncateHalf", "concurrent-save"
  std::string Detail;
};

struct FaultCheckReport {
  size_t Scenarios = 0;
  std::vector<FaultIssue> Issues;

  bool ok() const { return Issues.empty(); }
  std::string summary() const;
};

/// Runs the whole persistence fault matrix inside \p TmpDir (which must
/// exist and be writable): eval-cache load faults, the same faults under
/// a real engine resuming a tune from the damaged file, concurrent
/// save/load hammering, and stale-temp-file tolerance.
FaultCheckReport runPersistenceFaultChecks(const std::string &TmpDir);

/// Runs the remote eval-worker fleet chaos sweep inside \p TmpDir (unix
/// sockets live there): for each misbehaviour mode — a worker that
/// vanishes mid-batch (the SIGKILL analogue), one that freezes holding a
/// batch (heartbeat-eviction path), and one that reports garbage costs
/// (strike/eviction path) — a tune served by one honest worker plus one
/// misbehaving worker must still complete, and its winner (cost,
/// variant, config) must be bit-identical to a fleetless baseline run.
FaultCheckReport runFleetFaultChecks(const std::string &TmpDir);

} // namespace check
} // namespace eco

#endif // ECO_CHECK_FAULTINJECT_H
