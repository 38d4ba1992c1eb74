//===- examples/eco_check_tool.cpp - The eco_check self-check driver ------===//
//
// Differential self-checking for the whole pipeline (built as `eco_check`;
// the target carries a _tool suffix only because the src/check library owns
// the plain name). Three legs, all on by default:
//
//   diff     every kernel x sampled feasible configs, simulator-executed
//            and natively compiled results compared element-wise against
//            the golden reference under an ulp tolerance
//   replay   a real tune at --jobs 1 and --jobs N: winners must be
//            bit-identical and both runs' event streams must pass the
//            invariant audit (dense seqs, consistent costs, ordered
//            stages, stream minimum == reported best)
//   faults   truncated / corrupted / concurrently rewritten cache
//            files, also under a tune resuming from them: loaders must
//            recover, never crash, never silently resurrect damaged state
//
//   eco_check [--kernel=all|matmul|jacobi|matvec] [--seed=S] [--configs=N]
//             [--n=SIZE] [--scale=K] [--max-ulps=U] [--max-variants=V]
//             [--jobs=N] [--skip-native] [--skip-diff] [--skip-replay]
//             [--skip-faults] [--fleet] [--fuzz=ROUNDS] [--audit-db=FILE]
//             [--audit-events=FILE] [--tmpdir=DIR]
//             [--log-level=off|error|warn|info|debug]
//
//   --fleet         extra leg: eval-worker fleet chaos sweep (a vanishing,
//                   a frozen, and a garbage-reporting worker each paired
//                   with an honest one) — the tune must complete with a
//                   winner bit-identical to a fleetless run
//   --jobs=N        lanes for the replay's parallel run (N >= 2)
//   --fuzz=R        run R extra diff rounds with fresh random seeds
//   --audit-db=F    replay-audit a tuned-config database (ConfigDB JSON)
//                   and exit: every stored best cost must be bitwise
//                   reproducible through a fresh simulator
//   --audit-events=F audit a flight-recorder events file (JSONL) and
//                   exit: schema, dense seqs and monotonic timestamps,
//                   well-formed and bitwise-consistent costs, stage
//                   order, rejected-event <-> counter pairing, stream
//                   totals and minimum that reconcile with each
//                   tune.done record
//
// Exit status: 0 all checks clean, 1 any mismatch/issue, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "check/DbAudit.h"
#include "check/DiffCheck.h"
#include "check/EventAudit.h"
#include "check/FaultInject.h"
#include "kernels/Kernels.h"
#include "obs/Log.h"
#include "support/ParseInt.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

using namespace eco;
using namespace eco::check;

namespace {

struct ToolOptions {
  DiffCheckOptions Diff;
  int Jobs = 2;
  int FuzzRounds = 0;
  bool RunDiff = true;
  bool RunReplay = true;
  bool RunFaults = true;
  bool RunFleet = false;
  std::string AuditDb;
  std::string AuditEvents;
  std::string TmpDir;
};

bool parseArg(ToolOptions &Opts, const std::string &Arg) {
  auto valueOf = [&Arg](const char *Key) -> const char * {
    size_t Len = std::strlen(Key);
    return Arg.compare(0, Len, Key) == 0 ? Arg.c_str() + Len : nullptr;
  };

  if (const char *V = valueOf("--kernel=")) {
    Opts.Diff.KernelFilter = std::strcmp(V, "all") ? V : "";
    return true;
  }
  // Numeric flags parse strictly: a bad value is a usage error, never a
  // silent 0 ("--jobs=abc" must not replay jobs=1 against jobs=1).
  bool Bad = false;
  if (uint64Flag(Arg, "--seed=", Opts.Diff.Seed, Bad) ||
      uint64Flag(Arg, "--max-ulps=", Opts.Diff.MaxUlps, Bad) ||
      intFlag(Arg, "--configs=", 0, 1 << 20,
              Opts.Diff.RandomConfigsPerVariant, Bad) ||
      intFlag(Arg, "--n=", 1, int64_t(1) << 30, Opts.Diff.ProblemSize,
              Bad) ||
      intFlag(Arg, "--scale=", 1, 1 << 20, Opts.Diff.MachineScale, Bad) ||
      intFlag(Arg, "--max-variants=", 0, 1 << 20,
              Opts.Diff.MaxVariantsPerKernel, Bad) ||
      intFlag(Arg, "--jobs=", 2, 4096, Opts.Jobs, Bad) ||
      intFlag(Arg, "--fuzz=", 0, 1 << 20, Opts.FuzzRounds, Bad))
    return !Bad;
  if (Arg == "--fuzz") {
    Opts.FuzzRounds = 4;
    return true;
  }
  if (const char *V = valueOf("--audit-db=")) {
    Opts.AuditDb = V;
    return true;
  }
  if (const char *V = valueOf("--audit-events=")) {
    Opts.AuditEvents = V;
    return true;
  }
  if (const char *V = valueOf("--tmpdir=")) {
    Opts.TmpDir = V;
    return true;
  }
  if (const char *V = valueOf("--log-level="))
    return obs::setLogLevelByName(V);
  if (Arg == "--skip-native") {
    Opts.Diff.CheckNative = false;
    return true;
  }
  if (Arg == "--skip-diff") {
    Opts.RunDiff = false;
    return true;
  }
  if (Arg == "--skip-replay") {
    Opts.RunReplay = false;
    return true;
  }
  if (Arg == "--skip-faults") {
    Opts.RunFaults = false;
    return true;
  }
  if (Arg == "--fleet") {
    Opts.RunFleet = true;
    return true;
  }
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Opts;
  for (int A = 1; A < Argc; ++A) {
    if (!parseArg(Opts, Argv[A])) {
      std::fprintf(
          stderr,
          "usage: %s [--kernel=all|matmul|jacobi|matvec] [--seed=S] "
          "[--configs=N] [--n=SIZE] [--scale=K] [--max-ulps=U] "
          "[--max-variants=V] [--jobs=N] [--skip-native] [--skip-diff] "
          "[--skip-replay] [--skip-faults] [--fleet] [--fuzz[=ROUNDS]] "
          "[--audit-db=FILE] [--audit-events=FILE] "
          "[--tmpdir=DIR] "
          "[--log-level=off|error|warn|info|debug]\n",
          Argv[0]);
      return 2;
    }
  }

  // --audit-db / --audit-events are standalone modes: audit and report.
  if (!Opts.AuditDb.empty()) {
    DbAuditReport Report = auditConfigDBFile(Opts.AuditDb);
    std::printf("%s", Report.summary().c_str());
    return Report.ok() ? 0 : 1;
  }
  if (!Opts.AuditEvents.empty()) {
    EventAuditReport Report = auditEventsFile(Opts.AuditEvents);
    std::printf("%s", Report.summary().c_str());
    return Report.ok() ? 0 : 1;
  }

  bool AllOk = true;

  if (Opts.RunDiff) {
    DiffCheckReport Report = runDiffCheck(Opts.Diff);
    std::printf("%s", Report.summary().c_str());
    AllOk = AllOk && Report.ok();

    DiffCheckOptions Fuzz = Opts.Diff;
    for (int Round = 0; Round < Opts.FuzzRounds; ++Round) {
      Fuzz.Seed = Opts.Diff.Seed * 7919 + 1 + static_cast<uint64_t>(Round);
      DiffCheckReport FR = runDiffCheck(Fuzz);
      std::printf("fuzz round %d (seed %llu): %s", Round + 1,
                  static_cast<unsigned long long>(Fuzz.Seed),
                  FR.summary().c_str());
      AllOk = AllOk && FR.ok();
    }
  }

  // The replay and fault legs need a scratch directory.
  std::string TmpDir = Opts.TmpDir;
  bool MadeTmp = false;
  if ((Opts.RunReplay || Opts.RunFaults || Opts.RunFleet) &&
      TmpDir.empty()) {
    char Template[] = "/tmp/eco_check.XXXXXX";
    if (char *D = mkdtemp(Template)) {
      TmpDir = D;
      MadeTmp = true;
    } else {
      std::fprintf(stderr, "error: cannot create scratch dir\n");
      return 1;
    }
  }

  if (Opts.RunReplay) {
    MachineDesc Machine =
        MachineDesc::sgiR10000().scaledBy(Opts.Diff.MachineScale);
    for (const CheckKernel &K : checkKernels()) {
      if (!Opts.Diff.KernelFilter.empty() &&
          K.Name != Opts.Diff.KernelFilter)
        continue;
      JobsDeterminismResult R = checkJobsDeterminism(
          K.Nest, Machine, {{"N", Opts.Diff.ProblemSize}}, Opts.Jobs,
          TmpDir);
      std::printf("%s: %s", K.Name.c_str(), R.summary().c_str());
      AllOk = AllOk && R.ok();
    }
  }

  if (Opts.RunFaults) {
    FaultCheckReport Report = runPersistenceFaultChecks(TmpDir);
    std::printf("%s", Report.summary().c_str());
    AllOk = AllOk && Report.ok();
  }

  if (Opts.RunFleet) {
    FaultCheckReport Report = runFleetFaultChecks(TmpDir);
    std::printf("%s", Report.summary().c_str());
    AllOk = AllOk && Report.ok();
  }

  if (MadeTmp) {
    // Best-effort scratch cleanup; a leftover /tmp dir is harmless.
    std::string Cmd = "rm -rf '" + TmpDir + "'";
    if (std::system(Cmd.c_str()) != 0)
      std::fprintf(stderr, "note: could not remove %s\n", TmpDir.c_str());
  }

  std::printf("eco_check: %s\n", AllOk ? "OK" : "FAILED");
  return AllOk ? 0 : 1;
}
