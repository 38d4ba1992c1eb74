//===- check/FaultInject.cpp - Persistence fault injection ----------------===//

#include "check/FaultInject.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "engine/EvalCache.h"
#include "kernels/Kernels.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace eco;
using namespace eco::check;

const char *eco::check::faultName(Fault F) {
  switch (F) {
  case Fault::Empty:
    return "Empty";
  case Fault::TruncateHalf:
    return "TruncateHalf";
  case Fault::TruncateTail:
    return "TruncateTail";
  case Fault::CorruptMiddle:
    return "CorruptMiddle";
  case Fault::Garbage:
    return "Garbage";
  }
  return "?";
}

bool eco::check::injectFault(const std::string &Path, Fault F) {
  std::string Contents;
  {
    std::ifstream In(Path, std::ios::binary);
    if (!In)
      return false;
    std::ostringstream SS;
    SS << In.rdbuf();
    Contents = SS.str();
  }

  switch (F) {
  case Fault::Empty:
    Contents.clear();
    break;
  case Fault::TruncateHalf:
    Contents.resize(Contents.size() / 2);
    break;
  case Fault::TruncateTail:
    // Drop the last *significant* byte (the closing brace, not the
    // trailing newline dumpPretty appends) so the result never parses.
    while (!Contents.empty() &&
           (Contents.back() == '\n' || Contents.back() == ' '))
      Contents.pop_back();
    if (!Contents.empty())
      Contents.pop_back();
    break;
  case Fault::CorruptMiddle: {
    // Flip the structural character nearest the middle. A flipped byte
    // inside a string would still parse (and model silent value
    // corruption, which JSON cannot detect); clobbering a brace, colon,
    // or comma models a torn page in a way a loader must reject.
    size_t Mid = Contents.size() / 2;
    auto Structural = [](char C) {
      return C == '{' || C == '}' || C == '[' || C == ']' || C == ':' ||
             C == ',';
    };
    for (size_t Off = 0; Off <= Mid; ++Off) {
      if (Mid + Off < Contents.size() && Structural(Contents[Mid + Off])) {
        Contents[Mid + Off] = '\x01';
        break;
      }
      if (Off <= Mid && Structural(Contents[Mid - Off])) {
        Contents[Mid - Off] = '\x01';
        break;
      }
    }
    break;
  }
  case Fault::Garbage:
    for (char &C : Contents)
      C = static_cast<char>('A' + (static_cast<unsigned char>(C) % 23));
    break;
  }

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << Contents;
  return Out.good();
}

namespace {

bool copyFile(const std::string &From, const std::string &To) {
  std::ifstream In(From, std::ios::binary);
  if (!In)
    return false;
  std::ofstream Out(To, std::ios::binary | std::ios::trunc);
  Out << In.rdbuf();
  return Out.good();
}

/// A tiny but real tune used as the cache-resume fixture: matmul at
/// N=16 on a strongly scaled-down machine, two variants searched.
struct SmallTune {
  LoopNest Nest;
  MachineDesc Machine = MachineDesc::sgiR10000().scaledBy(64);
  ParamBindings Problem{{"N", 16}};
  TuneOptions Opts;

  SmallTune() : Nest(makeMatMul()) { Opts.MaxVariantsToSearch = 2; }

  std::string winner(const TuneResult &R) const {
    if (R.BestVariant < 0)
      return "<none>";
    return R.best().Spec.Name + "|" + R.best().configString(R.BestConfig) +
           "|" + strformat("%.17g", R.BestCost);
  }

  /// Tunes on a fresh engine that loads and then flushes \p CacheFile.
  TuneResult run(const std::string &CacheFile) {
    SimEvalBackend Backend(Machine);
    EngineOptions EO;
    EO.CacheFile = CacheFile;
    EvalEngine Engine(Backend, EO);
    TuneResult R = tune(Nest, Engine, Problem, Opts);
    Engine.flush();
    return R;
  }
};

} // namespace

FaultCheckReport
eco::check::runPersistenceFaultChecks(const std::string &TmpDir) {
  FaultCheckReport Report;
  auto Fail = [&Report](const std::string &Scenario, std::string Detail) {
    Report.Issues.push_back({Scenario, std::move(Detail)});
  };

  // ---- eval-cache fault matrix -----------------------------------------
  // A healthy saved cache, damaged five ways: every load must come back
  // without crashing, never with entries the file no longer proves, and
  // the cache must remain fully usable (insert/save/load roundtrip).
  const std::string CachePath = TmpDir + "/fault_cache.json";
  EvalCache Healthy;
  for (uint64_t I = 0; I < 8; ++I)
    Healthy.insert(EvalKey{I, 42, I * 7}, static_cast<double>(I) + 0.5);
  if (!Healthy.save(CachePath))
    Fail("cache:setup", "cannot save healthy cache to " + CachePath);

  for (Fault F : AllFaults) {
    std::string Scenario = std::string("cache:") + faultName(F);
    ++Report.Scenarios;
    const std::string Target = TmpDir + "/fault_cache_inject.json";
    if (!copyFile(CachePath, Target) || !injectFault(Target, F)) {
      Fail(Scenario, "fault setup failed");
      continue;
    }
    EvalCache Damaged;
    size_t Loaded = Damaged.load(Target); // must not crash
    if (Loaded > Healthy.size() || Damaged.size() > Healthy.size())
      Fail(Scenario, strformat("loaded %zu entries from a damaged file "
                               "holding at most %zu",
                               Loaded, Healthy.size()));
    // Whatever survived, every surviving entry must round-trip: the
    // damaged load must not poison later persistence.
    Damaged.insert(EvalKey{99, 42, 99}, 123.25);
    if (!Damaged.save(Target)) {
      Fail(Scenario, "save after damaged load failed");
      continue;
    }
    EvalCache Reloaded;
    size_t Again = Reloaded.load(Target);
    if (Again != Damaged.size())
      Fail(Scenario, strformat("post-recovery roundtrip lost entries "
                               "(%zu saved, %zu reloaded)",
                               Damaged.size(), Again));
    if (!Reloaded.lookup(EvalKey{99, 42, 99}) ||
        *Reloaded.lookup(EvalKey{99, 42, 99}) != 123.25)
      Fail(Scenario, "post-recovery insert did not survive the roundtrip");
  }

  // ---- cache-resume fault matrix ---------------------------------------
  // A real (small) tune writes the cache file a killed tune resumes
  // from. A fresh engine over each damaged copy must replay the same
  // decisions (points + hits), reach the baseline winner bitwise, and
  // flush a parseable replacement.
  SmallTune Fixture;
  const std::string ResumePath = TmpDir + "/fault_resume.json";
  std::remove(ResumePath.c_str());
  TuneResult Baseline = Fixture.run(ResumePath);
  if (Baseline.BestVariant < 0)
    Fail("resume:setup", "baseline tune found no variant");

  for (Fault F : AllFaults) {
    std::string Scenario = std::string("resume:") + faultName(F);
    ++Report.Scenarios;
    const std::string Target = TmpDir + "/fault_resume_inject.json";
    if (!copyFile(ResumePath, Target) || !injectFault(Target, F)) {
      Fail(Scenario, "fault setup failed");
      continue;
    }
    TuneResult R = Fixture.run(Target);
    if (Fixture.winner(R) != Fixture.winner(Baseline))
      Fail(Scenario, "resumed tune diverged: " + Fixture.winner(R) +
                         " vs baseline " + Fixture.winner(Baseline));
    if (R.TotalPoints + R.TotalCacheHits !=
        Baseline.TotalPoints + Baseline.TotalCacheHits)
      Fail(Scenario,
           strformat("resumed tune made %zu lookups, baseline %zu",
                     R.TotalPoints + R.TotalCacheHits,
                     Baseline.TotalPoints + Baseline.TotalCacheHits));
    std::string Error;
    if (!Json::loadFile(Target, &Error).isObject())
      Fail(Scenario, "flushed cache file unparseable: " + Error);
  }

  // ---- concurrent rewrite ----------------------------------------------
  // Several writers snapshot DIFFERENT caches into ONE path while a
  // reader loads it in a loop. Atomic publication means every observed
  // file parses and matches one writer's snapshot exactly. (The old
  // fixed ".tmp" temp name interleaved writers into the same temp file
  // and renamed torn JSON into place — this scenario catches that.)
  {
    ++Report.Scenarios;
    const std::string Shared = TmpDir + "/fault_concurrent.json";
    constexpr int Writers = 4, SavesPerWriter = 25;
    EvalCache Seed;
    Seed.insert(EvalKey{0, 0, 0}, 0.5);
    Seed.save(Shared); // reader never sees ENOENT

    std::atomic<bool> Stop{false};
    std::atomic<size_t> TornReads{0}, GoodReads{0};
    std::thread Reader([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        std::string Error;
        Json J = Json::loadFile(Shared, &Error);
        if (J.isObject())
          GoodReads.fetch_add(1, std::memory_order_relaxed);
        else
          TornReads.fetch_add(1, std::memory_order_relaxed);
      }
    });

    std::vector<std::thread> Threads;
    for (int W = 0; W < Writers; ++W)
      Threads.emplace_back([&, W] {
        EvalCache Mine;
        // Distinct sizes per writer so torn interleavings are visible.
        for (uint64_t I = 0; I <= static_cast<uint64_t>(W) * 5; ++I)
          Mine.insert(EvalKey{static_cast<uint64_t>(W), I, I}, 1.0 + W);
        for (int S = 0; S < SavesPerWriter; ++S)
          if (!Mine.save(Shared))
            TornReads.fetch_add(1, std::memory_order_relaxed);
      });
    for (std::thread &T : Threads)
      T.join();
    Stop.store(true);
    Reader.join();

    if (TornReads.load())
      Fail("concurrent-save",
           strformat("%zu torn/unparseable observation(s) across %zu "
                     "clean reads",
                     TornReads.load(), GoodReads.load()));
    std::string Error;
    if (!Json::loadFile(Shared, &Error).isObject())
      Fail("concurrent-save", "final file unparseable: " + Error);
  }

  // ---- stale temp files -------------------------------------------------
  // Leftover temp files from killed saves (any spelling) must not break
  // subsequent saves or loads of the real path.
  {
    ++Report.Scenarios;
    const std::string Path = TmpDir + "/fault_stale.json";
    std::ofstream(Path + ".tmp") << "{ torn";
    std::ofstream(Path + ".tmp.999.7") << "garbage";
    EvalCache C;
    C.insert(EvalKey{1, 2, 3}, 4.5);
    if (!C.save(Path))
      Fail("stale-tmp", "save next to stale temp files failed");
    EvalCache In;
    if (In.load(Path) != 1)
      Fail("stale-tmp", "load next to stale temp files lost the entry");
  }

  return Report;
}

std::string FaultCheckReport::summary() const {
  std::string Out =
      strformat("fault-inject: %zu scenario(s) -> %zu issue(s)\n",
                Scenarios, Issues.size());
  for (const FaultIssue &I : Issues)
    Out += strformat("  FAULT [%s] %s\n", I.Scenario.c_str(),
                     I.Detail.c_str());
  return Out;
}
