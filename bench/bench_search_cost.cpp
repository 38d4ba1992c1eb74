//===- bench/bench_search_cost.cpp - Reproduces Section 4.3 ---------------===//
//
// "Cost of Search": how many points each search visits and how long it
// takes, for both kernels on both machines — ECO's model-guided search
// vs the ATLAS-style grid (no models). The paper: ECO searched 60 points
// (MM/SGI) in ~8 minutes vs ATLAS's 35 minutes — 2-4x faster. Expected
// shape here: ECO visits a small, similar number of points; the
// ATLAS-style grid visits several times more.
//
// Results are also emitted as BENCH_search_cost.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "baselines/MiniAtlas.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"
#include "support/Json.h"

using namespace eco;
using namespace ecobench;

int main() {
  Json Out = Json::object();
  Out.set("bench", "search_cost");

  banner("Section 4.3: cost of the empirical search");
  Table T({"Search", "Machine", "Kernel", "Points", "Seconds",
           "Best cost (cycles)"});
  Json Rows = Json::array();
  auto addRow = [&](const char *Search, const char *Machine,
                    const char *Kernel, size_t Points, double Seconds,
                    double BestCost) {
    T.addRow({Search, Machine, Kernel, std::to_string(Points),
              strformat("%.1f", Seconds),
              withCommas(static_cast<uint64_t>(BestCost))});
    Json R = Json::object();
    R.set("search", Search);
    R.set("machine", Machine);
    R.set("kernel", Kernel);
    R.set("points", static_cast<uint64_t>(Points));
    R.set("seconds", Seconds);
    R.set("bestCost", BestCost);
    Rows.push(std::move(R));
  };

  struct Target {
    const char *Name;
    MachineDesc M;
  };
  const Target Targets[] = {{"SGI", sgi()}, {"Sun", sun()}};

  for (const Target &Tg : Targets) {
    SimEvalBackend Backend(Tg.M);

    LoopNest MM = makeMatMul();
    TuneResult EcoMM = tune(MM, Backend, {{"N", 160}});
    addRow("ECO (guided)", Tg.Name, "MatMul", EcoMM.TotalPoints,
           EcoMM.TotalSeconds, EcoMM.BestCost);

    MiniAtlasResult Atlas = tuneMiniAtlas(Backend, 160);
    addRow("ATLAS-style grid", Tg.Name, "MatMul",
           Atlas.Trace.numEvaluations(), Atlas.Trace.Seconds,
           Atlas.BestCost);

    LoopNest Jac = makeJacobi();
    TuneResult EcoJ = tune(Jac, Backend, {{"N", 96}});
    addRow("ECO (guided)", Tg.Name, "Jacobi", EcoJ.TotalPoints,
           EcoJ.TotalSeconds, EcoJ.BestCost);
  }
  std::printf("%s", T.render().c_str());
  std::printf("\n(paper: ECO searched 60 MM points on the SGI / 44 on the "
              "Sun, Jacobi 94 / 148; the ATLAS search took 2-4x longer)\n");
  Out.set("table", std::move(Rows));

  if (!Out.saveFile("BENCH_search_cost.json"))
    std::fprintf(stderr, "warning: could not write BENCH_search_cost.json\n");
  else
    std::printf("\nwrote BENCH_search_cost.json\n");
  return 0;
}
