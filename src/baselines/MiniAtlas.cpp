//===- baselines/MiniAtlas.cpp - ATLAS-style self-tuning dgemm ------------===//

#include "baselines/MiniAtlas.h"
#include "kernels/Kernels.h"
#include "support/Timer.h"
#include "transform/Copy.h"
#include "transform/Permute.h"
#include "transform/ScalarReplace.h"
#include "transform/Tile.h"
#include "transform/UnrollJam.h"

#include <algorithm>
#include <cmath>

using namespace eco;

LoopNest eco::buildMiniAtlasNest(const MiniAtlasConfig &Config) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);

  // Square blocking: every loop tiled by the shared parameter NB. Our
  // tiler declares one parameter per loop; alias them by substituting the
  // shared "NB" symbol afterwards.
  TileResult TI = tileLoop(Nest, Ids.I, "II", "TIa");
  TileResult TJ = tileLoop(Nest, Ids.J, "JJ", "TJa");
  TileResult TK = tileLoop(Nest, Ids.K, "KK", "TKa");
  SymbolId NB = Nest.declareParam("NB");
  for (SymbolId Old : {TI.TileParam, TJ.TileParam, TK.TileParam})
    substituteInBody(Nest.Items, Old, AffineExpr::sym(NB));
  Nest.forEachLoop([&](Loop &L) {
    if (L.StepSym == TI.TileParam || L.StepSym == TJ.TileParam ||
        L.StepSym == TK.TileParam)
      L.StepSym = NB;
  });

  // ATLAS block order: JJ II KK, on-chip loops J I with K innermost.
  permuteSpine(Nest, {TJ.ControlVar, TI.ControlVar, TK.ControlVar, Ids.J,
                      Ids.I, Ids.K});

  if (Config.Copy) {
    // Pack the A and B blocks (ATLAS's on-copy gemm).
    auto SizeOf = [&](SymbolId CV) {
      return Bound::min(AffineExpr::sym(NB),
                        AffineExpr::sym(Ids.N) - AffineExpr::sym(CV));
    };
    std::vector<CopyDimSpec> DimsA(2);
    DimsA[0] = {AffineExpr::sym(TI.ControlVar), NB,
                SizeOf(TI.ControlVar)};
    DimsA[1] = {AffineExpr::sym(TK.ControlVar), NB,
                SizeOf(TK.ControlVar)};
    applyCopy(Nest, Ids.A, /*BeforeLoopVar=*/Ids.J, "PA", DimsA);
    std::vector<CopyDimSpec> DimsB(2);
    DimsB[0] = {AffineExpr::sym(TK.ControlVar), NB,
                SizeOf(TK.ControlVar)};
    DimsB[1] = {AffineExpr::sym(TJ.ControlVar), NB,
                SizeOf(TJ.ControlVar)};
    applyCopy(Nest, Ids.B, /*BeforeLoopVar=*/Ids.J, "PB", DimsB);
  }

  if (Config.KU > 1)
    unrollAndJam(Nest, Ids.K, Config.KU);
  if (Config.MU > 1)
    unrollAndJam(Nest, Ids.I, Config.MU);
  if (Config.NU > 1)
    unrollAndJam(Nest, Ids.J, Config.NU);
  scalarReplaceInvariant(Nest, Ids.K);
  rotatingScalarReplace(Nest, Ids.K);
  return Nest;
}

double eco::evalMiniAtlas(EvalBackend &Backend,
                          const MiniAtlasConfig &Config, int64_t N) {
  LoopNest Nest = buildMiniAtlasNest(Config);
  Env E(Nest.Syms.size());
  E.set(Nest.Syms.lookup("N"), N);
  E.set(Nest.Syms.lookup("NB"), Config.NB);
  return Backend.evaluate(Nest, E);
}

MiniAtlasResult eco::tuneMiniAtlas(EvalBackend &Backend, int64_t N,
                                   int64_t CopyMinSize) {
  Timer Total;
  MiniAtlasResult Result;
  bool Copy = N >= CopyMinSize;

  // NB candidates well past the square-block L1 fit (ATLAS sweeps
  // broadly; it has no model telling it where to stop).
  int64_t L1Elems = std::max<int64_t>(
      static_cast<int64_t>(Backend.machine().cache(0).CapacityBytes / 8),
      16);
  int64_t MaxNB = std::max<int64_t>(
      3 * static_cast<int64_t>(std::sqrt((double)L1Elems)), 48);

  auto tryConfig = [&](MiniAtlasConfig C) {
    C.Copy = Copy;
    if (C.NB < 4 || C.NB > N + 16)
      return;
    if (C.MU * C.NU >
        static_cast<int>(Backend.machine().FpRegisters))
      return;
    double Cost = evalMiniAtlas(Backend, C, N);
    if (++Result.Trace.Evaluations == 1 || Cost < Result.BestCost) {
      Result.BestCost = Cost;
      Result.Best = C;
    }
  };

  // ATLAS-style exhaustive grid: NB sweep x register-tile grid, then a
  // KU line at the winner. No models prune anything.
  std::vector<int64_t> NBs;
  for (int64_t NB = 4; NB <= MaxNB && NB <= 512; NB += 4)
    NBs.push_back(NB);
  if (NBs.empty())
    NBs.push_back(8);
  const std::pair<int, int> RegTiles[] = {{1, 1}, {2, 1}, {2, 2}, {4, 1},
                                          {4, 2}, {4, 4}, {6, 1}, {6, 2},
                                          {8, 1}, {8, 2}, {8, 4}, {2, 4},
                                          {1, 4}, {2, 8}, {4, 8}};
  for (int64_t NB : NBs)
    for (auto [MU, NU] : RegTiles) {
      MiniAtlasConfig C;
      C.NB = NB;
      C.MU = MU;
      C.NU = NU;
      tryConfig(C);
    }
  for (int KU : {2, 4}) {
    MiniAtlasConfig C = Result.Best;
    C.KU = KU;
    tryConfig(C);
  }

  Result.Trace.Seconds = Total.seconds();
  return Result;
}
