//===- tests/test_codegen.cpp - codegen/ unit + integration tests ---------===//
//
// The heavyweight tests here compile emitted C with the system compiler
// and execute it, checking bit-identical results against the golden
// references — a true end-to-end check of the source-to-source flow.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "codegen/NativeRunner.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"
#include "transform/Copy.h"
#include "transform/Permute.h"
#include "transform/Prefetch.h"
#include "transform/ScalarReplace.h"
#include "transform/Tile.h"
#include "transform/UnrollJam.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace eco;

namespace {

/// Builds the fully optimized Figure 1(b) pipeline.
LoopNest buildOptimizedMM(MatMulIds &Ids) {
  LoopNest Nest = makeMatMul(&Ids);
  TileResult TK = tileLoop(Nest, Ids.K, "KK", "TK");
  TileResult TJ = tileLoop(Nest, Ids.J, "JJ", "TJ");
  permuteSpine(Nest, {TK.ControlVar, TJ.ControlVar, Ids.I, Ids.J, Ids.K});
  std::vector<CopyDimSpec> Dims(2);
  Dims[0] = {AffineExpr::sym(TK.ControlVar), TK.TileParam,
             Bound::min(AffineExpr::sym(TK.TileParam),
                        AffineExpr::sym(Ids.N) -
                            AffineExpr::sym(TK.ControlVar))};
  Dims[1] = {AffineExpr::sym(TJ.ControlVar), TJ.TileParam,
             Bound::min(AffineExpr::sym(TJ.TileParam),
                        AffineExpr::sym(Ids.N) -
                            AffineExpr::sym(TJ.ControlVar))};
  applyCopy(Nest, Ids.B, Ids.I, "P", Dims);
  unrollAndJam(Nest, Ids.I, 4);
  unrollAndJam(Nest, Ids.J, 2);
  scalarReplaceInvariant(Nest, Ids.K);
  insertPrefetch(Nest, Ids.A, Ids.K, 8, 8);
  return Nest;
}

} // namespace

TEST(CEmitterTest, PlainMatMulSourceShape) {
  LoopNest Nest = makeMatMul();
  std::string Src = emitC(Nest, "mm");
  EXPECT_NE(Src.find("void mm(const long *params, double **arrays)"),
            std::string::npos);
  EXPECT_NE(Src.find("const long N = params[0];"), std::string::npos);
  EXPECT_NE(Src.find("double *restrict A = arrays[0];"), std::string::npos);
  // Column-major flattening of C[I,J].
  EXPECT_NE(Src.find("C[(I) + (N)*((J))]"), std::string::npos);
}

TEST(CEmitterTest, OptimizedSourceContainsAllConstructs) {
  MatMulIds Ids;
  LoopNest Nest = buildOptimizedMM(Ids);
  std::string Src = emitC(Nest, "mm_opt");
  EXPECT_NE(Src.find("eco_min("), std::string::npos);       // tile clamps
  EXPECT_NE(Src.find("__builtin_prefetch"), std::string::npos);
  EXPECT_NE(Src.find("double r0 = 0.0;"), std::string::npos);
  EXPECT_NE(Src.find("for (long cp"), std::string::npos);   // copy loops
  EXPECT_NE(Src.find("KK += TK"), std::string::npos);       // control loop
}

TEST(CEmitterTest, PrefetchesAreBoundsGuarded) {
  // No unguarded prefetch may appear: &A[i] with out-of-bounds i is UB,
  // and large distances overshoot the footprint on every tail iteration.
  MatMulIds Ids;
  LoopNest Nest = buildOptimizedMM(Ids);
  std::string Src = emitC(Nest, "mm_pf");
  ASSERT_NE(Src.find("__builtin_prefetch"), std::string::npos);
  size_t Pos = 0;
  while ((Pos = Src.find("__builtin_prefetch", Pos)) != std::string::npos) {
    // Each prefetch sits on a line that starts with its bounds guard.
    size_t LineStart = Src.rfind('\n', Pos) + 1;
    std::string Line = Src.substr(LineStart, Pos - LineStart);
    EXPECT_NE(Line.find("if (pf"), std::string::npos)
        << "unguarded prefetch: " << Src.substr(LineStart, 80);
    ++Pos;
  }
}

TEST(NativeRunnerTest, PlainMatMulMatchesReference) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  std::string Error;
  std::unique_ptr<NativeKernel> Kernel = NativeKernel::compile(Nest, &Error);
  ASSERT_NE(Kernel, nullptr) << Error;

  const long N = 17;
  Env Cfg = makeEnv(Nest, {{"N", N}});
  std::vector<std::vector<double>> Arrays = allocateArrays(Nest, Cfg);
  fillDeterministic(Arrays[Ids.A], 1);
  fillDeterministic(Arrays[Ids.B], 2);
  fillDeterministic(Arrays[Ids.C], 3);
  std::vector<double> Ref = Arrays[Ids.C];
  referenceMatMul(Arrays[Ids.A], Arrays[Ids.B], Ref, N);

  Kernel->run(Cfg, Arrays);
  for (long X = 0; X < N * N; ++X)
    ASSERT_DOUBLE_EQ(Arrays[Ids.C][X], Ref[X]) << "idx " << X;
}

TEST(NativeRunnerTest, OptimizedMatMulMatchesReference) {
  MatMulIds Ids;
  LoopNest Nest = buildOptimizedMM(Ids);
  std::string Error;
  std::unique_ptr<NativeKernel> Kernel = NativeKernel::compile(Nest, &Error);
  ASSERT_NE(Kernel, nullptr) << Error;

  for (long N : {13, 16, 24}) {
    Env Cfg = makeEnv(Nest, {{"N", N}, {"TK", 8}, {"TJ", 6}});
    // A, B, C, and the TK x TJ copy buffer.
    std::vector<std::vector<double>> Arrays = allocateArrays(Nest, Cfg);
    ASSERT_EQ(Arrays.size(), 4u);
    ASSERT_EQ(Arrays[3].size(), 8u * 6u);
    fillDeterministic(Arrays[Ids.A], 1);
    fillDeterministic(Arrays[Ids.B], 2);
    fillDeterministic(Arrays[Ids.C], 3);
    std::vector<double> Ref = Arrays[Ids.C];
    referenceMatMul(Arrays[Ids.A], Arrays[Ids.B], Ref, N);

    Kernel->run(Cfg, Arrays);
    for (long X = 0; X < N * N; ++X)
      ASSERT_DOUBLE_EQ(Arrays[Ids.C][X], Ref[X]) << "N=" << N << " idx=" << X;
  }
}

TEST(NativeRunnerTest, OptimizedJacobiMatchesReference) {
  JacobiIds Ids;
  LoopNest Nest = makeJacobi(&Ids);
  TileResult TJ = tileLoop(Nest, Ids.J, "JJ", "TJ");
  permuteSpine(Nest, {TJ.ControlVar, Ids.K, Ids.J, Ids.I});
  unrollAndJam(Nest, Ids.K, 2);
  unrollAndJam(Nest, Ids.J, 2);
  rotatingScalarReplace(Nest, Ids.I);

  std::string Error;
  std::unique_ptr<NativeKernel> Kernel = NativeKernel::compile(Nest, &Error);
  ASSERT_NE(Kernel, nullptr) << Error;

  const long N = 11;
  Env Cfg = makeEnv(Nest, {{"N", N}, {"TJ", 4}});
  std::vector<std::vector<double>> Arrays = allocateArrays(Nest, Cfg);
  fillDeterministic(Arrays[Ids.B], 7);
  std::vector<double> Ref(N * N * N, 0.0);
  referenceJacobi(Arrays[Ids.B], Ref, N);

  Kernel->run(Cfg, Arrays);
  for (size_t X = 0; X < Ref.size(); ++X)
    ASSERT_DOUBLE_EQ(Arrays[Ids.A][X], Ref[X]) << "idx " << X;
}

TEST(NativeRunnerTest, CompileIgnoresEntriesPlantedInSharedTmp) {
  // Another process can create any name in the shared /tmp. Directories
  // planted at the predictable <pid>_<counter> names must neither block
  // the compile nor redirect it: each compile works in its own mkdtemp
  // directory and removes it once the kernel is loaded.
  std::vector<std::string> Planted;
  for (int Counter = 0; Counter < 256; ++Counter) {
    std::string Path = "/tmp/eco_native_" + std::to_string(getpid()) + "_" +
                       std::to_string(Counter) + ".c";
    if (mkdir(Path.c_str(), 0700) == 0)
      Planted.push_back(Path);
  }
  std::string Error;
  std::unique_ptr<NativeKernel> Kernel =
      NativeKernel::compile(makeMatMul(), &Error);
  for (const std::string &Path : Planted)
    rmdir(Path.c_str());
  EXPECT_EQ(Planted.size(), 256u);
  ASSERT_NE(Kernel, nullptr) << Error;
}

TEST(NativeRunnerTest, CompileErrorIsReported) {
  // A nest naming an array with an invalid C identifier forces a compile
  // failure that must surface as an error, not a crash.
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  ArrayId A = Nest.declareArray({"bad name!", {AffineExpr::sym(N)}});
  ArrayRef R(A, {AffineExpr::sym(I)});
  auto L = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                  Bound(AffineExpr::sym(N) - 1));
  L->Items.push_back(
      BodyItem(Stmt::makeCompute(R, ScalarExpr::makeConst(0.0))));
  Nest.Items.push_back(BodyItem(std::move(L)));

  std::string Error;
  std::unique_ptr<NativeKernel> Kernel = NativeKernel::compile(Nest, &Error);
  EXPECT_EQ(Kernel, nullptr);
  EXPECT_FALSE(Error.empty());
}
