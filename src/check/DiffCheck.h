//===- check/DiffCheck.h - Semantic differential testing -------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness leg the search's cost comparisons silently rely on:
/// every transformed variant must compute the same result as the original
/// nest. For each bundled kernel this harness derives the full variant
/// set, draws feasible configurations (the model-heuristic initial point,
/// per-transform adversarial corners, and random perturbations), then runs
/// every instantiated variant through BOTH execution paths the project
/// ships —
///
///   * the simulator path: Executor in value mode (the cost model's walk
///     of the iteration space, additionally computing real FP values);
///   * the native path: CEmitter -> cc -> NativeKernel (the emitted C
///     actually compiled and executed on the host);
///
/// — and compares each output array element-wise against the golden
/// kernels/Reference implementation under an ulp tolerance. This is the
/// Build-to-Order-BLAS style evidence check: generated variants earn
/// trust by machine-checked equivalence, not by assumed-correct
/// transformations.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CHECK_DIFFCHECK_H
#define ECO_CHECK_DIFFCHECK_H

#include "ir/Loop.h"
#include "machine/MachineDesc.h"
#include "sim/Counters.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace eco {

class NativeKernelCache; // codegen/NativeRunner.h

namespace check {

/// One bundled kernel with its golden reference, packaged for
/// differential checking. Original arrays (inputs and the output's
/// initial contents) are filled with fillDeterministic(FillSeedBase + id);
/// arrays the variants add (copy buffers) start zeroed, exactly as the
/// Executor's value mode initializes them.
struct CheckKernel {
  std::string Name;
  LoopNest Nest;
  std::vector<ArrayId> OriginalArrays; ///< deterministically filled
  ArrayId Output = -1;
  /// Expected output contents for problem size N (reference applied to
  /// the same deterministic fills).
  std::function<std::vector<double>(int64_t)> Expected;
};

/// Seed base for the deterministic array fills (seed = base + ArrayId).
inline constexpr uint64_t FillSeedBase = 1000;

/// The registry: matmul, jacobi, matvec — every kernel in Kernels.cpp.
std::vector<CheckKernel> checkKernels();

/// Knobs for one differential run.
struct DiffCheckOptions {
  uint64_t Seed = 1;              ///< PRNG seed for random configurations
  int RandomConfigsPerVariant = 2;
  bool Adversarial = true;        ///< include tile=1 / max-unroll /
                                  ///  prefetch-on corner configurations
  int64_t ProblemSize = 13;       ///< odd, small: exercises cleanup code
  unsigned MachineScale = 64;     ///< shrink caches so tiling matters
  /// Element tolerance (0 = bit-exact). The default absorbs only
  /// reference-vs-IR summation association (the IR builds balanced sum
  /// trees, the reference C++ sums left-to-right — a few ulps on an
  /// occasional element); the transformations themselves never
  /// reassociate, and real indexing bugs differ by whole values.
  uint64_t MaxUlps = 16;
  bool CheckNative = true;        ///< run the native (emitted C) leg
  std::string KernelFilter;       ///< empty = all kernels
  unsigned MaxVariantsPerKernel = 0; ///< 0 = all derived variants
};

/// One element-level disagreement (or a compile failure on the native
/// leg, with Detail carrying the compiler error).
struct DiffMismatch {
  std::string Kernel;
  std::string Variant;
  std::string Config;
  std::string Leg; ///< "sim", "native", or "native-compile"
  size_t Index = 0;
  size_t Count = 0; ///< total mismatching elements for this (config, leg)
  double Got = 0, Want = 0;
  uint64_t Ulps = 0;
  std::string Detail;
};

struct DiffCheckReport {
  size_t Kernels = 0;
  size_t Variants = 0;
  size_t Configs = 0;
  size_t Comparisons = 0;        ///< element comparisons performed
  size_t SkippedInfeasible = 0;  ///< sampled configs no repair could fix
  std::vector<DiffMismatch> Mismatches;

  bool ok() const { return Mismatches.empty(); }
  std::string summary() const;
};

/// The two ways to run a nest on real data, shared by runDiffCheck and
/// runFuzz (which differ only in how they fill and compare). Both take
/// \p Arrays pre-filled, one buffer per ArrayId as allocateArrays sizes
/// them, and return the final contents of every array.
///
/// Simulator leg: the Executor in value mode on \p Machine. \p Counters,
/// when given, receives the run's HWCounters.
std::vector<std::vector<double>>
simLeg(const LoopNest &Nest, const Env &Cfg, const MachineDesc &Machine,
       std::vector<std::vector<double>> Arrays,
       HWCounters *Counters = nullptr);

/// Native leg: the emitted C, compiled through \p Kernels (the cache the
/// tuner's native backend uses) and called once. nullopt, with \p Error
/// filled, when the compile fails.
std::optional<std::vector<std::vector<double>>>
nativeLeg(const LoopNest &Nest, const Env &Cfg, NativeKernelCache &Kernels,
          std::vector<std::vector<double>> Arrays, std::string *Error);

/// Runs the full differential check. Deterministic for a fixed Seed.
DiffCheckReport runDiffCheck(const DiffCheckOptions &Opts = {});

/// Units-in-the-last-place distance between two doubles. 0 for bitwise
/// equality (and for +0 vs -0); UINT64_MAX when either value is NaN or
/// the values have no finite ordering between them.
uint64_t ulpDiff(double A, double B);

} // namespace check
} // namespace eco

#endif // ECO_CHECK_DIFFCHECK_H
