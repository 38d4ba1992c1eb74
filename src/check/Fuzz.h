//===- check/Fuzz.h - Randomized loop-nest + transform fuzzing -*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// eco_fuzz: a seeded, deterministic fuzzer for the transformation
/// pipeline. Each iteration
///
///  1. generates a random valid loop nest over the ir builder API
///     (1-4 loops with odd/prime bounds, several arrays, affine
///     subscripts with transposes and offsets, reduction and
///     non-reduction updates);
///  2. applies a random sequence of Permute / Tile / UnrollJam /
///     ScalarReplace / Copy / Pad / Prefetch steps at randomized
///     parameters — illegal requests must surface as TransformError
///     (counted, never a crash), and the verifier must accept the nest
///     after every applied step;
///  3. executes original and transformed nests through the exec
///     interpreter (and periodically the CEmitter -> cc native path) and
///     compares every original array element-wise under the ulp policy
///     of check/DiffCheck;
///  4. runs the transformed nest once more in counters mode, the fast
///     path the tuner evaluates through, and requires its HWCounters to
///     equal the value-mode run's bitwise.
///
/// On failure the driver greedily shrinks the case — pipeline steps
/// first, then step parameters, then loop bounds — and reports a
/// one-line seed reproducer. Deterministic: (Seed, Iter) fully determines
/// a case.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CHECK_FUZZ_H
#define ECO_CHECK_FUZZ_H

#include <cstdint>
#include <string>
#include <vector>

namespace eco {
namespace check {

struct FuzzOptions {
  uint64_t Seed = 1;   ///< master seed; case seed = f(Seed, iteration)
  int Iters = 100;     ///< iterations to run
  int OnlyIter = -1;   ///< >= 0: run exactly this iteration (reproducer)
                       ///  and print its nests and bindings to stderr
  int NativeEvery = 16; ///< run the native leg every Nth iteration (0: off)
  uint64_t MaxUlps = 16; ///< element-wise tolerance (reassociation slack)
  bool Verbose = false;    ///< per-iteration progress on stderr
};

/// One confirmed failure, minimized.
struct FuzzFailure {
  uint64_t Seed = 0;    ///< master seed
  int Iter = 0;         ///< failing iteration
  std::string Leg;      ///< "sim", "counters", "native",
                        ///< "native-compile", "verify"
  std::string Detail;   ///< first mismatching element / verifier message
  std::string Pipeline; ///< minimized step sequence, printable
  std::string NestDump; ///< minimized original nest
  std::string ReproLine; ///< one-line reproducer command
};

struct FuzzReport {
  int Iterations = 0;
  int StepsApplied = 0;  ///< transform steps that ran to completion
  int StepsRejected = 0; ///< steps refused with TransformError
  int StepsSkipped = 0;  ///< steps not applicable to the current nest
  int NativeRuns = 0;
  int ShrinkRuns = 0;
  std::vector<FuzzFailure> Failures;

  bool ok() const { return Failures.empty(); }
  std::string summary() const;
};

/// Runs the fuzzer. Deterministic for a given FuzzOptions.
FuzzReport runFuzz(const FuzzOptions &Opts);

} // namespace check
} // namespace eco

#endif // ECO_CHECK_FUZZ_H
