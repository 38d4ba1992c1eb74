//===- examples/eco_fuzz.cpp - Randomized transform-pipeline fuzzer -------===//
//
// Seeded, deterministic fuzzing of the transformation pipeline: random
// loop nests, random transform sequences (illegal requests must be
// rejected with TransformError, never crash), and a differential oracle
// running every case through the interpreter — and periodically the
// CEmitter -> cc native path — element-wise under the ulp policy.
//
//   eco_fuzz [--seed=S] [--iters=N] [--iter=K] [--native-every=N]
//            [--max-ulps=U] [--verbose]
//
//   --iter=K       run exactly iteration K (the one-line reproducer form)
//                  and print its nests and bindings to stderr
//   --native-every=N  compile + run the native leg every Nth iteration
//                     (0 disables the native leg)
//
// On failure: greedy-shrunk reproducer (pipeline steps, then parameters,
// then loop bounds), the minimized nest, and a one-line seed repro.
// Exit status: 0 clean, 1 failures found, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"
#include "support/ParseInt.h"

#include <cstdio>
#include <string>

using namespace eco;
using namespace eco::check;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: eco_fuzz [--seed=S] [--iters=N] [--iter=K]\n"
               "                [--native-every=N] [--max-ulps=U]\n"
               "                [--verbose]\n");
}

bool parseArg(FuzzOptions &Opts, const std::string &Arg) {
  bool Bad = false;
  if (uint64Flag(Arg, "--seed=", Opts.Seed, Bad) ||
      intFlag(Arg, "--iters=", 1, 10000000, Opts.Iters, Bad) ||
      intFlag(Arg, "--iter=", 0, 10000000, Opts.OnlyIter, Bad) ||
      intFlag(Arg, "--native-every=", 0, 1000000, Opts.NativeEvery, Bad) ||
      uint64Flag(Arg, "--max-ulps=", Opts.MaxUlps, Bad))
    return !Bad;
  if (Arg == "--verbose") {
    Opts.Verbose = true;
    return true;
  }
  return false;
}

} // namespace

int main(int argc, char **argv) {
  FuzzOptions Opts;
  for (int A = 1; A < argc; ++A)
    if (!parseArg(Opts, argv[A])) {
      std::fprintf(stderr, "eco_fuzz: bad argument '%s'\n", argv[A]);
      usage();
      return 2;
    }

  FuzzReport Report = runFuzz(Opts);
  std::fputs(Report.summary().c_str(), stdout);
  for (const FuzzFailure &F : Report.Failures) {
    std::fprintf(stdout, "--- minimized nest (iter %d) ---\n%s\n", F.Iter,
                 F.NestDump.c_str());
  }
  return Report.ok() ? 0 : 1;
}
