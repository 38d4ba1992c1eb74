//===- check/DiffCheck.cpp - Semantic differential testing ----------------===//

#include "check/DiffCheck.h"
#include "codegen/CEmitter.h"
#include "codegen/NativeRunner.h"
#include "core/DeriveVariants.h"
#include "core/Search.h"
#include "exec/Executor.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"
#include "obs/Log.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "transform/TransformError.h"

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <set>

using namespace eco;
using namespace eco::check;

uint64_t eco::check::ulpDiff(double A, double B) {
  if (A == B)
    return 0; // covers +0 vs -0
  if (std::isnan(A) || std::isnan(B))
    return UINT64_MAX;
  // Map the double line onto an order-preserving unsigned line: positive
  // values land ascending in the upper half, negative values ascending
  // (toward zero) in the lower half.
  auto Ordered = [](double D) {
    int64_t I = std::bit_cast<int64_t>(D);
    return I < 0 ? ~static_cast<uint64_t>(I)
                 : static_cast<uint64_t>(I) + 0x8000000000000000ULL;
  };
  uint64_t Ka = Ordered(A), Kb = Ordered(B);
  return Ka > Kb ? Ka - Kb : Kb - Ka;
}

std::vector<CheckKernel> eco::check::checkKernels() {
  std::vector<CheckKernel> Kernels;

  {
    MatMulIds Ids;
    CheckKernel K;
    K.Nest = makeMatMul(&Ids);
    K.Name = "matmul";
    K.OriginalArrays = {Ids.A, Ids.B, Ids.C};
    K.Output = Ids.C;
    K.Expected = [Ids](int64_t N) {
      std::vector<double> A(N * N), B(N * N), C(N * N);
      fillDeterministic(A, FillSeedBase + Ids.A);
      fillDeterministic(B, FillSeedBase + Ids.B);
      fillDeterministic(C, FillSeedBase + Ids.C);
      referenceMatMul(A, B, C, N);
      return C;
    };
    Kernels.push_back(std::move(K));
  }

  {
    JacobiIds Ids;
    CheckKernel K;
    K.Nest = makeJacobi(&Ids);
    K.Name = "jacobi";
    K.OriginalArrays = {Ids.A, Ids.B};
    K.Output = Ids.A;
    K.Expected = [Ids](int64_t N) {
      std::vector<double> A(N * N * N), B(N * N * N);
      fillDeterministic(A, FillSeedBase + Ids.A);
      fillDeterministic(B, FillSeedBase + Ids.B);
      // The sweep writes interior points only; the boundary keeps A's
      // initial fill.
      referenceJacobi(B, A, N);
      return A;
    };
    Kernels.push_back(std::move(K));
  }

  {
    MatVecIds Ids;
    CheckKernel K;
    K.Nest = makeMatVec(&Ids);
    K.Name = "matvec";
    K.OriginalArrays = {Ids.A, Ids.X, Ids.Y};
    K.Output = Ids.Y;
    K.Expected = [Ids](int64_t N) {
      std::vector<double> A(N * N), X(N), Y(N);
      fillDeterministic(A, FillSeedBase + Ids.A);
      fillDeterministic(X, FillSeedBase + Ids.X);
      fillDeterministic(Y, FillSeedBase + Ids.Y);
      referenceMatVec(A, X, Y, N);
      return Y;
    };
    Kernels.push_back(std::move(K));
  }

  return Kernels;
}

namespace {

/// Halves the largest tile/unroll parameter until \p Cfg satisfies every
/// constraint; returns false when no repair is possible.
bool repairFeasible(const DerivedVariant &V, Env &Cfg) {
  for (int Guard = 0; Guard < 64 && !V.feasible(Cfg); ++Guard) {
    SymbolId Largest = -1;
    int64_t LargestVal = 1;
    for (const auto &[Var, Param] : V.TileParamOf)
      if (Cfg.get(Param) > LargestVal) {
        LargestVal = Cfg.get(Param);
        Largest = Param;
      }
    for (const UnrollSpec &U : V.Spec.Unrolls)
      if (Cfg.get(U.FactorParam) > LargestVal) {
        LargestVal = Cfg.get(U.FactorParam);
        Largest = U.FactorParam;
      }
    if (Largest < 0)
      return false;
    Cfg.set(Largest, LargestVal / 2);
  }
  return V.feasible(Cfg);
}

/// The configurations one variant gets checked at: the model-heuristic
/// initial point, the adversarial per-transform corners (tile=1,
/// unroll=SearchMaxUnroll, prefetch forced on), and random perturbations.
std::vector<Env> sampleConfigs(const DerivedVariant &V,
                               const MachineDesc &Machine,
                               const ParamBindings &Problem, Rng &R,
                               const DiffCheckOptions &Opts,
                               size_t *SkippedInfeasible) {
  Env Base = initialConfig(V, Machine, Problem);
  std::vector<Env> Raw;
  Raw.push_back(Base);

  if (Opts.Adversarial) {
    // tile=1: every tiled loop degenerates to single-iteration tiles —
    // the cleanup-heavy corner of the tiling transform.
    Env Tiles1 = Base;
    for (const auto &[Var, Param] : V.TileParamOf)
      Tiles1.set(Param, 1);
    Raw.push_back(std::move(Tiles1));

    // unroll=SearchMaxUnroll: the register-pressure corner of unroll-and-jam
    // and scalar replacement (repaired down if the register constraint
    // rejects the full product).
    if (!V.Spec.Unrolls.empty()) {
      Env MaxU = Base;
      for (const UnrollSpec &U : V.Spec.Unrolls)
        MaxU.set(U.FactorParam, SearchMaxUnroll);
      Raw.push_back(std::move(MaxU));
    }

    // prefetch on: every prefetchable array gets a nonzero distance —
    // prefetch insertion must never perturb values.
    if (!V.Prefetch.empty()) {
      Env Pf = Base;
      for (const PrefetchSpec &P : V.Prefetch)
        Pf.set(P.DistanceParam, 4);
      Raw.push_back(std::move(Pf));
    }
  }

  for (int C = 0; C < Opts.RandomConfigsPerVariant; ++C) {
    Env Cfg = Base;
    for (const auto &[Var, Param] : V.TileParamOf)
      Cfg.set(Param, R.nextInt(1, 9));
    for (const UnrollSpec &U : V.Spec.Unrolls)
      Cfg.set(U.FactorParam, R.nextInt(1, 4));
    for (const PrefetchSpec &P : V.Prefetch)
      Cfg.set(P.DistanceParam, R.nextInt(0, 1) ? R.nextInt(1, 8) : 0);
    Raw.push_back(std::move(Cfg));
  }

  std::vector<Env> Out;
  std::set<std::string> Seen;
  for (Env &Cfg : Raw) {
    if (!repairFeasible(V, Cfg)) {
      ++*SkippedInfeasible;
      continue;
    }
    if (Seen.insert(V.configString(Cfg)).second)
      Out.push_back(std::move(Cfg));
  }
  return Out;
}

/// Runs \p Exec through the Executor in value mode with the deterministic
/// fills and returns the output array contents.
std::vector<double> runSimLeg(const LoopNest &Exec, const Env &Cfg,
                              const MachineDesc &Machine,
                              const CheckKernel &K) {
  MemHierarchySim Sim(Machine);
  ExecOptions EO;
  EO.ComputeValues = true;
  Executor E(Exec, Cfg, Sim, EO);
  for (ArrayId A : K.OriginalArrays)
    fillDeterministic(E.dataOf(A), FillSeedBase + static_cast<uint64_t>(A));
  E.run();
  return E.dataOf(K.Output);
}

/// Compiles (cached by emitted source) and runs \p Exec natively with the
/// deterministic fills; returns the output array or nullopt + error.
std::vector<double>
runNativeLeg(const LoopNest &Exec, const Env &Cfg, const CheckKernel &K,
             std::map<std::string, std::unique_ptr<NativeKernel>> &Compiled,
             bool *CompileOk, std::string *Error) {
  *CompileOk = true;
  std::string Src = emitC(Exec, "eco_check_kernel");
  auto It = Compiled.find(Src);
  if (It == Compiled.end()) {
    std::unique_ptr<NativeKernel> Fresh = NativeKernel::compile(Exec, Error);
    if (!Fresh) {
      *CompileOk = false;
      return {};
    }
    It = Compiled.emplace(std::move(Src), std::move(Fresh)).first;
  }

  std::vector<long> Params(Exec.Syms.size(), 0);
  for (size_t S = 0; S < Params.size() && S < Cfg.size(); ++S)
    Params[S] = static_cast<long>(Cfg.get(static_cast<SymbolId>(S)));

  std::set<ArrayId> Originals(K.OriginalArrays.begin(),
                              K.OriginalArrays.end());
  std::vector<std::vector<double>> Storage;
  std::vector<double *> Arrays;
  for (size_t A = 0; A < Exec.Arrays.size(); ++A) {
    int64_t Elems = Exec.Arrays[A].numElements(Cfg);
    Storage.emplace_back(static_cast<size_t>(Elems), 0.0);
    if (Originals.count(static_cast<ArrayId>(A)))
      fillDeterministic(Storage.back(), FillSeedBase + A);
    Arrays.push_back(Storage.back().data());
  }
  It->second->run(Params.data(), Arrays.data());
  return Storage[static_cast<size_t>(K.Output)];
}

/// Element-wise comparison of \p Got against \p Want; appends at most one
/// mismatch entry (first bad index, total bad count) per call.
void compareLeg(const std::vector<double> &Got,
                const std::vector<double> &Want, const std::string &Leg,
                const CheckKernel &K, const DerivedVariant &V,
                const Env &Cfg, const DiffCheckOptions &Opts,
                DiffCheckReport &Report) {
  if (Got.size() != Want.size()) {
    DiffMismatch M{K.Name, V.Spec.Name, V.configString(Cfg), Leg,
                   0,      1,           0,                   0,
                   0,      strformat("output size %zu != reference %zu",
                                     Got.size(), Want.size())};
    Report.Mismatches.push_back(std::move(M));
    return;
  }
  size_t Bad = 0, FirstBad = 0;
  uint64_t WorstUlps = 0;
  for (size_t X = 0; X < Got.size(); ++X) {
    ++Report.Comparisons;
    uint64_t U = ulpDiff(Got[X], Want[X]);
    if (U > Opts.MaxUlps) {
      if (Bad == 0)
        FirstBad = X;
      WorstUlps = std::max(WorstUlps, U);
      ++Bad;
    }
  }
  if (Bad) {
    DiffMismatch M;
    M.Kernel = K.Name;
    M.Variant = V.Spec.Name;
    M.Config = V.configString(Cfg);
    M.Leg = Leg;
    M.Index = FirstBad;
    M.Count = Bad;
    M.Got = Got[FirstBad];
    M.Want = Want[FirstBad];
    M.Ulps = WorstUlps;
    Report.Mismatches.push_back(std::move(M));
  }
}

} // namespace

DiffCheckReport eco::check::runDiffCheck(const DiffCheckOptions &Opts) {
  DiffCheckReport Report;
  MachineDesc Machine =
      MachineDesc::sgiR10000().scaledBy(std::max(Opts.MachineScale, 1u));
  Rng R(Opts.Seed);
  const int64_t N = Opts.ProblemSize;

  for (const CheckKernel &K : checkKernels()) {
    if (!Opts.KernelFilter.empty() && K.Name != Opts.KernelFilter)
      continue;
    ++Report.Kernels;
    std::vector<double> Want = K.Expected(N);
    std::vector<DerivedVariant> Variants = deriveVariants(K.Nest, Machine);
    std::map<std::string, std::unique_ptr<NativeKernel>> Compiled;

    size_t Limit = Opts.MaxVariantsPerKernel
                       ? std::min<size_t>(Opts.MaxVariantsPerKernel,
                                          Variants.size())
                       : Variants.size();
    for (size_t VI = 0; VI < Limit; ++VI) {
      const DerivedVariant &V = Variants[VI];
      ++Report.Variants;
      for (const Env &Cfg : sampleConfigs(V, Machine, {{"N", N}}, R, Opts,
                                          &Report.SkippedInfeasible)) {
        ++Report.Configs;
        LoopNest Exec;
        try {
          Exec = V.instantiate(Cfg, Machine);
        } catch (const TransformError &) {
          // Sampled config asks for an illegal transform: nothing to
          // compare, the rejection itself is the correct behavior.
          --Report.Configs;
          ++Report.SkippedInfeasible;
          continue;
        }

        compareLeg(runSimLeg(Exec, Cfg, Machine, K), Want, "sim", K, V,
                   Cfg, Opts, Report);

        if (Opts.CheckNative) {
          bool CompileOk = false;
          std::string Error;
          std::vector<double> Native =
              runNativeLeg(Exec, Cfg, K, Compiled, &CompileOk, &Error);
          if (!CompileOk) {
            DiffMismatch M;
            M.Kernel = K.Name;
            M.Variant = V.Spec.Name;
            M.Config = V.configString(Cfg);
            M.Leg = "native-compile";
            M.Count = 1;
            M.Detail = Error;
            Report.Mismatches.push_back(std::move(M));
          } else {
            compareLeg(Native, Want, "native", K, V, Cfg, Opts, Report);
          }
        }
      }
    }
  }
  return Report;
}

std::string DiffCheckReport::summary() const {
  std::string Out = strformat(
      "diff-check: %zu kernel(s), %zu variant(s), %zu config(s), "
      "%zu comparison(s), %zu infeasible skipped -> %zu mismatch(es)\n",
      Kernels, Variants, Configs, Comparisons, SkippedInfeasible,
      Mismatches.size());
  for (const DiffMismatch &M : Mismatches)
    Out += strformat(
        "  MISMATCH %s/%s [%s] leg=%s idx=%zu count=%zu got=%.17g "
        "want=%.17g ulps=%llu %s\n",
        M.Kernel.c_str(), M.Variant.c_str(), M.Config.c_str(),
        M.Leg.c_str(), M.Index, M.Count, M.Got, M.Want,
        static_cast<unsigned long long>(M.Ulps), M.Detail.c_str());
  return Out;
}
