//===- check/DiffCheck.cpp - Semantic differential testing ----------------===//

#include "check/DiffCheck.h"
#include "codegen/NativeRunner.h"
#include "core/DeriveVariants.h"
#include "core/Search.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"
#include "obs/Log.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "transform/TransformError.h"

#include <bit>
#include <cassert>
#include <cmath>
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

/// The configurations one variant gets checked at: the model-heuristic
/// initial point, the adversarial per-transform corners (tile=1, unroll at
/// the space's bound, prefetch forced on), and random perturbations.
std::vector<Env> sampleConfigs(const DerivedVariant &V,
                               const MachineDesc &Machine,
                               const ParamBindings &Problem, Rng &R,
                               const DiffCheckOptions &Opts,
                               size_t *SkippedInfeasible) {
  SearchSpace Space(V);
  Env Base = Space.initialConfig(Machine, Problem);
  std::vector<Env> Raw;
  Raw.push_back(Base);

  if (Opts.Adversarial) {
    // tile=1: every tiled loop degenerates to single-iteration tiles —
    // the cleanup-heavy corner of the tiling transform.
    Env Tiles1 = Base;
    for (SymbolId P : Space.tileParams())
      Tiles1.set(P, 1);
    Raw.push_back(std::move(Tiles1));

    // unroll at its bound: the register-pressure corner of unroll-and-jam
    // and scalar replacement (repaired down if the register constraint
    // rejects the full product).
    if (!Space.unrollParams().empty()) {
      Env MaxU = Base;
      for (SymbolId P : Space.unrollParams())
        MaxU.set(P, Space.bounds().MaxUnroll);
      Raw.push_back(std::move(MaxU));
    }

    // prefetch on: every prefetchable array gets a nonzero distance —
    // prefetch insertion must never perturb values.
    if (!Space.prefetchParams().empty()) {
      Env Pf = Base;
      for (SymbolId P : Space.prefetchParams())
        Pf.set(P, 4);
      Raw.push_back(std::move(Pf));
    }
  }

  for (int C = 0; C < Opts.RandomConfigsPerVariant; ++C) {
    Env Cfg = Base;
    for (SymbolId P : Space.tileParams())
      Cfg.set(P, R.nextInt(1, 9));
    for (SymbolId P : Space.unrollParams())
      Cfg.set(P, R.nextInt(1, 4));
    for (SymbolId P : Space.prefetchParams())
      Cfg.set(P, R.nextInt(0, 1) ? R.nextInt(1, 8) : 0);
    Raw.push_back(std::move(Cfg));
  }

  // Repair halves the largest tile or unroll factor.
  std::vector<SymbolId> Repairable = Space.tileParams();
  Repairable.insert(Repairable.end(), Space.unrollParams().begin(),
                    Space.unrollParams().end());
  std::vector<Env> Out;
  std::set<std::vector<int64_t>> Seen;
  for (Env &Cfg : Raw) {
    if (!Space.halveUntilFeasible(Cfg, Repairable)) {
      ++*SkippedInfeasible;
      continue;
    }
    if (Seen.insert(Space.key(Cfg)).second)
      Out.push_back(std::move(Cfg));
  }
  return Out;
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

std::vector<std::vector<double>>
eco::check::simLeg(const LoopNest &Nest, const Env &Cfg,
                   const MachineDesc &Machine,
                   std::vector<std::vector<double>> Arrays,
                   HWCounters *Counters) {
  MemHierarchySim Sim(Machine);
  ExecOptions EO;
  EO.ComputeValues = true;
  Executor E(Nest, Cfg, Sim, EO);
  for (size_t A = 0; A < Arrays.size(); ++A) {
    assert(E.dataOf(static_cast<ArrayId>(A)).size() == Arrays[A].size() &&
           "arrays not sized by allocateArrays");
    E.dataOf(static_cast<ArrayId>(A)) = std::move(Arrays[A]);
  }
  E.run();
  if (Counters)
    *Counters = Sim.counters();
  for (size_t A = 0; A < Arrays.size(); ++A)
    Arrays[A] = std::move(E.dataOf(static_cast<ArrayId>(A)));
  return Arrays;
}

std::optional<std::vector<std::vector<double>>>
eco::check::nativeLeg(const LoopNest &Nest, const Env &Cfg,
                      NativeKernelCache &Kernels,
                      std::vector<std::vector<double>> Arrays,
                      std::string *Error) {
  NativeKernel *Kernel = Kernels.get(Nest, Error);
  if (!Kernel)
    return std::nullopt;
  Kernel->run(Cfg, Arrays);
  return Arrays;
}

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
    NativeKernelCache Kernels;

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

        std::vector<std::vector<double>> Fills = allocateArrays(Exec, Cfg);
        for (ArrayId A : K.OriginalArrays)
          fillDeterministic(Fills[A], FillSeedBase + static_cast<uint64_t>(A));
        compareLeg(simLeg(Exec, Cfg, Machine, Fills)[K.Output], Want,
                   "sim", K, V, Cfg, Opts, Report);

        if (Opts.CheckNative) {
          std::string Error;
          std::optional<std::vector<std::vector<double>>> Native =
              nativeLeg(Exec, Cfg, Kernels, std::move(Fills), &Error);
          if (!Native)
            Report.Mismatches.push_back({K.Name, V.Spec.Name,
                                         V.configString(Cfg), "native-compile",
                                         0, 1, 0, 0, 0, Error});
          else
            compareLeg((*Native)[K.Output], Want, "native", K, V, Cfg, Opts,
                       Report);
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
