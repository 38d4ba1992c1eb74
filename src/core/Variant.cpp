//===- core/Variant.cpp - Parameterized code variants ---------------------===//

#include "core/Variant.h"
#include "ir/Verifier.h"
#include "support/NestHash.h"
#include "support/StringUtils.h"
#include "transform/Prefetch.h"
#include "transform/ScalarReplace.h"
#include "transform/TransformError.h"
#include "transform/UnrollJam.h"

#include <algorithm>
#include <limits>

using namespace eco;

std::vector<SymbolId> DerivedVariant::searchParams() const {
  std::vector<SymbolId> Params;
  for (const auto &[Var, Param] : TileParamOf)
    Params.push_back(Param);
  for (const UnrollSpec &U : Spec.Unrolls)
    Params.push_back(U.FactorParam);
  for (const PrefetchSpec &P : Prefetch)
    Params.push_back(P.DistanceParam);
  std::sort(Params.begin(), Params.end());
  Params.erase(std::unique(Params.begin(), Params.end()), Params.end());
  return Params;
}

namespace {

/// \p Value as a transform argument. A value no int holds is an illegal
/// request, not one to wrap silently: configurations also arrive from
/// remote peers (the fleet protocol), and one could carry anything.
int transformArg(int64_t Value, const char *What) {
  if (Value > std::numeric_limits<int>::max())
    throw TransformError(TransformErrorCode::BadRequest,
                         std::string(What) + " out of range: " +
                             std::to_string(Value));
  return static_cast<int>(Value);
}

} // namespace

LoopNest DerivedVariant::instantiate(const Env &Config,
                                     const MachineDesc &Machine) const {
  LoopNest Nest = Skeleton.clone();
  for (const UnrollSpec &U : Spec.Unrolls) {
    int Factor = transformArg(std::max<int64_t>(Config.get(U.FactorParam), 1),
                              "unroll factor");
    unrollAndJam(Nest, U.Loop, Factor);
  }
  scalarReplaceInvariant(Nest, Spec.RegLoop);
  rotatingScalarReplace(Nest, Spec.RegLoop);

  int LineElems = static_cast<int>(Machine.cache(0).LineBytes / 8);
  for (const PrefetchSpec &P : Prefetch) {
    int64_t Dist = Config.get(P.DistanceParam);
    if (Dist > 0)
      insertPrefetch(Nest, P.Array, Spec.RegLoop,
                     transformArg(Dist, "prefetch distance"),
                     std::max(LineElems, 1));
  }
  assert(verify(Nest).empty() && "instantiation broke IR invariants");
  return Nest;
}

uint64_t eco::variantFingerprint(const DerivedVariant &V) {
  const LoopNest &S = V.Skeleton;
  // Length-prefixed so adjacent names cannot run together ("ab","c" vs
  // "a","bc"); -1 (no symbol) hashes as the empty name.
  auto mixName = [](uint64_t H, const std::string &Name) {
    return hashString(Name, hashCombine(H, Name.size()));
  };
  auto symName = [&S](SymbolId Id) {
    return Id >= 0 ? S.Syms.name(Id) : std::string();
  };
  uint64_t H = hashNest(S);
  H = mixName(H, symName(V.Spec.RegLoop));
  H = hashCombine(H, V.Spec.Unrolls.size());
  for (const UnrollSpec &U : V.Spec.Unrolls) {
    H = mixName(H, symName(U.Loop));
    H = mixName(H, symName(U.FactorParam));
  }
  H = hashCombine(H, V.Prefetch.size());
  for (const PrefetchSpec &P : V.Prefetch) {
    H = mixName(H, S.array(P.Array).Name);
    H = mixName(H, symName(P.DistanceParam));
  }
  return mixName(H, "eco.variant-fingerprint.1");
}

uint64_t DerivedVariant::fingerprint() const {
  uint64_t H = Fingerprint.load();
  if (H == 0) {
    H = variantFingerprint(*this);
    Fingerprint.store(H);
  }
  return H;
}

void DerivedVariant::refreshFingerprint() {
  Fingerprint.store(variantFingerprint(*this));
}

std::string DerivedVariant::configString(const Env &Config) const {
  std::vector<std::string> Parts;
  for (SymbolId P : searchParams())
    Parts.push_back(Skeleton.Syms.name(P) + "=" +
                    std::to_string(Config.get(P)));
  return Spec.Name + "{" + join(Parts, ",") + "}";
}

std::string DerivedVariant::describe() const {
  const SymbolTable &Syms = Skeleton.Syms;
  std::string Out = "variant " + Spec.Name + "\n";

  // Register level row.
  std::vector<std::string> UnrollNames, UnrollParams;
  for (const UnrollSpec &U : Spec.Unrolls) {
    UnrollNames.push_back(Syms.name(U.Loop));
    UnrollParams.push_back(Syms.name(U.FactorParam));
  }
  Out += "  Reg : loop " + Syms.name(Spec.RegLoop) + ", unroll-and-jam " +
         join(UnrollNames, " and ") + " [" + join(UnrollParams, ",") + "]";
  if (Spec.RegArray >= 0)
    Out += ", keep " + Skeleton.array(Spec.RegArray).Name + " in registers";
  Out += "\n";

  for (const CacheLevelPlan &Level : Spec.CacheLevels) {
    std::vector<std::string> Tiled, TileParams;
    for (SymbolId V : Level.NewTiledLoops) {
      Tiled.push_back(Syms.name(V));
      TileParams.push_back(Syms.name(TileParamOf.at(V)));
    }
    Out += strformat("  L%u  : loop %s", Level.Level + 1,
                     Syms.name(Level.TheLoop).c_str());
    if (!Tiled.empty())
      Out += ", tile " + join(Tiled, " and ") + " [" +
             join(TileParams, ",") + "]";
    if (Level.WithCopy)
      Out += ", copy " + Skeleton.array(Level.RetainedArray).Name;
    else if (Level.RetainedArray >= 0)
      Out += ", retain " + Skeleton.array(Level.RetainedArray).Name;
    Out += "\n";
  }

  std::vector<std::string> OrderNames;
  for (SymbolId V : Spec.FinalOrder)
    OrderNames.push_back(Syms.name(V));
  Out += "  order: " + join(OrderNames, " ") + "\n";
  for (const Constraint &C : Constraints)
    Out += "  constraint: " + C.str(Syms) + "\n";
  if (!Prefetch.empty()) {
    std::vector<std::string> PfNames;
    for (const PrefetchSpec &P : Prefetch)
      PfNames.push_back(Skeleton.array(P.Array).Name);
    Out += "  prefetch candidates: " + join(PfNames, ", ") + "\n";
  }
  return Out;
}
