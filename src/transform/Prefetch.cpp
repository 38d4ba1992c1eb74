//===- transform/Prefetch.cpp - Software prefetch insertion ---------------===//

#include "transform/Prefetch.h"
#include "transform/Utils.h"

#include <algorithm>
#include <map>

using namespace eco;

namespace {

/// Key identifying a reference modulo its constant offset in the
/// contiguous dimension (prefetches within one line are redundant).
std::string clusterKey(const ArrayRef &Ref, unsigned ContigDim,
                       const SymbolTable &Syms,
                       const std::vector<ArrayDecl> &Arrays) {
  ArrayRef Stripped = Ref;
  Stripped.Subs[ContigDim] =
      Stripped.Subs[ContigDim] - Stripped.Subs[ContigDim].constTerm();
  return Stripped.str(Syms, Arrays);
}

} // namespace

int eco::insertPrefetch(LoopNest &Nest, ArrayId Target, SymbolId InnerVar,
                        int Distance, int LineElems) {
  assert(LineElems > 0 && "line length must be positive");
  // Distance 0 would prefetch the line the iteration is about to touch
  // anyway (pure overhead), and negative distances trail the
  // computation; both are refused rather than inserted.
  if (Distance <= 0)
    return 0;
  const ArrayDecl &Decl = Nest.array(Target);
  unsigned ContigDim =
      Decl.Order == Layout::ColMajor ? 0 : Decl.rank() - 1;

  int InsertedPerIter = 0;
  std::vector<LoopLocation> Locs = findLoopOccurrences(Nest, InnerVar);
  bool First = true;
  for (const LoopLocation &Loc : Locs) {
    Loop &L = *Loc.L;

    // Cluster the loop body's references to Target by everything except
    // the contiguous-dimension constant.
    std::map<std::string, std::vector<ArrayRef>> Clusters;
    for (BodyItem &Item : L.Items) {
      if (!Item.isStmt())
        continue;
      Item.stmt().forEachRef([&](ArrayRef &Ref, bool) {
        if (Ref.Array != Target)
          return;
        Clusters[clusterKey(Ref, ContigDim, Nest.Syms, Nest.Arrays)]
            .push_back(Ref);
      });
    }
    if (Clusters.empty())
      continue;

    Body Prefetches;
    for (auto &[Key, Refs] : Clusters) {
      int64_t MinOff = Refs.front().Subs[ContigDim].constTerm();
      int64_t MaxOff = MinOff;
      for (const ArrayRef &Ref : Refs) {
        int64_t Off = Ref.Subs[ContigDim].constTerm();
        MinOff = std::min(MinOff, Off);
        MaxOff = std::max(MaxOff, Off);
      }
      // One prefetch per cache line across the cluster's span.
      for (int64_t Off = MinOff; Off <= MaxOff; Off += LineElems) {
        ArrayRef Pf = Refs.front();
        Pf.Subs[ContigDim] =
            Pf.Subs[ContigDim] - Pf.Subs[ContigDim].constTerm() + Off;
        Pf = Pf.substitute(InnerVar, AffineExpr::sym(InnerVar) + Distance);
        Prefetches.push_back(BodyItem(Stmt::makePrefetch(Pf)));
      }
    }

    if (First)
      InsertedPerIter = static_cast<int>(Prefetches.size());
    First = false;
    for (size_t P = Prefetches.size(); P-- > 0;)
      L.Items.insert(L.Items.begin(), std::move(Prefetches[P]));
  }
  return InsertedPerIter;
}
