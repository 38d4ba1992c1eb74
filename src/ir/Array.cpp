//===- ir/Array.cpp - Array declarations and references ------------------===//

#include "ir/Array.h"
#include "support/StringUtils.h"

using namespace eco;

std::optional<std::vector<int64_t>>
ArrayRef::constOffsetTo(const ArrayRef &O) const {
  if (Array != O.Array || Subs.size() != O.Subs.size())
    return std::nullopt;
  for (size_t D = 0; D < Subs.size(); ++D)
    if (!O.Subs[D].sameTerms(Subs[D]))
      return std::nullopt;
  std::vector<int64_t> Offsets(Subs.size());
  for (size_t D = 0; D < Subs.size(); ++D)
    Offsets[D] = O.Subs[D].constTerm() - Subs[D].constTerm();
  return Offsets;
}

std::string ArrayRef::str(const SymbolTable &Syms,
                          const std::vector<ArrayDecl> &Arrays) const {
  assert(Array >= 0 && static_cast<size_t>(Array) < Arrays.size() &&
         "dangling array id");
  std::vector<std::string> Parts;
  for (const AffineExpr &S : Subs)
    Parts.push_back(S.str(Syms));
  return Arrays[Array].Name + "[" + join(Parts, ",") + "]";
}
