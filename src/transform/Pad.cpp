//===- transform/Pad.cpp - Array padding -----------------------------------===//

#include "transform/Pad.h"

using namespace eco;

int eco::padDims(LoopNest &Nest, const std::vector<int64_t> &PadPerDim) {
  int Padded = 0;
  for (ArrayDecl &Decl : Nest.Arrays) {
    if (Decl.Role != ArrayRole::Data || Decl.rank() < 2)
      continue;
    bool Any = false;
    for (unsigned D = 0; D < Decl.rank() && D < PadPerDim.size(); ++D) {
      if (PadPerDim[D] == 0)
        continue;
      assert(PadPerDim[D] > 0 && "negative padding");
      Decl.Extents[D] = Decl.Extents[D] + PadPerDim[D];
      Any = true;
    }
    Padded += Any ? 1 : 0;
  }
  return Padded;
}
