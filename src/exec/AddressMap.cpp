//===- exec/AddressMap.cpp - Array layout in simulated memory ------------===//

#include "exec/AddressMap.h"

using namespace eco;

AddressMap::AddressMap(const LoopNest &Nest, const Env &E) {
  uint64_t Next = BaseAddr;
  Info.reserve(Nest.Arrays.size());
  for (const ArrayDecl &Decl : Nest.Arrays) {
    ArrayInfo AI;
    AI.Base = Next;
    AI.ElemBytes = Decl.ElemBytes;
    AI.NumElements = 1;
    for (const AffineExpr &Extent : Decl.Extents) {
      int64_t Ext = Extent.eval(E);
      assert(Ext > 0 && "array extent must be positive (unbound param?)");
      AI.Extents.push_back(Ext);
      AI.NumElements *= Ext;
    }
    // Strides in bytes: column-major means the first subscript is
    // contiguous; row-major the last.
    AI.Strides.assign(AI.Extents.size(), 0);
    int64_t Running = Decl.ElemBytes;
    if (Decl.Order == Layout::ColMajor) {
      for (size_t D = 0; D < AI.Extents.size(); ++D) {
        AI.Strides[D] = Running;
        Running *= AI.Extents[D];
      }
    } else {
      for (size_t D = AI.Extents.size(); D-- > 0;) {
        AI.Strides[D] = Running;
        Running *= AI.Extents[D];
      }
    }
    Next += static_cast<uint64_t>(AI.NumElements) * Decl.ElemBytes;
    Info.push_back(std::move(AI));
  }
  End = Next;
}
