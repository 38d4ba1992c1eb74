//===- exec/AddressMap.h - Array layout in simulated memory ----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns every array of a LoopNest a base address in the simulated
/// address space and precomputes byte strides per dimension. Arrays are
/// laid out contiguously in declaration order (Fortran COMMON style) with
/// no inter-array padding — contiguous allocation is what exposes
/// the pathological conflict misses at power-of-two problem sizes that the
/// paper's Figures 4 and 5 show for the native compilers.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_EXEC_ADDRESSMAP_H
#define ECO_EXEC_ADDRESSMAP_H

#include "ir/Loop.h"

#include <cstdint>
#include <vector>

namespace eco {

/// Concrete placement of a LoopNest's arrays for one execution.
class AddressMap {
public:
  /// Simulated address of the first array.
  static constexpr uint64_t BaseAddr = 1 << 20;

  /// Lays out \p Nest's arrays under \p E (which must bind every problem
  /// size and parameter appearing in array extents).
  AddressMap(const LoopNest &Nest, const Env &E);

  uint64_t baseOf(ArrayId Id) const { return Info[Id].Base; }

  /// Byte stride of each dimension of \p Id.
  const std::vector<int64_t> &stridesOf(ArrayId Id) const {
    return Info[Id].Strides;
  }

  /// Number of elements of \p Id.
  int64_t numElements(ArrayId Id) const { return Info[Id].NumElements; }

  /// Element count of dimension \p Dim.
  int64_t extent(ArrayId Id, unsigned Dim) const {
    return Info[Id].Extents[Dim];
  }

  /// Byte address of the element of \p Id at flat element index \p Flat.
  uint64_t addrOfFlat(ArrayId Id, int64_t Flat) const {
    return Info[Id].Base + static_cast<uint64_t>(Flat) * Info[Id].ElemBytes;
  }

  /// One past the highest mapped address.
  uint64_t endAddr() const { return End; }

private:
  struct ArrayInfo {
    uint64_t Base = 0;
    unsigned ElemBytes = 8;
    int64_t NumElements = 0;
    std::vector<int64_t> Extents;
    std::vector<int64_t> Strides; ///< bytes per unit step of each subscript
  };

  std::vector<ArrayInfo> Info;
  uint64_t End = 0;
};

} // namespace eco

#endif // ECO_EXEC_ADDRESSMAP_H
