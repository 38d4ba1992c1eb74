//===- core/Variant.h - Parameterized code variants ------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A *variant* is the unit the paper's two-phase strategy revolves around:
/// phase 1 derives a small set of parameterized variants with constraints
/// (Table 4), phase 2 searches each variant's parameter space empirically.
///
/// Concretely a DerivedVariant is:
///  * a declarative VariantSpec (which loop feeds each memory level, what
///    is unrolled / tiled / copied — one row group of Table 4),
///  * a *skeleton* LoopNest: tiled, permuted, copies inserted; tile sizes
///    remain symbolic parameters bound at execution time,
///  * symbolic search parameters: tile sizes, unroll factors, per-array
///    prefetch distances — all declared in the skeleton's symbol table so
///    one Env describes a complete search point,
///  * the constraints over those parameters (UI*UJ <= 32, TJ*TK <= 2048),
///  * instantiate(): applies the parameter-dependent transformations
///    (unroll-and-jam, scalar replacement, prefetching — Section 3.2) for
///    a concrete configuration, yielding an executable nest.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CORE_VARIANT_H
#define ECO_CORE_VARIANT_H

#include "analysis/Footprint.h"
#include "ir/Loop.h"
#include "machine/MachineDesc.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eco {

/// One loop to unroll-and-jam, with its factor parameter.
struct UnrollSpec {
  SymbolId Loop = -1;
  SymbolId FactorParam = -1; ///< e.g. UI (declared in the skeleton)
};

/// One cache level's plan (a Table 4 row).
struct CacheLevelPlan {
  unsigned Level = 0;              ///< 0 = L1, 1 = L2, ...
  SymbolId TheLoop = -1;           ///< loop l whose reuse this level keeps
  std::vector<SymbolId> NewTiledLoops; ///< loops first tiled at this level
  int RetainedFamily = -1;
  ArrayId RetainedArray = -1;
  bool WithCopy = false;
  ArrayId CopyBuffer = -1;         ///< filled at skeleton build
  int CapConstraintIdx = -1;       ///< index into DerivedVariant::Constraints
  int TlbConstraintIdx = -1;
};

/// One array eligible for software prefetching.
struct PrefetchSpec {
  ArrayId Array = -1;
  SymbolId DistanceParam = -1; ///< 0 in a config means "no prefetch"
};

/// Declarative description of one variant.
struct VariantSpec {
  std::string Name;                 ///< "v1", "v2", ...
  SymbolId RegLoop = -1;            ///< innermost loop (register reuse)
  int RegFamily = -1;
  ArrayId RegArray = -1;
  std::vector<UnrollSpec> Unrolls;  ///< outer loops to unroll-and-jam
  std::vector<CacheLevelPlan> CacheLevels;
  std::vector<SymbolId> FinalOrder; ///< complete spine, outermost first
};

/// A copyable, lazily filled 64-bit hash slot (0 = not computed yet).
/// Threads that fill it concurrently all store the same value.
class HashSlot {
public:
  HashSlot() = default;
  HashSlot(const HashSlot &O) : Value(O.load()) {}
  HashSlot &operator=(const HashSlot &O) {
    store(O.load());
    return *this;
  }
  uint64_t load() const { return Value.load(); }
  void store(uint64_t V) const { Value.store(V); }

private:
  mutable std::atomic<uint64_t> Value{0};
};

/// A fully materialized variant ready for empirical search.
class DerivedVariant {
public:
  VariantSpec Spec;
  LoopNest Skeleton;                 ///< tiled + permuted + copies
  std::vector<Constraint> Constraints;
  int RegConstraintIdx = -1;         ///< register-file constraint index
  std::vector<PrefetchSpec> Prefetch;
  std::map<SymbolId, SymbolId> TileParamOf; ///< element var -> tile param
  std::map<SymbolId, SymbolId> ControlVarOf;

  /// Every searchable parameter (tiles, unroll factors, prefetch
  /// distances) in a stable order.
  std::vector<SymbolId> searchParams() const;

  /// True if \p Config satisfies every constraint.
  bool feasible(const Env &Config) const {
    for (const Constraint &C : Constraints)
      if (!C.satisfied(Config))
        return false;
    return true;
  }

  /// Applies the parameter-dependent transformations for \p Config:
  /// unroll-and-jam (factors clamped to >= 1), scalar replacement (both
  /// flavors), and prefetch insertion for every array whose distance
  /// parameter is positive. Tile parameters stay symbolic — bind them in
  /// the Env used to execute the result.
  LoopNest instantiate(const Env &Config, const MachineDesc &Machine) const;

  /// Human-readable one-line description of a configuration.
  std::string configString(const Env &Config) const;

  /// Renders the variant's Table 4 style summary (levels, loops,
  /// transformations, parameters, constraints).
  std::string describe() const;

  /// variantFingerprint(*this): the identity evaluators key costs and
  /// instantiations on. deriveVariants stores it; a hand-built variant
  /// computes and keeps it on first use. Thread-safe. Code that edits an
  /// instantiate() input after that must call refreshFingerprint().
  uint64_t fingerprint() const;
  void refreshFingerprint();

private:
  HashSlot Fingerprint;
};

/// Stable content hash of everything DerivedVariant::instantiate() reads
/// from the variant: hashNest(Skeleton), then Spec.RegLoop, each
/// UnrollSpec and each PrefetchSpec in list order, referring to symbols
/// and arrays by *name* (as hashNest does, so symbol-table order cannot
/// matter), then a format salt. The machine's L1 line size and the
/// configuration's unroll/prefetch values are the only other inputs, so
/// (fingerprint, machine, config) pins the instantiated nest and a cost
/// key is known before any transform runs. Always recomputes.
uint64_t variantFingerprint(const DerivedVariant &V);

} // namespace eco

#endif // ECO_CORE_VARIANT_H
