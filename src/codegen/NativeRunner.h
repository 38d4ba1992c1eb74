//===- codegen/NativeRunner.h - Compile-and-run backend --------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a transformed LoopNest natively on the build host: emit C (the
/// paper emitted Fortran from SUIF), compile it with the system C compiler
/// into a shared object, dlopen it, and call it. This is the "real
/// hardware" counterpart to the simulator backend: the tuner's native
/// backend times these kernels, and the check harnesses compare their
/// results, through the same NativeKernelCache and NativeKernel::run.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CODEGEN_NATIVERUNNER_H
#define ECO_CODEGEN_NATIVERUNNER_H

#include "ir/Loop.h"
#include "support/Sync.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eco {

/// A compiled-and-loaded kernel with the uniform emitC signature.
class NativeKernel {
public:
  /// Emits, compiles (cc -O2 -shared), and loads \p Nest. Returns nullptr
  /// and fills \p Error on failure.
  static std::unique_ptr<NativeKernel> compile(const LoopNest &Nest,
                                               std::string *Error = nullptr);

  ~NativeKernel();
  NativeKernel(const NativeKernel &) = delete;
  NativeKernel &operator=(const NativeKernel &) = delete;

  /// Invokes the kernel with every symbol bound from \p Cfg (unbound
  /// ones read 0) on \p Arrays, one buffer per ArrayId sized as
  /// allocateArrays sizes it. Const and reentrant: concurrent callers
  /// pass their own arrays.
  void run(const Env &Cfg, std::vector<std::vector<double>> &Arrays) const;

private:
  friend class NativeKernelCache;
  using FnType = void (*)(const long *Params, double **Arrays);

  NativeKernel() = default;
  /// Compiles the already emitted \p Source of \p Nest.
  static std::unique_ptr<NativeKernel> compileSource(const LoopNest &Nest,
                                                     const std::string &Source,
                                                     std::string *Error);
  void run(const long *Params, double **Arrays) const { Fn(Params, Arrays); }

  void *Handle = nullptr;
  FnType Fn = nullptr;
  size_t NumSyms = 0;
  size_t NumArrays = 0;
};

/// Compiled kernels keyed by emitted source: configurations that differ
/// only in runtime parameters (tile sizes, prefetch distances) reuse the
/// binary. Thread-safe; compiles run under the lock, so each distinct
/// source compiles once. Entries are never erased, so a returned kernel
/// stays valid for the cache's lifetime. A failed compile is not cached.
class NativeKernelCache {
public:
  /// The kernel for \p Nest, compiled on first sight; nullptr with
  /// \p Error filled when the compile fails.
  NativeKernel *get(const LoopNest &Nest, std::string *Error = nullptr);

private:
  Mutex Mu{"exec.kernels"};
  std::map<std::string, std::unique_ptr<NativeKernel>> BySource
      ECO_GUARDED_BY(Mu);
};

} // namespace eco

#endif // ECO_CODEGEN_NATIVERUNNER_H
