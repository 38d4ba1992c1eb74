//===- codegen/NativeRunner.cpp - Compile-and-run backend -----------------===//

#include "codegen/NativeRunner.h"
#include "codegen/CEmitter.h"
#include "obs/Log.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <fstream>
#include <unistd.h>

using namespace eco;

static std::atomic<int> UniqueId{0};

std::unique_ptr<NativeKernel> NativeKernel::compile(const LoopNest &Nest,
                                                    std::string *Error) {
  return compileSource(Nest, emitC(Nest, "eco_kernel"), Error);
}

std::unique_ptr<NativeKernel>
NativeKernel::compileSource(const LoopNest &Nest, const std::string &Source,
                            std::string *Error) {
  auto Fail = [&](const std::string &Msg) -> std::unique_ptr<NativeKernel> {
    ECO_LOG(Warn) << "native kernel " << Nest.Name << ": " << Msg;
    if (Error)
      *Error = Msg;
    return nullptr;
  };

  // Each compile works in a fresh private (0700) directory, so nothing
  // planted in the shared /tmp can block or redirect the write, the
  // compile or the dlopen. The process-wide counter in the file name
  // keeps any two loaded objects from sharing a path.
  char Dir[] = "/tmp/eco_native_XXXXXX";
  if (!mkdtemp(Dir))
    return Fail("cannot create a private compile directory in /tmp");
  std::string Stem =
      std::string(Dir) + "/k" + std::to_string(UniqueId.fetch_add(1));
  std::string CPath = Stem + ".c", LogPath = Stem + ".log",
              SoPath = Stem + ".so";
  auto Cleanup = [&] {
    for (const std::string &P : {CPath, LogPath, SoPath})
      std::remove(P.c_str());
    rmdir(Dir);
  };

  if (!(std::ofstream(CPath) << Source)) {
    Cleanup();
    return Fail("cannot write " + CPath);
  }
  std::string Cmd = "cc -O2 -shared -fPIC -o " + SoPath + " " + CPath +
                    " 2> " + LogPath;
  if (std::system(Cmd.c_str()) != 0) {
    std::ifstream Log(LogPath);
    std::string Msg((std::istreambuf_iterator<char>(Log)),
                    std::istreambuf_iterator<char>());
    Cleanup();
    return Fail("native compile failed: " + Msg);
  }

  // The mapping outlives the files: remove them as soon as dlopen
  // returns, so even a killed process leaves nothing behind.
  auto Kernel = std::unique_ptr<NativeKernel>(new NativeKernel());
  Kernel->Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  Cleanup();
  if (!Kernel->Handle)
    return Fail(std::string("dlopen failed: ") + dlerror());
  Kernel->Fn = reinterpret_cast<FnType>(dlsym(Kernel->Handle, "eco_kernel"));
  if (!Kernel->Fn)
    return Fail("dlsym failed");
  Kernel->NumSyms = Nest.Syms.size();
  Kernel->NumArrays = Nest.Arrays.size();
  return Kernel;
}

NativeKernel::~NativeKernel() {
  if (Handle)
    dlclose(Handle);
}

void NativeKernel::run(const Env &Cfg,
                       std::vector<std::vector<double>> &Arrays) const {
  assert(Arrays.size() == NumArrays && "one buffer per ArrayId");
  std::vector<long> Params(NumSyms, 0);
  for (size_t S = 0; S < NumSyms && S < Cfg.size(); ++S)
    Params[S] = static_cast<long>(Cfg.get(static_cast<SymbolId>(S)));
  std::vector<double *> Ptrs;
  for (std::vector<double> &A : Arrays)
    Ptrs.push_back(A.data());
  run(Params.data(), Ptrs.data());
}

NativeKernel *NativeKernelCache::get(const LoopNest &Nest,
                                     std::string *Error) {
  std::string Src = emitC(Nest, "eco_kernel");
  MutexLock Lock(Mu);
  auto It = BySource.find(Src);
  if (It == BySource.end()) {
    // Compile under the lock: serializing the (rare, expensive) cc
    // invocations also guarantees each distinct source compiles once.
    std::unique_ptr<NativeKernel> Fresh =
        NativeKernel::compileSource(Nest, Src, Error);
    if (!Fresh)
      return nullptr;
    It = BySource.emplace(std::move(Src), std::move(Fresh)).first;
  }
  return It->second.get();
}
