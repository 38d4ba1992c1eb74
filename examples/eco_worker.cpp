//===- examples/eco_worker.cpp - Remote evaluation worker ------------------===//
//
// Standalone fleet worker: connects to an eco_served daemon, registers,
// long-polls for evaluation batches, and reports simulated costs. Run as
// many as you like against one daemon; the dispatcher shards warm
// batches across whatever is registered and survives any of them dying
// mid-batch (serve/Fleet.h documents the failure model).
//
//   eco_worker [--socket=PATH | --host=H --port=P] [--name=S]
//              [--poll-ms=MS] [--timeout-ms=MS] [--max-batches=N]
//
// Equivalent spelling: `eco_cli worker [flags]`.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "serve/Worker.h"

#include <vector>

int main(int Argc, char **Argv) {
  eco::obs::setLogLevelByName("info");
  return eco::serve::workerToolMain(
      std::vector<std::string>(Argv + 1, Argv + Argc));
}
