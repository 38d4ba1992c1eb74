//===- examples/eco_worker.cpp - Remote evaluation worker ------------------===//
//
// Standalone spelling of `eco_cli worker`: connects to an eco_served
// daemon, registers, long-polls for evaluation batches, and reports
// simulated costs. Run as many as you like against one daemon; the
// dispatcher shards warm batches across whatever is registered and
// survives any of them dying mid-batch (serve/Fleet.h documents the
// failure model). All behavior lives in serve/Worker.cpp.
//
//   eco_worker [--socket=PATH | --host=H --port=P] [--name=S]
//              [--poll-ms=MS] [--timeout-ms=MS]
//
//===----------------------------------------------------------------------===//

#include "serve/Worker.h"

#include <string>
#include <vector>

int main(int Argc, char **Argv) {
  return eco::serve::workerToolMain(
      std::vector<std::string>(Argv + 1, Argv + Argc));
}
