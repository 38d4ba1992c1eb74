//===- serve/Tool.h - Daemon / submit command-line entries -----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve subsystem's command-line faces, shared between the
/// standalone `eco_served` binary and the `eco_cli serve` / `eco_cli
/// submit` subcommands so both spellings behave identically.
///
///   serveToolMain  — runs the daemon: bind sockets, loop until SIGTERM/
///                    SIGINT or a client "shutdown" request, then stop
///                    the listeners, drain admitted jobs, and persist
///                    the ConfigDB atomically.
///   submitToolMain — one client request (submit by default; --op
///                    switches to query/stats/jobs/metrics/ping/
///                    shutdown) printed as
///                    JSON on stdout.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SERVE_TOOL_H
#define ECO_SERVE_TOOL_H

#include <string>
#include <vector>

namespace eco {
namespace serve {

/// `eco_served [flags]` / `eco_cli serve [flags]`:
///   --socket=PATH     unix socket (default eco_serve.sock)
///   --tcp=PORT        also listen on 127.0.0.1:PORT (0 = ephemeral)
///   --db=FILE         ConfigDB persistence (default eco_tuned.json)
///   --workers=N       concurrent tuning jobs (default 1)
///   --queue=N         queue capacity (default 16)
///   --engine-jobs=N   EvalEngine lanes per job (default 1)
///   --obs-dir=D       flight record: D/events.jsonl appended live (a
///                     restart adds a segment), D/metrics.json on drain
///   --log-level=LVL   off|error|warn|info|debug (default info)
/// Returns the process exit code.
int serveToolMain(const std::vector<std::string> &Args);

/// `eco_cli submit [flags]`:
///   --socket=PATH / --host=H --port=P   how to reach the daemon
///   --timeout-ms=MS   connect + response timeout (default: 10 s
///                     connect, 5 min response — a submit blocks for a
///                     whole tune)
///   --op=submit|query|stats|jobs|metrics|ping|shutdown (default submit)
///   --kernel=K --machine=M --scale=S --n=N
///   --priority=P --deadline-ms=MS --force
/// Prints the response JSON; exit 0 on ok responses.
int submitToolMain(const std::vector<std::string> &Args);

} // namespace serve
} // namespace eco

#endif // ECO_SERVE_TOOL_H
