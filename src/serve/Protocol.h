//===- serve/Protocol.h - Line-delimited JSON wire protocol ----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tuning service's wire protocol: one JSON object per line, in both
/// directions, over a unix-domain or TCP stream. Requests:
///
///   {"op":"ping"}
///   {"op":"submit","kernel":"matmul","machine":"sgi","scale":16,
///    "n":96,"priority":2,"deadline_ms":60000,"force":false}
///   {"op":"query","kernel":"matmul","machine":"sgi","scale":16,"n":96}
///   {"op":"stats"}
///   {"op":"jobs"}     — live per-job state: phase, queue wait, progress
///   {"op":"metrics"}  — Prometheus text of the obs registry, in "body"
///   {"op":"shutdown"}
///
/// submit blocks the connection until the job resolves (the scheduler
/// decides when it runs); query is a pure ConfigDB probe that never
/// tunes. Every response carries "ok"; failures add "error". A resolved
/// job's response:
///
///   {"ok":true,"status":"done","warm_start":"exact|nearest|cold",
///    "cost":...,"variant":"v2","config":{"N":96,"TI":32,...},
///    "evaluations":41,"cache_hits":7,"queue_ms":0.2,"run_ms":1830.5}
///
/// status is one of done | rejected | expired | failed.
/// Rejections (queue full, draining) are explicit and immediate — the
/// server never hangs a client on backpressure.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SERVE_PROTOCOL_H
#define ECO_SERVE_PROTOCOL_H

#include "serve/ConfigDB.h"
#include "support/Json.h"

#include <string>

namespace eco {
namespace serve {

/// The longest line either side reads, request or response: a peer
/// that never sends a newline cannot grow the reader's buffer past it.
inline constexpr size_t MaxLineBytes = 1 << 20; // 1 MiB

/// Stores \p Reason in \p Error when one is given; returns false.
inline bool refuse(std::string *Error, std::string Reason) {
  if (Error)
    *Error = std::move(Reason);
  return false;
}

/// The wire's two reply shapes: {"ok":true} plus one field when \p Key
/// is given, and {"ok":false,"error":Message}.
inline Json okReply(const char *Key = nullptr, Json Value = Json()) {
  Json J = Json::object();
  J.set("ok", true);
  if (Key)
    J.set(Key, std::move(Value));
  return J;
}
inline Json errorReply(const std::string &Message) {
  Json J = okReply("error", Message);
  J.set("ok", false);
  return J;
}

/// The longest deadline a job may carry: one day.
inline constexpr int64_t MaxDeadlineMs = int64_t(24) * 3600 * 1000;

/// What a client asks the service to tune.
struct JobSpec {
  std::string Kernel = "matmul";  ///< matmul | jacobi | matvec
  std::string Machine = "sgi";    ///< sgi | sun | host
  unsigned Scale = 16;            ///< preset scaling (ignored for host)
  int64_t N = 96;                 ///< problem size
  int Priority = 0;               ///< higher runs first; FIFO within
  int64_t DeadlineMs = 0;         ///< 0 = none; measured from submission
  bool ForceRetune = false;       ///< skip the exact-hit DB shortcut

  /// "matmul@sgi/16 n=96" — log/span label.
  std::string summary() const;
};

/// How a job resolved.
struct JobResult {
  std::string Status = "failed";  ///< done|rejected|expired|failed
  std::string Error;              ///< set when Status != done
  std::string WarmStart;          ///< exact | nearest | cold
  double Cost = 0;
  std::string Variant;
  ParamBindings Config;
  uint64_t Evaluations = 0;       ///< backend evaluations this job spent
  uint64_t CacheHits = 0;
  double QueueMs = 0;             ///< submission -> execution start
  double RunMs = 0;               ///< execution wall time

  bool ok() const { return Status == "done"; }
};

/// JobSpec <-> {"op":"submit", ...} (op left to the caller).
Json toJson(const JobSpec &Spec);
/// Fills \p Spec from \p J; false + \p Error on a malformed request.
bool jobSpecFromJson(const Json &J, JobSpec &Spec, std::string *Error);

/// JobResult <-> response object (adds "ok" from Status).
Json toJson(const JobResult &R);
JobResult jobResultFromJson(const Json &J);

/// Response for a ConfigDB query hit ("status":"hit") — reuses the
/// JobResult shape with Evaluations = 0.
Json queryHitToJson(const TunedEntry &E);

} // namespace serve
} // namespace eco

#endif // ECO_SERVE_PROTOCOL_H
