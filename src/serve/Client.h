//===- serve/Client.h - Tuning-service client ------------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Blocking client for the serve protocol: connect over a unix-domain
/// socket or TCP, send one JSON line per request, read one JSON line per
/// response. One connection handles any number of sequential requests;
/// a submit blocks until the job resolves (use one client per concurrent
/// submission). Used by `eco_cli submit`, the `eco_worker` fleet
/// process, the serve tests, and the throughput bench.
///
/// Robustness contract (a hung or dead daemon must never wedge the
/// caller):
///
///  * connect() and every response wait go through poll() with a
///    timeout — connects default to 10 s, responses to 5 min (a submit
///    legitimately blocks for a whole tune; `--timeout-ms` tightens it);
///  * any transport failure — partial send, response timeout, the peer
///    closing mid-response — marks the client *dead*: the stream is
///    desynchronized (a late reply would be mis-paired with the next
///    request), so every subsequent call fails fast with the original
///    reason instead of reusing a half-written connection.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SERVE_CLIENT_H
#define ECO_SERVE_CLIENT_H

#include "serve/Protocol.h"

#include <memory>
#include <string>

namespace eco {
namespace serve {

class Client {
public:
  /// Connects to a daemon's unix socket / TCP endpoint; nullptr +
  /// \p Error on failure. \p ConnectTimeoutMs bounds the connect()
  /// itself (<= 0 waits forever — not recommended).
  static std::unique_ptr<Client> connectUnix(const std::string &Path,
                                             std::string *Error = nullptr,
                                             int ConnectTimeoutMs = 10000);
  static std::unique_ptr<Client> connectTcp(const std::string &Host,
                                            int Port,
                                            std::string *Error = nullptr,
                                            int ConnectTimeoutMs = 10000);
  ~Client();

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Bounds every subsequent roundTrip's wait for the response line
  /// (whole response, not per chunk). <= 0 waits forever. The default
  /// (300000 ms) is generous because a submit blocks for a full tune;
  /// pollers and tests should set something much tighter.
  void setRecvTimeout(int Ms) { RecvTimeoutMs = Ms; }

  /// False once a transport failure desynchronized the stream; every
  /// later call fails fast with deadReason().
  bool alive() const { return !Dead; }
  const std::string &deadReason() const { return DeadReason; }

  /// Sends \p Request as one line, blocks for the response line (up to
  /// the recv timeout). False + \p Error on transport or parse failure,
  /// and on a response line longer than MaxLineBytes (the client then
  /// reads as dead: the rest of that line is still in the stream).
  bool roundTrip(const Json &Request, Json &Response,
                 std::string *Error = nullptr);

  /// Submits \p Spec and blocks until it resolves. Transport failures
  /// come back as status "failed" with the error text.
  JobResult submit(const JobSpec &Spec);

  /// ConfigDB probe (never tunes). The raw response: status "hit" with
  /// the stored config, or "miss".
  Json query(const JobSpec &Spec);

  bool ping(std::string *Error = nullptr);
  Json stats();
  /// Prometheus text exposition of the daemon's obs metrics, wrapped in
  /// {"ok":true,"content_type":...,"body":"..."}; "body" is empty when
  /// the daemon runs without --obs-dir (metrics disabled).
  Json metrics();
  /// Live per-job state: {"ok":true,"jobs":[{id, phase, queue_wait_ms,
  /// run_ms, evals_done, ...}]} for every queued or running job.
  Json jobs();
  /// Asks the daemon to shut down (it drains gracefully).
  bool requestShutdown(std::string *Error = nullptr);

private:
  explicit Client(int Fd) : Fd(Fd) {}

  /// One request -> response: \p Req's fields plus {"op":Op}. A
  /// transport failure comes back as an error reply.
  Json simpleOp(const std::string &Op, Json Req = Json::object());

  /// Marks the stream unusable (subsequent calls fail fast) for
  /// \p Reason, which also goes to \p Error; returns false.
  bool fail(std::string *Error, const std::string &Reason,
            bool WithErrno = true);

  int Fd = -1;
  std::string Buf; ///< bytes past the last consumed response line
  int RecvTimeoutMs = 300000;
  bool Dead = false;
  std::string DeadReason;
};

} // namespace serve
} // namespace eco

#endif // ECO_SERVE_CLIENT_H
