//===- serve/Client.cpp - Tuning-service client ---------------------------===//

#include "serve/Client.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace eco;
using namespace eco::serve;

static void setError(std::string *Error, const std::string &Msg,
                     bool WithErrno = true) {
  if (!Error)
    return;
  *Error = Msg;
  if (WithErrno)
    *Error += std::string(" (") + std::strerror(errno) + ")";
}

/// connect() bounded by poll(): the socket goes non-blocking for the
/// connect, the wait happens in poll(POLLOUT), and SO_ERROR reports the
/// final verdict. Unix-domain connects rarely block, but a TCP connect
/// to a dead host hangs for minutes without this.
static bool connectWithTimeout(int Fd, const sockaddr *Addr, socklen_t Len,
                               int TimeoutMs, std::string *Error,
                               const std::string &Target) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0 || ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) < 0) {
    setError(Error, "cannot set non-blocking mode for " + Target);
    return false;
  }
  int Rc = ::connect(Fd, Addr, Len);
  if (Rc < 0 && errno != EINPROGRESS && errno != EAGAIN) {
    setError(Error, "cannot connect to " + Target);
    return false;
  }
  if (Rc < 0) {
    pollfd P{Fd, POLLOUT, 0};
    int N;
    do {
      N = ::poll(&P, 1, TimeoutMs > 0 ? TimeoutMs : -1);
    } while (N < 0 && errno == EINTR);
    if (N == 0) {
      setError(Error,
               "connect to " + Target + " timed out after " +
                   std::to_string(TimeoutMs) + " ms",
               /*WithErrno=*/false);
      return false;
    }
    if (N < 0) {
      setError(Error, "poll failed connecting to " + Target);
      return false;
    }
    int SoErr = 0;
    socklen_t SoLen = sizeof(SoErr);
    if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoErr, &SoLen) < 0 ||
        SoErr != 0) {
      errno = SoErr ? SoErr : errno;
      setError(Error, "cannot connect to " + Target);
      return false;
    }
  }
  if (::fcntl(Fd, F_SETFL, Flags) < 0) {
    setError(Error, "cannot restore blocking mode for " + Target);
    return false;
  }
  return true;
}

std::unique_ptr<Client> Client::connectUnix(const std::string &Path,
                                            std::string *Error,
                                            int ConnectTimeoutMs) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path)) {
    setError(Error, "unix socket path too long: " + Path, false);
    return nullptr;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    setError(Error, "cannot create unix socket");
    return nullptr;
  }
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (!connectWithTimeout(Fd, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr), ConnectTimeoutMs, Error, Path)) {
    ::close(Fd);
    return nullptr;
  }
  return std::unique_ptr<Client>(new Client(Fd));
}

std::unique_ptr<Client> Client::connectTcp(const std::string &Host, int Port,
                                           std::string *Error,
                                           int ConnectTimeoutMs) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    setError(Error, "cannot create TCP socket");
    return nullptr;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    setError(Error, "bad host " + Host, false);
    ::close(Fd);
    return nullptr;
  }
  if (!connectWithTimeout(Fd, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr), ConnectTimeoutMs, Error,
                          Host + ":" + std::to_string(Port))) {
    ::close(Fd);
    return nullptr;
  }
  return std::unique_ptr<Client>(new Client(Fd));
}

bool Client::fail(std::string *Error, const std::string &Reason,
                  bool WithErrno) {
  std::string Message;
  setError(&Message, Reason, WithErrno);
  if (Error)
    *Error = Message;
  Dead = true;
  if (DeadReason.empty())
    DeadReason = Message;
  return false;
}

Client::~Client() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Client::roundTrip(const Json &Request, Json &Response,
                       std::string *Error) {
  if (Dead) {
    // A previous transport failure left the stream desynchronized (a
    // half-written request, or a response we never consumed). Reusing
    // it would pair the next reply with the wrong request; fail fast.
    setError(Error, "client is dead: " + DeadReason, /*WithErrno=*/false);
    return false;
  }
  std::string Out = Request.dump() + "\n";
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      // A partial send is fatal for the connection, not just for this
      // request: the peer saw a truncated line and anything we send
      // next would be glued onto it.
      return fail(Error, "send failed");
    }
    Off += static_cast<size_t>(N);
  }
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      RecvTimeoutMs > 0 ? RecvTimeoutMs : 0);
  char Chunk[4096];
  for (;;) {
    size_t Pos = Buf.find('\n');
    if (Pos != std::string::npos) {
      std::string Line = Buf.substr(0, Pos);
      Buf.erase(0, Pos + 1);
      std::string ParseError;
      Response = Json::parse(Line, &ParseError);
      if (!Response.isObject()) {
        setError(Error, "bad response: " + ParseError, false);
        return false;
      }
      return true;
    }
    if (Buf.size() > MaxLineBytes)
      return fail(Error,
                  "response too large (line exceeds " +
                      std::to_string(MaxLineBytes) + " bytes)",
                  /*WithErrno=*/false);
    if (RecvTimeoutMs > 0) {
      auto Now = std::chrono::steady_clock::now();
      int RemainMs = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(Deadline -
                                                                Now)
              .count());
      if (RemainMs <= 0)
        return fail(Error,
                    "timed out after " + std::to_string(RecvTimeoutMs) +
                        " ms waiting for a response",
                    /*WithErrno=*/false);
      pollfd P{Fd, POLLIN, 0};
      int N = ::poll(&P, 1, RemainMs);
      if (N < 0 && errno == EINTR)
        continue;
      if (N == 0)
        continue; // deadline check above fires on the next lap
      if (N < 0)
        return fail(Error, "poll failed waiting for a response");
    }
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return fail(Error, "connection closed mid-response",
                  /*WithErrno=*/N < 0);
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}

JobResult Client::submit(const JobSpec &Spec) {
  Json Req = toJson(Spec);
  Req.set("op", "submit");
  Json Resp;
  std::string Error;
  if (!roundTrip(Req, Resp, &Error)) {
    JobResult R;
    R.Status = "failed";
    R.Error = Error;
    return R;
  }
  return jobResultFromJson(Resp);
}

Json Client::query(const JobSpec &Spec) {
  return simpleOp("query", toJson(Spec));
}

bool Client::ping(std::string *Error) {
  Json Req = Json::object();
  Req.set("op", "ping");
  Json Resp;
  if (!roundTrip(Req, Resp, Error))
    return false;
  return Resp.get("ok").asBool(false) ||
         refuse(Error, "ping refused: " + Resp.get("error").asString());
}

Json Client::simpleOp(const std::string &Op, Json Req) {
  Req.set("op", Op);
  Json Resp;
  std::string Error;
  return roundTrip(Req, Resp, &Error) ? Resp : errorReply(Error);
}

Json Client::stats() { return simpleOp("stats"); }

Json Client::metrics() { return simpleOp("metrics"); }

Json Client::jobs() { return simpleOp("jobs"); }

bool Client::requestShutdown(std::string *Error) {
  Json Req = Json::object();
  Req.set("op", "shutdown");
  Json Resp;
  if (!roundTrip(Req, Resp, Error))
    return false;
  return Resp.get("ok").asBool(false);
}
