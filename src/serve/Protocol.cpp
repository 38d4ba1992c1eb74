//===- serve/Protocol.cpp - Line-delimited JSON wire protocol -------------===//

#include "serve/Protocol.h"

#include "serve/Server.h" // knownNames

#include <cmath>
#include <limits>

using namespace eco;
using namespace eco::serve;

std::string JobSpec::summary() const {
  std::string S = Kernel + "@" + Machine;
  if (Machine != "host")
    S += "/" + std::to_string(Scale);
  S += " n=" + std::to_string(N);
  return S;
}

Json eco::serve::toJson(const JobSpec &Spec) {
  Json J = Json::object();
  J.set("kernel", Spec.Kernel);
  J.set("machine", Spec.Machine);
  J.set("scale", static_cast<int64_t>(Spec.Scale));
  J.set("n", Spec.N);
  if (Spec.Priority)
    J.set("priority", Spec.Priority);
  if (Spec.DeadlineMs)
    J.set("deadline_ms", Spec.DeadlineMs);
  if (Spec.ForceRetune)
    J.set("force", true);
  return J;
}

/// Reads integer field \p Key into \p Out when present: a whole number in
/// [Lo, Hi], checked on the double before any narrowing.
template <class T>
static bool intField(const Json &J, const char *Key, int64_t Lo, int64_t Hi,
                     T &Out, std::string *Error) {
  if (!J.has(Key))
    return true;
  const Json &V = J.get(Key);
  double D = V.asNumber(NAN);
  if (D != std::trunc(D) || D < Lo || D > Hi)
    return refuse(Error, std::string(Key) + " must be an integer in [" +
                             std::to_string(Lo) + ", " +
                             std::to_string(Hi) + "]");
  Out = static_cast<T>(D);
  return true;
}

bool eco::serve::jobSpecFromJson(const Json &J, JobSpec &Spec,
                                 std::string *Error) {
  if (!J.isObject())
    return refuse(Error, "request is not a JSON object");
  if (J.has("kernel"))
    Spec.Kernel = J.get("kernel").asString();
  if (J.has("machine"))
    Spec.Machine = J.get("machine").asString();
  Spec.ForceRetune = J.get("force").asBool(false);
  return knownNames(Spec.Kernel, Spec.Machine, Error) &&
         intField(J, "n", 4, 1 << 20, Spec.N, Error) &&
         intField(J, "scale", 1, 4096, Spec.Scale, Error) &&
         intField(J, "priority", std::numeric_limits<int>::min(),
                  std::numeric_limits<int>::max(), Spec.Priority, Error) &&
         intField(J, "deadline_ms", 0, MaxDeadlineMs, Spec.DeadlineMs, Error);
}

Json eco::serve::toJson(const JobResult &R) {
  Json J = Json::object();
  J.set("ok", R.ok());
  J.set("status", R.Status);
  if (!R.Error.empty())
    J.set("error", R.Error);
  if (!R.WarmStart.empty())
    J.set("warm_start", R.WarmStart);
  if (R.ok() || !R.Config.empty()) {
    J.set("cost", R.Cost);
    J.set("variant", R.Variant);
    Json Config = Json::object();
    for (const auto &[Name, Value] : R.Config)
      Config.set(Name, Value);
    J.set("config", std::move(Config));
  }
  J.set("evaluations", R.Evaluations);
  J.set("cache_hits", R.CacheHits);
  J.set("queue_ms", R.QueueMs);
  J.set("run_ms", R.RunMs);
  return J;
}

JobResult eco::serve::jobResultFromJson(const Json &J) {
  JobResult R;
  if (!J.isObject()) {
    R.Error = "response is not a JSON object";
    return R;
  }
  R.Status = J.get("status").asString();
  if (R.Status.empty())
    R.Status = J.get("ok").asBool(false) ? "done" : "failed";
  R.Error = J.get("error").asString();
  R.WarmStart = J.get("warm_start").asString();
  R.Cost = J.get("cost").asNumber();
  R.Variant = J.get("variant").asString();
  for (const auto &[Name, Value] : J.get("config").fields())
    R.Config.emplace_back(Name, Value.asInt());
  R.Evaluations = static_cast<uint64_t>(J.get("evaluations").asInt());
  R.CacheHits = static_cast<uint64_t>(J.get("cache_hits").asInt());
  R.QueueMs = J.get("queue_ms").asNumber();
  R.RunMs = J.get("run_ms").asNumber();
  return R;
}

Json eco::serve::queryHitToJson(const TunedEntry &E) {
  Json J = Json::object();
  J.set("ok", true);
  J.set("status", "hit");
  J.set("cost", E.BestCost);
  J.set("variant", E.Variant);
  Json Config = Json::object();
  for (const auto &[Name, Value] : E.Config)
    Config.set(Name, Value);
  J.set("config", std::move(Config));
  J.set("n", E.N);
  J.set("warm_start", E.WarmStart);
  J.set("evaluations", static_cast<int64_t>(0));
  return J;
}
