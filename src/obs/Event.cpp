//===- obs/Event.cpp - Structured decision-event bus ----------------------===//

#include "obs/Event.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "support/Sync.h"

#include <atomic>
#include <filesystem>
#include <utility>

#include <unistd.h>

using namespace eco;
using namespace eco::obs;

Json obs::eventToJson(const Event &E) {
  Json J = Json::object();
  J.set("seq", E.Seq);
  J.set("t_us", E.TimeUs);
  J.set("type", E.Type);
  if (E.Job)
    J.set("job", E.Job);
  J.set("fields", E.Fields);
  return J;
}

bool obs::eventFromJson(const Json &J, Event &Out, std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (!J.isObject())
    return Fail("event is not a JSON object");
  if (!J.get("seq").isNumber() || !J.get("t_us").isNumber())
    return Fail("event missing numeric seq/t_us");
  if (!J.get("type").isString() || J.get("type").asString().empty())
    return Fail("event missing type string");
  if (!J.get("fields").isObject())
    return Fail("event missing fields object");
  Out.Seq = static_cast<uint64_t>(J.get("seq").asInt());
  Out.TimeUs = static_cast<uint64_t>(J.get("t_us").asInt());
  Out.Job = static_cast<uint64_t>(J.get("job").asInt());
  Out.Type = J.get("type").asString();
  Out.Fields = J.get("fields");
  return true;
}

EventBus &EventBus::global() {
  static EventBus Bus;
  return Bus;
}

void EventBus::publish(std::string Type, Json Fields) {
  if (!eventsEnabled())
    return;
  Event E;
  E.Job = currentJobId();
  E.Type = std::move(Type);
  E.Fields = std::move(Fields);

  MutexLock Lock(M);
  E.Seq = NextSeq++;
  // Stamped under the mutex so Seq order and TimeUs order agree.
  E.TimeUs = monotonicMicros();
  if (File) {
    std::string Line = eventToJson(E).dump();
    Line.push_back('\n');
    fwrite(Line.data(), 1, Line.size(), File);
  }
  // Folded under the mutex too, so the registry sees events in Seq order
  // (lock order: obs.events -> obs.metrics).
  foldEvent(E);
}

namespace {

/// Cuts \p F back to just after its last newline (to empty when it has
/// none), dropping the partial line a killed writer left behind.
void trimTornTail(FILE *F) {
  if (fseek(F, 0, SEEK_END) != 0)
    return;
  long End = ftell(F), Keep = End;
  for (; Keep > 0; --Keep) {
    char C = 0;
    if (fseek(F, Keep - 1, SEEK_SET) != 0 || fread(&C, 1, 1, F) != 1)
      return;
    if (C == '\n')
      break;
  }
  if (Keep < End && ftruncate(fileno(F), Keep) != 0) {
    ECO_LOG(Error) << "events: cannot trim a torn final line";
  }
  fseek(F, 0, SEEK_END);
}

} // namespace

bool EventBus::openFile(const std::string &Path, bool Append) {
  MutexLock Lock(M);
  if (File) {
    fclose(File);
    File = nullptr;
  }
  File = fopen(Path.c_str(), Append ? "ab+" : "wb");
  if (!File) {
    ECO_LOG(Error) << "events: cannot open " << Path;
    return false;
  }
  if (Append)
    trimTornTail(File);
  return true;
}

void EventBus::closeFile() {
  MutexLock Lock(M);
  if (File) {
    fclose(File);
    File = nullptr;
  }
}

FILE *EventBus::swapFile(FILE *F) {
  MutexLock Lock(M);
  std::swap(File, F);
  return F;
}

namespace {
std::atomic<bool> EventsOn{false};
thread_local uint64_t CurrentJob = 0;
} // namespace

bool obs::eventsEnabled() {
  return EventsOn.load(std::memory_order_relaxed);
}

void obs::setEventsEnabled(bool Enabled) {
  EventsOn.store(Enabled, std::memory_order_relaxed);
}

void obs::publishEvent(std::string Type, Json Fields) {
  EventBus::global().publish(std::move(Type), std::move(Fields));
}

bool obs::openObsDir(const std::string &Dir, bool Append,
                     std::string *Error) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    *Error = "cannot create " + Dir + ": " + EC.message();
    return false;
  }
  if (!EventBus::global().openFile(Dir + "/events.jsonl", Append)) {
    *Error = "cannot open " + Dir + "/events.jsonl";
    return false;
  }
  setEventsEnabled(true);
  return true;
}

bool obs::closeObsDir(const std::string &Dir) {
  EventBus::global().closeFile();
  return metrics().toJson().saveFile(Dir + "/metrics.json");
}

ScopedJobId::ScopedJobId(uint64_t Id) : Prev(CurrentJob) { CurrentJob = Id; }
ScopedJobId::~ScopedJobId() { CurrentJob = Prev; }

uint64_t obs::currentJobId() { return CurrentJob; }

SpanScope::SpanScope(std::string Name, std::string Cat, std::string Detail)
    : Active(eventsEnabled()), StartUs(Active ? monotonicMicros() : 0),
      Name(std::move(Name)), Cat(std::move(Cat)), Detail(std::move(Detail)) {
}

SpanScope::~SpanScope() {
  if (!Active)
    return;
  Json F = Json::object();
  F.set("name", std::move(Name));
  F.set("cat", std::move(Cat));
  F.set("detail", std::move(Detail));
  F.set("start_us", StartUs);
  F.set("dur_us", monotonicMicros() - StartUs);
  publishEvent("span", std::move(F));
}
