//===- obs/Event.cpp - Structured decision-event bus ----------------------===//

#include "obs/Event.h"

#include "obs/Log.h"
#include "obs/Metrics.h"

#include <atomic>
#include <utility>

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

void EventBus::setCapacity(size_t N) {
  MutexLock Lock(M);
  Capacity = N ? N : 1;
  while (Ring.size() > Capacity) {
    Ring.pop_front();
    ++Dropped;
  }
}

size_t EventBus::capacity() const {
  MutexLock Lock(M);
  return Capacity;
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
  ++Published;
  ++TypeCounts[E.Type];
  if (File) {
    std::string Line = eventToJson(E).dump();
    Line.push_back('\n');
    fwrite(Line.data(), 1, Line.size(), File);
  }
  if (Ring.size() >= Capacity) {
    // Drop-oldest: live readers keep a recent window and the publisher
    // never blocks on a slow consumer.
    Ring.pop_front();
    ++Dropped;
    if (metricsEnabled())
      metrics().counter("obs.events_dropped").inc();
  }
  Ring.push_back(std::move(E));
}

std::vector<Event> EventBus::snapshot() const {
  MutexLock Lock(M);
  return std::vector<Event>(Ring.begin(), Ring.end());
}

uint64_t EventBus::published() const {
  MutexLock Lock(M);
  return Published;
}

uint64_t EventBus::dropped() const {
  MutexLock Lock(M);
  return Dropped;
}

uint64_t EventBus::typeCount(const std::string &Type) const {
  MutexLock Lock(M);
  auto It = TypeCounts.find(Type);
  return It == TypeCounts.end() ? 0 : It->second;
}

bool EventBus::openFile(const std::string &Path, bool Append) {
  MutexLock Lock(M);
  if (File) {
    fclose(File);
    File = nullptr;
  }
  File = fopen(Path.c_str(), Append ? "ab" : "wb");
  if (!File)
    ECO_LOG(Error) << "events: cannot open " << Path;
  return File != nullptr;
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

void EventBus::flush() {
  MutexLock Lock(M);
  if (File)
    fflush(File);
}

void EventBus::clear() {
  MutexLock Lock(M);
  Ring.clear();
  Published = 0;
  Dropped = 0;
  TypeCounts.clear();
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

ScopedJobId::ScopedJobId(uint64_t Id) : Prev(CurrentJob) { CurrentJob = Id; }
ScopedJobId::~ScopedJobId() { CurrentJob = Prev; }

uint64_t obs::currentJobId() { return CurrentJob; }
