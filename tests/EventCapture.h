//===- tests/EventCapture.h - Read back what a test published --*- C++ -*-===//
// Tests read their events the way production writes them: an
// EventCapture diverts the global bus's JSONL sink to an anonymous temp
// file and enables events for its lifetime; events() parses it back.
//===----------------------------------------------------------------------===//

#ifndef ECO_TESTS_EVENTCAPTURE_H
#define ECO_TESTS_EVENTCAPTURE_H

#include "obs/Event.h"

#include <gtest/gtest.h>

#include <sstream>

namespace eco {

class EventCapture {
public:
  EventCapture() : Prev(obs::EventBus::global().swapFile(File)) {
    obs::setEventsEnabled(true);
  }
  ~EventCapture() {
    obs::setEventsEnabled(false);
    std::fclose(obs::EventBus::global().swapFile(Prev));
  }

  /// Every event published since construction, in Seq order.
  std::vector<obs::Event> events() const {
    flockfile(File); // a concurrent publish cannot write mid-read
    std::string Text(static_cast<size_t>(std::ftell(File)), '\0');
    std::rewind(File);
    Text.resize(std::fread(Text.data(), 1, Text.size(), File));
    std::fseek(File, 0, SEEK_END);
    funlockfile(File);
    std::vector<obs::Event> Out;
    std::istringstream In(Text);
    for (std::string Line; std::getline(In, Line);)
      EXPECT_TRUE(obs::eventFromJson(Json::parse(Line), Out.emplace_back(),
                                     nullptr))
          << Line;
    return Out;
  }

  size_t count(const std::string &Type) const {
    size_t N = 0;
    for (const obs::Event &E : events())
      N += E.Type == Type;
    return N;
  }

private:
  std::FILE *File = std::tmpfile();
  std::FILE *Prev;
};

} // namespace eco

#endif // ECO_TESTS_EVENTCAPTURE_H
