//===- support/StringUtils.cpp - Small string helpers --------------------===//

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace eco;

std::string eco::join(const std::vector<std::string> &Parts,
                      const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string eco::strformat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string eco::withCommas(uint64_t Value) {
  std::string Digits = std::to_string(Value);
  std::string Result;
  int Count = 0;
  for (auto It = Digits.rbegin(); It != Digits.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Result.push_back(',');
    Result.push_back(*It);
    ++Count;
  }
  return std::string(Result.rbegin(), Result.rend());
}

std::string eco::padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::string eco::padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

std::string eco::repeat(const std::string &S, size_t Count) {
  std::string Result;
  Result.reserve(S.size() * Count);
  for (size_t I = 0; I < Count; ++I)
    Result += S;
  return Result;
}
