//===- support/ParseInt.h - Strict integer flag parsing --------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict numeric parsing for command-line flags. Unlike atoi/atoll,
/// rejects empty strings, trailing garbage ("64x"), values outside the
/// caller's range, and out-of-range literals — a negative handed to an
/// unsigned flag must be a usage error, not a silent 2^64 wraparound.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SUPPORT_PARSEINT_H
#define ECO_SUPPORT_PARSEINT_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

namespace eco {

/// Parses \p Text as a decimal integer in [Lo, Hi]. Returns false (and
/// leaves \p Out untouched) on empty input, trailing garbage, overflow,
/// or a value outside the range.
inline bool parseIntInRange(const std::string &Text, int64_t Lo, int64_t Hi,
                            int64_t *Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Text.c_str(), &End, 10);
  if (errno == ERANGE || End == Text.c_str() || *End != '\0')
    return false;
  if (V < Lo || V > Hi)
    return false;
  *Out = V;
  return true;
}

/// Parses \p Text as a decimal integer in the full uint64_t range.
/// Returns false (and leaves \p Out untouched) on empty input, a sign
/// (strtoull would negate "-1" to 2^64-1), trailing garbage or overflow.
inline bool parseUInt64(const std::string &Text, uint64_t *Out) {
  if (Text.empty() || Text[0] < '0' || Text[0] > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text.c_str(), &End, 10);
  if (errno == ERANGE || *End != '\0')
    return false;
  *Out = V;
  return true;
}

/// One strict numeric flag of a hand-rolled argv loop. When \p Arg is
/// \p Key followed by a value, parses the value in [Lo, Hi] into \p Dest
/// and returns true, setting \p Bad instead when it does not parse.
/// Returns false for any other argument.
template <class T>
bool intFlag(const std::string &Arg, const char *Key, int64_t Lo, int64_t Hi,
             T &Dest, bool &Bad) {
  size_t Len = std::strlen(Key);
  if (Arg.compare(0, Len, Key) != 0)
    return false;
  int64_t N = 0;
  if (parseIntInRange(Arg.substr(Len), Lo, Hi, &N))
    Dest = static_cast<T>(N);
  else
    Bad = true;
  return true;
}

/// intFlag over the full uint64_t range (seeds, ulp bounds).
inline bool uint64Flag(const std::string &Arg, const char *Key,
                       uint64_t &Dest, bool &Bad) {
  size_t Len = std::strlen(Key);
  if (Arg.compare(0, Len, Key) != 0)
    return false;
  if (!parseUInt64(Arg.substr(Len), &Dest))
    Bad = true;
  return true;
}

} // namespace eco

#endif // ECO_SUPPORT_PARSEINT_H
