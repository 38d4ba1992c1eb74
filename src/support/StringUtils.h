//===- support/StringUtils.h - Small string helpers ------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string formatting helpers shared across the library: joining,
/// padding, thousands separators, and printf-style formatting into
/// std::string.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SUPPORT_STRINGUTILS_H
#define ECO_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace eco {

/// Joins \p Parts with \p Sep ("a", "b" -> "a, b" for Sep = ", ").
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// printf-style formatting that returns a std::string.
std::string strformat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders \p Value with thousands separators ("1234567" -> "1,234,567"),
/// matching the paper's Table 1 style.
std::string withCommas(uint64_t Value);

/// Pads \p S with spaces on the left to at least \p Width characters.
std::string padLeft(const std::string &S, size_t Width);

/// Pads \p S with spaces on the right to at least \p Width characters.
std::string padRight(const std::string &S, size_t Width);

/// Repeats \p S \p Count times.
std::string repeat(const std::string &S, size_t Count);

} // namespace eco

#endif // ECO_SUPPORT_STRINGUTILS_H
