//===- support/Hash.h - Stable hashing primitives --------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable (cross-run, cross-platform) 64-bit FNV-1a hashing used to key
/// the engine's evaluation cache and to fingerprint machines and
/// variants. Deliberately not std::hash, whose value is unspecified
/// and may differ between standard-library builds — these hashes are
/// persisted to disk and must mean the same thing on reload.
///
/// The IR-aware helpers (hashNest, hashEnv) live in support/NestHash.h
/// so this header stays below ir/ in the include DAG.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SUPPORT_HASH_H
#define ECO_SUPPORT_HASH_H

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace eco {

inline constexpr uint64_t Fnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t Fnv1aPrime = 0x100000001b3ULL;

/// FNV-1a over a byte range, continuing from \p H.
inline uint64_t fnv1a(const void *Data, size_t Len,
                      uint64_t H = Fnv1aOffset) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= Fnv1aPrime;
  }
  return H;
}

/// FNV-1a of a string, continuing from \p H.
inline uint64_t hashString(const std::string &S, uint64_t H = Fnv1aOffset) {
  return fnv1a(S.data(), S.size(), H);
}

/// Mixes \p Value into \p H (order-dependent).
inline uint64_t hashCombine(uint64_t H, uint64_t Value) {
  return fnv1a(&Value, sizeof(Value), H);
}

/// Strong finalizer (splitmix64). FNV-1a over mostly-zero inputs is
/// affine in the few live bytes, so *sums* of raw FNV hashes can cancel:
/// {TK=4,TJ=8} and {TK=8,TJ=4} collided before hashEnv mixed each pair
/// through this. Apply to any hash that feeds a commutative combination.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

/// Renders \p H as fixed-width lowercase hex (stable cache-key text).
inline std::string hashHex(uint64_t H) {
  static const char *Digits = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I) {
    Out[I] = Digits[H & 0xF];
    H >>= 4;
  }
  return Out;
}

/// The inverse of hashHex: exactly 16 lowercase hex digits into \p Out.
inline bool parseHex64(std::string_view Text, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Err] = std::from_chars(Text.data(), End, Out, 16);
  return Text.size() == 16 && Err == std::errc() && Ptr == End &&
         Text.find_first_of("ABCDEF") == std::string_view::npos;
}

} // namespace eco

#endif // ECO_SUPPORT_HASH_H
