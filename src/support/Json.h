//===- support/Json.h - Minimal JSON value, parser, writer -----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON implementation for the engine's persistent
/// artifacts: the evaluation cache, flight-recorder event lines, the
/// tuned-config database, and benchmark result files. Supports the full JSON value model
/// (object/array/string/number/bool/null) with numbers held as doubles;
/// integers round-trip exactly up to 2^53, far beyond any cost or count
/// we store. No external dependencies by design — the container image
/// pins the toolchain.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SUPPORT_JSON_H
#define ECO_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eco {

/// One JSON value. Objects keep key order via a vector of pairs so
/// serialized artifacts diff cleanly across runs.
class Json {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() : K(Kind::Null) {}
  /*implicit*/ Json(bool B) : K(Kind::Bool), BoolVal(B) {}
  /*implicit*/ Json(double N) : K(Kind::Number), NumVal(N) {}
  /*implicit*/ Json(int64_t N)
      : K(Kind::Number), NumVal(static_cast<double>(N)) {}
  /*implicit*/ Json(uint64_t N)
      : K(Kind::Number), NumVal(static_cast<double>(N)) {}
  /*implicit*/ Json(int N) : K(Kind::Number), NumVal(N) {}
  /*implicit*/ Json(std::string S) : K(Kind::String), StrVal(std::move(S)) {}
  /*implicit*/ Json(const char *S) : K(Kind::String), StrVal(S) {}

  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool(bool Default = false) const {
    return isBool() ? BoolVal : Default;
  }
  double asNumber(double Default = 0) const {
    return isNumber() ? NumVal : Default;
  }
  /// The number truncated toward zero; \p Default for a non-number and
  /// for any value outside int64 (NaN and infinities included), where
  /// the cast would be undefined.
  int64_t asInt(int64_t Default = 0) const {
    if (!isNumber() || !(NumVal >= -0x1p63 && NumVal < 0x1p63))
      return Default;
    return static_cast<int64_t>(NumVal);
  }
  const std::string &asString() const { return StrVal; }

  // -- array access --------------------------------------------------------
  size_t size() const {
    return isArray() ? Items.size() : (isObject() ? Fields.size() : 0);
  }
  const Json &at(size_t I) const { return Items[I]; }
  void push(Json V) { Items.push_back(std::move(V)); }

  // -- object access -------------------------------------------------------
  /// Returns the member named \p Key or a shared null value.
  const Json &get(const std::string &Key) const;
  bool has(const std::string &Key) const;
  /// Sets (or replaces) member \p Key. Scans every member: build a wide
  /// object with append().
  void set(const std::string &Key, Json V);
  /// Adds member \p Key without looking for an existing one; the caller
  /// guarantees the key is new (a repeated key would be written twice).
  void append(std::string Key, Json V) {
    Fields.emplace_back(std::move(Key), std::move(V));
  }
  const std::vector<std::pair<std::string, Json>> &fields() const {
    return Fields;
  }

  // -- serialization -------------------------------------------------------
  /// Renders compact single-line JSON (the JSONL-friendly form).
  std::string dump() const;
  /// Renders with two-space indentation for human-readable artifacts.
  std::string dumpPretty() const;

  /// Parses \p Text; returns a Null value and sets \p Error on failure.
  static Json parse(const std::string &Text, std::string *Error = nullptr);

  /// Reads and parses \p Path; Null + \p Error on I/O or parse failure.
  static Json loadFile(const std::string &Path, std::string *Error = nullptr);

  /// Serializes (pretty) into \p Path atomically (write temp + rename).
  /// Returns false on I/O failure.
  bool saveFile(const std::string &Path) const;

  /// Escapes \p S as a JSON string literal (with quotes).
  static std::string quote(const std::string &S);

private:
  void dumpTo(std::string &Out, int Indent, bool Pretty) const;

  Kind K;
  bool BoolVal = false;
  double NumVal = 0;
  std::string StrVal;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Fields;
};

} // namespace eco

#endif // ECO_SUPPORT_JSON_H
