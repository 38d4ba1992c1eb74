//===- support/Json.cpp - Minimal JSON value, parser, writer --------------===//

#include "support/Json.h"

#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <unistd.h>

using namespace eco;

static const Json NullJson;

const Json &Json::get(const std::string &Key) const {
  for (const auto &[Name, Value] : Fields)
    if (Name == Key)
      return Value;
  return NullJson;
}

bool Json::has(const std::string &Key) const {
  for (const auto &[Name, Value] : Fields)
    if (Name == Key)
      return true;
  return false;
}

void Json::set(const std::string &Key, Json V) {
  for (auto &[Name, Value] : Fields)
    if (Name == Key) {
      Value = std::move(V);
      return;
    }
  Fields.emplace_back(Key, std::move(V));
}

std::string Json::quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

static std::string numberToString(double N) {
  // Integers print without a fractional part so counts and keys stay
  // exact and readable.
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 9.0e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(N));
    return Buf;
  }
  if (!std::isfinite(N)) // JSON has no Inf/NaN; store a sentinel.
    return N > 0 ? "1e308" : (N < 0 ? "-1e308" : "0");
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", N);
  return Buf;
}

void Json::dumpTo(std::string &Out, int Indent, bool Pretty) const {
  auto newline = [&](int Level) {
    if (!Pretty)
      return;
    Out += '\n';
    Out.append(static_cast<size_t>(Level) * 2, ' ');
  };
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += BoolVal ? "true" : "false";
    break;
  case Kind::Number:
    Out += numberToString(NumVal);
    break;
  case Kind::String:
    Out += quote(StrVal);
    break;
  case Kind::Array:
    Out += '[';
    for (size_t I = 0; I < Items.size(); ++I) {
      if (I)
        Out += ',';
      newline(Indent + 1);
      Items[I].dumpTo(Out, Indent + 1, Pretty);
    }
    if (!Items.empty())
      newline(Indent);
    Out += ']';
    break;
  case Kind::Object:
    Out += '{';
    for (size_t I = 0; I < Fields.size(); ++I) {
      if (I)
        Out += ',';
      newline(Indent + 1);
      Out += quote(Fields[I].first);
      Out += Pretty ? ": " : ":";
      Fields[I].second.dumpTo(Out, Indent + 1, Pretty);
    }
    if (!Fields.empty())
      newline(Indent);
    Out += '}';
    break;
  }
}

std::string Json::dump() const {
  std::string Out;
  dumpTo(Out, 0, false);
  return Out;
}

std::string Json::dumpPretty() const {
  std::string Out;
  dumpTo(Out, 0, true);
  Out += '\n';
  return Out;
}

namespace {

/// Recursive-descent parser over the whole input string.
class Parser {
public:
  Parser(const std::string &Text, std::string *Error)
      : Text(Text), Error(Error) {}

  Json run() {
    Json V = parseValue();
    skipWs();
    if (ok() && Pos != Text.size())
      fail("trailing characters after JSON value");
    return ok() ? V : Json();
  }

private:
  bool ok() const { return !Failed; }

  void fail(const std::string &Msg) {
    if (Failed)
      return;
    Failed = true;
    if (Error)
      *Error = Msg + " at offset " + std::to_string(Pos);
  }

  void skipWs() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) == 0) {
      Pos += Len;
      return true;
    }
    return false;
  }

  Json parseValue() {
    skipWs();
    if (Pos >= Text.size()) {
      fail("unexpected end of input");
      return Json();
    }
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      // The parser recurses once per level, so unbounded nesting from a
      // hostile peer would overflow the stack.
      if (Depth == MaxDepth) {
        fail("nesting too deep");
        return Json();
      }
      ++Depth;
      Json V = C == '{' ? parseObject() : parseArray();
      --Depth;
      return V;
    }
    if (C == '"')
      return Json(parseString());
    if (literal("true"))
      return Json(true);
    if (literal("false"))
      return Json(false);
    if (literal("null"))
      return Json();
    return parseNumber();
  }

  std::string parseString() {
    std::string Out;
    if (!consume('"')) {
      fail("expected string");
      return Out;
    }
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos];
      if (static_cast<unsigned char>(C) < 0x20) {
        fail("control character in string");
        return Out;
      }
      ++Pos;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!hex4(Code)) {
          fail("malformed \\u escape");
          return Out;
        }
        // A code point above U+FFFF is a high surrogate escape followed
        // by a low one; a surrogate anywhere else names no character.
        bool Lone = Code >= 0xDC00 && Code <= 0xDFFF;
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          unsigned Low = 0;
          Lone = Text.compare(Pos, 2, "\\u") != 0;
          if (!Lone) {
            Pos += 2;
            Lone = !hex4(Low) || Low < 0xDC00 || Low > 0xDFFF;
          }
          if (!Lone)
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
        }
        if (Lone) {
          fail("invalid escape");
          return Out;
        }
        appendUtf8(Out, Code);
        break;
      }
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      default:
        --Pos;
        fail("invalid escape");
        return Out;
      }
    }
    if (!consume('"'))
      fail("unterminated string");
    return Out;
  }

  /// Reads four hex digits at Pos into \p Code. from_chars takes no
  /// sign, prefix or space for an unsigned, so consuming all four
  /// characters means four hex digits.
  bool hex4(unsigned &Code) {
    const char *Hex = Text.data() + Pos;
    if (Pos + 4 > Text.size() ||
        std::from_chars(Hex, Hex + 4, Code, 16).ptr != Hex + 4)
      return false;
    Pos += 4;
    return true;
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
      return;
    }
    int Tail = Code < 0x800 ? 1 : Code < 0x10000 ? 2 : 3;
    static const unsigned char Lead[] = {0, 0xC0, 0xE0, 0xF0};
    Out += static_cast<char>(Lead[Tail] | (Code >> (6 * Tail)));
    for (int I = Tail - 1; I >= 0; --I)
      Out += static_cast<char>(0x80 | ((Code >> (6 * I)) & 0x3F));
  }

  /// True if [B, E) is one RFC 8259 number:
  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  static bool rfcNumber(const char *B, const char *E) {
    auto digits = [&B, E] {
      const char *From = B;
      while (B < E && std::isdigit(static_cast<unsigned char>(*B)))
        ++B;
      return B - From;
    };
    if (B < E && *B == '-')
      ++B;
    const char *Int = B;
    auto IntDigits = digits();
    if (IntDigits == 0 || (IntDigits > 1 && *Int == '0'))
      return false;
    if (B < E && *B == '.' && (++B, digits() == 0))
      return false;
    if (B < E && (*B == 'e' || *B == 'E')) {
      ++B;
      if (B < E && (*B == '+' || *B == '-'))
        ++B;
      if (digits() == 0)
        return false;
    }
    return B == E;
  }

  Json parseNumber() {
    size_t Start = Pos;
    auto numberChar = [](char C) {
      return std::isdigit(static_cast<unsigned char>(C)) || C == '+' ||
             C == '-' || C == '.' || C == 'e' || C == 'E';
    };
    while (Pos < Text.size() && numberChar(Text[Pos]))
      ++Pos;
    if (Pos == Start) {
      fail("expected value");
      return Json();
    }
    // The whole span must be one number of the grammar, so "1-2", "01"
    // or ".5" is an error rather than a prefix's or a lenient reading's
    // value.
    double V = 0;
    const char *Begin = Text.data() + Start, *End = Text.data() + Pos;
    bool Ok = rfcNumber(Begin, End);
    if (Ok) {
      auto [Ptr, Ec] = std::from_chars(Begin, End, V);
      Ok = Ec == std::errc() && Ptr == End;
    }
    if (!Ok) {
      Pos = Start;
      fail("malformed number");
      return Json();
    }
    return Json(V);
  }

  Json parseArray() {
    consume('[');
    Json Arr = Json::array();
    skipWs();
    if (consume(']'))
      return Arr;
    do {
      Arr.push(parseValue());
    } while (ok() && consume(','));
    if (!consume(']'))
      fail("expected ',' or ']'");
    return Arr;
  }

  Json parseObject() {
    consume('{');
    Json Obj = Json::object();
    skipWs();
    if (consume('}'))
      return Obj;
    // A repeated key keeps its first position and takes the last value,
    // as Json::set does; the index keeps a wide object linear to parse.
    std::vector<std::pair<std::string, Json>> Fields;
    std::unordered_map<std::string, size_t> Index;
    do {
      skipWs();
      std::string Key = parseString();
      if (!consume(':')) {
        fail("expected ':'");
        break;
      }
      Json V = parseValue();
      auto [It, New] = Index.try_emplace(Key, Fields.size());
      if (New)
        Fields.emplace_back(std::move(Key), std::move(V));
      else
        Fields[It->second].second = std::move(V);
    } while (ok() && consume(','));
    if (ok() && !consume('}'))
      fail("expected ',' or '}'");
    for (auto &[Key, V] : Fields)
      Obj.append(std::move(Key), std::move(V));
    return Obj;
  }

  /// Real documents nest fewer than 10 deep.
  static constexpr unsigned MaxDepth = 512;

  const std::string &Text;
  std::string *Error;
  size_t Pos = 0;
  unsigned Depth = 0;
  bool Failed = false;
};

} // namespace

Json Json::parse(const std::string &Text, std::string *Error) {
  return Parser(Text, Error).run();
}

Json Json::loadFile(const std::string &Path, std::string *Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    if (Error)
      *Error = "cannot open " + Path;
    return Json();
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return parse(Buf.str(), Error);
}

bool Json::saveFile(const std::string &Path) const {
  // The temp name must be unique per writer: a fixed "<path>.tmp" let two
  // concurrent savers interleave writes into the same temp file and then
  // publish the torn result via rename. (pid, counter) makes the staging
  // file private to this write; rename() stays the atomic publish step,
  // so readers only ever observe a complete document.
  static std::atomic<uint64_t> TmpCounter{0};
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpCounter.fetch_add(1));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out << dumpPretty();
    if (!Out.good()) {
      std::remove(Tmp.c_str());
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}
