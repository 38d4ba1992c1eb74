//===- support/Json.cpp - Minimal JSON value, parser, writer --------------===//

#include "support/Json.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

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
      char C = Text[Pos++];
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
        // We only emit \u00XX escapes; decode the low byte and emit it
        // directly (sufficient for the ASCII artifacts we produce).
        if (Pos + 4 <= Text.size()) {
          unsigned Code = 0;
          std::sscanf(Text.substr(Pos, 4).c_str(), "%4x", &Code);
          Pos += 4;
          Out += static_cast<char>(Code & 0xFF);
        } else {
          fail("truncated \\u escape");
        }
        break;
      }
      default:
        Out += E; // covers \" \\ \/
      }
    }
    if (!consume('"'))
      fail("unterminated string");
    return Out;
  }

  Json parseNumber() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            strchr("+-.eE", Text[Pos])))
      ++Pos;
    if (Pos == Start) {
      fail("expected value");
      return Json();
    }
    try {
      return Json(std::stod(Text.substr(Start, Pos - Start)));
    } catch (...) {
      fail("malformed number");
      return Json();
    }
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
    do {
      skipWs();
      std::string Key = parseString();
      if (!consume(':')) {
        fail("expected ':'");
        break;
      }
      Obj.set(Key, parseValue());
    } while (ok() && consume(','));
    if (ok() && !consume('}'))
      fail("expected ',' or '}'");
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
