// Test-only reference for the JSON parser: the DOM parser Json::Parse
// replaced. It returns a Result<Json> from every recursive call, copies
// strings one byte at a time and converts numbers through a heap string
// and strtod. The production parser (src/common/json.cc) fills values in
// place; the two must agree on every document: the same tree, or the same
// error message, offset included (tests/parser_differential_test.cc).
//
// It builds through Json's public API only, so it follows any change of
// the node layout.

#ifndef HIWAY_TESTS_ORACLES_JSON_ORACLE_H_
#define HIWAY_TESTS_ORACLES_JSON_ORACLE_H_

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "src/common/json.h"
#include "src/common/strings.h"

namespace hiway {

/// Recursive-descent JSON parser over a string_view.
class JsonOracleParser {
 public:
  explicit JsonOracleParser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    if (text_.size() > Json::kMaxInputBytes) {
      return Status::ParseError(
          StrFormat("JSON input of %zu bytes exceeds the %zu-byte limit "
                    "(Json::kMaxInputBytes)",
                    text_.size(), Json::kMaxInputBytes));
    }
    SkipWs();
    HIWAY_ASSIGN_OR_RETURN(Json v, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static bool IsDigit(char c) {
    return c >= '0' && c <= '9';  // isdigit(char) is UB for high-bit bytes
  }

  Status Error(const std::string& msg) const {
    // Compute 1-based line/column for the diagnostic.
    int line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Status::ParseError(StrFormat("JSON error at line %d col %d (offset %zu): %s",
                                        line, col, pos_, msg.c_str()));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool Consume(char c) {
    if (Peek(c)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > Json::kMaxDepth) {
      return Error(StrFormat("nesting depth %d exceeds the limit of %d (Json::kMaxDepth)",
                             depth, Json::kMaxDepth));
    }
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        HIWAY_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        return ParseLiteral("true", Json(true));
      case 'f':
        return ParseLiteral("false", Json(false));
      case 'n':
        return ParseLiteral("null", Json(nullptr));
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Error(StrFormat("unexpected character '%c'", c));
    }
  }

  Result<Json> ParseLiteral(std::string_view lit, Json value) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Error("invalid literal");
    }
    pos_ += lit.size();
    return value;
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size()) return Error("truncated number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else if (text_[pos_] >= '1' && text_[pos_] <= '9') {
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    } else {
      return Error("invalid number");
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
        return Error("digit expected after decimal point");
      }
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
        return Error("digit expected in exponent");
      }
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    }
    std::string buf(text_.substr(start, pos_ - start));
    double d = std::strtod(buf.c_str(), nullptr);
    if (!std::isfinite(d)) {
      // 1e999 etc. would serialize as "inf" and break round-tripping.
      return Error(StrFormat("number '%s' overflows double range", buf.c_str()));
    }
    return Json(d);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("'\"' expected");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("truncated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          HIWAY_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (!Consume('\\') || !Consume('u')) {
              return Error("unpaired surrogate");
            }
            HIWAY_ASSIGN_OR_RETURN(uint32_t lo, ParseHex4());
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v += static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v += static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v += static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return v;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Result<Json> ParseObject(int depth) {
    Consume('{');
    Json obj = Json::MakeObject();
    SkipWs();
    if (Consume('}')) return obj;
    while (true) {
      SkipWs();
      HIWAY_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (!Consume(':')) return Error("':' expected");
      SkipWs();
      HIWAY_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      obj.as_object().emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("',' or '}' expected");
    }
  }

  Result<Json> ParseArray(int depth) {
    Consume('[');
    Json arr = Json::MakeArray();
    SkipWs();
    if (Consume(']')) return arr;
    while (true) {
      SkipWs();
      HIWAY_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("',' or ']' expected");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

inline Result<Json> ParseJsonOracle(std::string_view text) {
  return JsonOracleParser(text).ParseDocument();
}

}  // namespace hiway

#endif  // HIWAY_TESTS_ORACLES_JSON_ORACLE_H_
