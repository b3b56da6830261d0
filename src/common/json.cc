#include "src/common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "src/common/strings.h"

namespace hiway {

const std::string& Json::as_string() const {
  static const std::string kEmpty;
  const auto* s = std::get_if<std::string>(&v_);
  return s != nullptr ? *s : kEmpty;
}

const JsonArray& Json::as_array() const {
  static const JsonArray kEmpty;
  const auto* a = std::get_if<JsonArray>(&v_);
  return a != nullptr ? *a : kEmpty;
}

const JsonObject& Json::as_object() const {
  static const JsonObject kEmpty;
  const auto* o = std::get_if<JsonObject>(&v_);
  return o != nullptr ? *o : kEmpty;
}

JsonArray& Json::as_array() {
  if (!is_array()) v_.emplace<JsonArray>();
  return std::get<JsonArray>(v_);
}

JsonObject& Json::as_object() {
  if (!is_object()) v_.emplace<JsonObject>();
  return std::get<JsonObject>(v_);
}

const Json* Json::Find(std::string_view key) const {
  const auto* obj = std::get_if<JsonObject>(&v_);
  if (obj == nullptr) return nullptr;
  for (const auto& [k, v] : *obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::GetString(std::string_view key, std::string def) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : def;
}

double Json::GetNumber(std::string_view key, double def) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : def;
}

int64_t Json::GetInt(std::string_view key, int64_t def) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : def;
}

int64_t Json::as_int() const {
  // A plain static_cast is UB when the double lies outside int64 range
  // (fuzz-found via Galaxy step ids like 1e300); saturate instead.
  double num = as_number();
  if (std::isnan(num)) return 0;
  if (num >= 9223372036854775808.0) return INT64_MAX;
  if (num < -9223372036854775808.0) return INT64_MIN;
  return static_cast<int64_t>(num);
}

bool Json::GetBool(std::string_view key, bool def) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : def;
}

void Json::Set(std::string key, Json value) {
  JsonObject& obj = as_object();
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
}

void Json::Append(Json value) { as_array().push_back(std::move(value)); }

bool operator==(const Json& a, const Json& b) { return a.v_ == b.v_; }

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

namespace {

std::string FormatNumber(double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(d));
  }
  // %.17g round-trips doubles; trim to shortest that re-parses equal.
  for (int prec = 6; prec <= 17; ++prec) {
    std::string s = StrFormat("%.*g", prec, d);
    if (std::strtod(s.c_str(), nullptr) == d) return s;
  }
  return StrFormat("%.17g", d);
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent >= 0) {
      *out += '\n';
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type()) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += as_bool() ? "true" : "false";
      break;
    case Type::kNumber:
      *out += FormatNumber(as_number());
      break;
    case Type::kString:
      *out += JsonEscape(as_string());
      break;
    case Type::kArray: {
      const JsonArray& arr = as_array();
      *out += '[';
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) *out += indent >= 0 ? "," : ",";
        newline(depth + 1);
        arr[i].DumpTo(out, indent, depth + 1);
      }
      if (!arr.empty()) newline(depth);
      *out += ']';
      break;
    }
    case Type::kObject: {
      const JsonObject& obj = as_object();
      *out += '{';
      for (size_t i = 0; i < obj.size(); ++i) {
        if (i > 0) *out += ",";
        newline(depth + 1);
        *out += JsonEscape(obj[i].first);
        *out += indent >= 0 ? ": " : ":";
        obj[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!obj.empty()) newline(depth);
      *out += '}';
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

bool IsDigit(char c) {
  return c >= '0' && c <= '9';  // isdigit(char) is UB for high-bit bytes
}

/// True when a well-formed JSON number literal that from_chars reports out
/// of range is too large for a double, false when it is too small (and so
/// rounds to zero, as strtod does). The two are told apart by the decimal
/// exponent of the leading significant digit; out-of-range literals lie
/// hundreds of orders of magnitude from 1.
bool Overflows(std::string_view lit) {
  size_t i = lit[0] == '-' ? 1 : 0;
  int64_t magnitude = 0;  // 10^(magnitude-1) <= |value| < 10^magnitude
  bool significant = false;
  for (; i < lit.size() && IsDigit(lit[i]); ++i) {
    significant = significant || lit[i] != '0';
    if (significant) ++magnitude;
  }
  if (i < lit.size() && lit[i] == '.') {
    for (++i; i < lit.size() && IsDigit(lit[i]); ++i) {
      if (significant) continue;
      significant = lit[i] != '0';
      if (!significant) --magnitude;
    }
  }
  if (i < lit.size()) {  // exponent
    ++i;
    bool negative = lit[i] == '-';
    if (lit[i] == '-' || lit[i] == '+') ++i;
    int64_t exponent = 0;
    for (; i < lit.size(); ++i) {
      exponent = std::min<int64_t>(exponent * 10 + (lit[i] - '0'), 1 << 30);
    }
    magnitude += negative ? -exponent : exponent;
  }
  return magnitude > 0;
}

/// Recursive-descent JSON parser over a string_view. Every value is parsed
/// into a node the caller owns; the members of the arrays and objects
/// still open are collected on two scratch stacks, and each container is
/// moved into an exactly sized vector when it closes.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    if (text_.size() > Json::kMaxInputBytes) {
      return Status::ParseError(
          StrFormat("JSON input of %zu bytes exceeds the %zu-byte limit "
                    "(Json::kMaxInputBytes)",
                    text_.size(), Json::kMaxInputBytes));
    }
    SkipWs();
    Json v;
    HIWAY_RETURN_IF_ERROR(ParseValue(0, &v));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
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

  Status ParseValue(int depth, Json* out) {
    if (depth > Json::kMaxDepth) {
      return Error(StrFormat("nesting depth %d exceeds the limit of %d (Json::kMaxDepth)",
                             depth, Json::kMaxDepth));
    }
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        HIWAY_RETURN_IF_ERROR(ParseString(&s));
        *out = Json(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", true, out);
      case 'f':
        return ParseLiteral("false", false, out);
      case 'n':
        return ParseLiteral("null", nullptr, out);
      default:
        if (c == '-' || IsDigit(c)) return ParseNumber(out);
        return Error(StrFormat("unexpected character '%c'", c));
    }
  }

  Status ParseLiteral(std::string_view lit, Json value, Json* out) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Error("invalid literal");
    }
    pos_ += lit.size();
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    Consume('-');
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
    std::string_view lit = text_.substr(start, pos_ - start);
    double d = 0.0;
    auto [ptr, ec] = std::from_chars(lit.data(), lit.data() + lit.size(), d);
    if (ec == std::errc::result_out_of_range) {
      if (Overflows(lit)) {
        // 1e999 etc. would serialize as "inf" and break round-tripping.
        return Error(StrFormat("number '%.*s' overflows double range",
                               static_cast<int>(lit.size()), lit.data()));
      }
      d = lit[0] == '-' ? -0.0 : 0.0;
    }
    *out = Json(d);
    return Status::OK();
  }

  /// Appends the string at pos_ to `out`: each run between escapes in one
  /// append.
  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("'\"' expected");
    while (true) {
      size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out->append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') return Error("unescaped control character in string");
      if (pos_ >= text_.size()) return Error("truncated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          *out += e;
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          uint32_t cp = 0;
          HIWAY_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (!Consume('\\') || !Consume('u')) {
              return Error("unpaired surrogate");
            }
            uint32_t lo = 0;
            HIWAY_RETURN_IF_ERROR(ParseHex4(&lo));
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
  }

  Status ParseHex4(uint32_t* v) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      *v <<= 4;
      if (c >= '0' && c <= '9') {
        *v += static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        *v += static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        *v += static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return Status::OK();
  }

  Status ParseObject(int depth, Json* out) {
    Consume('{');
    SkipWs();
    const size_t base = members_.size();
    if (!Consume('}')) {
      while (true) {
        SkipWs();
        std::string key;
        HIWAY_RETURN_IF_ERROR(ParseString(&key));
        SkipWs();
        if (!Consume(':')) return Error("':' expected");
        SkipWs();
        Json value;
        HIWAY_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
        members_.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume('}')) break;
        return Error("',' or '}' expected");
      }
    }
    *out = Json(JsonObject(std::make_move_iterator(members_.begin() + base),
                           std::make_move_iterator(members_.end())));
    members_.resize(base);
    return Status::OK();
  }

  Status ParseArray(int depth, Json* out) {
    Consume('[');
    SkipWs();
    const size_t base = elements_.size();
    if (!Consume(']')) {
      while (true) {
        SkipWs();
        Json value;
        HIWAY_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
        elements_.push_back(std::move(value));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume(']')) break;
        return Error("',' or ']' expected");
      }
    }
    *out = Json(JsonArray(std::make_move_iterator(elements_.begin() + base),
                          std::make_move_iterator(elements_.end())));
    elements_.resize(base);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  /// Members of the arrays and objects being parsed, innermost last.
  JsonArray elements_;
  JsonObject members_;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  JsonParser parser(text);
  return parser.ParseDocument();
}

}  // namespace hiway
