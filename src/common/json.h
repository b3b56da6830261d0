// A self-contained JSON value model, parser, and serializer.
//
// Used by the Galaxy workflow front-end, the provenance trace format, and
// the trace re-execution front-end. Supports the full JSON grammar
// (RFC 8259): objects, arrays, strings with escapes (including \uXXXX with
// surrogate pairs), numbers, booleans, null.
//
// Object key order is preserved on parse and serialize so that provenance
// traces diff cleanly.

#ifndef HIWAY_COMMON_JSON_H_
#define HIWAY_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/result.h"

namespace hiway {

class Json;

/// Ordered key/value list; JSON objects preserve insertion order.
using JsonObject = std::vector<std::pair<std::string, Json>>;
using JsonArray = std::vector<Json>;

/// A JSON document node: one tagged value. Only the alternative in use is
/// stored, so a scalar carries no empty containers and a move is a few
/// words.
class Json {
 public:
  /// In the order of the stored alternatives.
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT
  Json(bool b) : v_(std::in_place_type<bool>, b) {}  // NOLINT
  Json(double d) : v_(std::in_place_type<double>, d) {}  // NOLINT
  Json(int i) : Json(static_cast<double>(i)) {}  // NOLINT
  Json(int64_t i) : Json(static_cast<double>(i)) {}  // NOLINT
  Json(uint64_t i) : Json(static_cast<double>(i)) {}  // NOLINT
  Json(std::string s)  // NOLINT
      : v_(std::in_place_type<std::string>, std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}  // NOLINT
  Json(JsonArray a)  // NOLINT
      : v_(std::in_place_type<JsonArray>, std::move(a)) {}
  Json(JsonObject o)  // NOLINT
      : v_(std::in_place_type<JsonObject>, std::move(o)) {}

  static Json MakeObject() { return Json(JsonObject{}); }
  static Json MakeArray() { return Json(JsonArray{}); }

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; on another type they return false, 0, or an empty
  /// string, array or object.
  bool as_bool() const { return is_bool() && std::get<bool>(v_); }
  double as_number() const { return is_number() ? std::get<double>(v_) : 0.0; }
  /// Saturating conversion: values beyond int64 range clamp, NaN maps to 0.
  int64_t as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  /// Mutable access; a node of another type becomes an empty array or
  /// object first.
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object field lookup; returns nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  /// Convenience typed getters with defaults (for tolerant readers).
  std::string GetString(std::string_view key, std::string def = "") const;
  double GetNumber(std::string_view key, double def = 0.0) const;
  int64_t GetInt(std::string_view key, int64_t def = 0) const;
  bool GetBool(std::string_view key, bool def = false) const;

  /// Appends/overwrites an object field (a non-object becomes an object).
  void Set(std::string key, Json value);

  /// Appends to an array node (a non-array becomes an array).
  void Append(Json value);

  /// Serialises; `indent` < 0 means compact single-line output.
  std::string Dump(int indent = -1) const;

  /// Parses a complete JSON document (rejects trailing garbage).
  /// Inputs larger than kMaxInputBytes or nested deeper than kMaxDepth are
  /// rejected with a ParseError naming the limit and the offending offset.
  static Result<Json> Parse(std::string_view text);

  /// Hard limits enforced by Parse.
  static constexpr size_t kMaxInputBytes = 64u << 20;
  static constexpr int kMaxDepth = 256;

  friend bool operator==(const Json& a, const Json& b);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v_;
};

/// Escapes `s` into a JSON string literal (with surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace hiway

#endif  // HIWAY_COMMON_JSON_H_
