/// \file json.h
/// \brief Minimal JSON value, writer and parser for the observability
///        layer.
///
/// Every machine-readable artifact this repo emits — metric snapshots,
/// Chrome trace_event files, bench reports — goes through this one value
/// type, so the schema lives in code rather than in hand-formatted printf
/// strings. Objects keep their keys sorted (std::map), which makes the
/// emitted text deterministic and diffable.
///
/// Reading has one grammar, `JsonReader`, with two consumers:
/// `Json::parse` builds a tree on it (tests load what the writers
/// emitted; configs and request bodies are read back), and a hot path
/// that wants a few fields (the service's `POST /submit` decoder) pulls
/// them straight off the text without building a tree. Both accept and
/// reject exactly the same documents with the same errors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dvfs/common.h"

namespace dvfs::obs {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : v_(b) {}                // NOLINT(google-explicit-constructor)
  Json(double d) : v_(d) {}              // NOLINT(google-explicit-constructor)
  Json(int i)                            // NOLINT(google-explicit-constructor)
      : v_(static_cast<double>(i)) {}
  Json(std::int64_t i)                   // NOLINT(google-explicit-constructor)
      : v_(static_cast<double>(i)) {}
  Json(std::uint64_t u)                  // NOLINT(google-explicit-constructor)
      : v_(static_cast<double>(u)) {}
  Json(const char* s) : v_(std::string(s)) {}  // NOLINT
  Json(std::string s) : v_(std::move(s)) {}    // NOLINT
  Json(Array a) : v_(std::move(a)) {}          // NOLINT
  Json(Object o) : v_(std::move(o)) {}         // NOLINT

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(v_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(v_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(v_);
  }

  [[nodiscard]] bool as_bool() const {
    DVFS_REQUIRE(is_bool(), "JSON value is not a bool");
    return std::get<bool>(v_);
  }
  [[nodiscard]] double as_double() const {
    DVFS_REQUIRE(is_number(), "JSON value is not a number");
    return std::get<double>(v_);
  }
  [[nodiscard]] const std::string& as_string() const {
    DVFS_REQUIRE(is_string(), "JSON value is not a string");
    return std::get<std::string>(v_);
  }
  [[nodiscard]] Array& as_array() {
    DVFS_REQUIRE(is_array(), "JSON value is not an array");
    return std::get<Array>(v_);
  }
  [[nodiscard]] const Array& as_array() const {
    DVFS_REQUIRE(is_array(), "JSON value is not an array");
    return std::get<Array>(v_);
  }
  [[nodiscard]] Object& as_object() {
    DVFS_REQUIRE(is_object(), "JSON value is not an object");
    return std::get<Object>(v_);
  }
  [[nodiscard]] const Object& as_object() const {
    DVFS_REQUIRE(is_object(), "JSON value is not an object");
    return std::get<Object>(v_);
  }

  /// Object member access; inserts null for a missing key (object only).
  Json& operator[](const std::string& key) { return as_object()[key]; }

  [[nodiscard]] bool contains(const std::string& key) const {
    return is_object() && as_object().contains(key);
  }
  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto& o = as_object();
    const auto it = o.find(key);
    DVFS_REQUIRE(it != o.end(), "missing JSON key: " + key);
    return it->second;
  }
  [[nodiscard]] const Json& at(std::size_t index) const {
    const auto& a = as_array();
    DVFS_REQUIRE(index < a.size(), "JSON array index out of range");
    return a[index];
  }
  [[nodiscard]] std::size_t size() const {
    if (is_array()) return as_array().size();
    if (is_object()) return as_object().size();
    DVFS_REQUIRE(false, "JSON value has no size");
    return 0;  // unreachable
  }

  void push_back(Json v) { as_array().push_back(std::move(v)); }

  /// Serializes; `indent < 0` gives compact one-line output, otherwise a
  /// pretty-printed form with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Throws PreconditionError on malformed input.
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Pull reader over one JSON document: the grammar `Json::parse` is
/// built on. The caller walks the document in order: `peek()` names the
/// next value's kind, then exactly one of `begin_object` (members via
/// `next_key`, each followed by one value), `begin_array` (elements via
/// `next_element`, each one value), `number`, `string`, `boolean`,
/// `null` or `skip_value` consumes it; `finish()` requires end of input
/// after the top-level value. Nesting deeper than 128 levels, malformed
/// tokens and unexpected ends throw PreconditionError naming the byte
/// offset. `skip_value` validates what it skips as strictly as reading.
class JsonReader {
 public:
  enum class Kind : std::uint8_t {
    kObject,
    kArray,
    kString,
    kNumber,  ///< also anything that starts no other kind: `number()`
              ///< then reports it as malformed
    kBool,
    kNull,
  };

  /// Reads `text` in place: it must outlive the reader.
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Kind of the next value (skips whitespace; throws at end of input).
  [[nodiscard]] Kind peek();

  void begin_object();
  /// Next member of the innermost open object: true with `key` set and
  /// the reader at the member's value; false once the closing brace is
  /// consumed. `key` is valid until the next key or string is read.
  bool next_key(std::string_view& key);

  void begin_array();
  /// True when the innermost open array has another element (the reader
  /// is at it); false once the closing bracket is consumed.
  bool next_element();

  double number();
  /// Unescaped string value, valid until the next key or string is read.
  std::string_view string();
  bool boolean();
  void null();
  /// Consumes the next value, containers included, validating it.
  void skip_value();

  /// Requires that only whitespace follows the top-level value.
  void finish();

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& what) const;
  [[noreturn]] void fail_expected(char c) const;
  [[nodiscard]] char peek_char() const;
  char next();
  void skip_ws();
  void expect(char c);
  void expect_word(std::string_view word);
  /// Start of any value: the depth limit, then whitespace.
  void enter();
  std::string_view read_string();
  unsigned parse_unit();
  void append_codepoint(unsigned cp);

  std::string_view text_;
  std::size_t pos_ = 0;
  /// Containers open around the reader.
  int depth_ = 0;
  /// True right after a `begin_*`: the next `next_key`/`next_element`
  /// reads the container's first entry, not a separator.
  bool first_ = false;
  /// Unescaped text of the last key or string that held an escape.
  std::string buf_;
};

/// Writes `value` (plus a trailing newline) to `path`, failing loudly.
void write_json_file(const std::string& path, const Json& value,
                     int indent = 1);

/// Reads and parses a JSON file.
Json read_json_file(const std::string& path);

}  // namespace dvfs::obs
