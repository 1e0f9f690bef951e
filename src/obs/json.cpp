#include "dvfs/obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dvfs::obs {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double d) {
  DVFS_REQUIRE(std::isfinite(d), "JSON cannot represent NaN or infinity");
  // Integral values within the exactly-representable range print without
  // an exponent or decimal point, keeping counters readable.
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
  DVFS_REQUIRE(ec == std::errc{}, "number formatting failed");
  out.append(buf, ptr);
}

void dump_impl(const Json& v, std::string& out, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    append_number(out, v.as_double());
  } else if (v.is_string()) {
    append_escaped(out, v.as_string());
  } else if (v.is_array()) {
    const auto& a = v.as_array();
    if (a.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) out.push_back(',');
      newline(depth + 1);
      dump_impl(a[i], out, indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
  } else {
    const auto& o = v.as_object();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : o) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      append_escaped(out, key);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      dump_impl(value, out, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
  }
}

/// The tree `Json::parse` returns, read off `r` value by value.
Json read_tree(JsonReader& r) {
  switch (r.peek()) {
    case JsonReader::Kind::kObject: {
      Json::Object o;
      r.begin_object();
      std::string_view key;
      while (r.next_key(key)) {
        std::string name(key);  // `key` dies with the next string read
        o.insert_or_assign(std::move(name), read_tree(r));
      }
      return Json(std::move(o));
    }
    case JsonReader::Kind::kArray: {
      Json::Array a;
      r.begin_array();
      while (r.next_element()) a.push_back(read_tree(r));
      return Json(std::move(a));
    }
    case JsonReader::Kind::kString: return Json(std::string(r.string()));
    case JsonReader::Kind::kBool: return Json(r.boolean());
    case JsonReader::Kind::kNull: r.null(); return Json(nullptr);
    case JsonReader::Kind::kNumber: break;
  }
  return Json(r.number());
}

}  // namespace

void JsonReader::fail(const std::string& what) const {
  DVFS_REQUIRE(false,
               "JSON parse error at offset " + std::to_string(pos_) + ": " +
                   what);
  std::abort();  // unreachable; DVFS_REQUIRE(false, ...) always throws
}

void JsonReader::fail_expected(char c) const {
  fail(std::string("expected '") + c + "'");
}

inline char JsonReader::peek_char() const {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

inline char JsonReader::next() {
  const char c = peek_char();
  ++pos_;
  return c;
}

inline void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

inline void JsonReader::expect(char c) {
  if (next() != c) fail_expected(c);
}

inline void JsonReader::expect_word(std::string_view word) {
  for (const char c : word) expect(c);
}

inline void JsonReader::enter() {
  if (depth_ > kMaxDepth) fail("nesting too deep");
  skip_ws();
}

JsonReader::Kind JsonReader::peek() {
  enter();
  switch (peek_char()) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    case 't':
    case 'f': return Kind::kBool;
    case 'n': return Kind::kNull;
    default: return Kind::kNumber;
  }
}

void JsonReader::begin_object() {
  enter();
  expect('{');
  ++depth_;
  first_ = true;
}

bool JsonReader::next_key(std::string_view& key) {
  skip_ws();
  if (first_) {
    first_ = false;
    if (peek_char() == '}') {
      ++pos_;
      --depth_;
      return false;
    }
  } else {
    const char c = next();
    if (c == '}') {
      --depth_;
      return false;
    }
    if (c != ',') fail("expected ',' or '}' in object");
    skip_ws();
  }
  key = read_string();
  skip_ws();
  expect(':');
  return true;
}

void JsonReader::begin_array() {
  enter();
  expect('[');
  ++depth_;
  first_ = true;
}

bool JsonReader::next_element() {
  skip_ws();
  if (first_) {
    first_ = false;
    if (peek_char() == ']') {
      ++pos_;
      --depth_;
      return false;
    }
    return true;
  }
  const char c = next();
  if (c == ']') {
    --depth_;
    return false;
  }
  if (c != ',') fail("expected ',' or ']' in array");
  return true;
}

double JsonReader::number() {
  enter();
  const std::size_t start = pos_;
  if (peek_char() == '-') ++pos_;
  // One scan: the token's extent, and its value if it is a plain
  // integer of at most 18 digits (what request bodies and counters
  // hold), which converts exactly without from_chars to the same double.
  const std::size_t digits = pos_;
  std::uint64_t integer = 0;
  bool plain = true;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c >= '0' && c <= '9') {
      integer = integer * 10 + static_cast<unsigned>(c - '0');
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      plain = false;
    } else {
      break;
    }
    ++pos_;
  }
  if (plain && pos_ > digits && pos_ - digits <= 18) {
    const auto d = static_cast<double>(integer);
    return digits == start ? d : -d;
  }
  double d = 0.0;
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  const auto [ptr, ec] = std::from_chars(first, last, d);
  if (ec != std::errc{} || ptr != last) fail("malformed number");
  return d;
}

std::string_view JsonReader::string() {
  enter();
  return read_string();
}

bool JsonReader::boolean() {
  enter();
  if (peek_char() == 't') {
    expect_word("true");
    return true;
  }
  expect_word("false");
  return false;
}

void JsonReader::null() {
  enter();
  expect_word("null");
}

void JsonReader::skip_value() {
  switch (peek()) {
    case Kind::kObject: {
      begin_object();
      std::string_view key;
      while (next_key(key)) skip_value();
      return;
    }
    case Kind::kArray:
      begin_array();
      while (next_element()) skip_value();
      return;
    case Kind::kString: (void)string(); return;
    case Kind::kNumber: (void)number(); return;
    case Kind::kBool: (void)boolean(); return;
    case Kind::kNull: null(); return;
  }
}

void JsonReader::finish() {
  skip_ws();
  DVFS_REQUIRE(pos_ == text_.size(), "trailing characters after JSON value");
}

std::string_view JsonReader::read_string() {
  expect('"');
  // Fast path: no escape before the closing quote, so the value is the
  // text itself.
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
    ++pos_;
  }
  if (peek_char() == '"') {
    ++pos_;
    return text_.substr(start, pos_ - 1 - start);
  }
  buf_.assign(text_.data() + start, pos_ - start);
  while (true) {
    const char c = next();
    if (c == '"') break;
    if (c != '\\') {
      buf_.push_back(c);
      continue;
    }
    const char esc = next();
    switch (esc) {
      case '"': buf_.push_back('"'); break;
      case '\\': buf_.push_back('\\'); break;
      case '/': buf_.push_back('/'); break;
      case 'b': buf_.push_back('\b'); break;
      case 'f': buf_.push_back('\f'); break;
      case 'n': buf_.push_back('\n'); break;
      case 'r': buf_.push_back('\r'); break;
      case 't': buf_.push_back('\t'); break;
      case 'u': append_codepoint(parse_unit()); break;
      default: fail("invalid escape sequence");
    }
  }
  return buf_;
}

unsigned JsonReader::parse_unit() {
  unsigned cp = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = next();
    cp <<= 4;
    if (c >= '0' && c <= '9') {
      cp += static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      cp += static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      cp += static_cast<unsigned>(c - 'A' + 10);
    } else {
      fail("invalid \\u escape");
    }
  }
  return cp;
}

void JsonReader::append_codepoint(unsigned cp) {
  // Combine surrogate pairs (trace names never need them, but a parser
  // that corrupts them would be worse than none).
  if (cp >= 0xD800 && cp <= 0xDBFF) {
    expect('\\');
    expect('u');
    const unsigned lo = parse_unit();
    if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
  } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
    fail("unpaired surrogate");
  }
  std::string& out = buf_;
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  JsonReader r(text);
  Json v = read_tree(r);
  r.finish();
  return v;
}

void write_json_file(const std::string& path, const Json& value, int indent) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DVFS_REQUIRE(out.good(), "cannot open for writing: " + path);
  out << value.dump(indent) << '\n';
  out.flush();
  DVFS_REQUIRE(out.good(), "write failed: " + path);
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DVFS_REQUIRE(in.good(), "cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

}  // namespace dvfs::obs
