/// Tests for obs::JsonReader, the one JSON grammar, and obs::Json::parse
/// built on it: pulling values in document order, validation of skipped
/// values, the depth limit, escapes, number conversion, and the error
/// text (offset and problem) every malformed input reports.
#include "dvfs/obs/json.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>

namespace dvfs::obs {
namespace {

using Kind = JsonReader::Kind;

/// The message `Json::parse(text)` throws, or "" when it parses.
std::string parse_error(std::string_view text) {
  try {
    (void)Json::parse(text);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonReader, PullsValuesInDocumentOrder) {
  JsonReader r(R"( {"a": [1, -2.5e1, "x\ty"], "b": {}, "c": [], "d": true,
                    "e": null, "f": false} )");
  ASSERT_EQ(r.peek(), Kind::kObject);
  r.begin_object();
  std::string_view key;
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "a");
  ASSERT_EQ(r.peek(), Kind::kArray);
  r.begin_array();
  ASSERT_TRUE(r.next_element());
  EXPECT_EQ(r.number(), 1.0);
  ASSERT_TRUE(r.next_element());
  EXPECT_EQ(r.number(), -25.0);
  ASSERT_TRUE(r.next_element());
  ASSERT_EQ(r.peek(), Kind::kString);
  EXPECT_EQ(r.string(), "x\ty");
  EXPECT_FALSE(r.next_element());
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "b");
  r.begin_object();
  EXPECT_FALSE(r.next_key(key));
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "c");
  r.begin_array();
  EXPECT_FALSE(r.next_element());
  ASSERT_TRUE(r.next_key(key));
  ASSERT_EQ(r.peek(), Kind::kBool);
  EXPECT_TRUE(r.boolean());
  ASSERT_TRUE(r.next_key(key));
  ASSERT_EQ(r.peek(), Kind::kNull);
  r.null();
  ASSERT_TRUE(r.next_key(key));
  EXPECT_FALSE(r.boolean());
  EXPECT_FALSE(r.next_key(key));
  r.finish();
}

TEST(JsonReader, SkipValueValidatesWhatItSkips) {
  JsonReader ok(R"({"k": [{"x": "\u00e9\n"}, [1, 2e3], null]} )");
  ok.skip_value();
  ok.finish();

  for (const char* bad : {R"({"k": [{"x": "\q"}]})", R"({"k": [1,]})",
                          R"({"k": 1e999})", R"({"k": tru})", R"({"k" 1})"}) {
    JsonReader r(bad);
    EXPECT_THROW(r.skip_value(), PreconditionError) << bad;
  }
  JsonReader trailing("[] x");
  trailing.skip_value();
  EXPECT_THROW(trailing.finish(), PreconditionError);
}

TEST(JsonParse, NestsUpTo128ContainersDeep) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') + "1" +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(parse_error(nested(128)), "");
  EXPECT_NE(parse_error(nested(129)).find(
                "JSON parse error at offset 129: nesting too deep"),
            std::string::npos);
  const std::string deep = nested(129);  // the reader views, not copies
  JsonReader r(deep);
  EXPECT_THROW(r.skip_value(), PreconditionError);
}

TEST(JsonParse, DecodesEscapesToUtf8) {
  const Json v = Json::parse(
      R"(["\"\\\/\b\f\n\r\t", "\u0041\u00e9\u20ac", "\ud83d\ude00"])");
  EXPECT_EQ(v.at(0).as_string(), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(v.at(1).as_string(), "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(v.at(2).as_string(), "\xF0\x9F\x98\x80");
  // A key with an escape is the same key as its plain spelling.
  EXPECT_TRUE(Json::parse(R"({"\u0069d": 1})").contains("id"));
}

TEST(JsonParse, NumbersConvertAsFromChars) {
  for (const char* text :
       {"0", "-0", "7", "-7", "007", "123456789012345678",
        "-123456789012345678", "1234567890123456789", "9007199254740993",
        "18446744073709551617", "0.5", "-2.5e-3", "1E2", "1e308",
        "1.7976931348623157e308", "4.9e-324"}) {
    double want = 0.0;
    const std::string_view s(text);
    ASSERT_EQ(std::from_chars(s.data(), s.data() + s.size(), want).ec,
              std::errc{});
    const double got = Json::parse(text).as_double();
    EXPECT_EQ(got, want) << text;
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << text;
  }
}

TEST(JsonParse, ErrorsNameTheOffsetAndTheProblem) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "offset 0: unexpected end of input"},
      {"  ", "offset 2: unexpected end of input"},
      {"[1", "offset 2: unexpected end of input"},
      {"\"abc", "offset 4: unexpected end of input"},
      {"[1 2]", "offset 4: expected ',' or ']' in array"},
      {"{\"a\":1 \"b\"}", "offset 8: expected ',' or '}' in object"},
      {"{\"a\" 1}", "offset 6: expected ':'"},
      {"{1:2}", "offset 2: expected '\"'"},
      {"tru", "offset 3: unexpected end of input"},
      {"nul!", "offset 4: expected 'l'"},
      {"x", "offset 0: malformed number"},
      {"1.2.3", "offset 5: malformed number"},
      {"1e999", "offset 5: malformed number"},
      {"-", "offset 1: malformed number"},
      {"\"\\x\"", "offset 3: invalid escape sequence"},
      {"\"\\u12G4\"", "offset 6: invalid \\u escape"},
      {"\"\\ud83d\"", "offset 8: expected '\\'"},
      {"\"\\ud83d\\u0041\"", "offset 13: unpaired surrogate"},
      {"\"\\ude00\"", "offset 7: unpaired surrogate"},
  };
  for (const auto& [text, what] : cases) {
    EXPECT_NE(parse_error(text).find(std::string("JSON parse error at ") +
                                     what),
              std::string::npos)
        << text << " -> " << parse_error(text);
  }
  EXPECT_NE(parse_error("{} {}").find("trailing characters after JSON value"),
            std::string::npos);
}

}  // namespace
}  // namespace dvfs::obs
