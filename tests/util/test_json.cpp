#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace hrf::json {
namespace {

TEST(Json, BuildsAndDumpsCompact) {
  Value root = Value::object();
  root["name"] = "hrf";
  root["version"] = 1;
  root["ok"] = true;
  root["nothing"] = Value();
  Value arr = Value::array();
  arr.push_back(1.5);
  arr.push_back("two");
  root["items"] = std::move(arr);
  EXPECT_EQ(root.dump(),
            R"({"name":"hrf","version":1,"ok":true,"nothing":null,"items":[1.5,"two"]})");
}

TEST(Json, IntegersPrintWithoutFraction) {
  Value v = Value(1234567890.0);
  EXPECT_EQ(v.dump(), "1234567890");
  EXPECT_EQ(Value(0.25).dump(), "0.25");
}

TEST(Json, PrettyPrintIndents) {
  Value root = Value::object();
  root["a"] = 1;
  const std::string pretty = root.dump(2);
  EXPECT_NE(pretty.find("{\n  \"a\": 1\n}"), std::string::npos);
}

TEST(Json, ParsesRoundTrip) {
  const std::string text =
      R"({"s":"a\"b\\c\nd","n":-1.25e2,"t":true,"f":false,"z":null,"arr":[1,2,3],"obj":{"k":"v"}})";
  const Value v = Value::parse(text);
  EXPECT_EQ(v.get("s").as_string(), "a\"b\\c\nd");
  EXPECT_EQ(v.get("n").as_number(), -125.0);
  EXPECT_TRUE(v.get("t").as_bool());
  EXPECT_FALSE(v.get("f").as_bool());
  EXPECT_TRUE(v.get("z").is_null());
  EXPECT_EQ(v.get("arr").size(), 3u);
  EXPECT_EQ(v.get("arr").at(2).as_number(), 3.0);
  EXPECT_EQ(v.get("obj").get("k").as_string(), "v");
  // Dump -> parse -> dump is a fixed point.
  EXPECT_EQ(Value::parse(v.dump()).dump(), v.dump());
}

TEST(Json, ParsesWhitespaceAndNesting) {
  const Value v = Value::parse("  [ { \"a\" : [ [ ] , { } ] } ]  ");
  EXPECT_TRUE(v.is_array());
  EXPECT_EQ(v.at(0).get("a").size(), 2u);
}

TEST(Json, ControlCharactersRoundTripViaEscapes) {
  Value v = Value(std::string("tab\tnl\nctl\x01"));
  const std::string dumped = v.dump();
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  EXPECT_EQ(Value::parse(dumped).as_string(), v.as_string());
}

TEST(Json, MissingRequiredKeyThrows) {
  const Value v = Value::parse(R"({"present":1})");
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_THROW(v.get("absent"), FormatError);
}

TEST(Json, TypeMismatchThrows) {
  const Value v = Value::parse(R"({"n":1})");
  EXPECT_THROW(v.get("n").as_string(), FormatError);
  EXPECT_THROW(v.get("n").as_bool(), FormatError);
  EXPECT_THROW(v.at(0), FormatError);
}

TEST(Json, MalformedInputThrows) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
                          "{\"a\":1} trailing", "{'single':1}", "[1 2]"}) {
    EXPECT_THROW(Value::parse(bad), FormatError) << "input: " << bad;
  }
}

TEST(Json, NonFiniteNumbersRefuseToSerialize) {
  EXPECT_THROW(Value(std::numeric_limits<double>::infinity()).dump(), FormatError);
}

TEST(Json, IntegersPast2To53KeepEveryDigit) {
  // 2^53 + 1 is the first integer a double cannot hold.
  constexpr std::uint64_t kOdd = (std::uint64_t{1} << 53) + 1;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  Value root = Value::object();
  root["odd"] = kOdd;
  root["max"] = kMax;
  root["min"] = kMin;
  const std::string text = root.dump();
  EXPECT_EQ(text, R"({"odd":9007199254740993,"max":18446744073709551615,)"
                  R"("min":-9223372036854775808})");
  const Value back = Value::parse(text);
  EXPECT_TRUE(back.get("odd").is_integer());
  EXPECT_EQ(back.get("odd").as_uint64(), kOdd);
  EXPECT_EQ(back.get("max").as_uint64(), kMax);
  EXPECT_THROW(back.get("min").as_uint64(), FormatError);
  EXPECT_EQ(back.dump(), text);
}

TEST(Json, Uint64AccessorAcceptsOnlyNonNegativeIntegers) {
  EXPECT_EQ(Value(42).as_uint64(), 42u);
  EXPECT_EQ(Value::parse("7").as_uint64(), 7u);
  EXPECT_FALSE(Value::parse("7.0").is_integer());
  EXPECT_THROW(Value::parse("7.0").as_uint64(), FormatError);
  EXPECT_THROW(Value(7.0).as_uint64(), FormatError);
  EXPECT_THROW(Value(-1).as_uint64(), FormatError);
  EXPECT_THROW(Value("7").as_uint64(), FormatError);
  // Past 64 bits an integer token falls back to the nearest double.
  const Value huge = Value::parse("123456789012345678901234567890");
  EXPECT_FALSE(huge.is_integer());
  EXPECT_DOUBLE_EQ(huge.as_number(), 1.2345678901234568e29);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Value v = Value::object();
  v["z"] = 1;
  v["a"] = 2;
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
}

}  // namespace
}  // namespace hrf::json
