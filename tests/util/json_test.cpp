#include "util/json.h"

#include <gtest/gtest.h>

#include <clocale>
#include <limits>
#include <string>

namespace jps::util {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.25").as_double(), -3.25);
  EXPECT_DOUBLE_EQ(Json::parse("1.5e3").as_double(), 1500.0);
  EXPECT_DOUBLE_EQ(Json::parse("0").as_double(), 0.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(Json::parse("  \"pad\"  ").as_string(), "pad");
}

TEST(Json, ParsesNestedStructures) {
  const Json doc = Json::parse(
      R"({"name": "bench", "values": [1, 2.5, -3], "nested": {"ok": true}, "none": null})");
  EXPECT_EQ(doc.at("name").as_string(), "bench");
  const Json& values = doc.at("values");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values.at(0).as_double(), 1.0);
  EXPECT_DOUBLE_EQ(values.at(1).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(values.at(2).as_double(), -3.0);
  EXPECT_TRUE(doc.at("nested").at("ok").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  EXPECT_TRUE(doc.contains("name"));
  EXPECT_FALSE(doc.contains("missing"));
  EXPECT_EQ(doc.get("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), std::out_of_range);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(Json::parse(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "01", "1.", "1e", "\"unterminated",
        "[1] trailing", "{\"a\" 1}", "\"\\ud83d\"", "nan", "+1",
        "\"ctrl\x01\""}) {
    EXPECT_THROW((void)Json::parse(bad), JsonParseError) << bad;
  }
}

TEST(Json, DepthLimitHolds) {
  std::string deep(Json::kMaxDepth + 10, '[');
  EXPECT_THROW((void)Json::parse(deep), JsonParseError);
  // A comfortably-nested document still parses.
  std::string ok;
  for (int i = 0; i < 10; ++i) ok += "[";
  ok += "1";
  for (int i = 0; i < 10; ++i) ok += "]";
  EXPECT_DOUBLE_EQ(
      Json::parse(ok).at(0).at(0).at(0).at(0).at(0).at(0).at(0).at(0).at(0)
          .at(0).as_double(),
      1.0);
}

TEST(Json, TypeMismatchesThrow) {
  const Json number = Json::parse("5");
  EXPECT_THROW((void)number.as_string(), std::runtime_error);
  EXPECT_THROW((void)number.as_bool(), std::runtime_error);
  EXPECT_THROW((void)number.at(0), std::runtime_error);
  EXPECT_THROW((void)number.at("k"), std::runtime_error);
}

TEST(Json, BuildAndDumpCompact) {
  Json doc = Json::object();
  doc.set("name", Json("x"));
  doc.set("n", Json(3));
  Json arr = Json::array();
  arr.push_back(Json(1.5));
  arr.push_back(Json(true));
  arr.push_back(Json());
  doc.set("values", std::move(arr));
  EXPECT_EQ(doc.dump(), R"({"name":"x","n":3,"values":[1.5,true,null]})");
}

TEST(Json, ObjectKeepsInsertionOrderAndOverwrites) {
  Json doc = Json::object();
  doc.set("z", Json(1));
  doc.set("a", Json(2));
  doc.set("z", Json(3));  // overwrite keeps position
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "z");
  EXPECT_DOUBLE_EQ(doc.members()[0].second.as_double(), 3.0);
  EXPECT_EQ(doc.members()[1].first, "a");
}

TEST(Json, CopiesAreDeepAndValuesAreSmall) {
  Json original = Json::object();
  original.set("name", "plan");
  Json list = Json::array();
  list.push_back(1.5);
  list.push_back(true);
  original.set("list", list);
  Json copy = original;
  copy.set("name", "other");
  Json grown = copy.at("list");
  grown.push_back(Json());
  copy.set("list", grown);
  EXPECT_EQ(original.dump(), R"({"name":"plan","list":[1.5,true]})");
  EXPECT_EQ(copy.dump(), R"({"name":"other","list":[1.5,true,null]})");
  copy = original;
  EXPECT_EQ(copy.dump(), original.dump());

  Json moved = std::move(copy);
  EXPECT_EQ(moved.dump(), original.dump());
  EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
  copy.push_back(2.0);
  EXPECT_EQ(copy.dump(), "[2]");

  // A number costs one value slot: large arrays of numbers (per-pass
  // timings in benchmark records) stay a few bytes per element.
  EXPECT_LE(sizeof(Json), 2 * sizeof(double));
}

TEST(Json, RoundTripsThroughDump) {
  const std::string text =
      R"({"a":[1,2.5,"s\"x"],"b":{"c":null,"d":false},"e":1e-06})";
  const Json doc = Json::parse(text);
  const Json again = Json::parse(doc.dump());
  EXPECT_EQ(doc.dump(), again.dump());
  EXPECT_DOUBLE_EQ(again.at("e").as_double(), 1e-06);
}

TEST(Json, NumbersRoundTripPrecisely) {
  for (const double v : {0.1, 1.0 / 3.0, 123456789.123456789, 1e-300, 5e300}) {
    Json doc = Json::array();
    doc.push_back(Json(v));
    EXPECT_DOUBLE_EQ(Json::parse(doc.dump()).at(0).as_double(), v) << v;
  }
  // Non-finite doubles degrade to null rather than emitting invalid JSON.
  Json inf = Json::array();
  inf.push_back(Json(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(Json::parse(inf.dump()).at(0).is_null());
}

TEST(Json, PrettyPrintParsesBack) {
  const Json doc = Json::parse(R"({"a":[1,2],"b":{"c":"d"}})");
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty).dump(), doc.dump());
}

TEST(Json, ParseErrorCarriesOffset) {
  try {
    (void)Json::parse("[1, 2, oops]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_GE(e.offset(), 7u);
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, NumbersIgnoreTheGlobalLocale) {
  // Regression: number parsing/printing went through std::stod and
  // stream insertion, both locale-sensitive — under de_DE a BENCH_*.json
  // would read "1.5" as 1 and dump "2,25", which no JSON parser accepts.
  const std::string saved = std::setlocale(LC_ALL, nullptr);
  if (std::setlocale(LC_ALL, "de_DE.UTF-8") == nullptr &&
      std::setlocale(LC_ALL, "de_DE") == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  double parsed = 0.0;
  std::string dumped;
  std::string error;
  try {
    parsed = Json::parse("[1.5]").at(0).as_double();
    Json arr = Json::array();
    arr.push_back(Json(2.25));
    dumped = arr.dump();
  } catch (const std::exception& e) {
    error = e.what();
  }
  std::setlocale(LC_ALL, saved.c_str());
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_DOUBLE_EQ(parsed, 1.5);
  EXPECT_EQ(dumped, "[2.25]");  // never "[2,25]"
}

}  // namespace
}  // namespace jps::util
