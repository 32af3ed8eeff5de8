// Tests for the util module: formatting, splitting, statistics, tables, CSV
// round-trips, the JSON writer and the CLI parser.

#include <gtest/gtest.h>

#include <algorithm>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace casched::util {
namespace {

TEST(Strings, FormatBasic) {
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(Strings, FormatLongOutput) {
  const std::string big(5000, 'a');
  EXPECT_EQ(strformat("%s!", big.c_str()).size(), big.size() + 1);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingle) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(startsWith("--flag", "--"));
  EXPECT_FALSE(startsWith("-", "--"));
}

TEST(Strings, JoinAndLower) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(toLower("MiXeD"), "mixed");
}

TEST(Strings, FormatNumberIntegersWithoutFraction) {
  EXPECT_EQ(formatNumber(42.0), "42");
  EXPECT_EQ(formatNumber(42.5, 1), "42.5");
  EXPECT_EQ(formatNumber(-3.0), "-3");
}

TEST(Strings, ParseHostPortAcceptsAValidAddress) {
  const std::optional<HostPort> hp = parseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 8080);
  // The split is at the last ':' and the port range ends at 65535.
  const std::optional<HostPort> edge = parseHostPort("[::1]:65535");
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->host, "[::1]");
  EXPECT_EQ(edge->port, 65535);
  EXPECT_EQ(parseHostPort("h:1")->port, 1);
}

TEST(Strings, ParseHostPortRejectsEveryMalformedForm) {
  for (const char* bad : {
           "127.0.0.1:80x",  // trailing garbage
           "h: 80",          // leading whitespace
           "h:80 ",          // trailing whitespace
           "h:+80",          // sign
           "h:-80",          // negative
           "h:0",            // port 0
           "h:65536",        // past the range
           "h:99999999999",  // would overflow a naive int parse
           "h:",             // no port
           ":80",            // no host
           "h80",            // no colon
           "",
       }) {
    EXPECT_FALSE(parseHostPort(bad).has_value()) << "accepted '" << bad << "'";
  }
}

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, RunningStatEmptyAndSingle) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, MergeMatchesSequential) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = 0.37 * i - 3.0;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, MergeWithEmpty) {
  RunningStat a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Stats, SummaryMedianEvenOdd) {
  EXPECT_DOUBLE_EQ(summarize({3.0, 1.0, 2.0}).median, 2.0);
  EXPECT_DOUBLE_EQ(summarize({4.0, 1.0, 2.0, 3.0}).median, 2.5);
}

TEST(Stats, Percentile) {
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 20.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(percentile({}, 50), Error);
  EXPECT_THROW(percentile({1.0}, 101), Error);
}

TEST(Table, RendersHeaderAndRows) {
  TablePrinter t("Title");
  t.setHeader({"", "A", "B"});
  t.addRow({"metric", "1", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("metric"), std::string::npos);
  EXPECT_NE(out.find("| 1 |"), std::string::npos);
}

TEST(Table, AlignmentDefaults) {
  TablePrinter t;
  t.setHeader({"name", "value"});
  t.addRow({"x", "10"});
  t.addRow({"longer", "5"});
  const std::string out = t.render();
  // Right-aligned numeric column: "10" and " 5" share the right edge.
  EXPECT_NE(out.find("| x      |    10 |"), std::string::npos);
  EXPECT_NE(out.find("| longer |     5 |"), std::string::npos);
}

TEST(Table, RuleRow) {
  TablePrinter t;
  t.setHeader({"a"});
  t.addRow({"1"});
  t.addRule();
  t.addRow({"2"});
  const std::string out = t.render();
  EXPECT_GT(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Csv, RenderAndParseRoundTrip) {
  CsvWriter w({"a", "b"});
  w.addRow({"1", "hello, world"});
  w.addRow({"quote\"inside", "line\nbreak"});
  const auto rows = parseCsv(w.render());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_EQ(rows[1][1], "hello, world");
  EXPECT_EQ(rows[2][0], "quote\"inside");
  EXPECT_EQ(rows[2][1], "line\nbreak");
}

TEST(Csv, RowWidthValidation) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.addRow({"only-one"}), Error);
}

TEST(Csv, ParseRejectsUnterminatedQuote) {
  EXPECT_THROW(parseCsv("\"abc"), DecodeError);
}

TEST(Csv, ParseCrLf) {
  const auto rows = parseCsv("a,b\r\n1,2\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "2");
}

TEST(Json, WritesNestedDocuments) {
  JsonWriter json;
  json.beginObject();
  json.key("name").value("suite");
  json.key("count").value(std::uint64_t{3});
  json.key("ratio").value(0.5);
  json.key("ok").value(true);
  json.key("nothing").null();
  json.key("list").beginArray();
  json.value("a").value(std::int64_t{-2});
  json.beginObject().endObject();
  json.endArray();
  json.endObject();
  const std::string out = json.str();
  EXPECT_NE(out.find("\"name\": \"suite\""), std::string::npos);
  EXPECT_NE(out.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"ratio\": 0.5"), std::string::npos);
  EXPECT_NE(out.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(out.find("\"nothing\": null"), std::string::npos);
  EXPECT_NE(out.find("{}"), std::string::npos);
  // Balanced delimiters.
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

TEST(Json, EscapesStrings) {
  JsonWriter json;
  json.beginArray();
  json.value("quote\" slash\\ newline\n tab\t");
  json.endArray();
  EXPECT_NE(json.str().find("quote\\\" slash\\\\ newline\\n tab\\t"),
            std::string::npos);
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, RejectsMalformedUse) {
  {
    JsonWriter json;
    json.beginObject();
    EXPECT_THROW(json.value(1.0), Error);  // value without a key
  }
  {
    JsonWriter json;
    json.beginArray();
    EXPECT_THROW(json.key("k"), Error);  // key inside an array
    EXPECT_THROW(json.endObject(), Error);
  }
  {
    JsonWriter json;
    json.beginObject();
    EXPECT_THROW(json.str(), Error);  // unclosed container
  }
}

TEST(Cli, TypedFlagsAndDefaults) {
  ArgParser p("prog", "test");
  p.addInt("n", 10, "count");
  p.addDouble("rate", 1.5, "rate");
  p.addBool("verbose", false, "talk");
  p.addString("name", "x", "name");
  const char* argv[] = {"prog", "--n=20", "--verbose", "--rate", "2.5"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.getInt("n"), 20);
  EXPECT_DOUBLE_EQ(p.getDouble("rate"), 2.5);
  EXPECT_TRUE(p.getBool("verbose"));
  EXPECT_EQ(p.getString("name"), "x");
}

TEST(Cli, UnknownFlagThrows) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(p.parse(2, argv), ConfigError);
}

TEST(Cli, UnknownFlagEnumeratesValidOnes) {
  ArgParser p("prog", "test");
  p.addInt("n", 10, "count");
  p.addString("name", "x", "name");
  const char* argv[] = {"prog", "--nmae=y"};
  try {
    p.parse(2, argv);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown flag --nmae"), std::string::npos) << what;
    EXPECT_NE(what.find("--n"), std::string::npos) << what;
    EXPECT_NE(what.find("--name"), std::string::npos) << what;
    EXPECT_NE(what.find("--help"), std::string::npos) << what;
  }
}

TEST(Cli, FlagsMustShipHelpText) {
  // The --help audit is enforced at declaration: an undocumented flag is a
  // programming error, not something a doc review has to catch.
  ArgParser p("prog", "test");
  EXPECT_THROW(p.addInt("n", 10, ""), Error);
  EXPECT_THROW(p.addString("s", "", ""), Error);
  EXPECT_THROW(p.addBool("b", false, ""), Error);
  EXPECT_THROW(p.addDouble("d", 0.0, ""), Error);
}

TEST(Cli, BadIntValueThrows) {
  ArgParser p("prog", "test");
  p.addInt("n", 1, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_THROW(p.parse(2, argv), ConfigError);
}

TEST(Cli, PositionalArguments) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "posA", "posB"};
  ASSERT_TRUE(p.parse(3, argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "posA");
}

TEST(Cli, BoolFalseValue) {
  ArgParser p("prog", "test");
  p.addBool("x", true, "x");
  const char* argv[] = {"prog", "--x=false"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_FALSE(p.getBool("x"));
}

TEST(Log, LineFormatIsLocked) {
  // Epoch + a known offset, so the ISO-8601 stamp is fully deterministic.
  const auto when = std::chrono::system_clock::time_point{} +
                    std::chrono::milliseconds(1234);
  EXPECT_EQ(formatLogLine(LogLevel::kInfo, "test", "hello", when),
            "1970-01-01T00:00:01.234Z [INFO ] [test] hello");
  EXPECT_EQ(formatLogLine(LogLevel::kWarn, "net.agent", "x", when),
            "1970-01-01T00:00:01.234Z [WARN ] [net.agent] x");
}

TEST(Log, ParseLogLevelAcceptsEveryName) {
  EXPECT_EQ(parseLogLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(parseLogLevel("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(parseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(parseLogLevel("off"), LogLevel::kOff);
}

TEST(Log, ParseLogLevelRejectsUnknownNamesWithTheValidList) {
  try {
    parseLogLevel("verbose");
    FAIL() << "should have thrown";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown log level 'verbose'"), std::string::npos) << what;
    for (const char* name : {"trace", "debug", "info", "warn", "error", "off"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(Error, CheckMacroThrowsWithLocation) {
  try {
    CASCHED_CHECK(false, "broken invariant");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace casched::util
