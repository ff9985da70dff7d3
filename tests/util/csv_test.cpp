#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace jps::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Each case writes its own file: ctest runs the cases as separate
// processes, in parallel under -j.
class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/jps_csv_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.add_row(std::vector<std::string>{"1", "2"});
    w.add_row(std::vector<double>{3.5, 4.25});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  const std::string content = read_file(path_);
  EXPECT_EQ(content, "a,b\n1,2\n3.5,4.25\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter w(path_, {"text"});
    w.add_row(std::vector<std::string>{"has,comma"});
    w.add_row(std::vector<std::string>{"has\"quote"});
  }
  const std::string content = read_file(path_);
  EXPECT_NE(content.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"has\"\"quote\""), std::string::npos);
}

TEST_F(CsvTest, RejectsWidthMismatch) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.add_row(std::vector<std::string>{"only-one"}),
               std::runtime_error);
}

TEST(CsvEscape, PassesPlainCells) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with space"), "with space");
}

TEST(CsvEscape, QuotesCarriageReturns) {
  // Bare \r (and \r\n) cells must be quoted or readers see a phantom row
  // boundary; regression for the missing \r in the quote set.
  EXPECT_EQ(csv_escape("a\rb"), "\"a\rb\"");
  EXPECT_EQ(csv_escape("a\r\nb"), "\"a\r\nb\"");
}

TEST_F(CsvTest, CarriageReturnRoundTrips) {
  {
    CsvWriter w(path_, {"text"});
    w.add_row(std::vector<std::string>{"line1\rline2"});
  }
  const std::string content = read_file(path_);
  // The cell is quoted, so a CSV reader sees exactly two records (header +
  // one row) with the \r intact inside the quoted field.
  EXPECT_NE(content.find("\"line1\rline2\""), std::string::npos);
  std::size_t unquoted_rows = 0;
  bool in_quotes = false;
  for (const char c : content) {
    if (c == '"') in_quotes = !in_quotes;
    if (c == '\n' && !in_quotes) ++unquoted_rows;
  }
  EXPECT_EQ(unquoted_rows, 2u);
}

TEST(CsvWriterStandalone, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace jps::util
