// Tests for src/data CSV dataset I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

#include "data/csv.h"
#include "data/movie_generator.h"
#include "testing_util.h"

namespace hera {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// -------------------------------------------------------- field escaping

struct EscapeCase {
  const char* raw;
  const char* escaped;
};

// Prints the raw field: the default byte dump shows the pointers, so the
// discovered test names would change with every build.
void PrintTo(const EscapeCase& c, std::ostream* os) {
  *os << "[" << c.raw << "]";
}

class CsvEscapeTest : public ::testing::TestWithParam<EscapeCase> {};

TEST_P(CsvEscapeTest, EscapesAndParsesBack) {
  const auto& c = GetParam();
  EXPECT_EQ(EscapeCsvField(c.raw), c.escaped);
  auto fields = ParseCsvLine(EscapeCsvField(c.raw));
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], c.raw);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CsvEscapeTest,
    ::testing::Values(EscapeCase{"plain", "plain"},
                      EscapeCase{"with,comma", "\"with,comma\""},
                      EscapeCase{"with\"quote", "\"with\"\"quote\""},
                      EscapeCase{"", ""},
                      EscapeCase{"both,\"x\"", "\"both,\"\"x\"\"\""}));

TEST(CsvLineTest, SplitsUnquotedFields) {
  EXPECT_EQ(ParseCsvLine("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvLineTest, EmptyFields) {
  EXPECT_EQ(ParseCsvLine(",a,"), (std::vector<std::string>{"", "a", ""}));
}

TEST(CsvLineTest, QuotedCommaStaysInField) {
  EXPECT_EQ(ParseCsvLine("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
}

TEST(CsvLineTest, RoundTripMultipleFields) {
  std::vector<std::string> fields{"x", "a,b", "q\"u\"o", "", "end"};
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ",";
    line += EscapeCsvField(fields[i]);
  }
  EXPECT_EQ(ParseCsvLine(line), fields);
}

// ----------------------------------------------------- dataset round trip

TEST(DatasetIoTest, RoundTripsMotivatingExample) {
  Dataset ds = testing_util::MakeCustomersDataset();
  std::string path = TempPath("customers.hera");
  ASSERT_TRUE(WriteDataset(ds, path).ok());
  auto loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), ds.size());
  EXPECT_EQ(loaded->schemas().size(), ds.schemas().size());
  EXPECT_EQ(loaded->entity_of(), ds.entity_of());
  for (uint32_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(loaded->record(i).schema_id(), ds.record(i).schema_id());
    for (size_t v = 0; v < ds.record(i).size(); ++v) {
      EXPECT_EQ(loaded->record(i).value(v).ToString(),
                ds.record(i).value(v).ToString());
    }
  }
}

TEST(DatasetIoTest, RoundTripsGeneratedDataset) {
  MovieGeneratorConfig config;
  config.num_records = 80;
  config.num_entities = 15;
  config.seed = 21;
  Dataset ds = GenerateMovieDataset(config);
  std::string path = TempPath("movies.hera");
  ASSERT_TRUE(WriteDataset(ds, path).ok());
  auto loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), ds.size());
  for (uint32_t i = 0; i < ds.size(); ++i) {
    for (size_t v = 0; v < ds.record(i).size(); ++v) {
      // The format stores canonical strings and re-types on read via
      // Value::Parse (numeric sniffing + trimming) — that parse of the
      // written rendering is the documented round-trip contract.
      Value expect =
          Value::Parse(ds.record(i).value(v).ToString(), /*sniff=*/true);
      EXPECT_EQ(loaded->record(i).value(v), expect)
          << "record " << i << " attr " << v;
    }
  }
}

TEST(DatasetIoTest, NullValuesSurviveRoundTrip) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a", "b"}));
  ds.AddRecord(s, {Value(), Value("x")});
  std::string path = TempPath("nulls.hera");
  ASSERT_TRUE(WriteDataset(ds, path).ok());
  auto loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->record(0).value(0).is_null());
  EXPECT_EQ(loaded->record(0).value(1).ToString(), "x");
}

TEST(DatasetIoTest, WithoutGroundTruth) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a"}));
  ds.AddRecord(s, {Value("v")});
  std::string path = TempPath("no_truth.hera");
  ASSERT_TRUE(WriteDataset(ds, path).ok());
  auto loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->has_ground_truth());
}

// ------------------------------------------------------------ error cases

TEST(DatasetIoTest, MissingFileIsIOError) {
  auto r = ReadDataset("/nonexistent/path/file.hera");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(DatasetIoTest, MissingHeaderRejected) {
  std::string path = TempPath("bad_header.hera");
  std::ofstream(path) << "0,-,x\n";
  auto r = ReadDataset(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, UnknownSchemaIdRejected) {
  std::string path = TempPath("bad_schema.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a\n5,-,x\n";
  auto r = ReadDataset(path);
  EXPECT_FALSE(r.ok());
}

TEST(DatasetIoTest, ArityMismatchRejected) {
  std::string path = TempPath("bad_arity.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a,b\n0,-,only\n";
  auto r = ReadDataset(path);
  EXPECT_FALSE(r.ok());
}

TEST(DatasetIoTest, BadEntityIdRejected) {
  std::string path = TempPath("bad_entity.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a\n#truth 1\n0,xyz,v\n";
  auto r = ReadDataset(path);
  EXPECT_FALSE(r.ok());
}

TEST(DatasetIoTest, ToleratesCrlfAndBlankLines) {
  std::string path = TempPath("crlf.hera");
  std::ofstream(path) << "#hera-dataset v1\r\n#schema 0 S a\r\n\r\n0,-,x\r\n";
  auto r = ReadDataset(path);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 1u);
}


TEST(DatasetIoTest, CanonicalAttrMapRoundTrips) {
  MovieGeneratorConfig config;
  config.num_records = 30;
  config.num_entities = 10;
  config.seed = 33;
  Dataset ds = GenerateMovieDataset(config);
  ASSERT_FALSE(ds.canonical_attr().empty());
  std::string path = TempPath("concepts.hera");
  ASSERT_TRUE(WriteDataset(ds, path).ok());
  auto loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->canonical_attr(), ds.canonical_attr());
  EXPECT_EQ(loaded->NumDistinctAttributes(), ds.NumDistinctAttributes());
}

TEST(DatasetIoTest, BadConceptLineRejected) {
  std::string path = TempPath("bad_concept.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a\n#concept x y z\n0,-,v\n";
  EXPECT_FALSE(ReadDataset(path).ok());
}

// --------------------------------------------------------- hostile files

TEST(CsvLineTest, ReportsUnterminatedQuote) {
  bool unterminated = false;
  ParseCsvLine("\"closed\",ok", &unterminated);
  EXPECT_FALSE(unterminated);
  ParseCsvLine("\"never closed", &unterminated);
  EXPECT_TRUE(unterminated);
}

TEST(DatasetIoTest, UnterminatedQuoteRejectedWithLineNumber) {
  std::string path = TempPath("open_quote.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a\n0,-,\"oops\n";
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unterminated quote"), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status();
}

TEST(DatasetIoTest, UnterminatedQuoteInSchemaAttrsRejected) {
  std::string path = TempPath("open_quote_schema.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S \"a,b\n";
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status();
}

TEST(DatasetIoTest, RaggedRowReportsExpectedAndActualArity) {
  std::string path = TempPath("ragged.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a,b\n0,-,x,y,z\n";
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("expects 2"), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status();
}

TEST(DatasetIoTest, DuplicateHeaderRejected) {
  std::string path = TempPath("dup_header.hera");
  std::ofstream(path) << "#hera-dataset v1\n#hera-dataset v1\n";
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate"), std::string::npos)
      << r.status();
}

TEST(DatasetIoTest, DuplicateSchemaIdRejected) {
  std::string path = TempPath("dup_schema.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a\n#schema 0 T b\n";
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate #schema"), std::string::npos)
      << r.status();
}

TEST(DatasetIoTest, MalformedSchemaLineRejected) {
  std::string path = TempPath("malformed_schema.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema nonsense\n";
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("malformed #schema"), std::string::npos)
      << r.status();
}

TEST(DatasetIoTest, SchemaAfterDataRejected) {
  std::string path = TempPath("late_schema.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a\n0,-,v\n"
                      << "#schema 1 T b\n";
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("after data"), std::string::npos)
      << r.status();
}

TEST(DatasetIoTest, DuplicateTruthRejected) {
  std::string path = TempPath("dup_truth.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a\n#truth 1\n"
                      << "#truth 1\n0,0,v\n";
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate #truth"), std::string::npos)
      << r.status();
}

TEST(DatasetIoTest, TruthAfterDataRejected) {
  // Records read before #truth would have no entity id; rejecting is
  // the only labeling-consistent answer.
  std::string path = TempPath("late_truth.hera");
  std::ofstream(path) << "#hera-dataset v1\n#schema 0 S a\n0,-,v\n"
                      << "#truth 1\n0,0,w\n";
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("after data"), std::string::npos)
      << r.status();
}

TEST(DatasetIoTest, OversizedLineRejected) {
  std::string path = TempPath("huge_line.hera");
  {
    std::ofstream out(path);
    out << "#hera-dataset v1\n#schema 0 S a\n0,-,";
    std::string big((4u << 20) + 16, 'x');
    out << big << "\n";
  }
  auto r = ReadDataset(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("exceeds"), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status();
}

}  // namespace
}  // namespace hera

