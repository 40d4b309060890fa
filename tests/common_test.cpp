#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <type_traits>
#include <vector>

#include "common/bitutil.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/histogram.hpp"
#include "common/result.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace zolcsim {
namespace {

// ---------------- contracts ----------------

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(ZS_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(ZS_EXPECTS(1 == 1));
}

TEST(Contracts, MessageNamesKindAndExpression) {
  try {
    ZS_ASSERT(false && "marker");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
  }
}

// ---------------- bitutil ----------------

TEST(BitUtil, Mask32Boundaries) {
  EXPECT_EQ(mask32(0), 0u);
  EXPECT_EQ(mask32(1), 1u);
  EXPECT_EQ(mask32(16), 0xFFFFu);
  EXPECT_EQ(mask32(31), 0x7FFF'FFFFu);
  EXPECT_EQ(mask32(32), 0xFFFF'FFFFu);
}

TEST(BitUtil, ExtractInsertRoundTrip) {
  std::uint32_t w = 0;
  w = insert_bits(w, 26, 6, 0x2B);
  w = insert_bits(w, 21, 5, 17);
  w = insert_bits(w, 0, 16, 0xBEEF);
  EXPECT_EQ(extract_bits(w, 26, 6), 0x2Bu);
  EXPECT_EQ(extract_bits(w, 21, 5), 17u);
  EXPECT_EQ(extract_bits(w, 0, 16), 0xBEEFu);
}

TEST(BitUtil, InsertRejectsOverwideField) {
  EXPECT_THROW(insert_bits(0, 0, 4, 0x10), ContractViolation);
  EXPECT_THROW(insert_bits(0, 30, 4, 1), ContractViolation);
}

TEST(BitUtil, SignExtend) {
  EXPECT_EQ(sign_extend(0x8000, 16), -32768);
  EXPECT_EQ(sign_extend(0x7FFF, 16), 32767);
  EXPECT_EQ(sign_extend(0xFFFF, 16), -1);
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0, 16), 0);
}

TEST(BitUtil, FitsSignedBoundaries) {
  EXPECT_TRUE(fits_signed(32767, 16));
  EXPECT_FALSE(fits_signed(32768, 16));
  EXPECT_TRUE(fits_signed(-32768, 16));
  EXPECT_FALSE(fits_signed(-32769, 16));
}

TEST(BitUtil, FitsUnsignedBoundaries) {
  EXPECT_TRUE(fits_unsigned(0xFFFF, 16));
  EXPECT_FALSE(fits_unsigned(0x10000, 16));
  EXPECT_TRUE(fits_unsigned(0x03FF'FFFF, 26));
  EXPECT_FALSE(fits_unsigned(0x0400'0000, 26));
}

TEST(BitUtil, Alignment) {
  EXPECT_TRUE(is_aligned(0x1000, 4));
  EXPECT_FALSE(is_aligned(0x1002, 4));
  EXPECT_EQ(align_up(5, 4), 8u);
  EXPECT_EQ(align_up(8, 4), 8u);
}

TEST(BitUtil, BitsForValues) {
  EXPECT_EQ(bits_for_values(1), 0u);
  EXPECT_EQ(bits_for_values(2), 1u);
  EXPECT_EQ(bits_for_values(8), 3u);
  EXPECT_EQ(bits_for_values(9), 4u);
  EXPECT_EQ(bits_for_values(32), 5u);
}

TEST(BitUtil, Extract64) {
  const std::uint64_t w = insert_bits64(0, 40, 16, 0xABCD);
  EXPECT_EQ(extract_bits64(w, 40, 16), 0xABCDu);
}

// ---------------- strings ----------------

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, ParseIntDecimal) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-17").value(), -17);
  EXPECT_EQ(parse_int("+8").value(), 8);
  EXPECT_EQ(parse_int("0").value(), 0);
}

TEST(Strings, ParseIntHexAndBinary) {
  EXPECT_EQ(parse_int("0x1F").value(), 31);
  EXPECT_EQ(parse_int("0XFF").value(), 255);
  EXPECT_EQ(parse_int("-0x10").value(), -16);
  EXPECT_EQ(parse_int("0b1010").value(), 10);
}

TEST(Strings, ParseIntRejectsMalformed) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("0x").has_value());
  EXPECT_FALSE(parse_int("-").has_value());
  EXPECT_FALSE(parse_int("0b102").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999999").has_value());
}

TEST(Strings, ParseIntInt64Boundaries) {
  EXPECT_EQ(parse_int("9223372036854775807").value(), INT64_MAX);
  EXPECT_EQ(parse_int("-9223372036854775808").value(), INT64_MIN);
  EXPECT_FALSE(parse_int("9223372036854775808").has_value());
}

TEST(Strings, Hex32) {
  EXPECT_EQ(hex32(0), "0x00000000");
  EXPECT_EQ(hex32(0xDEADBEEF), "0xDEADBEEF");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(1.0, 1), "1.0");
}

TEST(Strings, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("zolw.te", "zolw"));
  EXPECT_FALSE(starts_with("zo", "zolw"));
  EXPECT_EQ(to_lower("ZOLCfull"), "zolcfull");
}

// ---------------- Result ----------------

TEST(Result, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
}

TEST(Result, HoldsError) {
  Result<int> r = Error{ErrorCode::kParse, "bad", 3};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kParse);
  EXPECT_EQ(r.error().message, "bad");
  EXPECT_EQ(r.error().to_string(), "line 3: bad");
}

TEST(Result, WrongAccessViolatesContract) {
  Result<int> ok = 1;
  EXPECT_THROW((void)ok.error(), ContractViolation);
  Result<int> err = Error{ErrorCode::kUnknown, "x"};
  EXPECT_THROW((void)err.value(), ContractViolation);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok;
  EXPECT_TRUE(ok.ok());
  Result<void> err = Error{ErrorCode::kSimulation, "nope"};
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, ErrorCode::kSimulation);
  EXPECT_EQ(err.error().message, "nope");
}

TEST(Result, ErrorContextChainRendersOutermostFirst) {
  const Error inner{ErrorCode::kCapacity, "exit record capacity"};
  const Error wrapped =
      inner.with_context("lowering").with_context("me_tss (ZOLCfull)");
  EXPECT_EQ(wrapped.code, ErrorCode::kCapacity);
  EXPECT_EQ(wrapped.to_string(),
            "me_tss (ZOLCfull): lowering: exit record capacity");
  EXPECT_EQ(error_code_name(wrapped.code), "capacity");
}

TEST(Result, MapTransformsValueAndPassesErrorThrough) {
  Result<int> r = 21;
  const Result<int> doubled = std::move(r).map([](int v) { return v * 2; });
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 42);

  Result<int> bad = Error{ErrorCode::kParse, "nope"};
  const Result<std::string> still_bad =
      std::move(bad).map([](int) { return std::string("unreached"); });
  ASSERT_FALSE(still_bad.ok());
  EXPECT_EQ(still_bad.error().code, ErrorCode::kParse);
}

TEST(Result, AndThenChainsAndShortCircuits) {
  const auto parse_even = [](int v) -> Result<int> {
    if (v % 2 != 0) return Error{ErrorCode::kBadConfig, "odd"};
    return v / 2;
  };
  Result<int> r = 8;
  const Result<int> half = std::move(r).and_then(parse_even);
  ASSERT_TRUE(half.ok());
  EXPECT_EQ(half.value(), 4);

  Result<int> odd = 7;
  const Result<int> failed = std::move(odd).and_then(parse_even);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::kBadConfig);

  Result<int> already_bad = Error{ErrorCode::kParse, "early"};
  const Result<int> propagated = std::move(already_bad).and_then(parse_even);
  ASSERT_FALSE(propagated.ok());
  EXPECT_EQ(propagated.error().code, ErrorCode::kParse);
  EXPECT_EQ(propagated.error().message, "early");
}

TEST(Result, WithContextOnResultTagsOnlyErrors) {
  Result<int> good = 1;
  EXPECT_TRUE(std::move(good).with_context("stage").ok());
  Result<int> bad = Error{ErrorCode::kIo, "disk"};
  const Result<int> tagged = std::move(bad).with_context("writer");
  ASSERT_FALSE(tagged.ok());
  EXPECT_EQ(tagged.error().to_string(), "writer: disk");
}

// ---------------- TextTable / CSV ----------------

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "cycles"});
  t.add_row({"fir", "123"});
  t.add_row({"me_fsbm", "45678"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name    | cycles"), std::string::npos);
  EXPECT_NE(out.find("fir     |    123"), std::string::npos);
  EXPECT_NE(out.find("me_fsbm |  45678"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), ContractViolation);
}

TEST(Csv, QuotesOnlyWhenNeeded) {
  CsvWriter w({"a", "b"});
  w.add_row({"plain", "needs,comma"});
  w.add_row({"quote\"inside", "multi\nline"});
  const std::string out = w.render();
  EXPECT_NE(out.find("plain,\"needs,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Csv, HeaderFirst) {
  CsvWriter w({"x"});
  w.add_row({"1"});
  EXPECT_EQ(w.render(), "x\n1\n");
}

// ---------------- histogram ----------------

TEST(LogHistogram, PercentilesLieWithinOneBucketOfTheOrderStatistic) {
  // Latency-like samples spanning six decades, plus the underflow and
  // overflow buckets.
  std::mt19937_64 rng(20050307);
  std::lognormal_distribution<double> spread(-1.0, 2.5);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(spread(rng));
  samples.push_back(0.0);
  samples.push_back(5e6);
  LogHistogram histogram;
  for (double v : samples) histogram.record(v);
  std::sort(samples.begin(), samples.end());

  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto rank = std::min(
        static_cast<std::size_t>(q * static_cast<double>(samples.size())),
        samples.size() - 1);
    const double exact = samples[rank];
    const double read = histogram.percentile(q);
    const std::size_t exact_bucket = LogHistogram::bucket_of(exact);
    const std::size_t read_bucket = LogHistogram::bucket_of(read);
    EXPECT_GE(read_bucket, exact_bucket) << "q=" << q;
    EXPECT_LE(read_bucket, exact_bucket + 1) << "q=" << q;
    if (exact_bucket < LogHistogram::kBuckets - 1) {
      EXPECT_GT(read, exact) << "q=" << q;  // the bucket's upper bound
    }
  }
}

TEST(LogHistogram, BucketsAreContiguousAndNarrow) {
  for (std::size_t b = 1; b + 1 < LogHistogram::kBuckets; ++b) {
    const double lower = LogHistogram::upper_bound(b - 1);
    const double upper = LogHistogram::upper_bound(b);
    EXPECT_EQ(LogHistogram::bucket_of(lower), b);
    EXPECT_EQ(LogHistogram::bucket_of(std::nextafter(upper, 0.0)), b);
    EXPECT_LE(upper - lower, lower / LogHistogram::kSubBuckets);
  }
}

TEST(LogHistogram, CountsSamplesExactlyAndReadsZeroWhenEmpty) {
  LogHistogram histogram;
  EXPECT_EQ(histogram.samples(), 0u);
  EXPECT_EQ(histogram.percentile(0.5), 0.0);
  EXPECT_EQ(histogram.percentile(0.99), 0.0);
  for (int i = 0; i < 1234; ++i) histogram.record(0.25 * i);
  EXPECT_EQ(histogram.samples(), 1234u);
}

TEST(LogHistogram, SizeDoesNotDependOnTheSampleCount) {
  static_assert(std::is_trivially_copyable_v<LogHistogram>);
  LogHistogram few;
  LogHistogram many;
  few.record(1.0);
  for (int i = 0; i < 200'000; ++i) many.record(1e-3 * (i % 977 + 1));
  EXPECT_EQ(sizeof(few), sizeof(many));
  EXPECT_LE(sizeof(LogHistogram), 8 * (LogHistogram::kBuckets + 1));
  const LogHistogram copy = many;  // what the stats reply snapshots
  EXPECT_EQ(copy.samples(), 200'000u);
  EXPECT_EQ(copy.percentile(0.5), many.percentile(0.5));
}

}  // namespace
}  // namespace zolcsim
