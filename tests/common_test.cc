// Unit tests for src/common: Status, Result, strings, bytes, rand.

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/common/rand.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace hcs {
namespace {

// --- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("no such host");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "no such host");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: no such host");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(TimeoutError("").code(), StatusCode::kTimeout);
  EXPECT_EQ(ProtocolError("").code(), StatusCode::kProtocolError);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(PermissionDeniedError("").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(ResourceExhaustedError("").code(), StatusCode::kResourceExhausted);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFoundError("x"), NotFoundError("x"));
  EXPECT_FALSE(NotFoundError("x") == NotFoundError("y"));
  EXPECT_FALSE(NotFoundError("x") == TimeoutError("x"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return TimeoutError("slow"); };
  auto wrapper = [&]() -> Status {
    HCS_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kTimeout);
}

// --- Result -----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFoundError("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusIsAProgrammingErrorNotASilentEmpty) {
  Result<int> r{Status::Ok()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto producer = [](bool ok) -> Result<std::string> {
    if (ok) {
      return std::string("data");
    }
    return UnavailableError("down");
  };
  auto consumer = [&](bool ok) -> Result<size_t> {
    HCS_ASSIGN_OR_RETURN(std::string s, producer(ok));
    return s.size();
  };
  EXPECT_EQ(*consumer(true), 4u);
  EXPECT_EQ(consumer(false).status().code(), StatusCode::kUnavailable);
}

// --- strings ------------------------------------------------------------------

TEST(StringsTest, SplitBasics) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), std::vector<std::string>{});
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(StrSplit("one", ','), std::vector<std::string>{"one"});
}

TEST(StringsTest, JoinInvertsSplit) {
  std::vector<std::string> parts = {"ctx", "bind", "hns"};
  EXPECT_EQ(StrJoin(parts, "."), "ctx.bind.hns");
  EXPECT_EQ(StrSplit(StrJoin(parts, "."), '.'), parts);
  EXPECT_EQ(StrJoin({}, "."), "");
}

TEST(StringsTest, CaseFoldingIsAsciiOnly) {
  EXPECT_EQ(AsciiToLower("Fiji.CS.Washington.EDU"), "fiji.cs.washington.edu");
  EXPECT_TRUE(EqualsIgnoreCase("BIND", "bind"));
  EXPECT_FALSE(EqualsIgnoreCase("BIND", "bin"));
  EXPECT_FALSE(EqualsIgnoreCase("BIND", "bine"));
}

TEST(StringsTest, ParseU32AcceptsOnlyInRangeDecimals) {
  EXPECT_EQ(ParseU32("0").value(), 0u);
  EXPECT_EQ(ParseU32("4294967295").value(), 0xffffffffu);
  EXPECT_EQ(ParseU32("00042").value(), 42u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "4294967296",
                          "99999999999999999999", "0x10", "1.5", "abc"}) {
    EXPECT_EQ(ParseU32(bad).status().code(), StatusCode::kInvalidArgument)
        << "input: \"" << bad << "\"";
  }
}

TEST(StringsTest, Affixes) {
  EXPECT_TRUE(StartsWith("ctx.bind.hns", "ctx."));
  EXPECT_FALSE(StartsWith("ctx", "ctx."));
  EXPECT_TRUE(EndsWith("fiji.cs.washington.edu", ".edu"));
  EXPECT_FALSE(EndsWith("edu", ".edu"));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s:%d", "host", 53), "host:53");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// --- bytes ----------------------------------------------------------------------

TEST(BytesTest, HexDumpTruncates) {
  Bytes data(100, 0xab);
  std::string dump = HexDump(data, 4);
  EXPECT_TRUE(StartsWith(dump, "ab ab ab ab"));
  EXPECT_NE(dump.find("100 bytes total"), std::string::npos);
}

TEST(BytesTest, StringRoundTrip) {
  std::string s = "hello\0world";
  EXPECT_EQ(StringFromBytes(BytesFromString(s)), s);
}

// --- rand ------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, IdentifierShape) {
  Rng rng(13);
  std::string id = rng.Identifier(12);
  EXPECT_EQ(id.size(), 12u);
  for (char c : id) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(LoggingTest, OperandsAreEvaluatedOnlyAtOrAboveTheThreshold) {
  LogLevel saved = GetLogThreshold();
  int evaluations = 0;
  auto operand = [&evaluations] {
    ++evaluations;
    return "x";
  };
  SetLogThreshold(LogLevel::kWarning);
  HCS_LOG(Debug) << operand();
  HCS_LOG(Info) << operand();
  EXPECT_EQ(evaluations, 0) << "a message below the threshold formatted its operands";
  testing::internal::CaptureStderr();
  HCS_LOG(Warning) << operand();
  std::string emitted = testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(emitted.find("] x"), std::string::npos) << emitted;
  SetLogThreshold(saved);
}

TEST(LoggingTest, MacroKeepsAFollowingElseWithItsOwnIf) {
  LogLevel saved = GetLogThreshold();
  SetLogThreshold(LogLevel::kSilent);
  bool else_taken = false;
  bool condition = false;
  if (condition)
    HCS_LOG(Error) << "unreachable";
  else
    else_taken = true;
  EXPECT_TRUE(else_taken);
  SetLogThreshold(saved);
}

}  // namespace
}  // namespace hcs
