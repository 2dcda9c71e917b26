#include "common/strings.h"

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/status.h"

namespace quickview {
namespace {

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto pieces = SplitString("a/b//c", '/');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(pieces[3], "c");
  EXPECT_EQ(SplitString("", '/').size(), 1u);
}

TEST(StringsTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringsTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("XML Search-42"), "xml search-42");
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("1995", &v));
  EXPECT_EQ(v, 1995);
  EXPECT_TRUE(ParseDouble("-3.5", &v));
  EXPECT_EQ(v, -3.5);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("12abc", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1995), "1995");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
}

TEST(StatusTest, ToStringAndCodes) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = Status::NotFound("nope");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = []() -> Result<int> { return Status::Internal("boom"); };
  auto outer = [&]() -> Status {
    QV_ASSIGN_OR_RETURN(int v, inner());
    (void)v;
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

// status() returns a reference into the temporary Result, which dies at
// the end of the macro's declaration; the macro must copy the Status
// within it. The message outgrows the short-string buffer, so a read
// after the temporary died reads a dead object (ASan flags it).
TEST(ResultTest, ReturnIfErrorCopiesATemporarysStatus) {
  auto failing = []() -> Result<int> {
    return Status::Internal("a message longer than fifteen bytes");
  };
  auto outer = [&]() -> Status {
    QUICKVIEW_RETURN_IF_ERROR(failing().status());
    return Status::OK();
  };
  const Status status = outer();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "a message longer than fifteen bytes");
}

}  // namespace
}  // namespace quickview
