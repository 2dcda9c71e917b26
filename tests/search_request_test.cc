// SearchRequest::Validate is THE validation boundary: one negative test
// per rule, plus proof that a well-formed request passes. Entry points
// carry their own checks only for what Validate cannot know (the
// registered-view lookup at the service).
#include "engine/search_request.h"

#include <gtest/gtest.h>

namespace quickview::engine {
namespace {

SearchRequest ViewForm() {
  SearchRequest request;
  request.view = "for $b in fn:doc(books.xml)//book return $b";
  request.keywords = {"xml"};
  return request;
}

TEST(SearchRequestTest, ViewFormValidates) {
  EXPECT_TRUE(ViewForm().Validate().ok());
}

TEST(SearchRequestTest, MissingViewIsInvalid) {
  SearchRequest request;
  request.keywords = {"xml"};
  Status status = request.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SearchRequestTest, ViewFormRequiresKeywords) {
  SearchRequest request = ViewForm();
  request.keywords.clear();
  Status status = request.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SearchRequestTest, TopKZeroIsInvalid) {
  SearchRequest view_form = ViewForm();
  view_form.options.top_k = 0;
  EXPECT_EQ(view_form.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SearchRequestTest, KeywordWithQuoteIsInvalid) {
  // A keyword is pasted into a single-quoted literal of the composed
  // query: one containing a quote would close it and add keywords.
  SearchRequest request = ViewForm();
  request.keywords = {"xml", "zzz' | 'web"};
  Status status = request.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace quickview::engine
