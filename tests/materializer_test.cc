// Materialization module tests: pruned result trees expand from document
// storage into exactly the base content; full results copy untouched.
#include "scoring/materializer.h"

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/serializer.h"

namespace quickview::scoring {
namespace {

class MaterializerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto books = xml::ParseXml(
        "<books><book><isbn>1</isbn>"
        "<title>XML <b>Web</b> Services</title></book></books>",
        1);
    ASSERT_TRUE(books.ok());
    db_.AddDocument("books.xml", *books);
    store_ = std::make_unique<storage::DocumentStore>(db_);
  }

  xml::Database db_;
  std::unique_ptr<storage::DocumentStore> store_;
};

TEST_F(MaterializerTest, PrunedNodeExpandsFromStorage) {
  // A result tree <hit><title/></hit> where title is a pruned stub.
  xml::Document result(100);
  xml::NodeIndex hit = result.CreateRoot("hit");
  xml::NodeIndex stub = result.AddChild(hit, "title");
  xml::NodeStats stats;
  stats.content_pruned = true;
  stats.source_doc = 1;
  stats.source_id = xml::DeweyId::Parse("1.1.2");
  result.node(stub).stats = std::make_shared<xml::NodeStats>(stats);

  auto xml_text = MaterializeToXml(xquery::NodeHandle{&result, hit},
                                   store_.get());
  ASSERT_TRUE(xml_text.ok()) << xml_text.status();
  EXPECT_EQ(*xml_text,
            "<hit><title>XML Services<b>Web</b></title></hit>");
  EXPECT_EQ(store_->stats().fetch_calls, 1u);
}

TEST_F(MaterializerTest, PrunedNodeChildrenAreDropped) {
  // Structural children under a pruned node duplicate summarized content
  // and must not appear twice after expansion.
  xml::Document result(100);
  xml::NodeIndex root = result.CreateRoot("hit");
  xml::NodeIndex stub = result.AddChild(root, "book");
  xml::NodeStats stats;
  stats.content_pruned = true;
  stats.source_doc = 1;
  stats.source_id = xml::DeweyId::Parse("1.1");
  result.node(stub).stats = std::make_shared<xml::NodeStats>(stats);
  result.AddChild(stub, "isbn");  // pruned-tree structural child

  auto xml_text =
      MaterializeToXml(xquery::NodeHandle{&result, root}, store_.get());
  ASSERT_TRUE(xml_text.ok());
  // Exactly one isbn — the one fetched from storage.
  size_t first = xml_text->find("<isbn>");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(xml_text->find("<isbn>", first + 1), std::string::npos);
}

TEST_F(MaterializerTest, FullResultCopiesWithoutStorageAccess) {
  xml::Document result(100);
  xml::NodeIndex root = result.CreateRoot("hit");
  result.node(root).text = "plain";
  result.AddChild(root, "child");
  auto xml_text =
      MaterializeToXml(xquery::NodeHandle{&result, root}, store_.get());
  ASSERT_TRUE(xml_text.ok());
  EXPECT_EQ(*xml_text, "<hit>plain<child></child></hit>");
  EXPECT_EQ(store_->stats().fetch_calls, 0u);
}

TEST_F(MaterializerTest, DanglingSourceIsReported) {
  xml::Document result(100);
  xml::NodeIndex root = result.CreateRoot("hit");
  xml::NodeStats stats;
  stats.content_pruned = true;
  stats.source_doc = 9;  // no such document
  stats.source_id = xml::DeweyId::Parse("9.1");
  result.node(root).stats = std::make_shared<xml::NodeStats>(stats);
  auto xml_text =
      MaterializeToXml(xquery::NodeHandle{&result, root}, store_.get());
  ASSERT_FALSE(xml_text.ok());
  EXPECT_EQ(xml_text.status().code(), StatusCode::kNotFound);
}

TEST_F(MaterializerTest, MaterializeUnderExistingParent) {
  xml::Document result(100);
  xml::NodeIndex root = result.CreateRoot("src");
  result.node(root).text = "x";
  xml::Document target(1);
  xml::NodeIndex wrap = target.CreateRoot("wrap");
  ASSERT_TRUE(MaterializeResult(xquery::NodeHandle{&result, root},
                                store_.get(), &target, wrap)
                  .ok());
  EXPECT_EQ(xml::Serialize(target), "<wrap><src>x</src></wrap>");
}

}  // namespace
}  // namespace quickview::scoring
