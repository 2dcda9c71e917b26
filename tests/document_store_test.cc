#include "storage/document_store.h"

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace quickview::storage {
namespace {

class DocumentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto books = xml::ParseXml(
        "<books><book><isbn>111</isbn><title>X</title></book></books>", 1);
    ASSERT_TRUE(books.ok());
    db_.AddDocument("books.xml", *books);
    store_ = std::make_unique<DocumentStore>(db_);
  }

  xml::Database db_;
  std::unique_ptr<DocumentStore> store_;
};

TEST_F(DocumentStoreTest, AppendSubtreeXml) {
  std::string xml;
  Status s = store_->AppendSubtreeXml(1, xml::DeweyId::Parse("1.1"), &xml);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(xml, "<book><isbn>111</isbn><title>X</title></book>");
  EXPECT_EQ(store_->stats().fetch_calls, 1u);
  EXPECT_EQ(store_->stats().bytes_fetched, xml.size());
}

TEST_F(DocumentStoreTest, AppendSubtreeXmlKeepsWhatIsThere) {
  std::string xml = "<results>";
  DocumentStore::Stats accounting;
  ASSERT_TRUE(store_
                  ->AppendSubtreeXml(1, xml::DeweyId::Parse("1.1.2"), &xml,
                                     &accounting)
                  .ok());
  EXPECT_EQ(xml, "<results><title>X</title>");
  EXPECT_EQ(accounting.fetch_calls, 1u);
  EXPECT_EQ(accounting.bytes_fetched, std::string("<title>X</title>").size());
}

TEST_F(DocumentStoreTest, GetValue) {
  std::string value;
  ASSERT_TRUE(store_->GetValue(1, xml::DeweyId::Parse("1.1.1"), &value).ok());
  EXPECT_EQ(value, "111");
}

TEST_F(DocumentStoreTest, GetSubtreeLength) {
  uint64_t length = 0;
  ASSERT_TRUE(
      store_->GetSubtreeLength(1, xml::DeweyId::Parse("1.1"), &length).ok());
  EXPECT_EQ(length,
            std::string("<book><isbn>111</isbn><title>X</title></book>")
                .size());
}

TEST_F(DocumentStoreTest, ErrorsForMissing) {
  std::string xml;
  EXPECT_EQ(store_->AppendSubtreeXml(9, xml::DeweyId::Parse("9.1"), &xml)
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store_->AppendSubtreeXml(1, xml::DeweyId::Parse("1.7"), &xml)
                .code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(xml.empty());
  EXPECT_EQ(store_->stats().fetch_calls, 0u);
}

TEST_F(DocumentStoreTest, ResetStats) {
  std::string value;
  ASSERT_TRUE(store_->GetValue(1, xml::DeweyId::Parse("1.1.1"), &value).ok());
  store_->ResetStats();
  EXPECT_EQ(store_->stats().fetch_calls, 0u);
}

}  // namespace
}  // namespace quickview::storage
