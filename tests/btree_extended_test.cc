// Extended B+-tree coverage: boundary keys, prefix scans at structural
// edges, and bulk ordering under adversarial insertion orders.
#include "index/btree.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace quickview::index {
namespace {

TEST(BTreeExtendedTest, EmptyStringKeyIsValid) {
  BTree tree;
  tree.Insert("", "empty");
  tree.Insert("a", "letter");
  std::string value;
  EXPECT_TRUE(tree.Get("", &value));
  EXPECT_EQ(value, "empty");
  EXPECT_EQ(tree.Begin().key(), "");
}

TEST(BTreeExtendedTest, BinaryKeysWithEmbeddedSeparators) {
  BTree tree;
  std::string key1 = std::string("a") + '\x01' + "b";
  std::string key2 = std::string("a") + '\x01' + '\x00' + "b";
  tree.Insert(key1, "1");
  tree.Insert(key2, "2");
  std::string value;
  EXPECT_TRUE(tree.Get(key1, &value));
  EXPECT_EQ(value, "1");
  EXPECT_TRUE(tree.Get(key2, &value));
  EXPECT_EQ(value, "2");
}

TEST(BTreeExtendedTest, PrefixScanAtStructuralEdges) {
  BTree tree;
  for (int i = 0; i < 500; ++i) {
    tree.Insert("p" + std::to_string(i / 100) + "/" + std::to_string(i),
                "v");
  }
  auto rows = tree.PrefixScan("p4/");
  EXPECT_EQ(rows.size(), 100u);
  EXPECT_TRUE(tree.PrefixScan("p9/").empty());
  EXPECT_EQ(tree.PrefixScan("p").size(), 500u);
}

TEST(BTreeExtendedTest, DescendingAndAlternatingInsertionOrders) {
  for (int mode = 0; mode < 2; ++mode) {
    BTree tree;
    std::vector<std::string> keys;
    for (int i = 0; i < 1000; ++i) {
      int k = mode == 0 ? 999 - i : (i % 2 == 0 ? i : 999 - i);
      char buf[16];
      std::snprintf(buf, sizeof(buf), "k%04d", k);
      keys.push_back(buf);
      tree.Insert(buf, "v");
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    size_t i = 0;
    for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next(), ++i) {
      ASSERT_LT(i, keys.size());
      EXPECT_EQ(it.key(), keys[i]);
    }
    EXPECT_EQ(i, keys.size());
  }
}

TEST(BTreeExtendedTest, LargeValuesRoundTrip) {
  BTree tree;
  std::string big(100000, 'x');
  big[50000] = '\0';
  tree.Insert("big", big);
  std::string value;
  ASSERT_TRUE(tree.Get("big", &value));
  EXPECT_EQ(value, big);
}

TEST(BTreeExtendedTest, SeekOnEmptyAndPastEnd) {
  BTree tree;
  EXPECT_FALSE(tree.Seek("anything").Valid());
  tree.Insert("m", "v");
  EXPECT_FALSE(tree.Seek("z").Valid());
  EXPECT_TRUE(tree.Seek("a").Valid());
}

}  // namespace
}  // namespace quickview::index
