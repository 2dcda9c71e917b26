#include "index/btree.h"

#include <algorithm>
#include <map>
#include <random>

#include <gtest/gtest.h>

namespace quickview::index {
namespace {

TEST(BTreeTest, InsertGetOverwrite) {
  BTree tree;
  tree.Insert("k1", "v1");
  tree.Insert("k2", "v2");
  std::string value;
  EXPECT_TRUE(tree.Get("k1", &value));
  EXPECT_EQ(value, "v1");
  tree.Insert("k1", "v1b");
  EXPECT_TRUE(tree.Get("k1", &value));
  EXPECT_EQ(value, "v1b");
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_FALSE(tree.Get("k3", nullptr));
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Get("x", nullptr));
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_TRUE(tree.PrefixScan("p").empty());
}

TEST(BTreeTest, IterationInKeyOrderAcrossSplits) {
  BTree tree;
  std::vector<std::string> keys;
  for (int i = 999; i >= 0; --i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%04d", i);
    keys.push_back(buf);
    tree.Insert(buf, "v");
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_GT(tree.height(), 1);
  size_t i = 0;
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next(), ++i) {
    ASSERT_LT(i, keys.size());
    EXPECT_EQ(it.key(), keys[i]);
  }
  EXPECT_EQ(i, keys.size());
}

TEST(BTreeTest, SeekFindsFirstKeyNotLess) {
  BTree tree;
  tree.Insert("b", "1");
  tree.Insert("d", "2");
  tree.Insert("f", "3");
  EXPECT_EQ(tree.Seek("a").key(), "b");
  EXPECT_EQ(tree.Seek("b").key(), "b");
  EXPECT_EQ(tree.Seek("c").key(), "d");
  EXPECT_FALSE(tree.Seek("g").Valid());
}

TEST(BTreeTest, PrefixScan) {
  BTree tree;
  tree.Insert("path/a\x01v1", "1");
  tree.Insert("path/a\x01v2", "2");
  tree.Insert("path/ab\x01v", "3");
  tree.Insert("path/b\x01v", "4");
  auto rows = tree.PrefixScan("path/a\x01");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].second, "1");
  EXPECT_EQ(rows[1].second, "2");
}

TEST(BTreeTest, StatsCountNodeVisits) {
  BTree tree;
  for (int i = 0; i < 5000; ++i) {
    tree.Insert("key" + std::to_string(i), "v");
  }
  tree.ResetStats();
  EXPECT_TRUE(tree.Get("key2500", nullptr));
  EXPECT_GE(tree.stats().nodes_visited, static_cast<uint64_t>(tree.height()));
}

TEST(BTreeTest, RandomizedAgainstStdMap) {
  // Property test: B+-tree behaves like an ordered map under a random
  // workload of inserts, overwrites and point lookups.
  BTree tree;
  std::map<std::string, std::string> reference;
  std::mt19937_64 rng(1234);
  for (int op = 0; op < 20000; ++op) {
    std::string key = "k" + std::to_string(rng() % 3000);
    switch (rng() % 3) {
      case 0:
      case 1: {
        std::string value = "v" + std::to_string(rng());
        tree.Insert(key, value);
        reference[key] = value;
        break;
      }
      case 2: {
        std::string value;
        bool found = tree.Get(key, &value);
        auto it = reference.find(key);
        EXPECT_EQ(found, it != reference.end()) << key;
        if (found && it != reference.end()) {
          EXPECT_EQ(value, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(tree.size(), reference.size());
  // Full iteration must match the reference map exactly.
  auto ref_it = reference.begin();
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next(), ++ref_it) {
    ASSERT_NE(ref_it, reference.end());
    EXPECT_EQ(it.key(), ref_it->first);
    EXPECT_EQ(it.value(), ref_it->second);
  }
  EXPECT_EQ(ref_it, reference.end());
}

// A bulk-loaded tree is the same map as one built by Insert: same
// iteration, point lookups, seeks and prefix scans, on random keys and
// at sizes around the leaf and interior fan-outs.
TEST(BTreeTest, BulkLoadMatchesInsertBuiltTree) {
  std::mt19937 rng(20070923);
  const char kAlphabet[] = "abcx\x01";
  auto random_key = [&rng, &kAlphabet](size_t max_len) {
    std::string key;
    const size_t len = 1 + rng() % max_len;
    for (size_t i = 0; i < len; ++i) key.push_back(kAlphabet[rng() % 5]);
    return key;
  };
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 500u, 4160u, 4225u, 20000u}) {
    std::map<std::string, std::string> model;
    while (model.size() < n) {
      model.emplace(random_key(12), std::to_string(rng()));
    }
    BTree inserted;
    for (const auto& [key, value] : model) inserted.Insert(key, value);
    BTree bulk;
    bulk.BulkLoad({model.begin(), model.end()});
    ASSERT_EQ(bulk.size(), model.size()) << n;
    EXPECT_LE(bulk.height(), inserted.height()) << n;

    BTree::Iterator a = inserted.Begin();
    BTree::Iterator b = bulk.Begin();
    for (; a.Valid(); a.Next(), b.Next()) {
      ASSERT_TRUE(b.Valid()) << n;
      ASSERT_EQ(a.key(), b.key());
      ASSERT_EQ(a.value(), b.value());
    }
    EXPECT_FALSE(b.Valid()) << n;

    for (int probe = 0; probe < 300; ++probe) {
      const std::string key = random_key(12);
      std::string from_inserted = "unset";
      std::string from_bulk = "unset";
      ASSERT_EQ(inserted.Get(key, &from_inserted), bulk.Get(key, &from_bulk))
          << key;
      EXPECT_EQ(from_inserted, from_bulk) << key;
      BTree::Iterator si = inserted.Seek(key);
      BTree::Iterator sb = bulk.Seek(key);
      ASSERT_EQ(si.Valid(), sb.Valid()) << key;
      if (si.Valid()) {
        EXPECT_EQ(si.key(), sb.key()) << key;
      }
      const std::string prefix = random_key(3);
      EXPECT_EQ(inserted.PrefixScan(prefix), bulk.PrefixScan(prefix))
          << prefix;
    }
  }
}

}  // namespace
}  // namespace quickview::index
