// OpenBackend: every corpus kind the tools accept — the built-in corpus,
// a database directory, a .qvpack, a .qvset, an in-memory --shards
// partition, a --live corpus — opens through one function into one
// QueryService cursor path and answers byte-identically. Flag
// combinations a corpus cannot honour and hostile .qvset manifests come
// back as typed errors, never ignored and never a crash.
#include "service/backend.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "pagestore/pack.h"
#include "pagestore/shard_pack.h"
#include "storage/persistence.h"
#include "workload/bookrev_generator.h"

namespace quickview::service {
namespace {

class BackendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/qv_backend_test");
    std::filesystem::remove_all(*dir_);
    std::filesystem::create_directories(*dir_);
    auto db = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
    ASSERT_TRUE(storage::SaveDatabase(*db, Path("db")).ok());
    ASSERT_TRUE(pagestore::PackDatabase(*db, *index::BuildDatabaseIndexes(*db),
                                        Path("demo.qvpack"))
                    .ok());
    storage::ShardingSpec spec;
    spec.shards = 3;
    spec.colocate_tag = "isbn";
    ASSERT_TRUE(pagestore::PackShardedDb(*db, spec, Path("demo.qvset")).ok());
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static std::string Path(const std::string& name) {
    return *dir_ + "/" + name;
  }

  static BackendOptions Options(const std::string& source) {
    BackendOptions options;
    options.source = source;
    options.frames = 16;
    options.threads = 2;
    return options;
  }

  /// Every response field that must not depend on the backend, with
  /// scores as exact bit patterns.
  static std::string Answers(QueryService* service) {
    std::string out;
    for (const std::vector<std::string>& keywords :
         std::vector<std::vector<std::string>>{
             {"xml", "search"}, {"database"}, {"web", "xml"}}) {
      engine::SearchRequest query;
      query.view = "default";
      query.keywords = keywords;
      query.options.conjunctive = false;
      Result<engine::SearchResponse> response = service->SearchOne(query);
      EXPECT_TRUE(response.ok()) << response.status().ToString();
      if (!response.ok()) continue;
      out += std::to_string(response->stats.view_results) + "/" +
             std::to_string(response->stats.matching_results) + "\n";
      for (const engine::SearchHit& hit : response->hits) {
        char score[64];
        std::snprintf(score, sizeof(score), "%a", hit.score);
        out += std::string(score) + " " + hit.xml + "\n";
      }
    }
    return out;
  }

  static std::string* dir_;
};

std::string* BackendTest::dir_ = nullptr;

TEST_F(BackendTest, EveryCorpusKindAnswersIdenticallyThroughOneService) {
  Result<Backend> demo = OpenBackend(Options(""));
  ASSERT_TRUE(demo.ok()) << demo.status().ToString();
  ASSERT_NE(demo->shards, nullptr);
  EXPECT_EQ(demo->shards->size(), 1u);
  const std::string expected = Answers(demo->service.get());
  ASSERT_FALSE(expected.empty());

  BackendOptions partitioned = Options("");
  partitioned.shards = 4;
  partitioned.colocate = "isbn";
  BackendOptions dir_partitioned = Options(Path("db"));
  dir_partitioned.shards = 2;
  dir_partitioned.colocate = "isbn";
  BackendOptions live = Options("");
  live.live = true;
  struct Case {
    std::string label;
    BackendOptions options;
    size_t shards;  // the backend's shard count
  };
  for (const Case& c : std::vector<Case>{
           {"dir", Options(Path("db")), 1},
           {"qvpack", Options(Path("demo.qvpack")), 1},
           {"qvset", Options(Path("demo.qvset")), 3},
           {"--shards 4", partitioned, 4},
           {"dir --shards 2", dir_partitioned, 2},
           {"--live", live, 1}}) {
    SCOPED_TRACE(c.label);
    Result<Backend> backend = OpenBackend(c.options);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    EXPECT_EQ(backend->live != nullptr, c.options.live);
    if (backend->shards != nullptr) {
      EXPECT_EQ(backend->shards->size(), c.shards);
    }
    EXPECT_EQ(Answers(backend->service.get()), expected);
  }
}

TEST_F(BackendTest, ShardsOverAPackIsInvalidArgument) {
  BackendOptions options = Options(Path("demo.qvpack"));
  options.shards = 2;
  Result<Backend> backend = OpenBackend(options);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BackendTest, ShardsOverAShardSetIsInvalidArgument) {
  BackendOptions options = Options(Path("demo.qvset"));
  options.shards = 2;
  Result<Backend> backend = OpenBackend(options);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BackendTest, ShardsWithLiveIsInvalidArgument) {
  BackendOptions options = Options("");
  options.live = true;
  options.shards = 2;
  Result<Backend> backend = OpenBackend(options);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BackendTest, LiveOverAPackAndWalWithoutLiveAreInvalidArgument) {
  BackendOptions live_pack = Options(Path("demo.qvpack"));
  live_pack.live = true;
  Result<Backend> backend = OpenBackend(live_pack);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);

  BackendOptions wal_only = Options("");
  wal_only.wal = Path("unused.wal");
  backend = OpenBackend(wal_only);
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(Path("unused.wal")));
}

TEST_F(BackendTest, HugeManifestShardCountIsParseErrorNotAbort) {
  // The shard count is untrusted: two billion claimed shards with one
  // entry must fail at the first missing entry, without allocating for
  // the claimed count.
  const std::string manifest = Path("huge.qvset");
  {
    std::ofstream out(manifest, std::ios::trunc);
    out << "qvset 1\nshards 2000000000\nshard 0 x.qvpack\n";
  }
  Result<pagestore::ShardManifest> read =
      pagestore::ReadShardManifest(manifest);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kParseError);
  EXPECT_NE(read.status().message().find("shard 1"), std::string::npos)
      << read.status().ToString();

  Result<Backend> backend = OpenBackend(Options(manifest));
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace quickview::service
