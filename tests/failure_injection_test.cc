// Failure injection and robustness: malformed inputs must come back as
// Status errors — never crashes, never silent wrong answers. The last
// section pins down the crash-injection registry (common/failpoint.h)
// that the WAL crash harness builds on.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "baseline/gtp_termjoin.h"
#include "common/failpoint.h"
#include "baseline/naive_engine.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "storage/document_store.h"
#include "storage/live_database.h"
#include "workload/bookrev_generator.h"
#include "xml/parser.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace quickview {
namespace {

TEST(FuzzLiteTest, MutatedXmlNeverCrashesParser) {
  const std::string seed_doc =
      "<books><book isbn=\"1&amp;2\"><title>XML &lt;Web&gt;</title>"
      "<!-- c --><year>2004</year><![CDATA[x]]></book></books>";
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = seed_doc;
    int edits = 1 + rng() % 4;
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng() % mutated.size();
      switch (rng() % 3) {
        case 0:
          mutated[pos] = static_cast<char>('!' + rng() % 90);
          break;
        case 1:
          mutated.erase(pos, 1 + rng() % 3);
          break;
        case 2:
          mutated.insert(pos, 1, static_cast<char>('!' + rng() % 90));
          break;
      }
      if (mutated.empty()) break;
    }
    auto result = xml::ParseXml(mutated);  // ok or error, never UB
    if (result.ok()) {
      EXPECT_TRUE((*result)->has_root());
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(FuzzLiteTest, MutatedQueriesNeverCrashParser) {
  const std::string seed_query = workload::BookRevKeywordQuery();
  std::mt19937_64 rng(11);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = seed_query;
    int edits = 1 + rng() % 5;
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      size_t pos = rng() % mutated.size();
      switch (rng() % 3) {
        case 0:
          mutated[pos] = static_cast<char>('!' + rng() % 90);
          break;
        case 1:
          mutated.erase(pos, 1 + rng() % 5);
          break;
        case 2:
          mutated.insert(pos, 1, "(){}[]$/<>'&|"[rng() % 13]);
          break;
      }
    }
    auto query = xquery::ParseKeywordQuery(mutated);
    if (!query.ok()) {
      EXPECT_FALSE(query.status().message().empty());
    }
  }
}

class InjectionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
    indexes_ = index::BuildDatabaseIndexes(*db_);
    store_ = std::make_unique<storage::DocumentStore>(*db_);
  }
  std::shared_ptr<xml::Database> db_;
  std::unique_ptr<index::DatabaseIndexes> indexes_;
  std::unique_ptr<storage::DocumentStore> store_;
};

// View-form request through the unified entry point.
Result<engine::SearchResponse> ExecView(
    const engine::ViewSearchEngine& engine, const std::string& view,
    std::vector<std::string> keywords,
    engine::SearchOptions options = {}) {
  engine::SearchRequest request;
  request.view = view;
  request.keywords = std::move(keywords);
  request.options = options;
  return engine.Execute(request);
}

TEST_F(InjectionFixture, MissingIndexIsReportedNotCrashed) {
  // An engine wired to an index set lacking one referenced document.
  index::DatabaseIndexes partial;
  partial.Put("books.xml", index::BuildDocumentIndexes(
                               *db_->GetDocument("books.xml")));
  engine::ViewSearchEngine engine(db_.get(), &partial, store_.get());
  auto response = ExecView(engine, workload::BookRevView(), {"xml"});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);

  baseline::GtpTermJoinEngine gtp(db_.get(), &partial, store_.get());
  auto gtp_response = gtp.SearchView(workload::BookRevView(), {"xml"},
                                     engine::SearchOptions{});
  ASSERT_FALSE(gtp_response.ok());
  EXPECT_EQ(gtp_response.status().code(), StatusCode::kNotFound);
}

TEST_F(InjectionFixture, RecursiveFunctionIsRejected) {
  engine::ViewSearchEngine engine(db_.get(), indexes_.get(), store_.get());
  auto response = ExecView(engine,
                           "declare function spin($x) { spin($x) } "
                           "spin(fn:doc(books.xml)//book)",
                           {"xml"});
  EXPECT_FALSE(response.ok());
}

TEST_F(InjectionFixture, RecursiveFunctionInEvaluatorIsBounded) {
  auto query = xquery::ParseQuery(
      "declare function spin($x) { spin($x) } "
      "spin(fn:doc(books.xml)//book)");
  ASSERT_TRUE(query.ok());
  xquery::Evaluator evaluator(db_.get());
  auto result = evaluator.Evaluate(*query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kEvalError);
}

TEST_F(InjectionFixture, WrongArityFunctionCall) {
  auto query = xquery::ParseQuery(
      "declare function f($a, $b) { $a } f(fn:doc(books.xml))");
  ASSERT_TRUE(query.ok());
  xquery::Evaluator evaluator(db_.get());
  EXPECT_FALSE(evaluator.Evaluate(*query).ok());
}

TEST_F(InjectionFixture, ViewsOutsideTheGrammarAreRejectedUpfront) {
  engine::ViewSearchEngine engine(db_.get(), indexes_.get(), store_.get());
  // Navigation into constructed content is outside the supported subset.
  auto response = ExecView(
      engine, "for $x in <a><b>t</b></a> return $x/b", {"t"});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnsupported);
}

TEST_F(InjectionFixture, EmptyKeywordListIsRejected) {
  // ftcontains() still parses (a trivially-true filter at the grammar
  // level), but a keyword search without keywords has nothing to rank by
  // — the engine boundary rejects it instead of silently returning the
  // whole view.
  engine::ViewSearchEngine engine(db_.get(), indexes_.get(), store_.get());
  engine::SearchOptions options;
  options.top_k = 3;
  auto response = ExecView(engine, workload::BookRevView(), {}, options);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(InjectionFixture, EmptyDatabase) {
  xml::Database empty;
  auto indexes = index::BuildDatabaseIndexes(empty);
  storage::DocumentStore store(empty);
  engine::ViewSearchEngine engine(&empty, indexes.get(), &store);
  auto response = ExecView(engine, "fn:doc(books.xml)//book", {"x"});
  EXPECT_FALSE(response.ok());
}

TEST(LiveWriteTest, EmptyDocumentNameIsRejectedWithAndWithoutWal) {
  // fn:doc() cannot name a document called "", so both write paths must
  // refuse it up front: nothing applied, nothing logged.
  const std::string wal_path =
      (std::filesystem::path(::testing::TempDir()) / "empty_name.wal").string();
  std::filesystem::remove(wal_path);
  for (bool with_wal : {false, true}) {
    SCOPED_TRACE(with_wal ? "with WAL" : "without WAL");
    {
      storage::LiveDatabase live;
      if (with_wal) {
        ASSERT_TRUE(live.OpenWal(wal_path).ok());
      }
      ASSERT_TRUE(live.CommitInsert("a.xml", "<a>x</a>").ok());
      const uintmax_t wal_bytes =
          with_wal ? std::filesystem::file_size(wal_path) : 0;

      Status rejected = live.CommitInsert("", "<a>x</a>");
      EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
          << rejected.ToString();
      {
        qv::ReaderLock lock(live.mu());
        EXPECT_EQ(live.document_names(), std::vector<std::string>{"a.xml"});
      }
      if (with_wal) {
        EXPECT_EQ(std::filesystem::file_size(wal_path), wal_bytes);
      }
    }
    if (with_wal) {
      // The log replays to exactly the one accepted insert.
      storage::LiveDatabase replayed;
      ASSERT_TRUE(replayed.OpenWal(wal_path).ok());
      EXPECT_EQ(replayed.wal()->replay().payloads.size(), 1u);
      qv::ReaderLock lock(replayed.mu());
      EXPECT_EQ(replayed.document_names(), std::vector<std::string>{"a.xml"});
    }
  }
  std::filesystem::remove(wal_path);
}

TEST(FailpointTest, DisarmedInjectionIsANoop) {
  fail::Disarm();
  ASSERT_FALSE(fail::Armed());
  // Crossing an injection point while disarmed must cost nothing and
  // kill nothing — this is the "free when off" half of the contract.
  for (int i = 0; i < 1000; ++i) QUICKVIEW_INJECT("test.noop");
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "fp_noop.bin").string();
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  const char buf[] = "must not be written by a disarmed torn-write point";
  EXPECT_FALSE(fail::MaybeTornWrite("test.noop", fd, buf, sizeof buf));
  ::close(fd);
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
}

TEST(FailpointTest, CrashFiresAtExactlyTheNthCrossing) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipe_fds[0]);
    fail::ArmCrash(/*countdown=*/3);
    for (int i = 0; i < 10; ++i) {
      // One byte per crossing, sent BEFORE the injection point: the
      // parent counts how far the child got before the crash.
      char tick = 't';
      (void)::write(pipe_fds[1], &tick, 1);
      QUICKVIEW_INJECT("test.countdown");
    }
    _exit(0);  // only reached if the countdown never fired
  }
  ::close(pipe_fds[1]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), fail::kCrashExitCode);
  char drained[16];
  ssize_t got = 0;
  ssize_t n = 0;
  while ((n = ::read(pipe_fds[0], drained, sizeof drained)) > 0) got += n;
  ::close(pipe_fds[0]);
  EXPECT_EQ(got, 3);  // crossings 1 and 2 passed; the 3rd crashed
}

TEST(FailpointTest, TornWriteLeavesAStrictPrefix) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "fp_torn.bin").string();
  std::filesystem::remove(path);
  std::string buffer;
  for (int i = 0; i < 100; ++i)
    buffer.push_back(static_cast<char>('A' + i % 26));
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) _exit(2);
    fail::ArmCrash(/*countdown=*/1, /*torn_seed=*/1234);
    fail::MaybeTornWrite("test.torn", fd, buffer.data(), buffer.size());
    _exit(3);  // MaybeTornWrite must not return once the countdown expired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), fail::kCrashExitCode);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(in));
  std::ostringstream written;
  written << in.rdbuf();
  // A torn write is a STRICT prefix: shorter than the buffer, and byte
  // for byte identical as far as it goes.
  EXPECT_LT(written.str().size(), buffer.size());
  EXPECT_EQ(written.str(), buffer.substr(0, written.str().size()));
}

TEST_F(InjectionFixture, KeywordsAreCaseNormalized) {
  engine::ViewSearchEngine engine(db_.get(), indexes_.get(), store_.get());
  auto upper = ExecView(engine, workload::BookRevView(), {"XML"});
  auto lower = ExecView(engine, workload::BookRevView(), {"xml"});
  ASSERT_TRUE(upper.ok() && lower.ok());
  EXPECT_EQ(upper->stats.matching_results, lower->stats.matching_results);
}

}  // namespace
}  // namespace quickview
