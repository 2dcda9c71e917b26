// The crash-injection harness: the WAL's durability contract, proven by
// actually crashing. Each trial forks a child that ingests a scripted
// mutation history through LiveDatabase's durable commit path with a
// crash countdown armed (common/failpoint.h); the child _exit()s — no
// destructors, no flushes, possibly mid-write with a torn tail — at one
// of the four injection crossings of some commit. The parent then
// reopens the WAL the corpse left behind and asserts the three clauses
// of the contract:
//
//   1. The log is ALWAYS openable — recovery classifies whatever the
//      crash left as a clean log or a torn tail, never a fatal error.
//   2. No acked commit is lost: the child fdatasync's an ack ledger
//      after every successful commit, and the recovered record count R
//      satisfies acked <= R <= |script| — everything acknowledged
//      survived, anything extra was a complete, committed record.
//   3. The recovered corpus is byte-identical to an oracle that applied
//      exactly ops[0..R): same index state (root Dewey component
//      masked, as in update_differential_test) and identical search
//      responses — including identical errors — for every document.
//
// 220 trials with countdowns spread across the whole crossing space
// gives >200 distinct randomized kill points, including torn writes
// (MaybeTornWrite leaves a pseudo-random strict prefix of the batch).
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/sync.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "storage/live_database.h"

namespace quickview {
namespace {

struct Op {
  bool remove = false;
  std::string name;
  std::string xml;
};

std::string DocName(uint64_t i) {
  return "doc" + std::to_string(i) + ".xml";
}

// xorshift-ish deterministic stream; no <random> so the script for a
// given seed is stable across library versions.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

/// A 40-op insert/replace/remove script over doc0..doc7. Removes only
/// target names present at that point of the FULL sequence, so every
/// prefix of the script is a valid history in itself — exactly what
/// recovery replays.
std::vector<Op> MakeScript(uint64_t seed) {
  const char* const kWords[] = {"alpha", "bravo", "charlie", "delta",
                                "echo",  "fox",   "golf",    "hotel"};
  uint64_t rng = seed * 2654435761u + 88172645463325252ull;
  std::vector<Op> ops;
  std::set<std::string> present;
  for (int i = 0; i < 40; ++i) {
    Op op;
    if (!present.empty() && NextRand(&rng) % 4 == 0) {
      auto it = present.begin();
      std::advance(it, static_cast<long>(NextRand(&rng) % present.size()));
      op.remove = true;
      op.name = *it;
      present.erase(it);
    } else {
      op.name = DocName(NextRand(&rng) % 8);
      op.xml = std::string("<d><a>term v") + std::to_string(i) + " " +
               kWords[NextRand(&rng) % 8] + "</a><b>" +
               kWords[NextRand(&rng) % 8] + "</b></d>";
      present.insert(op.name);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// The child's whole life (called between fork and _exit; must not touch
/// gtest): replay-open the WAL, run the script with the crash armed,
/// durably ack each commit. Distinct exit codes diagnose setup failures.
int RunChild(const std::vector<Op>& ops, const std::string& wal_path,
             const std::string& ack_path, int64_t countdown,
             uint64_t torn_seed) {
  int ack_fd = ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (ack_fd < 0) return 70;
  storage::LiveDatabase live;
  if (!live.OpenWal(wal_path).ok()) return 71;
  fail::ArmCrash(countdown, torn_seed);
  uint64_t acked = 0;
  for (const Op& op : ops) {
    Status status = op.remove ? live.CommitRemove(op.name)
                              : live.CommitInsert(op.name, op.xml);
    if (!status.ok()) return 72;
    ++acked;
    // The ack ledger is the harness's ground truth for "the commit was
    // acknowledged", so it must itself be durable before the next op.
    if (::pwrite(ack_fd, &acked, sizeof acked, 0) !=  // lint:allow(raw-durability)
        static_cast<ssize_t>(sizeof acked)) {
      return 73;
    }
    if (::fdatasync(ack_fd) != 0) return 73;  // lint:allow(raw-durability)
  }
  fail::Disarm();
  ::close(ack_fd);
  return 0;
}

uint64_t ReadAcked(const std::string& ack_path) {
  int fd = ::open(ack_path.c_str(), O_RDONLY);
  if (fd < 0) return 0;
  uint64_t acked = 0;
  ssize_t n = ::pread(fd, &acked, sizeof acked, 0);
  ::close(fd);
  return n == static_cast<ssize_t>(sizeof acked) ? acked : 0;
}

// --- corpus comparison (same masking idea as update_differential_test:
// the root Dewey component depends on insertion order, which a replayed
// prefix legitimately repeats but a from-scratch oracle also reproduces;
// mask it anyway so the check pins logical content, not allocation) ----

std::vector<uint32_t> TailComponents(const xml::DeweyId& id) {
  std::span<const uint32_t> all = id.components();
  return std::vector<uint32_t>(all.begin() + (all.empty() ? 0 : 1),
                               all.end());
}

using IndexDump = std::vector<
    std::tuple<std::string, std::string, std::string, std::vector<uint32_t>,
               uint64_t>>;

IndexDump DumpIndexes(const index::DatabaseIndexes& indexes) {
  IndexDump out;
  for (const auto& [name, doc] : indexes.all()) {
    doc->path_index.ForEachRow(
        [&, doc_name = name](const std::string& path, const std::string& value,
                             const std::vector<index::PathEntry>& entries) {
          for (const index::PathEntry& entry : entries) {
            out.emplace_back(doc_name, "path:" + path, value,
                             TailComponents(entry.id), entry.byte_length);
          }
        });
    doc->inverted_index.ForEachPosting(
        [&, doc_name = name](const std::string& term, const xml::DeweyId& id,
                             uint32_t tf) {
          out.emplace_back(doc_name, "term:" + term, "", TailComponents(id),
                           tf);
        });
  }
  return out;
}

void ExpectSameSearchResults(const storage::LiveDatabase& recovered,
                             const storage::LiveDatabase& oracle,
                             const std::string& context) {
  std::shared_ptr<const storage::CorpusVersion> recovered_version =
      recovered.Pin();
  std::shared_ptr<const storage::CorpusVersion> oracle_version = oracle.Pin();
  engine::ViewSearchEngine recovered_engine(&recovered_version->database,
                                            &recovered_version->indexes,
                                            &recovered_version->store);
  engine::ViewSearchEngine oracle_engine(&oracle_version->database,
                                         &oracle_version->indexes,
                                         &oracle_version->store);
  for (uint64_t d = 0; d < 8; ++d) {
    engine::SearchRequest request;
    request.view = "for $x in fn:doc(" + DocName(d) + ")//a return $x";
    request.keywords = {"term"};
    request.options.top_k = 10;
    Result<engine::SearchResponse> expected = oracle_engine.Execute(request);
    Result<engine::SearchResponse> actual = recovered_engine.Execute(request);
    const std::string doc_context = context + " " + DocName(d);
    ASSERT_EQ(expected.ok(), actual.ok())
        << doc_context << ": " << expected.status().ToString() << " vs "
        << actual.status().ToString();
    if (!expected.ok()) {
      // A removed (or never-inserted) document errors identically.
      EXPECT_EQ(expected.status().code(), actual.status().code())
          << doc_context;
      continue;
    }
    ASSERT_EQ(expected->hits.size(), actual->hits.size()) << doc_context;
    for (size_t i = 0; i < expected->hits.size(); ++i) {
      EXPECT_EQ(expected->hits[i].xml, actual->hits[i].xml)
          << doc_context << " hit " << i;
      EXPECT_EQ(expected->hits[i].score, actual->hits[i].score)
          << doc_context << " hit " << i;
      EXPECT_EQ(expected->hits[i].tf, actual->hits[i].tf)
          << doc_context << " hit " << i;
    }
  }
}

TEST(WalCrashTest, RecoveredStateIsAPrefixOfAckedHistory) {
  constexpr int kTrials = 220;
  // 40 ops x 4 injection crossings per commit (before_write, torn_write,
  // before_sync, after_sync) = 160 crossings; spreading countdowns over
  // [1, 160] crashes every trial somewhere in that space.
  constexpr int64_t kCrossings = 160;
  const std::string dir = ::testing::TempDir();
  int crashed = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::vector<Op> ops = MakeScript(static_cast<uint64_t>(trial));
    const std::string wal_path =
        (std::filesystem::path(dir) / ("crash_" + std::to_string(trial) +
                                       ".wal"))
            .string();
    const std::string ack_path = wal_path + ".ack";
    std::filesystem::remove(wal_path);
    std::filesystem::remove(ack_path);
    const int64_t countdown =
        1 + static_cast<int64_t>(static_cast<uint64_t>(trial) *
                                 2654435761u % kCrossings);

    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      _exit(RunChild(ops, wal_path, ack_path, countdown,
                     static_cast<uint64_t>(trial)));
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << "child died abnormally";
    const int code = WEXITSTATUS(status);
    ASSERT_TRUE(code == 0 || code == fail::kCrashExitCode)
        << "child exit code " << code;
    if (code == fail::kCrashExitCode) ++crashed;
    const uint64_t acked = ReadAcked(ack_path);

    // Clause 1: whatever the crash left behind must open.
    storage::LiveDatabase recovered;
    Status reopened = recovered.OpenWal(wal_path);
    ASSERT_TRUE(reopened.ok())
        << "unopenable after crash: " << reopened.ToString();
    const uint64_t replayed =
        recovered.wal()->replay().payloads.size();

    // Clause 2: acked <= R <= |script| — no acknowledged commit lost,
    // nothing recovered beyond the script.
    ASSERT_GE(replayed, acked) << "lost an acked commit";
    ASSERT_LE(replayed, ops.size());

    // Clause 3: the corpus equals an oracle that ran exactly ops[0..R).
    storage::LiveDatabase oracle;
    for (uint64_t i = 0; i < replayed; ++i) {
      Status applied =
          ops[i].remove ? oracle.CommitRemove(ops[i].name)
                        : oracle.CommitInsert(ops[i].name, ops[i].xml);
      ASSERT_TRUE(applied.ok()) << applied.ToString();
    }
    {
      std::shared_ptr<const storage::CorpusVersion> recovered_version =
          recovered.Pin();
      std::shared_ptr<const storage::CorpusVersion> oracle_version =
          oracle.Pin();
      ASSERT_EQ(recovered_version->DocumentNames(),
                oracle_version->DocumentNames());
      ASSERT_EQ(DumpIndexes(recovered_version->indexes),
                DumpIndexes(oracle_version->indexes))
          << "index state diverged from the replayed prefix";
    }
    ExpectSameSearchResults(recovered, oracle,
                            "trial " + std::to_string(trial));
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "crash-recovery divergence at trial " << trial
             << " (countdown " << countdown << ", acked " << acked
             << ", replayed " << replayed << ")";
    }
    std::filesystem::remove(wal_path);
    std::filesystem::remove(ack_path);
  }
  // Every countdown lies inside the crossing space, so every trial must
  // actually have crashed — the harness is not accidentally a no-op.
  EXPECT_EQ(crashed, kTrials);
}

}  // namespace
}  // namespace quickview
