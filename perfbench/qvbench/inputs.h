// Seeded inputs of the serving benchmark: the corpus files and view texts
// each workload hands to the program, and the request streams the load
// generator sends and the replay re-executes. Everything here is a pure
// function of (workload, seed), so the wire run, the oracle and the
// traced replay agree on the inputs without exchanging them.
#ifndef PERFBENCH_QVBENCH_INPUTS_H_
#define PERFBENCH_QVBENCH_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qvbench {

enum class Workload { kColdPlans, kHotPaged, kLiveIngest };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// Fixed per-workload parameters. The offered rate and p99 limit of the
/// read workloads were chosen from runs of the unchanged program on a
/// 4-core container, so that the program meets the limit at that rate
/// with no growing backlog.
struct WorkloadSpec {
  double offered_qps = 0;    // open-loop read arrivals per second
  double p99_limit_ms = 0;   // latency limit on search_p99_ms
  double open_share = 1.0;   // share of --seconds spent in the open loop
  uint32_t frames = 0;       // server buffer-pool frames (hot_paged)
  int shards = 0;            // pack shards (hot_paged)
  double replace_qps = 0;    // live_ingest: reviews.xml replacements
  int writers = 0;           // live_ingest: writer connections
  double writer_qps = 0;     // live_ingest: paced writes per writer
  int window = 0;            // live_ingest: fresh documents kept per writer
};
WorkloadSpec SpecFor(Workload workload);

/// One generated input document, in the order the program receives it
/// (document order fixes Dewey root components).
struct InputFile {
  std::string name;
  std::string xml;
};

struct Corpus {
  std::vector<InputFile> files;
  /// View texts, registered as "v0", "v1", ...
  std::vector<std::string> views;
};
Corpus GenerateCorpus(Workload workload, uint64_t seed);
/// The workload's view texts alone (they do not depend on the seed).
std::vector<std::string> ViewsFor(Workload workload);

enum class OpKind : uint8_t { kSearch, kPaged, kInsert, kRemove, kReplace };
const char* OpKindName(OpKind kind);

struct Request {
  OpKind kind = OpKind::kSearch;
  /// Which stream the request belongs to (reads 0, writers 1.., the
  /// replacer after them) and its position in that stream.
  int source = 0;
  uint64_t index = 0;
  /// Open-loop send time, ms after the phase starts (0 for closed loops).
  double due_ms = 0;
  // Reads.
  int view = 0;
  std::vector<std::string> keywords;
  bool conjunctive = false;
  uint32_t top_k = 10;
  uint32_t page_size = 0;  // kPaged: hits per FetchNext
  // Writes.
  std::string doc;
  std::string xml;  // kInsert / kReplace
  uint64_t version = 0;  // kReplace: reviews.xml version (>= 1)
};

/// Read request `index` of the workload's read stream: the same index
/// always yields the same request, so the open loop takes [0, n) and the
/// closed loop continues the stream after it.
Request ReadRequest(Workload workload, uint64_t seed, uint64_t index);

/// Poisson arrival offsets (ms) at `qps` over `seconds`.
std::vector<double> Arrivals(uint64_t seed, uint64_t stream, double qps,
                             double seconds);
/// Evenly spaced offsets (ms) at `qps` over `seconds`, with a seeded
/// phase.
std::vector<double> FixedRate(uint64_t seed, double qps, double seconds);

/// The distinct keyword lists hot_paged and live_ingest draw from.
struct KeywordList {
  std::vector<std::string> keywords;
  bool conjunctive = false;
};
std::vector<KeywordList> BookKeywordLists();

/// live_ingest writer `writer`'s op `step`: inserts of fresh ~2 KB review
/// documents, each followed (once the window is full) by the removal of
/// the document that leaves the window.
Request WriterOp(uint64_t seed, int writer, uint64_t step);

/// live_ingest: reviews.xml version `version` (>= 1; version 0 is the
/// generated corpus's own reviews.xml).
Request ReplaceOp(uint64_t seed, uint64_t version);

/// FNV-1a 64 over `bytes`, continuing from `state`.
uint64_t Fnv64(std::string_view bytes,
               uint64_t state = 14695981039346656037ull);

/// Hex digest of the corpus (names and bytes) and views.
std::string CorpusDigest(const Corpus& corpus);

}  // namespace qvbench

#endif  // PERFBENCH_QVBENCH_INPUTS_H_
