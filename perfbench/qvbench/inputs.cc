#include "qvbench/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>

#include "workload/bookrev_generator.h"
#include "workload/inex_generator.h"
#include "workload/view_factory.h"
#include "xml/serializer.h"

namespace qvbench {

namespace {

using namespace quickview;

/// Serialized size target of cold_plans' inex.xml.
constexpr uint64_t kInexBytes = 1u << 20;
constexpr int kHotBooks = 1800;
constexpr int kLiveBooks = 200;

uint64_t Mix(uint64_t a, uint64_t b) {
  // splitmix64 over the pair: independent streams per (seed, index).
  uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const char* const kTierTerms[] = {"ieee",   "computing", "thomas",
                                  "control", "moore",    "burnett"};
const char* const kTopics[] = {"xml",      "search",  "web",     "database",
                               "services", "systems", "queries", "index"};

/// The bookrev generator's isbn for book `i` (books.xml joins on it).
std::string Isbn(int i) {
  return std::to_string(100 + i % 900) + "-" + std::to_string(10 + i % 90) +
         "-" + std::to_string(1000 + i);
}

std::vector<InputFile> Serialize(const xml::Database& db,
                                 const std::vector<std::string>& order) {
  std::vector<InputFile> files;
  for (const std::string& name : order) {
    files.push_back(InputFile{name, xml::Serialize(*db.GetDocument(name))});
  }
  return files;
}

/// Zipf(1) pick over `n` items. The rank-to-item map is one fixed
/// shuffle, the same for every seed: the seed varies the request
/// sequence, never which keyword list is hottest (that would change the
/// workload's cost from seed to seed).
size_t ZipfPick(std::mt19937_64& rng, size_t n) {
  static thread_local std::map<size_t, std::pair<std::vector<double>,
                                                 std::vector<size_t>>>
      tables;
  auto& table = tables[n];
  if (table.first.empty()) {
    double total = 0;
    for (size_t r = 1; r <= n; ++r) {
      total += 1.0 / static_cast<double>(r);
      table.first.push_back(total);
    }
    for (double& c : table.first) c /= total;
    table.second.resize(n);
    for (size_t i = 0; i < n; ++i) table.second[i] = i;
    std::mt19937_64 shuffle(77);
    std::shuffle(table.second.begin(), table.second.end(), shuffle);
  }
  double u = std::uniform_real_distribution<double>(0, 1)(rng);
  size_t rank = static_cast<size_t>(
      std::lower_bound(table.first.begin(), table.first.end(), u) -
      table.first.begin());
  return table.second[std::min(rank, n - 1)];
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "cold_plans") return Workload::kColdPlans;
  if (name == "hot_paged") return Workload::kHotPaged;
  if (name == "live_ingest") return Workload::kLiveIngest;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kColdPlans:
      return "cold_plans";
    case Workload::kHotPaged:
      return "hot_paged";
    case Workload::kLiveIngest:
      return "live_ingest";
  }
  return "?";
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSearch:
      return "search";
    case OpKind::kPaged:
      return "paged";
    case OpKind::kInsert:
      return "insert";
    case OpKind::kRemove:
      return "remove";
    case OpKind::kReplace:
      return "replace";
  }
  return "?";
}

WorkloadSpec SpecFor(Workload workload) {
  WorkloadSpec spec;
  switch (workload) {
    case Workload::kColdPlans:
      spec.offered_qps = 100;
      spec.p99_limit_ms = 100;
      spec.open_share = 0.88;
      break;
    case Workload::kHotPaged:
      spec.offered_qps = 100;
      spec.p99_limit_ms = 100;
      spec.open_share = 0.88;
      spec.frames = 256;
      spec.shards = 4;
      break;
    case Workload::kLiveIngest:
      spec.offered_qps = 100;
      spec.p99_limit_ms = 150;
      spec.open_share = 0.88;
      spec.replace_qps = 1;
      spec.writers = 2;
      spec.writer_qps = 50;
      spec.window = 8;
      break;
  }
  return spec;
}

std::vector<std::string> ViewsFor(Workload workload) {
  if (workload != Workload::kColdPlans) return {workload::BookRevView()};
  std::vector<std::string> views;
  for (int joins = 0; joins <= 4; ++joins) {
    workload::ViewSpec spec;
    spec.num_joins = joins;
    spec.nesting_level = 2;
    views.push_back(workload::BuildInexView(spec));
  }
  return views;
}

Corpus GenerateCorpus(Workload workload, uint64_t seed) {
  Corpus corpus;
  corpus.views = ViewsFor(workload);
  if (workload == Workload::kColdPlans) {
    workload::InexOptions options;
    options.target_bytes = kInexBytes;
    options.seed = Mix(seed, 1);
    auto db = workload::GenerateInexDatabase(options);
    corpus.files = Serialize(
        *db, {"inex.xml", "authors.xml", "groups.xml", "supergroups.xml",
              "affil.xml", "venues.xml", "awards.xml"});
    return corpus;
  }
  workload::BookRevOptions options;
  options.num_books =
      workload == Workload::kHotPaged ? kHotBooks : kLiveBooks;
  options.seed = Mix(seed, 2);
  auto db = workload::GenerateBookRevDatabase(options);
  corpus.files = Serialize(*db, {"books.xml", "reviews.xml"});
  return corpus;
}

std::vector<KeywordList> BookKeywordLists() {
  // 8 single topics plus 16 topic pairs, half conjunctive: 24 plans,
  // so a 4-shard corpus warms 96 PDT-cache entries (capacity 128).
  std::vector<KeywordList> lists;
  for (const char* topic : kTopics) lists.push_back({{topic}, false});
  int pairs = 0;
  for (int a = 0; a < 8 && pairs < 16; ++a) {
    for (int b = a + 1; b < 8 && pairs < 16; b += 3) {
      lists.push_back({{kTopics[a], kTopics[b]}, pairs % 2 == 0});
      ++pairs;
    }
  }
  return lists;
}

Request ReadRequest(Workload workload, uint64_t seed, uint64_t index) {
  std::mt19937_64 rng(Mix(Mix(seed, 3), index));
  Request request;
  if (workload == Workload::kColdPlans) {
    // A Table-1 tier term plus 0-2 filler terms drawn from the
    // generator's 4000-word filler vocabulary, over one of five views:
    // nearly every request is a plan signature the run has not seen.
    request.view = static_cast<int>(rng() % 5);
    request.keywords.push_back(kTierTerms[rng() % 6]);
    uint64_t roll = rng() % 33;
    int fillers = roll == 0 ? 0 : (roll <= 16 ? 1 : 2);
    for (int i = 0; i < fillers; ++i) {
      request.keywords.push_back("w" + std::to_string(rng() % 4000));
    }
    request.conjunctive = (rng() & 1) != 0;
    request.top_k = 10;
    return request;
  }
  static const std::vector<KeywordList> lists = BookKeywordLists();
  const KeywordList& list =
      workload == Workload::kHotPaged
          ? lists[ZipfPick(rng, lists.size())]
          : lists[rng() % lists.size()];
  request.keywords = list.keywords;
  request.conjunctive = list.conjunctive;
  if (workload == Workload::kHotPaged && (rng() & 1) != 0) {
    request.kind = OpKind::kPaged;
    request.top_k = 30;
    request.page_size = 10;
  }
  return request;
}

std::vector<double> Arrivals(uint64_t seed, uint64_t stream, double qps,
                             double seconds) {
  std::vector<double> out;
  if (qps <= 0) return out;
  std::mt19937_64 rng(Mix(Mix(seed, 4), stream));
  std::exponential_distribution<double> gap(qps / 1000.0);
  double t = gap(rng);
  while (t < seconds * 1000.0) {
    out.push_back(t);
    t += gap(rng);
  }
  return out;
}

std::vector<double> FixedRate(uint64_t seed, double qps, double seconds) {
  std::vector<double> out;
  if (qps <= 0) return out;
  const double period = 1000.0 / qps;
  const double phase =
      static_cast<double>(Mix(seed, 8) % 1000) / 1000.0 * period;
  for (double t = phase; t < seconds * 1000.0; t += period) out.push_back(t);
  return out;
}

Request WriterOp(uint64_t seed, int writer, uint64_t step) {
  // Steady state alternates insert(n), remove(n - window); the first
  // `window` steps only insert.
  const uint64_t window =
      static_cast<uint64_t>(SpecFor(Workload::kLiveIngest).window);
  Request request;
  uint64_t n = 0;
  bool remove = false;
  if (step < window) {
    n = step;
  } else {
    uint64_t k = step - window;
    n = window + k / 2;
    remove = (k % 2) == 1;
  }
  if (remove) {
    request.kind = OpKind::kRemove;
    request.doc = "fresh-" + std::to_string(writer) + "-" +
                  std::to_string(n - window) + ".xml";
    return request;
  }
  request.kind = OpKind::kInsert;
  request.doc = "fresh-" + std::to_string(writer) + "-" + std::to_string(n) +
                ".xml";
  std::mt19937_64 rng(Mix(Mix(seed, 5 + static_cast<uint64_t>(writer)), n));
  std::string xml = "<reviews>";
  while (xml.size() < 2000) {
    xml += "<review><isbn>" + Isbn(static_cast<int>(rng() % kLiveBooks)) +
           "</isbn><rate>" + (rng() % 3 == 0 ? "Excellent" : "Good") +
           "</rate><content>fresh notes on";
    for (int w = 0; w < 36; ++w) {
      xml += ' ';
      xml += (rng() % 4 == 0) ? std::string(kTopics[rng() % 8])
                              : "t" + std::to_string(rng() % 5000);
    }
    xml += "</content><reviewer>reviewer" + std::to_string(rng() % 10) +
           "</reviewer></review>";
  }
  xml += "</reviews>";
  request.xml = std::move(xml);
  return request;
}

Request ReplaceOp(uint64_t seed, uint64_t version) {
  workload::BookRevOptions options;
  options.num_books = kLiveBooks;
  options.seed = Mix(Mix(seed, 6), version);
  auto db = workload::GenerateBookRevDatabase(options);
  Request request;
  request.kind = OpKind::kReplace;
  request.doc = "reviews.xml";
  request.version = version;
  request.xml = xml::Serialize(*db->GetDocument("reviews.xml"));
  return request;
}

uint64_t Fnv64(std::string_view bytes, uint64_t state) {
  for (unsigned char c : bytes) {
    state ^= c;
    state *= 1099511628211ull;
  }
  return state;
}

std::string CorpusDigest(const Corpus& corpus) {
  uint64_t h = Fnv64("corpus");
  for (const InputFile& file : corpus.files) {
    h = Fnv64(file.name, h);
    h = Fnv64(std::string_view("\0", 1), h);
    h = Fnv64(file.xml, h);
  }
  for (const std::string& view : corpus.views) h = Fnv64(view, h);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace qvbench
