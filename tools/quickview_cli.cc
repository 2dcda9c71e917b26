// quickview command-line interface.
//
//   quickview_cli index <xml-file>... --out <db-dir>
//       Parse the XML files and persist the database (manifest.qv plus
//       one doc_<root>.xml per document). Indexes are built when a
//       directory is opened; `pack` persists them in paged form.
//   quickview_cli search <db-dir> --view <file> --keywords k1,k2 [--top N]
//       [--any]
//       Ranked keyword search over the virtual view (conjunctive by
//       default; --any = disjunctive).
//   quickview_cli basesearch <db-dir> --keywords k1,k2 [--top N] [--any]
//       Keyword search directly over the base documents.
//   quickview_cli demo
//       Generate the paper's books/reviews example and run its Fig 2
//       query end to end.
//   quickview_cli pack <db-dir> <file.qvpack>   (or: pack --demo <file>)
//       Pack a persisted database directory (or the built-in demo
//       corpus) plus its indexes into a single paged .qvpack file:
//       node-record pages, B-tree-node pages and posting runs that
//       serve/page read lazily through a buffer pool.
//       With --shards N (output <file.qvset>) the corpus is partitioned
//       into N shards — one .qvpack each plus a .qvset manifest —
//       co-locating joined subtrees by --colocate <tag> (e.g. isbn).
//   quickview_cli serve <db-dir>|<db.qvpack>|<db.qvset> --view <file>
//       [--threads N]
//       [--top N] [--any] [--repeat R] [--page N] [--frames N]
//       [--shards N] [--colocate tag] [--demo-view] [--deadline-ms N]
//       [--trace]
//       (--deadline-ms bounds each query's wall clock; expiry fails the
//       query DeadlineExceeded through the engine's cancellation token)
//       (--trace runs every query under an obs::Trace and prints each
//       span-tree breakdown — plan/build_pdts/evaluate per shard, merge,
//       materialize — after the result line)
//       (or: quickview_cli serve --demo)
//       Batch mode: read one keyword query per stdin line (comma-
//       separated keywords), execute the whole batch concurrently on a
//       QueryService thread pool with PDT caching, print ranked matches
//       plus throughput and cache statistics. With --page N each query
//       instead streams its hits through a ResultCursor in pages of N,
//       printing per-page store-fetch counts. Over a .qvpack file the
//       corpus stays on disk: queries pull only the pages they touch
//       (--frames bounds the buffer pool; a storage/buffer-pool stats
//       block prints at the end). Over a .qvset shard set — or with
//       --shards N over an in-memory corpus — every query fans out
//       across the shards and merges lazily; responses are
//       byte-identical to the unsharded run. --shards over a .qvpack or
//       .qvset is an error (pack --shards N writes a .qvset). The
//       corpus is opened by service::OpenBackend, shared with
//       quickview_server.
//   quickview_cli page [<db-dir>|<db.qvpack>|<db.qvset>] [--keywords k1,k2]
//       [--page N] [--top N] [--any] [--frames N] [--shards N]
//       [--view <file>|--demo-view] [--deadline-ms N]
//       Cursor-lifecycle demo on the built-in corpus (or any serve
//       source), through the same QueryService as serve: Open ->
//       FetchNext page by page, showing that store fetches
//       (the only base-data access) accrue per page instead of up
//       front — with a packed db, so do page reads.
//   quickview_cli append <db.qvpack> <name> <xml-file>
//       Append an inserted (or replaced) document to the pack's delta
//       side log; the next open overlays it over the packed corpus.
//   quickview_cli tombstone <db.qvpack> <name>
//       Append a deletion record for <name> to the delta side log.
//   quickview_cli compact <in.qvpack> <out.qvpack>
//       Fold <in>'s delta log into a fresh pack: byte-identical to
//       packing the surviving corpus directly, with no side log.
//   quickview_cli wal-dump <log>
//       Print every committed record of a write-ahead log (a pack's
//       .delta side log or a server --wal file): sequence number, type
//       (insert/tombstone), document name and payload size — plus
//       whether recovery dropped a torn tail. Read-only: the log file
//       is not modified, even when torn.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "engine/base_search.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "pagestore/delta_log.h"
#include "pagestore/pack.h"
#include "pagestore/packed_db.h"
#include "pagestore/shard_pack.h"
#include "obs/trace.h"
#include "service/backend.h"
#include "service/query_service.h"
#include "storage/document_store.h"
#include "storage/persistence.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"
#include "xml/parser.h"

namespace {

using namespace quickview;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  quickview_cli index <xml-file>... --out <db-dir>\n"
               "  quickview_cli search <db-dir> --view <file> "
               "--keywords k1,k2 [--top N] [--any]\n"
               "  quickview_cli basesearch <db-dir> --keywords k1,k2 "
               "[--top N] [--any]\n"
               "  quickview_cli demo\n"
               "  quickview_cli pack <db-dir>|--demo <file.qvpack>\n"
               "  quickview_cli pack <db-dir>|--demo <file.qvset> "
               "--shards N [--colocate tag]\n"
               "  quickview_cli serve <db-dir>|<db.qvpack>|<db.qvset>|--demo "
               "--view <file>|--demo-view [--threads N] [--top N] [--any] "
               "[--repeat R] [--page N] [--frames N] [--shards N] "
               "[--colocate tag] [--deadline-ms N] [--trace]\n"
               "    (keyword queries on stdin, one comma-separated "
               "list per line)\n"
               "  quickview_cli page [<db-dir>|<db.qvpack>|<db.qvset>] "
               "[--keywords k1,k2] [--page N] [--top N] [--any] [--frames N] "
               "[--shards N] [--view <file>|--demo-view] [--deadline-ms N]\n"
               "  quickview_cli append <db.qvpack> <name> <xml-file>\n"
               "  quickview_cli tombstone <db.qvpack> <name>\n"
               "  quickview_cli compact <in.qvpack> <out.qvpack>\n"
               "  quickview_cli wal-dump <log>\n");
  return 2;
}

struct Flags {
  std::vector<std::string> positional;
  std::string out;
  std::vector<std::string> keywords;
  size_t top_k = 10;
  bool any = false;
  bool demo = false;
  int repeat = 1;   // serve: replicate the stdin batch N times
  size_t page = 0;  // cursor page size; 0 = whole-batch responses
  long long deadline_ms = 0;  // per-query deadline; 0 = none
  bool demo_view = false;  // use the built-in books/reviews view text
  bool trace = false;      // serve: print per-query span-tree breakdowns
  /// --view, --frames, --shards (0 = unsharded), --colocate and
  /// --threads (0 = hardware concurrency); serve/page fill in the source.
  service::BackendOptions backend;
};

/// Strict non-negative integer parse; false on junk or overflow (flag
/// values must not crash the process via std::stoi exceptions).
bool ParseCount(const char* text, long long max_value, long long* out) {
  if (text == nullptr || *text == '\0') return false;
  long long value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    value = value * 10 + (*p - '0');
    if (value > max_value) return false;
  }
  *out = value;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->out = v;
    } else if (arg == "--view") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->backend.view_file = v;
    } else if (arg == "--keywords") {
      const char* v = next();
      if (v == nullptr) return false;
      for (std::string_view piece : SplitString(v, ',')) {
        if (!piece.empty()) {
          flags->keywords.push_back(AsciiToLower(piece));
        }
      }
    } else if (arg == "--top") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 1000000, &value)) return false;
      flags->top_k = static_cast<size_t>(value);
    } else if (arg == "--any") {
      flags->any = true;
    } else if (arg == "--demo") {
      flags->demo = true;
    } else if (arg == "--threads") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 4096, &value)) return false;
      flags->backend.threads = static_cast<int>(value);
    } else if (arg == "--repeat") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 1000000, &value)) return false;
      flags->repeat = std::max(1, static_cast<int>(value));
    } else if (arg == "--page") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 1000000, &value)) return false;
      flags->page = static_cast<size_t>(value);
    } else if (arg == "--frames") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 1 << 24, &value) || value == 0) return false;
      flags->backend.frames = static_cast<size_t>(value);
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (!ParseCount(v, 1 << 30, &flags->deadline_ms)) return false;
    } else if (arg == "--trace") {
      flags->trace = true;
    } else if (arg == "--demo-view") {
      flags->demo_view = true;
    } else if (arg == "--shards") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 4096, &value) || value == 0) return false;
      flags->backend.shards = static_cast<int>(value);
    } else if (arg == "--colocate") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->backend.colocate = v;
    } else {
      flags->positional.push_back(std::move(arg));
    }
  }
  return true;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::string BaseName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int CmdIndex(const Flags& flags) {
  if (flags.positional.empty() || flags.out.empty()) return Usage();
  xml::Database db;
  for (const std::string& file : flags.positional) {
    auto content = ReadFile(file);
    if (!content.ok()) return Fail(content.status());
    auto doc = xml::ParseXml(*content, db.NextRootComponent());
    if (!doc.ok()) return Fail(doc.status());
    db.AddDocument(BaseName(file), *doc);
    std::printf("loaded %s (%zu elements)\n", file.c_str(), (*doc)->size());
  }
  Status s = storage::SaveDatabase(db, flags.out);
  if (!s.ok()) return Fail(s);
  std::printf("database written to %s\n", flags.out.c_str());
  return 0;
}

int CmdSearch(const Flags& flags) {
  if (flags.positional.size() != 1 || flags.backend.view_file.empty() ||
      flags.keywords.empty()) {
    return Usage();
  }
  auto db = storage::LoadDatabase(flags.positional[0]);
  if (!db.ok()) return Fail(db.status());
  auto view_text = ReadFile(flags.backend.view_file);
  if (!view_text.ok()) return Fail(view_text.status());
  storage::ShardSet corpus = storage::ShardSet::FromDatabase(std::move(*db));
  engine::ViewSearchEngine engine(engine::ShardContexts(corpus));
  engine::SearchRequest request;
  request.view = *view_text;
  request.keywords = flags.keywords;
  request.options.top_k = flags.top_k;
  request.options.conjunctive = !flags.any;
  auto response = engine.Execute(request);
  if (!response.ok()) return Fail(response.status());
  std::printf("%zu of %zu view results match; module times "
              "qpt=%.2fms pdt=%.2fms eval=%.2fms post=%.2fms\n",
              response->stats.matching_results,
              response->stats.view_results, response->timings.qpt_ms,
              response->timings.pdt_ms, response->timings.eval_ms,
              response->timings.post_ms);
  for (size_t i = 0; i < response->hits.size(); ++i) {
    std::printf("#%zu score=%.4f\n%s\n", i + 1, response->hits[i].score,
                response->hits[i].xml.c_str());
  }
  return 0;
}

int CmdBaseSearch(const Flags& flags) {
  if (flags.positional.size() != 1 || flags.keywords.empty()) {
    return Usage();
  }
  auto db = storage::LoadDatabase(flags.positional[0]);
  if (!db.ok()) return Fail(db.status());
  auto indexes = index::BuildDatabaseIndexes(**db);
  engine::SearchOptions options;
  options.top_k = flags.top_k;
  options.conjunctive = !flags.any;
  auto hits = engine::SearchBaseDocuments(**db, *indexes, flags.keywords,
                                          options);
  if (!hits.ok()) return Fail(hits.status());
  for (size_t i = 0; i < hits->size(); ++i) {
    std::printf("#%zu score=%.4f %s %s\n%s\n", i + 1, (*hits)[i].score,
                (*hits)[i].document.c_str(),
                (*hits)[i].id.ToString().c_str(), (*hits)[i].xml.c_str());
  }
  return 0;
}

int CmdDemo() {
  auto db = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
  auto indexes = index::BuildDatabaseIndexes(*db);
  storage::DocumentStore store(*db);
  engine::ViewSearchEngine engine(db.get(), indexes.get(), &store);
  engine::SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml", "search"};
  std::printf("query:\n%s\n\n",
              engine::ComposeKeywordQuery(request.view, request.keywords,
                                          request.options.conjunctive)
                  .c_str());
  auto response = engine.Execute(request);
  if (!response.ok()) return Fail(response.status());
  for (size_t i = 0; i < response->hits.size() && i < 3; ++i) {
    std::printf("#%zu score=%.4f\n%s\n\n", i + 1, response->hits[i].score,
                response->hits[i].xml.c_str());
  }
  return 0;
}

/// The end-of-run stats block (serve and page): per-shard store fetch
/// totals and, for packed shards, the buffer-pool picture. This is what
/// bench and CI artifacts eyeball instead of a debugger.
void PrintStorageStats(const storage::ShardSet& shards) {
  for (size_t i = 0; i < shards.size(); ++i) {
    const storage::Shard& shard = shards.shard(i);
    storage::DocumentStore::Stats s = shard.store->stats();
    std::printf(
        "shard %zu storage: %llu fetches, %llu bytes, %llu pages read, "
        "%llu buffer hits\n",
        i, static_cast<unsigned long long>(s.fetch_calls),
        static_cast<unsigned long long>(s.bytes_fetched),
        static_cast<unsigned long long>(s.pages_read),
        static_cast<unsigned long long>(s.buffer_hits));
    if (shard.packed == nullptr) continue;
    pagestore::BufferPoolStats pool = shard.packed->pool().stats();
    std::printf(
        "shard %zu buffer pool: %llu hits, %llu misses, %llu evictions, "
        "%llu bytes read, %llu frames resident (budget %zu)\n",
        i, static_cast<unsigned long long>(pool.hits),
        static_cast<unsigned long long>(pool.misses),
        static_cast<unsigned long long>(pool.evictions),
        static_cast<unsigned long long>(pool.bytes_read),
        static_cast<unsigned long long>(pool.frames_in_use),
        shard.packed->pool().frame_budget());
  }
}

int CmdPack(const Flags& flags) {
  // pack --demo <out.qvpack>  |  pack <db-dir> <out.qvpack>
  // pack ... <out.qvset> --shards N [--colocate tag]
  size_t expected = flags.demo ? 1 : 2;
  if (flags.positional.size() != expected) return Usage();
  const std::string& out = flags.positional.back();
  const bool sharded =
      flags.backend.shards > 0 || service::IsShardSetPath(out);
  if (sharded && !service::IsShardSetPath(out)) {
    std::fprintf(stderr, "pack --shards: output must end in .qvset\n");
    return 2;
  }
  if (!sharded && !service::IsPackPath(out)) {
    std::fprintf(stderr, "pack: output must end in .qvpack\n");
    return 2;
  }
  if (!flags.demo && (service::IsPackPath(flags.positional[0]) ||
                      service::IsShardSetPath(flags.positional[0]))) {
    std::fprintf(stderr,
                 "pack: input must be a database directory (or --demo), "
                 "not an already-packed file\n");
    return 2;
  }
  auto loaded = service::LoadCorpus(flags.demo ? "" : flags.positional[0]);
  if (!loaded.ok()) return Fail(loaded.status());
  const xml::Database& db = **loaded;

  if (sharded) {
    // The sharded pack partitions on the way to disk and builds each
    // shard's indexes itself.
    storage::ShardingSpec spec;
    spec.shards = std::max(1, flags.backend.shards);
    spec.colocate_tag = flags.backend.colocate;
    Status packed = pagestore::PackShardedDb(db, spec, out);
    if (!packed.ok()) return Fail(packed);
    std::printf("packed %zu documents into %d shards under %s:\n",
                db.documents().size(), spec.shards,
                pagestore::ShardManifestPath(out).c_str());
    for (int i = 0; i < spec.shards; ++i) {
      auto reopened =
          pagestore::PagedFile::Open(pagestore::ShardPackPath(out, i));
      if (!reopened.ok()) return Fail(reopened.status());
      std::printf("  shard %d: %s, %u pages\n", i,
                  pagestore::ShardPackPath(out, i).c_str(),
                  (*reopened)->page_count());
    }
    return 0;
  }

  Status packed = pagestore::PackDatabase(
      db, *index::BuildDatabaseIndexes(db), out);
  if (!packed.ok()) return Fail(packed);
  auto reopened = pagestore::PagedFile::Open(out);
  if (!reopened.ok()) return Fail(reopened.status());
  std::printf(
      "packed %zu documents into %s: %u pages of %u bytes (%llu total)\n",
      db.documents().size(), out.c_str(),
      (*reopened)->page_count(),
      pagestore::kPageSize,
      static_cast<unsigned long long>((*reopened)->page_count()) *
          pagestore::kPageSize);
  return 0;
}

int CmdAppend(const Flags& flags) {
  if (flags.positional.size() != 3) return Usage();
  const std::string& pack = flags.positional[0];
  const std::string& name = flags.positional[1];
  if (!service::IsPackPath(pack)) {
    std::fprintf(stderr, "append: first argument must be a .qvpack file\n");
    return 2;
  }
  auto xml_text = ReadFile(flags.positional[2]);
  if (!xml_text.ok()) return Fail(xml_text.status());
  Status appended = pagestore::PackAppend(pack, name, *xml_text);
  if (!appended.ok()) return Fail(appended);
  std::printf("appended '%s' (%zu bytes) to %s\n", name.c_str(),
              xml_text->size(), pagestore::DeltaLogPath(pack).c_str());
  return 0;
}

int CmdTombstone(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  const std::string& pack = flags.positional[0];
  const std::string& name = flags.positional[1];
  if (!service::IsPackPath(pack)) {
    std::fprintf(stderr,
                 "tombstone: first argument must be a .qvpack file\n");
    return 2;
  }
  Status buried = pagestore::PackTombstone(pack, name);
  if (!buried.ok()) return Fail(buried);
  std::printf("tombstoned '%s' in %s\n", name.c_str(),
              pagestore::DeltaLogPath(pack).c_str());
  return 0;
}

int CmdWalDump(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  const std::string& log = flags.positional[0];
  auto replay = pagestore::ReplayWal(log);
  if (!replay.ok()) return Fail(replay.status());
  uint64_t seq = 0;
  for (const std::string& payload : replay->payloads) {
    ++seq;
    auto record = pagestore::DecodeDeltaPayload(payload);
    if (!record.ok()) {
      // Not a delta-shaped payload; still committed and checksummed.
      std::printf("%6llu  raw        %zu bytes\n",
                  static_cast<unsigned long long>(seq), payload.size());
      continue;
    }
    std::printf("%6llu  %-9s  %-24s %zu bytes\n",
                static_cast<unsigned long long>(seq),
                record->tombstone ? "tombstone" : "insert",
                record->name.c_str(), record->xml.size());
  }
  std::printf("%zu committed records (last seq %llu)\n",
              replay->payloads.size(),
              static_cast<unsigned long long>(replay->last_seq));
  if (replay->tail_truncated) {
    std::printf("torn tail: %llu trailing bytes are not part of any "
                "committed record (a reopen for writing truncates them)\n",
                static_cast<unsigned long long>(replay->dropped_bytes));
  }
  return 0;
}

int CmdCompact(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  const std::string& in = flags.positional[0];
  const std::string& out = flags.positional[1];
  if (!service::IsPackPath(in) || !service::IsPackPath(out)) {
    std::fprintf(stderr, "compact: both arguments must be .qvpack files\n");
    return 2;
  }
  Status compacted = pagestore::CompactPack(in, out);
  if (!compacted.ok()) return Fail(compacted);
  auto reopened = pagestore::PagedFile::Open(out);
  if (!reopened.ok()) return Fail(reopened.status());
  std::printf("compacted %s -> %s: %u pages of %u bytes\n", in.c_str(),
              out.c_str(), (*reopened)->page_count(), pagestore::kPageSize);
  return 0;
}

int CmdServe(const Flags& flags) {
  if (flags.positional.size() != (flags.demo ? 0u : 1u)) return Usage();
  if (!flags.demo && flags.backend.view_file.empty() && !flags.demo_view) {
    return Usage();
  }

  service::BackendOptions options = flags.backend;
  if (!flags.demo) options.source = flags.positional[0];
  auto backend = service::OpenBackend(options);
  if (!backend.ok()) return Fail(backend.status());
  std::printf("%s", backend->banner.c_str());
  service::QueryService* query_service = backend->service.get();

  // One query per stdin line: comma-separated keywords.
  std::vector<engine::SearchRequest> batch;
  std::string line;
  while (std::getline(std::cin, line)) {
    engine::SearchRequest query;
    query.view = "default";
    for (std::string_view piece : SplitString(line, ',')) {
      if (!piece.empty()) query.keywords.push_back(AsciiToLower(piece));
    }
    if (query.keywords.empty()) continue;
    query.options.top_k = flags.top_k;
    query.options.conjunctive = !flags.any;
    if (flags.deadline_ms > 0) {
      query.deadline = std::chrono::milliseconds(flags.deadline_ms);
    }
    batch.push_back(std::move(query));
  }
  if (batch.empty()) {
    std::fprintf(stderr, "serve: no queries on stdin\n");
    return 2;
  }

  // Cursor mode: stream each query's hits through a ResultCursor in
  // pages of --page on the calling thread. Store fetches accrue per
  // page — unfetched pages never touch base data — while repeated plan
  // signatures still hit the PDT cache.
  if (flags.page > 0) {
    if (flags.backend.threads != 0 || flags.repeat != 1) {
      std::fprintf(stderr,
                   "serve --page: streaming serially on the calling "
                   "thread; --threads/--repeat are ignored\n");
    }
    int failures = 0;
    uint64_t trace_id = 0;
    for (engine::SearchRequest& query : batch) {
      const std::string joined = JoinStrings(query.keywords, ",");
      if (flags.trace) {
        query.trace = std::make_shared<obs::Trace>(++trace_id);
      }
      auto cursor = query_service->OpenSearch(query);
      if (!cursor.ok()) {
        ++failures;
        std::printf("[%s] error: %s\n", joined.c_str(),
                    cursor.status().ToString().c_str());
        continue;
      }
      size_t page_no = 0;
      while (!(*cursor)->Done()) {
        auto page = (*cursor)->FetchNext(flags.page);
        if (!page.ok()) {
          ++failures;
          std::printf("[%s] error: %s\n", joined.c_str(),
                      page.status().ToString().c_str());
          break;
        }
        ++page_no;
        std::printf(
            "[%s] page %zu: %zu hits, top score %.4f, "
            "%llu store fetches so far\n",
            joined.c_str(), page_no, page->size(),
            page->empty() ? 0.0 : (*page)[0].score,
            static_cast<unsigned long long>(
                (*cursor)->stats().search.store_fetches));
      }
      const engine::SearchStats& s = (*cursor)->stats().search;
      std::printf(
          "[%s] done: fetched %zu of %zu matches in %zu pages, "
          "%llu store fetches\n",
          joined.c_str(), (*cursor)->fetched(), s.matching_results,
          page_no, static_cast<unsigned long long>(s.store_fetches));
      if (query.trace != nullptr) {
        std::printf("%s", query.trace->Serialize().c_str());
      }
    }
    service::QueryService::Stats stats = query_service->stats();
    std::printf("streamed %zu queries; cache hits %llu misses %llu\n",
                batch.size(),
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses));
    PrintStorageStats(*backend->shards);
    return failures == 0 ? 0 : 1;
  }

  const size_t unique_queries = batch.size();
  batch.reserve(unique_queries * static_cast<size_t>(flags.repeat));
  for (int r = 1; r < flags.repeat; ++r) {
    for (size_t i = 0; i < unique_queries; ++i) batch.push_back(batch[i]);
  }
  if (flags.trace) {
    // Traces are per-entry, AFTER replication — repeated copies of one
    // query must not interleave their spans into a shared tree.
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].trace = std::make_shared<obs::Trace>(i + 1);
    }
  }

  auto start = std::chrono::steady_clock::now();
  auto responses = query_service->SearchBatch(batch);
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  int failures = 0;
  for (size_t i = 0; i < unique_queries; ++i) {
    const std::string joined = JoinStrings(batch[i].keywords, ",");
    if (!responses[i].ok()) {
      ++failures;
      std::printf("[%s] error: %s\n", joined.c_str(),
                  responses[i].status().ToString().c_str());
      continue;
    }
    const engine::SearchResponse& r = *responses[i];
    std::printf("[%s] %zu/%zu results, top score %.4f\n", joined.c_str(),
                r.stats.matching_results, r.stats.view_results,
                r.hits.empty() ? 0.0 : r.hits[0].score);
    if (batch[i].trace != nullptr) {
      std::printf("%s", batch[i].trace->Serialize().c_str());
    }
  }
  for (size_t i = unique_queries; i < responses.size(); ++i) {
    if (!responses[i].ok()) ++failures;
  }
  service::QueryService::Stats stats = query_service->stats();
  std::printf(
      "served %zu queries on %d threads in %.1f ms (%.0f q/s); "
      "cache hits %llu misses %llu\n",
      responses.size(), query_service->threads(), wall_ms,
      wall_ms > 0 ? 1000.0 * static_cast<double>(responses.size()) / wall_ms
                  : 0.0,
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses));
  PrintStorageStats(*backend->shards);
  return failures == 0 ? 0 : 1;
}

/// Cursor-lifecycle walkthrough on the built-in books/reviews corpus or
/// any serve source: Open once, FetchNext page by page, and print the
/// store-fetch (and, when packed, page-read) counters after every page —
/// the visible form of the lazy-materialization guarantee (hits never
/// fetched never touch base data; with a packed db, never touch disk).
int CmdPage(const Flags& flags) {
  if (flags.positional.size() > 1) return Usage();
  service::BackendOptions options = flags.backend;
  if (!flags.positional.empty()) options.source = flags.positional[0];
  auto backend = service::OpenBackend(options);
  if (!backend.ok()) return Fail(backend.status());
  std::printf("%s", backend->banner.c_str());

  engine::SearchRequest query;
  query.view = "default";
  query.keywords = flags.keywords;
  if (query.keywords.empty()) query.keywords = {"xml", "search"};
  query.options.top_k = flags.top_k;
  query.options.conjunctive = !flags.any;
  if (flags.deadline_ms > 0) {
    query.deadline = std::chrono::milliseconds(flags.deadline_ms);
  }
  const size_t page_size = flags.page > 0 ? flags.page : 3;
  auto cursor = backend->service->OpenSearch(query);
  if (!cursor.ok()) return Fail(cursor.status());

  std::printf(
      "cursor open: %zu matches ranked, %zu materialized, "
      "%llu store fetches\n",
      (*cursor)->stats().search.matching_results, (*cursor)->fetched(),
      static_cast<unsigned long long>(
          (*cursor)->stats().search.store_fetches));
  size_t page_no = 0;
  while (!(*cursor)->Done()) {
    auto page = (*cursor)->FetchNext(page_size);
    if (!page.ok()) return Fail(page.status());
    ++page_no;
    std::printf("-- page %zu --\n", page_no);
    const size_t first_rank = (*cursor)->fetched() - page->size() + 1;
    for (size_t i = 0; i < page->size(); ++i) {
      std::printf("#%zu score=%.4f\n", first_rank + i, (*page)[i].score);
    }
    std::printf("   %llu store fetches so far (%llu bytes)\n",
                static_cast<unsigned long long>(
                    (*cursor)->stats().search.store_fetches),
                static_cast<unsigned long long>(
                    (*cursor)->stats().search.store_bytes));
    if (backend->shards->paged()) {
      std::printf("   %llu pages read so far (%llu buffer hits)\n",
                  static_cast<unsigned long long>(
                      (*cursor)->stats().search.pages_read),
                  static_cast<unsigned long long>(
                      (*cursor)->stats().search.buffer_hits));
    }
  }
  std::printf("cursor drained: %zu hits in %zu pages\n",
              (*cursor)->fetched(), page_no);
  PrintStorageStats(*backend->shards);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  std::string command = argv[1];
  if (command == "index") return CmdIndex(flags);
  if (command == "search") return CmdSearch(flags);
  if (command == "basesearch") return CmdBaseSearch(flags);
  if (command == "demo") return CmdDemo();
  if (command == "pack") return CmdPack(flags);
  if (command == "append") return CmdAppend(flags);
  if (command == "tombstone") return CmdTombstone(flags);
  if (command == "compact") return CmdCompact(flags);
  if (command == "wal-dump") return CmdWalDump(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "page") return CmdPage(flags);
  return Usage();
}
