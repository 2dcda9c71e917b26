#include "qvbench/replay.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/sync.h"
#include "engine/result_cursor.h"
#include "pdt/generate_pdt.h"
#include "pdt/prepare_lists.h"
#include "server/protocol.h"
#include "storage/persistence.h"
#include "xml/parser.h"

namespace qvbench {

namespace {

using namespace quickview;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One message through the wire codecs, both directions, as the client
/// and server run them: payload Encode + EncodeFrame in a server.encode
/// span, DecodeFrame + payload Decode in a server.decode span. Returns
/// the frame size.
template <typename Message, typename DecodeFn>
Result<size_t> WireRoundTrip(server::Opcode opcode, const Message& message,
                             DecodeFn decode, uint64_t id, int parent,
                             SpanRecorder* spans) {
  std::string wire;
  {
    ScopedSpan span(spans, "server.encode", id, parent);
    server::Frame frame;
    frame.opcode = opcode;
    frame.request_id = id;
    server::Encode(message, &frame.payload);
    server::EncodeFrame(frame, &wire);
  }
  ScopedSpan span(spans, "server.decode", id, parent);
  server::Frame frame;
  size_t consumed = 0;
  QUICKVIEW_ASSIGN_OR_RETURN(server::FrameDecode state,
                             server::DecodeFrame(wire, &frame, &consumed));
  if (state != server::FrameDecode::kFrame || consumed != wire.size()) {
    return Status::Internal("wire round trip lost bytes");
  }
  QUICKVIEW_RETURN_IF_ERROR(decode(frame.payload).status());
  return wire.size();
}

void CountCursor(const engine::EngineStats& stats, ReadCounters* counters) {
  counters->view_results += stats.search.view_results;
  counters->matching_results += stats.search.matching_results;
  counters->store_fetches += stats.search.store_fetches;
  counters->store_bytes += stats.search.store_bytes;
  counters->pages_read += stats.search.pages_read;
  counters->eval_ms.push_back(stats.timings.eval_ms);
  if (!stats.shards.empty()) {
    double max_ms = 0;
    double sum_ms = 0;
    for (const engine::ShardStats& shard : stats.shards) {
      max_ms = std::max(max_ms, shard.eval_ms);
      sum_ms += shard.eval_ms;
    }
    double mean = sum_ms / static_cast<double>(stats.shards.size());
    counters->shard_skew.push_back(mean > 0 ? max_ms / mean : 1.0);
  }
}

}  // namespace

ReadExecutor::ReadExecutor(std::vector<std::string> views)
    : views_(std::move(views)),
      cache_(service::PreparedQueryCache::Options{}),
      pool_(static_cast<int>(std::thread::hardware_concurrency())) {}

Result<std::shared_ptr<const engine::PreparedQuery>> ReadExecutor::BuildPdts(
    engine::QueryPlan plan, const index::IndexSource* indexes, uint64_t id,
    int parent, SpanRecorder* spans, ReadCounters* counters) {
  // ViewSearchEngine::BuildPdts spelled out per QPT, so PrepareLists
  // (index) and GeneratePdtFromLists (pdt) get spans of their own.
  Clock::time_point start = Clock::now();
  auto prepared = std::make_shared<engine::PreparedQuery>();
  prepared->plan = std::move(plan);
  prepared->pdts.reserve(prepared->plan.qpts.size());
  for (const qpt::Qpt& q : prepared->plan.qpts) {
    std::optional<index::DocumentIndexView> view =
        indexes->GetView(q.source_doc);
    if (!view.has_value()) {
      return Status::NotFound("no indexes for document '" + q.source_doc +
                              "'");
    }
    pdt::PreparedLists lists;
    {
      ScopedSpan span(spans, "index.prepare_lists", id, parent);
      QUICKVIEW_ASSIGN_OR_RETURN(
          lists, pdt::PrepareLists(q, *view, prepared->plan.kq.keywords));
    }
    pdt::PdtBuildStats stats;
    std::shared_ptr<xml::Document> doc;
    {
      ScopedSpan span(spans, "pdt.generate", id, parent);
      QUICKVIEW_ASSIGN_OR_RETURN(
          doc, pdt::GeneratePdtFromLists(q, std::move(lists), &stats));
    }
    prepared->pdt_stats.ids_processed += stats.ids_processed;
    prepared->pdt_stats.nodes_emitted += stats.nodes_emitted;
    prepared->pdt_stats.peak_ct_nodes += stats.peak_ct_nodes;
    prepared->pdt_stats.index_probes += stats.index_probes;
    prepared->pdt_stats.pdt_bytes += stats.pdt_bytes;
    prepared->memory_bytes += stats.pdt_bytes + doc->size() * sizeof(xml::Node);
    prepared->pdts.push_back(std::move(doc));
  }
  prepared->pdt_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  if (counters != nullptr) {
    counters->index_probes += prepared->pdt_stats.index_probes;
    counters->ids_processed += prepared->pdt_stats.ids_processed;
    counters->nodes_emitted += prepared->pdt_stats.nodes_emitted;
    counters->peak_ct_nodes += prepared->pdt_stats.peak_ct_nodes;
    counters->pdt_bytes += prepared->pdt_stats.pdt_bytes;
    counters->pdt_memory_bytes += prepared->memory_bytes;
  }
  return std::shared_ptr<const engine::PreparedQuery>(std::move(prepared));
}

Result<Digest> ReadExecutor::Read(
    const Request& request, const std::vector<engine::ShardContext>& shards,
    uint64_t cache_epoch, uint64_t id, SpanRecorder* spans,
    ReadCounters* counters) {
  ScopedSpan root(spans, "request", id, -1);
  const std::string& view_text = views_.at(static_cast<size_t>(request.view));
  const bool paged = request.kind == OpKind::kPaged;

  server::SearchRpcRequest rpc;
  rpc.view = "v" + std::to_string(request.view);
  rpc.keywords = request.keywords;
  rpc.top_k = request.top_k;
  rpc.conjunctive = request.conjunctive;
  QUICKVIEW_RETURN_IF_ERROR(
      WireRoundTrip(paged ? server::Opcode::kOpenCursor
                          : server::Opcode::kSearch,
                    rpc, server::DecodeSearchRpcRequest, id, root.id(), spans)
          .status());

  engine::SearchRequest search;
  search.view = view_text;
  search.keywords = request.keywords;
  search.options.top_k = request.top_k;
  search.options.conjunctive = request.conjunctive;

  std::unique_ptr<engine::ResultCursor> cursor;
  {
    // QueryService::OpenSearch: plan for the cache key, look up one
    // entry per shard, build the misses, open the cursor.
    ScopedSpan service_span(spans, "service.open_search", id, root.id());
    engine::ViewSearchEngine engine(shards, &pool_);
    const std::string full_query = engine::ComposeKeywordQuery(
        view_text, request.keywords, request.conjunctive);
    engine::QueryPlan plan;
    {
      ScopedSpan span(spans, "qpt.plan", id, service_span.id());
      QUICKVIEW_ASSIGN_OR_RETURN(plan, engine.PlanQuery(full_query));
    }
    const std::string base = std::to_string(request.view) + "#" +
                             std::to_string(cache_epoch) + "\x1f" +
                             plan.signature;
    std::vector<std::shared_ptr<const engine::PreparedQuery>> prepared;
    for (size_t shard = 0; shard < shards.size(); ++shard) {
      const std::string key = base + "/s" + std::to_string(shard);
      std::shared_ptr<const engine::PreparedQuery> entry = cache_.Get(key);
      if (entry == nullptr) {
        // The engine re-plans per shard task so every cached entry owns
        // its plan; mirror that.
        engine::QueryPlan shard_plan;
        {
          ScopedSpan span(spans, "qpt.plan", id, service_span.id());
          QUICKVIEW_ASSIGN_OR_RETURN(shard_plan,
                                     engine.PlanQuery(full_query));
        }
        ScopedSpan span(spans, "pdt.build", id, service_span.id());
        QUICKVIEW_ASSIGN_OR_RETURN(
            entry, BuildPdts(std::move(shard_plan), shards[shard].indexes, id,
                             span.id(), spans, counters));
        cache_.Put(key, entry);
      }
      prepared.push_back(std::move(entry));
    }
    ScopedSpan span(spans, "engine.open", id, service_span.id());
    QUICKVIEW_ASSIGN_OR_RETURN(cursor, engine.Open(search, prepared));
  }

  // The hits the client receives, digested after the request span ends
  // (the digest is the check's work, not the program's).
  std::vector<engine::SearchHit> answer;
  uint64_t response_bytes = 0;
  uint64_t responses = 0;
  if (!paged) {
    engine::SearchResponse response;
    {
      ScopedSpan span(spans, "storage.fetch", id, root.id());
      QUICKVIEW_ASSIGN_OR_RETURN(response,
                                 engine::DrainToResponse(cursor.get()));
    }
    QUICKVIEW_ASSIGN_OR_RETURN(
        size_t bytes,
        WireRoundTrip(server::Opcode::kSearch, response,
                      server::DecodeSearchResponse, id, root.id(), spans));
    response_bytes += bytes;
    ++responses;
    answer = std::move(response.hits);
  } else {
    server::OpenCursorResponse opened;
    opened.cursor_id = 1;
    opened.matching = cursor->stats().search.matching_results;
    opened.pending = cursor->pending();
    QUICKVIEW_ASSIGN_OR_RETURN(
        size_t bytes,
        WireRoundTrip(server::Opcode::kOpenCursor, opened,
                      server::DecodeOpenCursorResponse, id, root.id(), spans));
    response_bytes += bytes;
    ++responses;
    while (answer.size() < request.top_k) {
      server::FetchNextRequest fetch;
      fetch.cursor_id = 1;
      fetch.count = request.page_size;
      QUICKVIEW_RETURN_IF_ERROR(
          WireRoundTrip(server::Opcode::kFetchNext, fetch,
                        server::DecodeFetchNextRequest, id, root.id(), spans)
              .status());
      server::FetchNextResponse page;
      {
        ScopedSpan span(spans, "storage.fetch", id, root.id());
        QUICKVIEW_ASSIGN_OR_RETURN(page.hits,
                                   cursor->FetchNext(request.page_size));
      }
      page.done = cursor->Done();
      QUICKVIEW_ASSIGN_OR_RETURN(
          bytes, WireRoundTrip(server::Opcode::kFetchNext, page,
                               server::DecodeFetchNextResponse, id, root.id(),
                               spans));
      response_bytes += bytes;
      ++responses;
      const bool last = page.done || page.hits.empty();
      for (engine::SearchHit& hit : page.hits) answer.push_back(std::move(hit));
      if (last) break;
    }
    server::CloseCursorRequest close;
    close.cursor_id = 1;
    QUICKVIEW_RETURN_IF_ERROR(
        WireRoundTrip(server::Opcode::kCloseCursor, close,
                      server::DecodeCloseCursorRequest, id, root.id(), spans)
            .status());
  }
  if (counters != nullptr) {
    ++counters->requests;
    counters->hits += answer.size();
    counters->responses += responses;
    counters->response_bytes += response_bytes;
    CountCursor(cursor->stats(), counters);
  }
  {
    // Releasing the cursor frees the evaluation arena and candidates.
    ScopedSpan span(spans, "engine.close", id, root.id());
    cursor.reset();
  }
  root.Close();
  return DigestOf(answer);
}

std::vector<engine::ShardContext> StaticCorpus::contexts() const {
  std::vector<engine::ShardContext> out;
  if (shards != nullptr) {
    for (size_t i = 0; i < shards->size(); ++i) {
      const storage::Shard& shard = shards->shard(i);
      out.push_back(engine::ShardContext{shard.database.get(),
                                         shard.index_source(),
                                         shard.store.get()});
    }
    return out;
  }
  out.push_back(engine::ShardContext{db.get(), indexes.get(), store.get()});
  return out;
}

Result<std::unique_ptr<StaticCorpus>> OpenStaticCorpus(
    Workload workload, const std::string& setup_dir) {
  auto corpus = std::make_unique<StaticCorpus>();
  if (workload == Workload::kHotPaged) {
    Clock::time_point start = Clock::now();
    QUICKVIEW_ASSIGN_OR_RETURN(
        storage::ShardSet set,
        storage::ShardSet::OpenPacked(setup_dir + "/pack/set.qvset",
                                      SpecFor(workload).frames));
    corpus->shards = std::make_unique<storage::ShardSet>(std::move(set));
    corpus->open_s = Seconds(start);
    return corpus;
  }
  QUICKVIEW_ASSIGN_OR_RETURN(corpus->db,
                             storage::LoadDatabase(setup_dir + "/db"));
  Clock::time_point start = Clock::now();
  corpus->indexes = index::BuildDatabaseIndexes(*corpus->db);
  corpus->index_build_s = Seconds(start);
  corpus->store = std::make_unique<storage::DocumentStore>(*corpus->db);
  return corpus;
}

LiveReplay::LiveReplay(std::shared_ptr<xml::Database> db,
                       std::vector<std::string> views)
    : live_(std::move(db)), executor_(std::move(views)) {}

Result<std::unique_ptr<LiveReplay>> LiveReplay::Open(
    const std::string& setup_dir, std::vector<std::string> views) {
  QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<xml::Database> db,
                             storage::LoadDatabase(setup_dir + "/db"));
  Clock::time_point start = Clock::now();
  std::unique_ptr<index::DatabaseIndexes> timed =
      index::BuildDatabaseIndexes(*db);
  const double build_s = Seconds(start);
  timed.reset();
  std::unique_ptr<LiveReplay> replay(
      new LiveReplay(std::move(db), std::move(views)));
  replay->index_build_s_ = build_s;
  return replay;
}

Status LiveReplay::Mutate(const Request& op, uint64_t id,
                          SpanRecorder* spans) {
  ScopedSpan root(spans, "request", id, -1);
  if (op.kind == OpKind::kRemove) {
    ScopedSpan span(spans, "storage.remove", id, root.id());
    return live_.CommitRemove(op.doc);
  }
  {
    // The durable insert path validates the document before logging it.
    ScopedSpan span(spans, "xml.parse", id, root.id());
    QUICKVIEW_RETURN_IF_ERROR(xml::ParseXml(op.xml).status());
  }
  ScopedSpan span(spans,
                  op.kind == OpKind::kReplace ? "storage.replace"
                                              : "storage.insert",
                  id, root.id());
  QUICKVIEW_RETURN_IF_ERROR(live_.CommitInsert(op.doc, op.xml));
  if (op.doc == "reviews.xml" || op.doc == "books.xml") ++view_epoch_;
  return Status::OK();
}

Result<Digest> LiveReplay::Read(const Request& request, uint64_t id,
                                SpanRecorder* spans, ReadCounters* counters) {
  qv::ReaderLock lock(live_.mu());
  std::shared_ptr<const storage::DocumentStore> snapshot = live_.store();
  std::vector<engine::ShardContext> contexts{engine::ShardContext{
      live_.database(), live_.indexes(), snapshot.get()}};
  return executor_.Read(request, contexts, view_epoch_, id, spans, counters);
}

}  // namespace qvbench
