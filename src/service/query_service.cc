#include "service/query_service.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "xquery/parser.h"

namespace quickview::service {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

QueryService::QueryService(const storage::ShardSet* shards,
                           const QueryServiceOptions& options)
    : shards_(shards),
      cache_(options.cache),
      pool_(ResolveThreads(options.threads)) {}

QueryService::QueryService(storage::LiveDatabase* live,
                           const QueryServiceOptions& options)
    : live_(live),
      cache_(options.cache),
      pool_(ResolveThreads(options.threads)) {}

Status QueryService::RegisterView(const std::string& name,
                                  const std::string& view_text) {
  // Validate eagerly so a bad view fails registration, not every query.
  QUICKVIEW_RETURN_IF_ERROR(xquery::ParseQuery(view_text));
  qv::WriterLock lock(views_mu_);
  RegisteredView& view = views_[name];
  ++view.version;
  view.text = view_text;
  return Status::OK();
}

Status QueryService::ApplyMutation(Mutation op, const std::string& name,
                                   const std::string& xml_text,
                                   obs::Counter* counter) {
  if (live_ == nullptr) {
    return Status::InvalidArgument(
        "document mutations require a live-mode QueryService (constructed "
        "over a storage::LiveDatabase)");
  }
  QUICKVIEW_RETURN_IF_ERROR(op == Mutation::kInsert
                                ? live_->CommitInsert(name, xml_text)
                                : live_->CommitRemove(name));
  counter->Increment();
  return Status::OK();
}

Status QueryService::InsertDocument(const std::string& name,
                                    const std::string& xml_text) {
  return ApplyMutation(Mutation::kInsert, name, xml_text, &inserts_);
}

Status QueryService::RemoveDocument(const std::string& name) {
  return ApplyMutation(Mutation::kRemove, name, /*xml_text=*/"", &removes_);
}

Result<std::unique_ptr<engine::ResultCursor>> QueryService::OpenSearch(
    const BatchQuery& query) {
  queries_.Increment();
  // Boundary validation, hoisted into the ONE implementation every entry
  // point shares (SearchRequest::Validate): empty keyword list, zero
  // top_k and a nonsense shard hint are caller bugs, rejected with a
  // typed InvalidArgument before any planning. At this boundary the
  // request's `view` carries the registered view NAME (the engine
  // boundary re-validates with the view text later, identically).
  engine::SearchRequest boundary;
  boundary.view = query.view;
  boundary.keywords = query.keywords;
  boundary.options = query.options;
  boundary.shard = query.shard;
  boundary.deadline = query.deadline;
  QUICKVIEW_RETURN_IF_ERROR(boundary.Validate());
  // Keywords are spliced into single-quoted XQuery string literals; a
  // quote would break out of the literal and rewrite the query shape
  // (the serve CLI feeds keywords straight from stdin). The grammar has
  // no escape for quotes inside literals, so reject rather than mangle.
  for (const std::string& keyword : query.keywords) {
    if (keyword.find('\'') != std::string::npos) {
      return Status::InvalidArgument("keyword must not contain \"'\": " +
                                     keyword);
    }
  }
  // Live mode: pin the current corpus version; the whole query reads it
  // alone. Static mode: the shard set is immutable construction state.
  if (live_ != nullptr) {
    std::shared_ptr<const storage::CorpusVersion> corpus = live_->Pin();
    // Read before the call: its arguments may be evaluated in any order,
    // and one of them moves `corpus`.
    std::vector<engine::ShardContext> contexts = engine::ShardContexts(*corpus);
    return PrepareCursor(query, std::move(contexts), std::move(corpus));
  }
  return PrepareCursor(query, engine::ShardContexts(*shards_),
                       /*corpus=*/nullptr);
}

Result<QueryService::RegisteredView> QueryService::SnapshotView(
    const std::string& name) {
  qv::ReaderLock lock(views_mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no view registered as '" + name + "'");
  }
  return it->second;
}

std::string QueryService::VersionKey(const RegisteredView& view,
                                     const storage::CorpusVersion* corpus,
                                     const std::vector<qpt::Qpt>& qpts) {
  std::string key = std::to_string(view.version);
  if (corpus == nullptr) return key;
  for (const qpt::Qpt& qpt : qpts) {
    key.push_back('.');
    std::optional<uint64_t> version = corpus->DocumentVersion(qpt.source_doc);
    key.append(version.has_value() ? std::to_string(*version) : "-");
  }
  return key;
}

std::string QueryService::BaseCacheKey(const std::string& view_name,
                                       const std::string& versions,
                                       const std::string& signature,
                                       bool skeleton) {
  // Length-prefix the view name so no name can collide with another
  // name + version suffix; the plan signature is injective on its own.
  // The versions make both view replacement and document mutations
  // unreachable-key invalidations: stale entries age out of the LRU,
  // never serve again. The separator after them tells a skeleton's key
  // from a bundle's.
  std::string key = std::to_string(view_name.size());
  key.push_back(':');
  key.append(view_name);
  if (!versions.empty()) {
    key.push_back('#');
    key.append(versions);
  }
  key.push_back(skeleton ? '\x1e' : '\x1f');
  key.append(signature);
  return key;
}

Result<std::unique_ptr<engine::ResultCursor>> QueryService::PrepareCursor(
    const BatchQuery& query, std::vector<engine::ShardContext> contexts,
    std::shared_ptr<const storage::CorpusVersion> corpus) {
  const size_t shard_count = contexts.size();
  engine::ViewSearchEngine engine(std::move(contexts), &pool_);
  QUICKVIEW_ASSIGN_OR_RETURN(RegisteredView view, SnapshotView(query.view));

  // Plan once on the calling thread: the cache keys need the plan's
  // signatures, and a shard that finds the view's skeleton is annotated
  // with this plan's keyword set. Only a shard that builds a skeleton
  // plans again inside Open, since the skeleton owns its plan. The hit
  // path plans too (cost proportional to the query text, never the
  // data), so the cache stays keyed by the canonical plan signature
  // rather than raw input text.
  std::string full_query = engine::ComposeKeywordQuery(
      view.text, query.keywords, query.options.conjunctive);
  QUICKVIEW_ASSIGN_OR_RETURN(engine::QueryPlan plan,
                             engine.PlanQuery(full_query));
  const std::string versions = VersionKey(view, corpus.get(), plan.qpts);
  const std::string base = BaseCacheKey(query.view, versions, plan.signature);

  // The request's deadline (and caller token) governs PDT build and
  // evaluation; the shard hint is the engine's to validate.
  engine::SearchRequest request;
  request.view = view.text;
  request.keywords = query.keywords;
  request.options = query.options;
  request.shard = query.shard;
  request.deadline = query.deadline;
  request.cancel = query.cancel;
  request.trace = query.trace;

  // Executed shards: all of them, or just the hinted one. An
  // out-of-range hint leaves `selected` empty and lets Open return its
  // typed range error.
  std::vector<size_t> selected;
  if (query.shard < 0) {
    for (size_t i = 0; i < shard_count; ++i) selected.push_back(i);
  } else if (static_cast<size_t>(query.shard) < shard_count) {
    selected.push_back(static_cast<size_t>(query.shard));
  }

  // Per-shard cache keys: the shared prefix plus "/s<i>", so one plan
  // warms one entry per shard. A shard whose bundle misses looks up the
  // view's skeleton instead. Hits of either kind ride into Open, which
  // annotates a skeleton with this query's keywords; shards that miss
  // both stay null and the engine builds and evaluates their skeletons —
  // in parallel with each other.
  std::vector<std::string> keys;
  std::vector<std::string> skeleton_keys;  // empty where the bundle hit
  std::vector<std::shared_ptr<const engine::PreparedQuery>> prepared;
  keys.reserve(selected.size());
  skeleton_keys.reserve(selected.size());
  prepared.reserve(selected.size());
  std::string skeleton_base;
  for (size_t shard : selected) {
    const std::string suffix = "/s" + std::to_string(shard);
    std::string key = base + suffix;
    std::shared_ptr<const engine::PreparedQuery> entry = cache_.Get(key);
    std::string skeleton_key;
    if (entry == nullptr) {
      if (skeleton_base.empty()) {
        skeleton_base = BaseCacheKey(query.view, versions, plan.pdt_signature,
                                     /*skeleton=*/true);
      }
      skeleton_key = skeleton_base + suffix;
      entry = cache_.GetSkeleton(skeleton_key);
    }
    prepared.push_back(std::move(entry));
    keys.push_back(std::move(key));
    skeleton_keys.push_back(std::move(skeleton_key));
  }

  // The cursor co-owns each PreparedQuery: eviction (or view
  // replacement) only drops the cache's reference, never the open
  // cursor's; in live mode the corpus-version lease below completes the
  // cursor's snapshot.
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<engine::ResultCursor> cursor,
                             engine.Open(request, prepared, &plan));
  // Offer what the engine had to build to the cache, which admits an
  // entry on its second sighting: every annotated bundle that missed,
  // and the skeleton of every shard that missed both. The admission keys
  // leave the version pair out, so a plan (or a view's QPTs) seen before
  // a re-registration or a write is admitted on its first miss after it.
  // A failed or cancelled Open returned above: it publishes nothing.
  std::string admission;
  std::string skeleton_admission;
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    if (prepared[slot] != nullptr && prepared[slot]->is_bundle()) continue;
    if (admission.empty()) {
      admission = BaseCacheKey(query.view, /*versions=*/"", plan.signature);
    }
    const std::string suffix = "/s" + std::to_string(selected[slot]);
    std::shared_ptr<const engine::PreparedQuery> bundle =
        cursor->SharedPrepared(slot);
    cache_.Offer(keys[slot], std::hash<std::string>{}(admission + suffix),
                 bundle);
    if (prepared[slot] != nullptr) continue;  // the skeleton was a hit
    if (skeleton_admission.empty()) {
      skeleton_admission = BaseCacheKey(query.view, /*versions=*/"",
                                        plan.pdt_signature,
                                        /*skeleton=*/true);
    }
    cache_.Offer(skeleton_keys[slot],
                 std::hash<std::string>{}(skeleton_admission + suffix),
                 bundle->skeleton);
  }
  if (corpus != nullptr) cursor->AddLease(std::move(corpus));
  return cursor;
}

Result<engine::SearchResponse> QueryService::SearchOne(
    const BatchQuery& query) {
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<engine::ResultCursor> cursor,
                             OpenSearch(query));
  Result<engine::SearchResponse> response =
      engine::DrainToResponse(cursor.get());
  // Drained queries feed the service-lifetime stats().search aggregate.
  if (response.ok()) FoldSearchStats(cursor->stats().search);
  return response;
}

std::vector<Result<engine::SearchResponse>> QueryService::SearchBatch(
    const std::vector<BatchQuery>& queries) {
  std::vector<Result<engine::SearchResponse>> responses(
      queries.size(), Status::Internal("query not executed"));
  if (queries.empty()) return responses;

  // Per-batch completion barrier, so concurrent batches from different
  // client threads don't wait on each other's tasks. (`done` is guarded
  // by `done_mu`; they are locals captured by reference, which the
  // static analysis cannot express — the explicit while-Wait loop below
  // keeps the protocol obvious instead.)
  qv::Mutex done_mu;
  qv::CondVar done_cv;
  size_t done = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    pool_.Submit([this, &queries, &responses, &done_mu, &done_cv, &done, i] {
      // Exceptions (e.g. bad_alloc from a huge PDT build) become this
      // slot's error; the completion count must advance regardless, or
      // the batch barrier below would wait forever.
      try {
        responses[i] = SearchOne(queries[i]);
      } catch (const std::exception& e) {
        responses[i] = Status::Internal(std::string("query threw: ") +
                                        e.what());
      } catch (...) {
        responses[i] = Status::Internal("query threw a non-std exception");
      }
      qv::MutexLock lock(done_mu);
      if (++done == queries.size()) done_cv.NotifyAll();
    });
  }
  qv::MutexLock lock(done_mu);
  while (done != queries.size()) {
    done_cv.Wait(lock);
  }
  return responses;
}

void QueryService::FoldSearchStats(const engine::SearchStats& stats) {
  qv::MutexLock lock(stats_mu_);
  engine::SearchStats& sum = search_stats_;
  sum.view_results += stats.view_results;
  sum.matching_results += stats.matching_results;
  sum.pdt.ids_processed += stats.pdt.ids_processed;
  sum.pdt.nodes_emitted += stats.pdt.nodes_emitted;
  sum.pdt.peak_ct_nodes = std::max(sum.pdt.peak_ct_nodes,
                                   stats.pdt.peak_ct_nodes);
  sum.pdt.index_probes += stats.pdt.index_probes;
  sum.pdt.pdt_bytes += stats.pdt.pdt_bytes;
  sum.store_fetches += stats.store_fetches;
  sum.store_bytes += stats.store_bytes;
  sum.pages_read += stats.pages_read;
  sum.buffer_hits += stats.buffer_hits;
  sum.view_bytes += stats.view_bytes;
}

QueryService::Stats QueryService::stats() const {
  Stats out;
  out.queries = queries_.value();
  out.documents_inserted = inserts_.value();
  out.documents_removed = removes_.value();
  out.cache = cache_.stats();
  {
    qv::MutexLock lock(stats_mu_);
    out.search = search_stats_;
  }
  return out;
}

Status QueryService::RegisterMetrics(obs::MetricsRegistry* registry,
                                     obs::LabelSet labels) const {
  QV_RETURN_IF_ERROR(registry->RegisterCounter("qv_service_queries_total",
                                               labels, &queries_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter(
      "qv_service_document_inserts_total", labels, &inserts_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter(
      "qv_service_document_removes_total", labels, &removes_));
  QV_RETURN_IF_ERROR(cache_.RegisterMetrics(registry, labels));
  QV_RETURN_IF_ERROR(pool_.RegisterMetrics(registry, labels));
  if (live_ != nullptr) {
    QV_RETURN_IF_ERROR(live_->RegisterMetrics(registry, labels));
  }
  // Pools behind a packed corpus register per shard — the label keeps N
  // pools apart under one metric name (and is the worked example of the
  // registry's label-series contract); a one-shard corpus is shard="0".
  if (shards_ != nullptr) {
    for (size_t i = 0; i < shards_->size(); ++i) {
      if (shards_->shard(i).packed == nullptr) continue;
      obs::LabelSet shard_labels = labels;
      shard_labels.emplace_back("shard", std::to_string(i));
      QV_RETURN_IF_ERROR(shards_->shard(i).packed->pool().RegisterMetrics(
          registry, std::move(shard_labels)));
    }
  }
  return Status::OK();
}

}  // namespace quickview::service
