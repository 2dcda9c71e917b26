#include "engine/view_search_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "engine/result_cursor.h"
#include "qpt/generate_qpt.h"
#include "scoring/scorer.h"
#include "storage/live_database.h"
#include "storage/shard_set.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace quickview::engine {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Variable-length components are length-prefixed so the signature is
// injective: no keyword or tag content (delimiters included) can make
// two different plans collide on one cache key.
void AppendSized(const std::string& text, std::string* out) {
  out->append(std::to_string(text.size()));
  out->push_back(':');
  out->append(text);
}

void AppendQptSignature(const qpt::Qpt& qpt, std::string* out) {
  AppendSized(qpt.source_doc, out);
  for (const qpt::QptNode& node : qpt.nodes) {
    out->push_back('|');
    out->append(std::to_string(node.parent));
    out->push_back(node.parent_descendant ? 'd' : 'c');
    out->push_back(node.parent_mandatory ? 'm' : 'o');
    AppendSized(node.tag, out);
    if (node.v_ann) out->push_back('v');
    if (node.c_ann) out->push_back('c');
    for (const qpt::QptPredicate& pred : node.preds) {
      out->push_back('[');
      out->append(std::to_string(static_cast<int>(pred.op)));
      out->push_back(':');
      AppendSized(pred.literal, out);
      out->push_back(']');
    }
  }
}

Result<index::DocumentIndexView> DocumentView(
    const index::IndexSource& indexes, const std::string& doc_name) {
  std::optional<index::DocumentIndexView> view = indexes.GetView(doc_name);
  if (!view.has_value()) {
    return Status::NotFound("no indexes for document '" + doc_name + "'");
  }
  return *view;
}

// Fixed-slot completion barrier for the per-shard fan-out (the PX-style
// coordinator's result channel): each shard task fills its slot exactly
// once; the coordinator waits for all slots, HELPING the pool drain its
// queue meanwhile — the coordinator often IS a pool task (SearchBatch),
// and parking it while its own subtasks sit queued behind it would
// deadlock a saturated pool.
template <typename T>
class Gather {
 public:
  explicit Gather(size_t n) : slots_(n) {}

  void Set(size_t i, T value) {
    qv::MutexLock lock(mu_);
    slots_[i].emplace(std::move(value));
    ++done_;
    // Notify while still holding the lock: a waiter that observes
    // completion may destroy this object the instant the lock frees.
    cv_.NotifyAll();
  }

  void Wait(ThreadPool* pool) {
    if (pool != nullptr) {
      for (;;) {
        {
          qv::MutexLock lock(mu_);
          if (done_ == slots_.size()) return;
        }
        // Queue empty means every unfinished slot's task is already
        // running on some worker; safe to park on the condvar below.
        if (!pool->RunOneQueued()) break;
      }
    }
    qv::MutexLock lock(mu_);
    while (done_ < slots_.size()) cv_.Wait(lock);
  }

  /// Only after Wait returned.
  T Take(size_t i) {
    qv::MutexLock lock(mu_);
    return std::move(*slots_[i]);
  }

 private:
  qv::Mutex mu_;
  qv::CondVar cv_;
  std::vector<std::optional<T>> slots_ QV_GUARDED_BY(mu_);
  size_t done_ QV_GUARDED_BY(mu_) = 0;
};

}  // namespace

struct ViewSearchEngine::ShardEval {
  std::shared_ptr<const PreparedQuery> prepared;
  std::shared_ptr<const xml::Document> arena;  // evaluator-constructed nodes
  scoring::CandidateSet set;
  double eval_ms = 0;
  double collect_ms = 0;
};

ViewSearchEngine::ViewSearchEngine(std::vector<ShardContext> shards,
                                   ThreadPool* pool)
    : shards_(std::move(shards)), pool_(pool) {
  assert(!shards_.empty());
}

std::vector<ShardContext> ShardContexts(const storage::ShardSet& shards) {
  std::vector<ShardContext> contexts;
  contexts.reserve(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    const storage::Shard& shard = shards.shard(i);
    contexts.push_back(ShardContext{shard.database.get(), shard.index_source(),
                                    shard.store.get()});
  }
  return contexts;
}

std::vector<ShardContext> ShardContexts(
    const storage::CorpusVersion& version) {
  return {ShardContext{&version.database, &version.indexes, &version.store}};
}

std::string PdtSignature(const std::vector<qpt::Qpt>& qpts) {
  std::string signature;
  for (const qpt::Qpt& qpt : qpts) {
    AppendQptSignature(qpt, &signature);
    signature.push_back('\x1e');
  }
  return signature;
}

std::string PlanSignature(const std::vector<qpt::Qpt>& qpts,
                          const std::vector<std::string>& keywords,
                          bool conjunctive) {
  std::string signature = PdtSignature(qpts);
  signature.push_back(conjunctive ? '&' : '!');
  for (const std::string& keyword : keywords) {
    signature.push_back('\x1f');
    AppendSized(keyword, &signature);
  }
  return signature;
}

std::string ComposeKeywordQuery(const std::string& view_text,
                                const std::vector<std::string>& keywords,
                                bool conjunctive) {
  std::string query = "let $view := " + view_text + "\nfor $qv in $view\n";
  query += "where $qv ftcontains(";
  for (size_t i = 0; i < keywords.size(); ++i) {
    if (i > 0) query += conjunctive ? " & " : " | ";
    query += "'" + AsciiToLower(keywords[i]) + "'";
  }
  query += ")\nreturn $qv";
  return query;
}

Result<QueryPlan> ViewSearchEngine::PlanQuery(const std::string& query) const {
  Clock::time_point start = Clock::now();
  QueryPlan plan;
  QUICKVIEW_ASSIGN_OR_RETURN(plan.kq, xquery::ParseKeywordQuery(query));
  // The grammar admits ftcontains() as a trivially-true filter, but a
  // keyword search without keywords has no scores, no idf and no ranking
  // — reject it here, where every engine and service entry point passes.
  if (plan.kq.keywords.empty()) {
    return Status::InvalidArgument(
        "keyword query has an empty keyword list: ftcontains() needs at "
        "least one keyword to rank by");
  }
  // QPT generation rewrites doc names in kq.view to the PDT occurrence
  // names; after this the plan's view only makes sense over the PDTs.
  QUICKVIEW_ASSIGN_OR_RETURN(plan.qpts, qpt::GenerateQpts(&plan.kq.view));
  plan.signature =
      PlanSignature(plan.qpts, plan.kq.keywords, plan.kq.conjunctive);
  plan.pdt_signature = PdtSignature(plan.qpts);
  plan.qpt_ms = MsSince(start);
  return plan;
}

Result<std::shared_ptr<const PreparedQuery>> ViewSearchEngine::BuildPdts(
    QueryPlan plan, int shard) const {
  return BuildPdtsImpl(std::move(plan), shard, /*skeleton=*/nullptr,
                       /*cancel=*/nullptr);
}

Result<std::shared_ptr<const PreparedQuery>> ViewSearchEngine::BuildSkeleton(
    const QueryPlan& plan, const index::IndexSource& indexes,
    const CancellationToken* cancel) const {
  Clock::time_point start = Clock::now();
  auto skeleton = std::make_shared<PreparedQuery>();
  skeleton->skeleton = true;
  skeleton->plan.pdt_signature = plan.pdt_signature;
  skeleton->pdts.reserve(plan.qpts.size());
  for (const qpt::Qpt& q : plan.qpts) {
    if (cancel != nullptr && cancel->Fired()) return cancel->ToStatus();
    QUICKVIEW_ASSIGN_OR_RETURN(index::DocumentIndexView doc_indexes,
                               DocumentView(indexes, q.source_doc));
    pdt::PdtBuildStats build_stats;
    QUICKVIEW_ASSIGN_OR_RETURN(
        std::shared_ptr<xml::Document> pdt,
        pdt::GeneratePdt(q, doc_indexes, /*keywords=*/{}, &build_stats));
    skeleton->pdt_stats.ids_processed += build_stats.ids_processed;
    skeleton->pdt_stats.nodes_emitted += build_stats.nodes_emitted;
    skeleton->pdt_stats.peak_ct_nodes += build_stats.peak_ct_nodes;
    skeleton->pdt_stats.index_probes += build_stats.index_probes;
    skeleton->pdt_stats.pdt_bytes += build_stats.pdt_bytes;
    skeleton->memory_bytes +=
        build_stats.pdt_bytes + pdt->size() * sizeof(xml::Node);
    skeleton->pdts.push_back(std::move(pdt));
  }
  skeleton->pdt_ms = MsSince(start);
  return std::shared_ptr<const PreparedQuery>(std::move(skeleton));
}

Result<std::shared_ptr<const PreparedQuery>> ViewSearchEngine::BuildPdtsImpl(
    QueryPlan plan, int shard, std::shared_ptr<const PreparedQuery> skeleton,
    const CancellationToken* cancel) const {
  if (shard < 0 || shard >= shard_count()) {
    return Status::InvalidArgument(
        "BuildPdts shard " + std::to_string(shard) +
        " out of range: engine has " + std::to_string(shard_count()) +
        " shard(s)");
  }
  const index::IndexSource& indexes =
      *shards_[static_cast<size_t>(shard)].indexes;
  Clock::time_point start = Clock::now();
  auto prepared = std::make_shared<PreparedQuery>();
  if (skeleton == nullptr) {
    QUICKVIEW_ASSIGN_OR_RETURN(skeleton,
                               BuildSkeleton(plan, indexes, cancel));
    prepared->built_skeleton = skeleton;
  } else if (skeleton->plan.pdt_signature != plan.pdt_signature) {
    return Status::InvalidArgument(
        "prepared skeleton was built for another plan's QPTs");
  }
  prepared->plan = std::move(plan);
  prepared->pdts.reserve(skeleton->pdts.size());
  for (size_t i = 0; i < skeleton->pdts.size(); ++i) {
    if (cancel != nullptr && cancel->Fired()) return cancel->ToStatus();
    QUICKVIEW_ASSIGN_OR_RETURN(
        index::DocumentIndexView doc_indexes,
        DocumentView(indexes, prepared->plan.qpts[i].source_doc));
    QUICKVIEW_ASSIGN_OR_RETURN(
        std::vector<pdt::InvList> inv_lists,
        pdt::PrepareInvLists(doc_indexes, prepared->plan.kq.keywords));
    prepared->pdts.push_back(pdt::AnnotatePdt(skeleton->pdts[i], inv_lists));
  }
  prepared->pdt_stats = skeleton->pdt_stats;
  prepared->memory_bytes = skeleton->memory_bytes;
  prepared->pdt_ms = MsSince(start);
  return std::shared_ptr<const PreparedQuery>(std::move(prepared));
}

Result<ViewSearchEngine::ShardEval> ViewSearchEngine::EvaluateShard(
    size_t shard, std::shared_ptr<const PreparedQuery> prepared,
    const CancellationToken* cancel) const {
  ShardEval eval;
  eval.prepared = std::move(prepared);
  const QueryPlan& plan = eval.prepared->plan;

  // --- Evaluate the rewritten query over this shard's PDTs ---
  Clock::time_point start = Clock::now();
  xquery::Evaluator evaluator(shards_[shard].database);
  for (size_t i = 0; i < plan.qpts.size(); ++i) {
    evaluator.OverrideDocument(plan.qpts[i].occurrence_name,
                               eval.prepared->pdts[i].get());
  }
  QUICKVIEW_ASSIGN_OR_RETURN(xquery::Sequence view_results,
                             evaluator.Evaluate(plan.kq.view));
  // Constructed elements live in the evaluator's arena; the candidates
  // reference it, so the eval (and later the cursor) takes shared
  // ownership.
  eval.arena = evaluator.result_doc_shared();
  eval.eval_ms = MsSince(start);

  // --- Collect raw keyword statistics (phase 1 of the phased scorer;
  // idf needs the whole corpus, so scoring waits for every shard) ---
  start = Clock::now();
  QUICKVIEW_ASSIGN_OR_RETURN(
      eval.set,
      scoring::CollectCandidates(view_results, plan.kq.keywords, cancel));
  eval.collect_ms = MsSince(start);
  return eval;
}

Result<std::unique_ptr<ResultCursor>> ViewSearchEngine::FinalizeCursor(
    std::vector<ShardEval> evals, const std::vector<size_t>& shard_ids,
    size_t top_k, std::shared_ptr<CancellationToken> token,
    std::shared_ptr<obs::Trace> trace,
    std::vector<obs::TraceSpan*> shard_spans) const {
  Clock::time_point start = Clock::now();
  obs::SpanScope merge_span(trace.get(), "merge");
  auto cursor = std::unique_ptr<ResultCursor>(new ResultCursor());
  cursor->cancel_ = std::move(token);
  cursor->limit_ = top_k;
  cursor->trace_ = std::move(trace);
  shard_spans.resize(evals.size(), nullptr);

  // The plan is identical across shards (same text, deterministic
  // planner); read query-level facts from the first one.
  const QueryPlan& plan = evals[0].prepared->plan;

  // --- Global idf: integer counts summed across shards, divided once —
  // bit-identical to scoring the concatenated view in a single pass ---
  uint64_t total_candidates = 0;
  std::vector<uint64_t> df(plan.kq.keywords.size(), 0);
  double collect_ms_max = 0;
  for (const ShardEval& eval : evals) {
    total_candidates += eval.set.candidates.size();
    scoring::AccumulateDf(eval.set, &df);
    collect_ms_max = std::max(collect_ms_max, eval.collect_ms);
  }
  const std::vector<double> idf = scoring::ComputeIdf(total_candidates, df);
  merge_span.AddCounter("candidates", total_candidates);
  merge_span.AddCounter("streams", evals.size());

  EngineStats& stats = cursor->stats_;
  const CancellationToken* cancel =
      cursor->cancel_ == nullptr ? nullptr : cursor->cancel_.get();
  for (size_t p = 0; p < evals.size(); ++p) {
    ShardEval& eval = evals[p];
    QUICKVIEW_ASSIGN_OR_RETURN(
        std::vector<scoring::ScoredResult> kept,
        scoring::FilterAndScore(std::move(eval.set.candidates), idf,
                                plan.kq.conjunctive, cancel));

    ShardStats shard_stats;
    shard_stats.shard = static_cast<int>(shard_ids[p]);
    shard_stats.view_results = eval.set.sequence_size;
    shard_stats.matching_results = kept.size();
    shard_stats.pdt_ms = eval.prepared->pdt_ms;
    shard_stats.eval_ms = eval.eval_ms;
    stats.shards.push_back(shard_stats);
    // The shard span absorbs the shard's pipeline counters; later,
    // FetchNext attributes materialization I/O back to it too, so a
    // counter summed over the shard spans always equals the
    // corresponding stats().search total.
    if (shard_spans[p] != nullptr) {
      shard_spans[p]->AddCounter("view_results", eval.set.sequence_size);
      shard_spans[p]->AddCounter("matching_results", kept.size());
      shard_spans[p]->AddCounter("pdt_bytes",
                                 eval.prepared->pdt_stats.pdt_bytes);
      shard_spans[p]->AddCounter("view_bytes", eval.set.view_bytes);
    }

    stats.search.view_results += eval.set.sequence_size;
    stats.search.matching_results += kept.size();
    stats.search.view_bytes += eval.set.view_bytes;
    const pdt::PdtBuildStats& pdt_stats = eval.prepared->pdt_stats;
    stats.search.pdt.ids_processed += pdt_stats.ids_processed;
    stats.search.pdt.nodes_emitted += pdt_stats.nodes_emitted;
    stats.search.pdt.peak_ct_nodes += pdt_stats.peak_ct_nodes;
    stats.search.pdt.index_probes += pdt_stats.index_probes;
    stats.search.pdt.pdt_bytes += pdt_stats.pdt_bytes;
    // Fig-14 wall clock: parallel stages report the slowest shard.
    stats.timings.qpt_ms =
        std::max(stats.timings.qpt_ms, eval.prepared->plan.qpt_ms);
    stats.timings.pdt_ms =
        std::max(stats.timings.pdt_ms, eval.prepared->pdt_ms);
    stats.timings.eval_ms = std::max(stats.timings.eval_ms, eval.eval_ms);

    // Per-shard lazily-heapified stream; the merged frontier pops across
    // them in global (score desc, shard asc, position asc) order.
    RankedStream stream;
    stream.Reserve(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) stream.Push(kept[i].score, i);
    cursor->stream_.AddShard(std::move(stream));

    ResultCursor::Slice slice;
    slice.prepared = std::move(eval.prepared);
    slice.arena = std::move(eval.arena);
    slice.store = shards_[shard_ids[p]].store;
    slice.candidates = std::move(kept);
    slice.span = shard_spans[p];
    cursor->slices_.push_back(std::move(slice));
  }
  merge_span.AddCounter("matching_results", stats.search.matching_results);
  stats.timings.post_ms += collect_ms_max + MsSince(start);
  return cursor;
}

Result<std::unique_ptr<ResultCursor>> ViewSearchEngine::Open(
    const SearchRequest& request) const {
  return Open(request, {});
}

Result<std::unique_ptr<ResultCursor>> ViewSearchEngine::Open(
    const SearchRequest& request,
    std::vector<std::shared_ptr<const PreparedQuery>> prepared) const {
  QV_RETURN_IF_ERROR(request.Validate());
  if (request.shard >= shard_count()) {
    return Status::InvalidArgument(
        "shard hint " + std::to_string(request.shard) +
        " out of range: engine has " + std::to_string(shard_count()) +
        " shard(s)");
  }
  std::vector<size_t> selected;
  if (request.shard >= 0) {
    selected.push_back(static_cast<size_t>(request.shard));
  } else {
    for (size_t i = 0; i < shards_.size(); ++i) selected.push_back(i);
  }
  if (!prepared.empty() && prepared.size() != selected.size()) {
    return Status::InvalidArgument(
        "prepared-query vector must have one entry per executed shard (" +
        std::to_string(selected.size()) + "), got " +
        std::to_string(prepared.size()));
  }

  std::shared_ptr<CancellationToken> token = request.cancel;
  if (token == nullptr) token = std::make_shared<CancellationToken>();
  if (request.deadline.has_value()) {
    token->SetDeadline(Clock::now() + *request.deadline);
  }

  const std::string query_text =
      !request.query.empty()
          ? request.query
          : ComposeKeywordQuery(request.view, request.keywords,
                                request.options.conjunctive);

  // --- Fan out: per-shard plan/PDT/eval/collect tasks ---
  const size_t n = selected.size();
  // Shard spans are pre-created here, in shard order, on the
  // coordinator: sibling order under the root is then deterministic no
  // matter how the shard tasks interleave, and a span's start time
  // includes its task's queue wait (fan-out skew is visible in the
  // flame view). Child spans are created inside the owning task —
  // StartSpan is the one thread-safe trace operation, by design.
  obs::Trace* const trace = request.trace.get();
  std::vector<obs::TraceSpan*> shard_spans(n, nullptr);
  if (trace != nullptr) {
    for (size_t slot = 0; slot < n; ++slot) {
      shard_spans[slot] = trace->StartSpan(
          "shard", nullptr, static_cast<int>(selected[slot]));
    }
  }
  Gather<Result<ShardEval>> gather(n);
  auto run_shard = [&](size_t slot) -> Result<ShardEval> {
    const size_t shard = selected[slot];
    obs::TraceSpan* const shard_span = shard_spans[slot];
    if (token->Fired()) return token->ToStatus();
    std::shared_ptr<const PreparedQuery> pq =
        slot < prepared.size() ? prepared[slot] : nullptr;
    if (pq == nullptr || pq->skeleton) {
      // Parsing is query-proportional and deterministic, so each shard
      // re-plans from the same text instead of sharing one move-only
      // plan: every PreparedQuery stays self-contained for the caches.
      QueryPlan plan;
      {
        obs::SpanScope plan_span(trace, "plan", shard_span,
                                 static_cast<int>(shard));
        QUICKVIEW_ASSIGN_OR_RETURN(plan, PlanQuery(query_text));
        plan_span.AddCounter("keywords", plan.kq.keywords.size());
        plan_span.AddCounter("qpts", plan.qpts.size());
      }
      obs::SpanScope build_span(trace, "build_pdts", shard_span,
                                static_cast<int>(shard));
      build_span.AddCounter("skeleton_hit", pq != nullptr ? 1 : 0);
      QUICKVIEW_ASSIGN_OR_RETURN(
          pq, BuildPdtsImpl(std::move(plan), static_cast<int>(shard),
                            std::move(pq), token.get()));
      build_span.AddCounter("ids_processed", pq->pdt_stats.ids_processed);
      build_span.AddCounter("nodes_emitted", pq->pdt_stats.nodes_emitted);
      build_span.AddCounter("index_probes", pq->pdt_stats.index_probes);
      build_span.AddCounter("pdt_bytes", pq->pdt_stats.pdt_bytes);
    }
    obs::SpanScope eval_span(trace, "evaluate", shard_span,
                             static_cast<int>(shard));
    Result<ShardEval> eval = EvaluateShard(shard, std::move(pq), token.get());
    if (eval.ok()) {
      eval_span.AddCounter("view_results", eval.value().set.sequence_size);
      eval_span.AddCounter("candidates", eval.value().set.candidates.size());
    }
    return eval;
  };
  auto run_into_slot = [&](size_t slot) {
    Result<ShardEval> result = run_shard(slot);
    if (shard_spans[slot] != nullptr) shard_spans[slot]->Close();
    if (!result.ok() && result.status().code() != StatusCode::kCancelled &&
        result.status().code() != StatusCode::kDeadlineExceeded) {
      token->Cancel();  // fail fast: stop the sibling shards
    }
    gather.Set(slot, std::move(result));
  };
  const bool parallel = pool_ != nullptr && n > 1;
  for (size_t slot = 0; slot < n; ++slot) {
    if (parallel) {
      pool_->Submit([&run_into_slot, slot] { run_into_slot(slot); });
    } else {
      run_into_slot(slot);
    }
  }
  // The barrier. After this no shard task is queued or running.
  gather.Wait(parallel ? pool_ : nullptr);

  // --- Fold per-shard outcomes into one typed status: the first REAL
  // shard error wins (annotated with its shard); Cancelled /
  // DeadlineExceeded only surface when nothing harder caused them ---
  std::vector<Result<ShardEval>> results;
  results.reserve(n);
  for (size_t slot = 0; slot < n; ++slot) {
    results.push_back(gather.Take(slot));
  }
  for (size_t slot = 0; slot < n; ++slot) {
    const Status& status = results[slot].status();
    if (status.ok() || status.code() == StatusCode::kCancelled ||
        status.code() == StatusCode::kDeadlineExceeded) {
      continue;
    }
    if (shards_.size() > 1) {
      return Status(status.code(),
                    "shard " + std::to_string(selected[slot]) + ": " +
                        status.message());
    }
    return status;
  }
  for (size_t slot = 0; slot < n; ++slot) {
    if (!results[slot].ok()) return results[slot].status();
  }

  std::vector<ShardEval> evals;
  evals.reserve(n);
  for (size_t slot = 0; slot < n; ++slot) {
    evals.push_back(std::move(results[slot]).value());
  }
  return FinalizeCursor(std::move(evals), selected, request.options.top_k,
                        std::move(token), request.trace,
                        std::move(shard_spans));
}

Result<SearchResponse> ViewSearchEngine::Execute(
    const SearchRequest& request) const {
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<ResultCursor> cursor,
                             Open(request));
  return DrainToResponse(cursor.get());
}

}  // namespace quickview::engine
