#include "engine/view_search_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "engine/result_cursor.h"
#include "qpt/generate_qpt.h"
#include "scoring/scorer.h"
#include "storage/live_database.h"
#include "storage/shard_set.h"
#include "xml/serializer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace quickview::engine {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
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

// Approximate heap footprint of an evaluated view, for cache budgets.
uint64_t FootprintBytes(const EvaluatedView& view) {
  uint64_t bytes = view.arena->size() * sizeof(xml::Node);
  for (xml::NodeIndex i = 0; i < view.arena->size(); ++i) {
    bytes += xml::OwnByteLength(view.arena->node(i));
  }
  const scoring::ViewStatistics& statistics = view.statistics;
  bytes += statistics.candidates.size() *
               sizeof(scoring::ViewStatistics::Candidate) +
           statistics.content_refs.size() * sizeof(uint32_t);
  for (const auto& [term, postings] : statistics.direct_terms) {
    bytes += sizeof(*statistics.direct_terms.begin()) + term.size() +
             postings.size() * sizeof(postings[0]);
  }
  return bytes;
}

// A bundle of `skeleton` for the keyword set of `facts` (a plan or a
// bundle's plan facts), holding its term frequencies `tf`.
std::shared_ptr<PreparedQuery> NewBundle(
    const QueryPlan& facts, std::shared_ptr<const PreparedQuery> skeleton,
    std::vector<uint64_t> tf) {
  auto bundle = std::make_shared<PreparedQuery>();
  bundle->plan.kq.keywords = facts.kq.keywords;
  bundle->plan.kq.conjunctive = facts.kq.conjunctive;
  bundle->plan.signature = facts.signature;
  bundle->plan.pdt_signature = facts.pdt_signature;
  bundle->plan.qpt_ms = facts.qpt_ms;
  bundle->tf = std::move(tf);
  bundle->pdt_stats = skeleton->pdt_stats;
  bundle->memory_bytes = bundle->tf.size() * sizeof(uint64_t);
  bundle->skeleton = std::move(skeleton);
  return bundle;
}

void CountBuild(obs::SpanScope* span, const pdt::PdtBuildStats& stats) {
  span->AddCounter("ids_processed", stats.ids_processed);
  span->AddCounter("nodes_emitted", stats.nodes_emitted);
  span->AddCounter("index_probes", stats.index_probes);
  span->AddCounter("pdt_bytes", stats.pdt_bytes);
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
  /// A bundle, or caller-built PDTs; the cursor keeps it alive.
  std::shared_ptr<const PreparedQuery> prepared;
  /// Caller-built PDTs only: this request's evaluator arena.
  std::shared_ptr<const xml::Document> arena;
  /// The candidates and their term frequencies: a bundle's (aliasing
  /// `prepared`), or those collected over caller-built PDTs.
  std::shared_ptr<const scoring::ViewStatistics> statistics;
  std::shared_ptr<const std::vector<uint64_t>> tf;
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
  if (shard < 0 || shard >= shard_count()) {
    return Status::InvalidArgument(
        "BuildPdts shard " + std::to_string(shard) +
        " out of range: engine has " + std::to_string(shard_count()) +
        " shard(s)");
  }
  const size_t s = static_cast<size_t>(shard);
  QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<PreparedQuery> skeleton,
                             BuildSkeletonPdts(std::move(plan), s, nullptr));
  QV_RETURN_IF_ERROR(EvaluateSkeleton(s, skeleton.get(), nullptr));
  QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<PreparedQuery> bundle,
                             Annotate(skeleton, skeleton->plan, s, nullptr));
  bundle->pdt_ms += skeleton->pdt_ms;
  return std::shared_ptr<const PreparedQuery>(std::move(bundle));
}

Result<std::shared_ptr<PreparedQuery>> ViewSearchEngine::BuildSkeletonPdts(
    QueryPlan plan, size_t shard, const CancellationToken* cancel) const {
  Clock::time_point start = Clock::now();
  const index::IndexSource& indexes = *shards_[shard].indexes;
  auto skeleton = std::make_shared<PreparedQuery>();
  skeleton->plan = std::move(plan);
  skeleton->pdts.reserve(skeleton->plan.qpts.size());
  for (const qpt::Qpt& q : skeleton->plan.qpts) {
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
  return skeleton;
}

Status ViewSearchEngine::EvaluateSkeleton(
    size_t shard, PreparedQuery* skeleton,
    const CancellationToken* cancel) const {
  const QueryPlan& plan = skeleton->plan;
  xquery::Evaluator evaluator(shards_[shard].database);
  // Every 'c' node of every PDT, numbered in PDT order and node order:
  // the order Annotate lists their term frequencies in.
  std::unordered_map<const xml::NodeStats*, uint32_t> content_ordinals;
  for (size_t i = 0; i < plan.qpts.size(); ++i) {
    const xml::Document& pdt = *skeleton->pdts[i];
    evaluator.OverrideDocument(plan.qpts[i].occurrence_name, &pdt);
    for (xml::NodeIndex n = 0; n < pdt.size(); ++n) {
      if (pdt.node(n).stats == nullptr) continue;
      const uint32_t ordinal = static_cast<uint32_t>(content_ordinals.size());
      content_ordinals.emplace(pdt.node(n).stats.get(), ordinal);
    }
  }
  QUICKVIEW_ASSIGN_OR_RETURN(xquery::Sequence view_results,
                             evaluator.Evaluate(plan.kq.view));
  EvaluatedView view;
  view.arena = evaluator.result_doc_shared();
  QUICKVIEW_ASSIGN_OR_RETURN(
      view.statistics,
      scoring::CollectViewStatistics(view_results, content_ordinals, cancel));
  skeleton->memory_bytes += FootprintBytes(view);
  skeleton->view = std::move(view);
  return Status::OK();
}

Result<std::shared_ptr<PreparedQuery>> ViewSearchEngine::Annotate(
    std::shared_ptr<const PreparedQuery> skeleton, const QueryPlan& facts,
    size_t shard, const CancellationToken* cancel) const {
  if (skeleton->plan.pdt_signature != facts.pdt_signature) {
    return Status::InvalidArgument(
        "prepared skeleton was built for another plan's QPTs");
  }
  Clock::time_point start = Clock::now();
  const index::IndexSource& indexes = *shards_[shard].indexes;
  const std::vector<std::string>& keywords = facts.kq.keywords;
  std::vector<uint32_t> content_tf;
  for (size_t i = 0; i < skeleton->pdts.size(); ++i) {
    if (cancel != nullptr && cancel->Fired()) return cancel->ToStatus();
    QUICKVIEW_ASSIGN_OR_RETURN(
        index::DocumentIndexView doc_indexes,
        DocumentView(indexes, skeleton->plan.qpts[i].source_doc));
    QUICKVIEW_ASSIGN_OR_RETURN(std::vector<pdt::InvList> inv_lists,
                               pdt::PrepareInvLists(doc_indexes, keywords));
    std::vector<uint32_t> pdt_tf =
        pdt::ContentTermFrequencies(*skeleton->pdts[i], inv_lists);
    content_tf.insert(content_tf.end(), pdt_tf.begin(), pdt_tf.end());
  }
  std::vector<uint64_t> tf = scoring::TermFrequencies(
      skeleton->view->statistics, keywords, content_tf);
  std::shared_ptr<PreparedQuery> bundle =
      NewBundle(facts, std::move(skeleton), std::move(tf));
  bundle->pdt_ms = MsSince(start);
  return bundle;
}

std::shared_ptr<const PreparedQuery> RebindBundle(
    const PreparedQuery& bundle,
    std::shared_ptr<const PreparedQuery> skeleton) {
  std::shared_ptr<PreparedQuery> rebound =
      NewBundle(bundle.plan, std::move(skeleton), bundle.tf);
  rebound->pdt_ms = bundle.pdt_ms;
  return rebound;
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
  // idf needs the whole corpus, so scoring waits for every shard), laid
  // out as a bundle's are ---
  start = Clock::now();
  auto statistics = std::make_shared<scoring::ViewStatistics>();
  auto tf = std::make_shared<std::vector<uint64_t>>();
  QV_RETURN_IF_ERROR(scoring::CollectCandidates(
      view_results, plan.kq.keywords, statistics.get(), tf.get(), cancel));
  eval.statistics = std::move(statistics);
  eval.tf = std::move(tf);
  eval.collect_ms = MsSince(start);
  return eval;
}

Result<std::unique_ptr<ResultCursor>> ViewSearchEngine::FinalizeCursor(
    std::vector<ShardEval> evals, size_t top_k,
    std::shared_ptr<CancellationToken> token,
    std::shared_ptr<obs::Trace> trace,
    std::vector<obs::TraceSpan*> shard_spans) const {
  Clock::time_point start = Clock::now();
  obs::SpanScope merge_span(trace.get(), "merge", nullptr, -1, start);
  auto cursor = std::unique_ptr<ResultCursor>(new ResultCursor());
  cursor->cancel_ = std::move(token);
  cursor->limit_ = top_k;
  cursor->trace_ = std::move(trace);

  // The plan is identical across shards (same text, deterministic
  // planner); read query-level facts from the first one.
  const QueryPlan& plan = evals[0].prepared->plan;

  // --- Global idf: integer counts summed across shards, divided once —
  // bit-identical to scoring the concatenated view in a single pass ---
  uint64_t total_candidates = 0;
  std::vector<uint64_t> df(plan.kq.keywords.size(), 0);
  double collect_ms_max = 0;
  for (const ShardEval& eval : evals) {
    total_candidates += eval.statistics->candidates.size();
    scoring::AccumulateDf(*eval.tf, &df);
    collect_ms_max = std::max(collect_ms_max, eval.collect_ms);
  }
  const std::vector<double> idf = scoring::ComputeIdf(total_candidates, df);
  merge_span.AddCounter("candidates", total_candidates);
  merge_span.AddCounter("streams", evals.size());

  EngineStats& stats = cursor->stats_;
  std::vector<scoring::ScoredResult>& candidates = cursor->candidates_;
  for (size_t shard = 0; shard < evals.size(); ++shard) {
    ShardEval& eval = evals[shard];
    const scoring::ViewStatistics& view = *eval.statistics;
    // Each shard's survivors follow the previous shard's in `candidates`.
    const size_t begin = candidates.size();
    QV_RETURN_IF_ERROR(scoring::FilterAndScore(view, *eval.tf, idf,
                                               plan.kq.conjunctive,
                                               &candidates,
                                               cursor->cancel_.get()));
    const size_t matching = candidates.size() - begin;

    ShardStats shard_stats;
    shard_stats.view_results = view.sequence_size;
    shard_stats.matching_results = matching;
    shard_stats.pdt_ms = eval.prepared->pdt_ms;
    shard_stats.eval_ms = eval.eval_ms;
    stats.shards.push_back(shard_stats);
    // The shard span absorbs the shard's pipeline counters; later,
    // FetchNext attributes materialization I/O back to it too, so a
    // counter summed over the shard spans always equals the
    // corresponding stats().search total.
    if (shard_spans[shard] != nullptr) {
      shard_spans[shard]->AddCounter("view_results", view.sequence_size);
      shard_spans[shard]->AddCounter("matching_results", matching);
      shard_spans[shard]->AddCounter("pdt_bytes",
                                     eval.prepared->pdt_stats.pdt_bytes);
      shard_spans[shard]->AddCounter("view_bytes", view.view_bytes);
    }

    stats.search.view_results += view.sequence_size;
    stats.search.matching_results += matching;
    stats.search.view_bytes += view.view_bytes;
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

    ResultCursor::Slice slice;
    slice.prepared = std::move(eval.prepared);
    slice.arena = std::move(eval.arena);
    slice.store = shards_[shard].store;
    slice.end = candidates.size();
    slice.span = shard_spans[shard];
    cursor->slices_.push_back(std::move(slice));
  }
  // One stream over positions numbered shard by shard: equal scores pop
  // by shard, then by view position — global view order under the
  // ordered contiguous partition.
  cursor->stream_.Reserve(candidates.size());
  for (size_t position = 0; position < candidates.size(); ++position) {
    cursor->stream_.Push(candidates[position].score, position);
  }
  merge_span.AddCounter("matching_results", stats.search.matching_results);
  const Clock::time_point end = Clock::now();
  stats.timings.post_ms += collect_ms_max + MsBetween(start, end);
  merge_span.CloseAt(end);
  return cursor;
}

Result<std::unique_ptr<ResultCursor>> ViewSearchEngine::Open(
    const SearchRequest& request) const {
  return Open(request, {});
}

Result<std::unique_ptr<ResultCursor>> ViewSearchEngine::Open(
    const SearchRequest& request,
    std::vector<std::shared_ptr<const PreparedQuery>> prepared,
    const QueryPlan* plan) const {
  QV_RETURN_IF_ERROR(request.Validate());
  const size_t n = shards_.size();
  if (!prepared.empty() && prepared.size() != n) {
    return Status::InvalidArgument(
        "prepared-query vector must have one entry per shard (" +
        std::to_string(n) + "), got " + std::to_string(prepared.size()));
  }

  std::shared_ptr<CancellationToken> token = request.cancel;
  if (token == nullptr) token = std::make_shared<CancellationToken>();
  if (request.deadline.has_value()) {
    token->SetDeadline(Clock::now() + *request.deadline);
  }

  const std::string query_text = ComposeKeywordQuery(
      request.view, request.keywords, request.options.conjunctive);

  // --- Fan out: per-shard plan/PDT/eval/collect tasks ---
  // Shard spans are pre-created here, in shard order, on the
  // coordinator: sibling order under the root is then deterministic no
  // matter how the shard tasks interleave, and a span's start time
  // includes its task's queue wait (fan-out skew is visible in the
  // flame view). Child spans are created inside the owning task —
  // StartSpan is the one thread-safe trace operation, by design.
  obs::Trace* const trace = request.trace.get();
  std::vector<obs::TraceSpan*> shard_spans(n, nullptr);
  if (trace != nullptr) {
    const Clock::time_point fan_out = Clock::now();
    for (size_t shard = 0; shard < n; ++shard) {
      shard_spans[shard] = trace->StartSpanAt(
          "shard", nullptr, static_cast<int>(shard), fan_out);
    }
  }
  Gather<Result<ShardEval>> gather(n);
  auto run_shard = [&](size_t shard) -> Result<ShardEval> {
    const int shard_id = static_cast<int>(shard);
    obs::TraceSpan* const shard_span = shard_spans[shard];
    if (token->Fired()) return token->ToStatus();
    std::shared_ptr<const PreparedQuery> pq =
        prepared.empty() ? nullptr : prepared[shard];
    // A skeleton this task builds: its PDTs here, its view below.
    std::shared_ptr<PreparedQuery> built;
    if (pq == nullptr) {
      // The skeleton owns its plan, so this shard plans its own.
      QueryPlan shard_plan;
      {
        obs::SpanScope plan_span(trace, "plan", shard_span, shard_id);
        QUICKVIEW_ASSIGN_OR_RETURN(shard_plan, PlanQuery(query_text));
        plan_span.AddCounter("keywords", shard_plan.kq.keywords.size());
        plan_span.AddCounter("qpts", shard_plan.qpts.size());
      }
      obs::SpanScope build_span(trace, "build_pdts", shard_span, shard_id);
      build_span.AddCounter("skeleton_hit", 0);
      QUICKVIEW_ASSIGN_OR_RETURN(
          built, BuildSkeletonPdts(std::move(shard_plan), shard, token.get()));
      CountBuild(&build_span, built->pdt_stats);
    } else if (pq->is_skeleton()) {
      // Annotated with the request's keyword set, from the caller's plan.
      if (plan == nullptr) {
        return Status::InvalidArgument(
            "a prepared skeleton needs the request's plan");
      }
      obs::SpanScope build_span(trace, "build_pdts", shard_span, shard_id);
      build_span.AddCounter("skeleton_hit", 1);
      QUICKVIEW_ASSIGN_OR_RETURN(
          pq, Annotate(std::move(pq), *plan, shard, token.get()));
      CountBuild(&build_span, pq->pdt_stats);
    }
    // Only a skeleton built here or caller-built PDTs run the evaluator;
    // a bundle's candidates are its skeleton's, scored with its tf.
    const bool evaluates = built != nullptr || !pq->is_bundle();
    const Clock::time_point start = Clock::now();
    obs::SpanScope eval_span(trace, "evaluate", shard_span, shard_id, start);
    if (built != nullptr) {
      QV_RETURN_IF_ERROR(EvaluateSkeleton(shard, built.get(), token.get()));
      QUICKVIEW_ASSIGN_OR_RETURN(
          std::shared_ptr<PreparedQuery> bundle,
          Annotate(built, built->plan, shard, token.get()));
      bundle->pdt_ms += built->pdt_ms;
      pq = std::move(bundle);
    }
    ShardEval eval;
    if (pq->is_bundle()) {
      eval.statistics = std::shared_ptr<const scoring::ViewStatistics>(
          pq, &pq->skeleton->view->statistics);
      eval.tf = std::shared_ptr<const std::vector<uint64_t>>(pq, &pq->tf);
      eval.prepared = std::move(pq);
    } else {
      QUICKVIEW_ASSIGN_OR_RETURN(
          eval, EvaluateShard(shard, std::move(pq), token.get()));
    }
    const Clock::time_point end = Clock::now();
    if (eval.prepared->is_bundle()) eval.eval_ms = MsBetween(start, end);
    eval_span.AddCounter("view_results", eval.statistics->sequence_size);
    eval_span.AddCounter("candidates", eval.statistics->candidates.size());
    eval_span.AddCounter("view_evaluations", evaluates ? 1 : 0);
    eval_span.CloseAt(end);
    if (shard_span != nullptr) shard_span->CloseAt(end);
    return eval;
  };
  auto run_into_slot = [&](size_t shard) {
    Result<ShardEval> result = run_shard(shard);
    if (!result.ok()) {
      if (shard_spans[shard] != nullptr) shard_spans[shard]->Close();
      if (result.status().code() != StatusCode::kCancelled &&
          result.status().code() != StatusCode::kDeadlineExceeded) {
        token->Cancel();  // fail fast: stop the sibling shards
      }
    }
    gather.Set(shard, std::move(result));
  };
  const bool parallel = pool_ != nullptr && n > 1;
  for (size_t shard = 0; shard < n; ++shard) {
    if (parallel) {
      pool_->Submit([&run_into_slot, shard] { run_into_slot(shard); });
    } else {
      run_into_slot(shard);
    }
  }
  // The barrier. After this no shard task is queued or running.
  gather.Wait(parallel ? pool_ : nullptr);

  // --- Fold per-shard outcomes into one typed status: the first REAL
  // shard error wins (annotated with its shard); Cancelled /
  // DeadlineExceeded only surface when nothing harder caused them ---
  std::vector<Result<ShardEval>> results;
  results.reserve(n);
  for (size_t shard = 0; shard < n; ++shard) {
    results.push_back(gather.Take(shard));
  }
  for (size_t shard = 0; shard < n; ++shard) {
    const Status& status = results[shard].status();
    if (status.ok() || status.code() == StatusCode::kCancelled ||
        status.code() == StatusCode::kDeadlineExceeded) {
      continue;
    }
    if (n > 1) {
      return Status(status.code(), "shard " + std::to_string(shard) + ": " +
                                       status.message());
    }
    return status;
  }
  for (size_t shard = 0; shard < n; ++shard) {
    if (!results[shard].ok()) return results[shard].status();
  }

  std::vector<ShardEval> evals;
  evals.reserve(n);
  for (size_t shard = 0; shard < n; ++shard) {
    evals.push_back(std::move(results[shard]).value());
  }
  return FinalizeCursor(std::move(evals), request.options.top_k,
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
