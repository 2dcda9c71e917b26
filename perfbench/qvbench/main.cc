// qvbench: the compiled half of the end-to-end serving benchmark
// (perfbench/run.py drives it).
//
//   qvbench gen   --workload W --seed S --out DIR
//       Writes the seeded corpus (XML files) and view texts into DIR and
//       prints their digest.
//   qvbench ready --workload W --port P --dir DIR
//       Registers DIR's views with a running quickview_server and sends
//       one Search: the end of the set-up the benchmark times.
//   qvbench drive --workload W --seed S --seconds T --trace 0|1
//       --port P --server-pid PID --setup DIR --work DIR --ready-sent N
//       --out FILE [--wal PATH] [--spans FILE] [--inject response|wal]
//       Drives the workload over loopback, reads the server's Stats RPC
//       and metrics text, checks every answer against the in-process
//       replay (and, for live_ingest, the WAL against the acknowledged
//       writes), and with --trace 1 replays the requests in-process
//       under spans for the per-layer metrics. Writes a JSON report.
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pagestore/delta_log.h"
#include "pagestore/shard_pack.h"
#include "pagestore/wal.h"
#include "qvbench/answers.h"
#include "qvbench/inputs.h"
#include "qvbench/loadgen.h"
#include "qvbench/replay.h"
#include "qvbench/spans.h"
#include "common/sync.h"
#include "server/client.h"
#include "storage/persistence.h"

namespace qvbench {
namespace {

using namespace quickview;

// ---------------------------------------------------------------------------
// Small helpers.

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "qvbench: %s\n", message.c_str());
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sums every sample line of a Prometheus exposition by metric name
/// (labels dropped, so per-shard series add up).
std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t name_end = line.find_first_of("{ ");
    size_t value_start = line.rfind(' ');
    if (name_end == std::string::npos || value_start == std::string::npos) {
      continue;
    }
    out[line.substr(0, name_end)] += std::atof(line.c_str() + value_start + 1);
  }
  return out;
}

/// The report drive writes: metrics plus the output-check verdicts.
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;
  std::vector<std::string> failures;  // output-check failures
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Timing(const std::string& name, const std::vector<double>& values) {
    metrics[name + ".p50"] = Percentile(values, 0.50);
    metrics[name + ".p99"] = Percentile(values, 0.99);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  std::string ToJson() const {
    std::string out = "{\"correct\": ";
    out += failures.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i) {
      out += (i ? ", " : "") + JsonString(failures[i]);
    }
    out += "], \"info\": {";
    bool first = true;
    for (const auto& [key, value] : info) {
      out += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
      first = false;
    }
    out += "}, \"metrics\": {";
    first = true;
    for (const auto& [key, value] : metrics) {
      out += (first ? "" : ", ") + JsonString(key) + ": " + JsonNumber(value);
      first = false;
    }
    return out + "}}";
  }
};

std::string ReadKey(const Request& request) {
  std::string key = std::to_string(request.view) + "|" +
                    std::to_string(request.top_k) + "|" +
                    (request.conjunctive ? "and" : "or");
  for (const std::string& keyword : request.keywords) key += "|" + keyword;
  return key;
}

/// One-shot form of a read: a paged read's pages must equal it.
Request OneShot(Request request) {
  request.kind = OpKind::kSearch;
  request.page_size = 0;
  return request;
}

std::string DescribeRead(const Request& request) {
  std::string out = std::string(OpKindName(request.kind)) + " v" +
                    std::to_string(request.view) + " [";
  for (size_t i = 0; i < request.keywords.size(); ++i) {
    out += (i ? "," : "") + request.keywords[i];
  }
  return out + "]" + (request.conjunctive ? " and" : " or") + " top " +
         std::to_string(request.top_k);
}

// ---------------------------------------------------------------------------
// gen / ready

int CmdGen(std::map<std::string, std::string> args) {
  std::optional<Workload> workload = ParseWorkload(args["workload"]);
  if (!workload.has_value() || args["out"].empty()) {
    return Fail("gen: --workload and --out are required");
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  Corpus corpus = GenerateCorpus(*workload, seed);
  std::filesystem::create_directories(args["out"]);
  uint64_t bytes = 0;
  std::string names;
  for (const InputFile& file : corpus.files) {
    std::ofstream out(args["out"] + "/" + file.name, std::ios::binary);
    out << file.xml;
    if (!out) return Fail("cannot write " + file.name);
    bytes += file.xml.size();
    names += (names.empty() ? "" : ",") + JsonString(file.name);
  }
  for (size_t i = 0; i < corpus.views.size(); ++i) {
    std::ofstream out(args["out"] + "/view" + std::to_string(i) + ".xq");
    out << corpus.views[i];
    if (!out) return Fail("cannot write view");
  }
  const WorkloadSpec spec = SpecFor(*workload);
  std::printf("{\"corpus_digest\": \"%s\", \"input_bytes\": %llu, "
              "\"files\": [%s], \"views\": %zu, \"frames\": %u, "
              "\"shards\": %d}\n",
              CorpusDigest(corpus).c_str(),
              static_cast<unsigned long long>(bytes), names.c_str(),
              corpus.views.size(), spec.frames, spec.shards);
  return 0;
}

int CmdReady(std::map<std::string, std::string> args) {
  std::optional<Workload> workload = ParseWorkload(args["workload"]);
  if (!workload.has_value()) return Fail("ready: bad --workload");
  server::Client client;
  Status connected = client.Connect(
      "127.0.0.1", static_cast<uint16_t>(std::atoi(args["port"].c_str())));
  if (!connected.ok()) return Fail(connected.ToString());
  int sent = 0;
  for (size_t i = 0;; ++i) {
    Result<std::string> view =
        ReadFile(args["dir"] + "/view" + std::to_string(i) + ".xq");
    if (!view.ok()) break;
    Status registered = client.RegisterView("v" + std::to_string(i), *view);
    ++sent;
    if (!registered.ok()) return Fail(registered.ToString());
  }
  if (sent == 0) return Fail("ready: no views under " + args["dir"]);
  server::SearchRpcRequest first;
  first.view = "v0";
  first.keywords = {"qvbenchready"};
  Result<engine::SearchResponse> answered = client.Search(first);
  ++sent;
  if (!answered.ok()) return Fail(answered.status().ToString());
  std::printf("{\"pooled_sent\": %d}\n", sent);
  return 0;
}

// ---------------------------------------------------------------------------
// drive

struct DriveContext {
  Workload workload = Workload::kColdPlans;
  WorkloadSpec spec;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  uint16_t port = 0;
  pid_t server_pid = 0;
  std::string setup_dir;
  std::string work_dir;
  std::string wal_path;
  std::string spans_path;  // traced runs write their spans here
  std::string inject;
  uint64_t ready_sent = 0;
  std::vector<std::string> views;
  int connections = 4;
};

/// Open-loop read schedule: Poisson arrivals, request i on connection
/// i % connections.
std::vector<ConnPlan> OpenReadPlans(const DriveContext& ctx, double seconds,
                                    int connections, uint64_t* count,
                                    uint64_t* digest) {
  std::vector<double> arrivals =
      Arrivals(ctx.seed, 0, ctx.spec.offered_qps, seconds);
  std::vector<ConnPlan> plans(static_cast<size_t>(connections));
  uint64_t h = Fnv64("schedule");
  for (size_t i = 0; i < arrivals.size(); ++i) {
    Request request = ReadRequest(ctx.workload, ctx.seed, i);
    request.index = i;
    request.due_ms = arrivals[i];
    h = Fnv64(JsonNumber(request.due_ms) + DescribeRead(request), h);
    plans[i % plans.size()].scheduled.push_back(std::move(request));
  }
  *count = arrivals.size();
  *digest = h;
  return plans;
}

struct LatencySummary {
  std::vector<double> search_ms, search_sent_ms, page_ms, insert_ms;
  uint64_t attempted = 0, failed = 0;
};

void Summarize(const std::vector<Outcome>& outcomes, LatencySummary* out) {
  for (const Outcome& o : outcomes) {
    ++out->attempted;
    if (!o.ok) {
      ++out->failed;
      continue;
    }
    switch (o.kind) {
      case OpKind::kSearch:
        out->search_ms.push_back(o.done_ms - o.due_ms);
        out->search_sent_ms.push_back(o.done_ms - o.sent_ms);
        break;
      case OpKind::kPaged:
        out->page_ms.push_back(o.first_page_ms - o.due_ms);
        break;
      case OpKind::kInsert:
        out->insert_ms.push_back(o.done_ms - o.sent_ms);
        break;
      default:
        break;
    }
  }
}

/// Median Search latency of the open loop's last quarter over that of its
/// first quarter (by due time). Near 1 when the server keeps up with the
/// offered rate; a backlog that grows through the phase makes later
/// requests wait longer and drives it up.
double BacklogGrowth(const std::vector<Outcome>& outcomes, double open_ms) {
  std::vector<double> first, last;
  for (const Outcome& o : outcomes) {
    if (!o.ok || o.kind != OpKind::kSearch) continue;
    if (o.due_ms < open_ms / 4) {
      first.push_back(o.done_ms - o.due_ms);
    } else if (o.due_ms >= open_ms * 3 / 4) {
      last.push_back(o.done_ms - o.due_ms);
    }
  }
  return Ratio(Percentile(last, 0.5), Percentile(first, 0.5));
}

/// Server-side counters: the Stats RPC and the metrics text.
struct ServerView {
  server::StatsResponse stats;
  std::map<std::string, double> series;
};

/// CPU time (ms) the server process has used so far, over all its
/// threads, live and exited. On a guest kernel with paravirtual steal-time
/// accounting this leaves out the time the host ran other work on the
/// guest's vCPUs, which wall-clock latency cannot.
Result<double> ServerCpuMs(pid_t pid) {
  clockid_t clock;
  timespec ts{};
  if (::clock_getcpuclockid(pid, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return Status::Internal("cannot read the server's CPU clock");
  }
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Runs `plans` as one phase and sets `cpu_ms_per_op` to the server CPU
/// it took per operation sent.
PhaseResult RunCpuPhase(const LoadOptions& options, pid_t server,
                        std::vector<ConnPlan> plans, Report* report) {
  Result<double> before = ServerCpuMs(server);
  PhaseResult phase = RunPhase(options, std::move(plans));
  Result<double> after = ServerCpuMs(server);
  if (!before.ok() || !after.ok()) {
    phase.status = before.ok() ? after.status() : before.status();
  } else {
    report->metrics["cpu_ms_per_op"] =
        Ratio(*after - *before, static_cast<double>(phase.outcomes.size()));
  }
  return phase;
}

Result<ServerView> ReadServer(uint16_t port) {
  server::Client client;
  QUICKVIEW_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
  ServerView view;
  QUICKVIEW_ASSIGN_OR_RETURN(view.stats, client.Stats());
  QUICKVIEW_ASSIGN_OR_RETURN(std::string text, client.StatsText());
  view.series = ParseExposition(text);
  return view;
}

/// The server-side cross-check and the series the per-layer list names.
void ReportServer(const ServerView& before, const ServerView& after,
                  uint64_t pooled_sent, const LatencySummary& lat,
                  Report* report) {
  const server::StatsResponse& s = after.stats;
  std::map<std::string, double> q = after.series;
  // Every pooled request the client sent is admitted or shed; a shed is
  // a failure counted in error_rate, not a wrong answer.
  report->Check(s.admitted + s.shed == pooled_sent,
                "server admitted " + std::to_string(s.admitted) + " + shed " +
                    std::to_string(s.shed) + " != requests sent " +
                    std::to_string(pooled_sent));
  report->Check(s.protocol_errors == 0, "server protocol_errors != 0");
  report->Check(
      static_cast<double>(s.admitted) == q["qv_server_admitted_total"] &&
          static_cast<double>(s.cache_hits) == q["qv_pdtcache_hits_total"] &&
          static_cast<double>(s.cache_misses) == q["qv_pdtcache_misses_total"],
      "Stats RPC and metrics text disagree");
  report->metrics["server.shed"] = q["qv_server_shed_total"];
  report->metrics["server.deadline_rejected"] =
      q["qv_server_deadline_rejected_total"];
  report->metrics["server.protocol_errors"] =
      q["qv_server_protocol_errors_total"];
  // The server's p50 comes from its log-bucketed histogram (buckets an
  // eighth of an octave wide), so this difference is coarse.
  const double server_p50_us = static_cast<double>(
      s.latency[static_cast<size_t>(server::Opcode::kSearch)].p50_us);
  report->metrics["server.wire_p50_us"] =
      Percentile(lat.search_sent_ms, 0.5) * 1000.0 - server_p50_us;
  // Cache and buffer-pool ratios over the measured phases only (the
  // deltas from `before`, taken after any warm-up).
  const double hits = q["qv_pdtcache_hits_total"] -
                      before.series.at("qv_pdtcache_hits_total");
  const double misses = q["qv_pdtcache_misses_total"] -
                        before.series.at("qv_pdtcache_misses_total");
  report->metrics["service.cache_hit_ratio"] = Ratio(hits, hits + misses);
  report->metrics["service.cache_evictions"] =
      q["qv_pdtcache_evictions_total"] -
      before.series.at("qv_pdtcache_evictions_total");
  report->metrics["service.cache_bytes"] = q["qv_pdtcache_bytes"];
  auto delta = [&](const std::string& name) {
    auto b = before.series.find(name);
    return q[name] - (b == before.series.end() ? 0 : b->second);
  };
  const double pool_hits = delta("qv_bufferpool_hits_total");
  const double pool_misses = delta("qv_bufferpool_misses_total");
  report->metrics["pagestore.buffer_hit_ratio"] =
      Ratio(pool_hits, pool_hits + pool_misses);
  report->metrics["pagestore.evictions"] =
      delta("qv_bufferpool_evictions_total");
  const double appends = q["qv_wal_appends_total"];
  report->metrics["pagestore.wal_fsyncs_per_commit"] =
      Ratio(q["qv_wal_syncs_total"], appends);
  report->metrics["pagestore.wal_group_size"] =
      Ratio(q["qv_wal_group_size_sum"], q["qv_wal_group_size_count"]);
}

/// Oracle digests of every distinct read, computed on `threads` threads.
std::map<std::string, Digest> Oracle(
    const std::vector<Request>& reads, ReadExecutor* executor,
    const std::vector<engine::ShardContext>& contexts, int threads,
    std::vector<std::string>* errors) {
  std::map<std::string, Request> distinct;
  for (const Request& request : reads) {
    distinct.emplace(ReadKey(request), OneShot(request));
  }
  std::vector<std::pair<std::string, Request>> work(distinct.begin(),
                                                    distinct.end());
  std::map<std::string, Digest> out;
  qv::Mutex mu;
  std::atomic<size_t> next{0};
  auto run = [&]() {
    for (size_t i = next++; i < work.size(); i = next++) {
      Result<Digest> digest = executor->Read(work[i].second, contexts, 0, 0,
                                             nullptr, nullptr);
      qv::MutexLock lock(mu);
      if (digest.ok()) {
        out[work[i].first] = *digest;
      } else {
        errors->push_back("oracle " + DescribeRead(work[i].second) + ": " +
                          digest.status().ToString());
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(run);
  for (std::thread& thread : pool) thread.join();
  return out;
}

/// Per-layer metrics from one traced replay.
void ReportLayers(const SpanSummary& traced, const ReadCounters& c,
                  Report* report) {
  auto timing = [&](const std::string& metric, const std::string& span,
                    double scale) {
    std::vector<double> values;
    auto it = traced.durations_ms.find(span);
    if (it != traced.durations_ms.end()) {
      for (double v : it->second) values.push_back(v * scale);
    }
    report->Timing(metric, values);
  };
  timing("server.encode_us", "server.encode", 1000.0);
  timing("server.decode_us", "server.decode", 1000.0);
  timing("service.open_search_ms", "service.open_search", 1.0);
  timing("qpt.plan_ms", "qpt.plan", 1.0);
  timing("index.prepare_lists_ms", "index.prepare_lists", 1.0);
  timing("pdt.build_ms", "pdt.build", 1.0);
  timing("pdt.generate_ms", "pdt.generate", 1.0);
  timing("engine.open_ms", "engine.open", 1.0);
  timing("storage.fetch_ms", "storage.fetch", 1.0);
  timing("storage.insert_ms", "storage.insert", 1.0);
  timing("storage.remove_ms", "storage.remove", 1.0);
  timing("storage.replace_ms", "storage.replace", 1.0);
  timing("xml.parse_ms", "xml.parse", 1.0);
  report->Timing("xquery.eval_ms", c.eval_ms);
  auto total = [&](const std::string& span) {
    auto it = traced.total_ms.find(span);
    return it == traced.total_ms.end() ? 0.0 : it->second;
  };
  report->metrics["pdt.build_share"] =
      Ratio(total("pdt.build"), traced.request_ms);
  report->metrics["server.response_bytes"] =
      Ratio(static_cast<double>(c.response_bytes),
            static_cast<double>(c.responses));
  const double requests = static_cast<double>(c.requests);
  const double hits = static_cast<double>(c.hits);
  report->metrics["index.probes"] =
      Ratio(static_cast<double>(c.index_probes), requests);
  report->metrics["index.ids_per_result"] =
      Ratio(static_cast<double>(c.ids_processed), hits);
  report->metrics["pdt.nodes_emitted"] =
      Ratio(static_cast<double>(c.nodes_emitted), requests);
  report->metrics["pdt.peak_ct_nodes"] =
      Ratio(static_cast<double>(c.peak_ct_nodes), requests);
  report->metrics["pdt.bytes"] =
      Ratio(static_cast<double>(c.pdt_bytes), requests);
  report->metrics["pdt.memory_bytes"] =
      Ratio(static_cast<double>(c.pdt_memory_bytes), requests);
  report->metrics["engine.match_ratio"] =
      Ratio(static_cast<double>(c.matching_results),
            static_cast<double>(c.view_results));
  report->metrics["engine.shard_skew"] = Percentile(c.shard_skew, 0.5);
  report->metrics["storage.fetches_per_hit"] =
      Ratio(static_cast<double>(c.store_fetches), hits);
  report->metrics["storage.bytes_per_hit"] =
      Ratio(static_cast<double>(c.store_bytes), hits);
  report->metrics["pagestore.pages_read_per_hit"] =
      Ratio(static_cast<double>(c.pages_read), hits);
  report->metrics["bench.unattributed_share"] =
      Ratio(traced.unattributed_ms, traced.request_ms);
  report->metrics["bench.replayed_requests"] = requests;
  report->Check(Ratio(traced.unattributed_ms, traced.request_ms) <= 0.05,
                "traced replay leaves more than 5% of request time "
                "unattributed");
}

/// Requests per traced-replay pass.
constexpr size_t kReplayed = 250;
/// Warm-up: one second of the open loop, on stream indices of its own.
constexpr double kWarmSeconds = 1.0;
constexpr uint64_t kWarmBase = uint64_t{1} << 40;
constexpr uint64_t kListWarmBase = uint64_t{2} << 40;

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// The five slowest open-loop reads, to explain a tail.
std::string Slowest(const std::vector<Outcome>& outcomes,
                    const std::map<uint64_t, Request>& sent) {
  std::vector<const Outcome*> slow;
  for (const Outcome& o : outcomes) slow.push_back(&o);
  std::sort(slow.begin(), slow.end(), [](const Outcome* a, const Outcome* b) {
    return a->done_ms - a->due_ms > b->done_ms - b->due_ms;
  });
  std::string text;
  for (size_t i = 0; i < std::min<size_t>(slow.size(), 5); ++i) {
    text += JsonNumber(slow[i]->done_ms - slow[i]->due_ms) + "ms due " +
            JsonNumber(slow[i]->due_ms) + " " +
            DescribeRead(sent.at(slow[i]->index)) + "; ";
  }
  return text;
}

int DriveReads(const DriveContext& ctx, Report* report) {
  LoadOptions options;
  options.port = ctx.port;
  if (ctx.inject == "response") options.corrupt_response = 7;
  uint64_t pooled_sent = ctx.ready_sent;

  // The in-process corpus the oracle and the replay run against.
  Result<std::unique_ptr<StaticCorpus>> corpus =
      OpenStaticCorpus(ctx.workload, ctx.setup_dir);
  if (!corpus.ok()) return Fail(corpus.status().ToString());
  const std::vector<engine::ShardContext> contexts = (*corpus)->contexts();

  // Every read sent, by stream index, and every outcome: all are checked.
  std::map<uint64_t, Request> sent;
  std::vector<Outcome> outcomes;
  auto absorb = [&](const PhaseResult& phase) {
    pooled_sent += phase.pooled_sent;
    outcomes.insert(outcomes.end(), phase.outcomes.begin(),
                    phase.outcomes.end());
  };

  // Warm-up, not measured: hot_paged first fills the PDT cache with one
  // Search per keyword list; then one second of the open loop lets the
  // server's heap, caches and buffer pool reach steady state.
  std::vector<Request> warm;
  if (ctx.workload == Workload::kHotPaged) {
    for (const KeywordList& list : BookKeywordLists()) {
      Request request;
      request.keywords = list.keywords;
      request.conjunctive = list.conjunctive;
      request.index = kListWarmBase + warm.size();
      warm.push_back(request);
      sent[request.index] = request;
    }
    ConnPlan plan;
    size_t i = 0;
    plan.next = [&]() -> std::optional<Request> {
      if (i >= warm.size()) return std::nullopt;
      return warm[i++];
    };
    plan.closed_until_ms = 1e12;
    PhaseResult warmed = RunPhase(options, {plan});
    if (!warmed.status.ok()) return Fail(warmed.status.ToString());
    absorb(warmed);
  }
  {
    std::vector<ConnPlan> plans(static_cast<size_t>(ctx.connections));
    std::vector<double> arrivals =
        Arrivals(ctx.seed, 2, ctx.spec.offered_qps, kWarmSeconds);
    for (size_t i = 0; i < arrivals.size(); ++i) {
      Request request = ReadRequest(ctx.workload, ctx.seed, kWarmBase + i);
      request.index = kWarmBase + i;
      request.due_ms = arrivals[i];
      sent[request.index] = request;
      plans[i % plans.size()].scheduled.push_back(std::move(request));
    }
    PhaseResult warmed = RunPhase(options, std::move(plans));
    if (!warmed.status.ok()) return Fail(warmed.status.ToString());
    absorb(warmed);
  }
  Result<ServerView> before = ReadServer(ctx.port);
  if (!before.ok()) return Fail(before.status().ToString());

  // Open loop, then a closed loop continuing the same request stream.
  const double open_s = ctx.seconds * ctx.spec.open_share;
  uint64_t open_count = 0;
  uint64_t schedule_digest = 0;
  std::vector<ConnPlan> open_plans = OpenReadPlans(
      ctx, open_s, ctx.connections, &open_count, &schedule_digest);
  std::vector<Request> open_requests;
  for (const ConnPlan& plan : open_plans) {
    for (const Request& request : plan.scheduled) {
      open_requests.push_back(request);
      sent[request.index] = request;
    }
  }
  std::sort(open_requests.begin(), open_requests.end(),
            [](const Request& a, const Request& b) {
              return a.index < b.index;
            });
  // The traced replay re-executes a prefix of the open-loop sequence
  // (every answer is still checked against the oracle).
  const std::vector<Request> replayed(
      open_requests.begin(),
      open_requests.begin() +
          static_cast<long>(std::min<size_t>(open_requests.size(), kReplayed)));
  PhaseResult open =
      RunCpuPhase(options, ctx.server_pid, std::move(open_plans), report);
  if (!open.status.ok()) return Fail("open loop: " + open.status.ToString());
  absorb(open);

  std::atomic<uint64_t> cursor{open_count};
  qv::Mutex closed_mu;
  std::vector<ConnPlan> closed_plans(static_cast<size_t>(ctx.connections));
  const double closed_ms = ctx.seconds * (1.0 - ctx.spec.open_share) * 1000.0;
  for (ConnPlan& plan : closed_plans) {
    plan.closed_until_ms = closed_ms;
    plan.next = [&]() -> std::optional<Request> {
      const uint64_t i = cursor++;
      Request request = ReadRequest(ctx.workload, ctx.seed, i);
      request.index = i;
      qv::MutexLock lock(closed_mu);
      sent[i] = request;
      return request;
    };
  }
  PhaseResult closed = RunPhase(options, std::move(closed_plans));
  if (!closed.status.ok()) {
    return Fail("closed loop: " + closed.status.ToString());
  }
  absorb(closed);

  Result<ServerView> after = ReadServer(ctx.port);
  if (!after.ok()) return Fail(after.status().ToString());

  LatencySummary lat;
  Summarize(open.outcomes, &lat);
  LatencySummary closed_lat;
  Summarize(closed.outcomes, &closed_lat);
  LatencySummary all;
  Summarize(outcomes, &all);
  report->attempted = all.attempted;
  report->failed = all.failed;
  report->Timing("search_ms", lat.search_ms);
  report->Timing("page_ms", lat.page_ms);
  report->metrics["search_samples"] = static_cast<double>(lat.search_ms.size());
  uint64_t closed_ok = closed_lat.attempted - closed_lat.failed;
  report->metrics["max_qps"] =
      Ratio(static_cast<double>(closed_ok), closed.elapsed_ms / 1000.0);
  report->metrics["error_rate"] =
      Ratio(static_cast<double>(all.failed),
            static_cast<double>(all.attempted));
  report->metrics["bench.late_p99_ms"] = Percentile(open.late_ms, 0.99);
  report->metrics["bench.backlog_growth"] =
      BacklogGrowth(open.outcomes, open_s * 1000.0);
  report->metrics["offered_qps"] = ctx.spec.offered_qps;
  report->metrics["p99_limit_ms"] = ctx.spec.p99_limit_ms;
  report->info["schedule_digest"] = Hex64(schedule_digest);
  ReportServer(*before, *after, pooled_sent, all, report);

  // Output check: every wire answer against the oracle's.
  std::vector<Request> all_reads;
  for (const auto& [index, request] : sent) all_reads.push_back(request);
  ReadExecutor oracle_executor(ctx.views);
  std::vector<std::string> errors;
  std::map<std::string, Digest> oracle =
      Oracle(all_reads, &oracle_executor, contexts, ctx.connections, &errors);
  for (const std::string& error : errors) report->Check(false, error);
  uint64_t checked = 0;
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    const Request& request = sent.at(o.index);
    auto expected = oracle.find(ReadKey(request));
    ++checked;
    if (expected == oracle.end() || expected->second != o.digest) {
      report->Check(false, "wire answer differs from replay: " +
                               DescribeRead(request) + " got " +
                               o.digest.Hex() + " want " +
                               (expected == oracle.end()
                                    ? std::string("?")
                                    : expected->second.Hex()));
    }
  }
  report->metrics["bench.answers_checked"] = static_cast<double>(checked);
  report->info["slowest"] = Slowest(open.outcomes, sent);

  if (!ctx.trace) return 0;

  // Traced replay of the open-loop sequence, in order, against a fresh
  // executor (and so a fresh PDT cache) warmed as the server's was; then
  // the same sequence untraced, for the trace overhead.
  auto replay = [&](bool traced, SpanSummary* summary, ReadCounters* counters) {
    SpanRecorder spans(traced);
    ReadExecutor executor(ctx.views);
    for (const Request& request : warm) {
      (void)executor.Read(request, contexts, 0, 0, nullptr, nullptr);
    }
    Clock::time_point start = Clock::now();
    for (const Request& request : replayed) {
      Result<Digest> digest = executor.Read(request, contexts, 0,
                                            request.index + 1, &spans,
                                            counters);
      if (!digest.ok()) {
        report->Check(false, "replay failed: " + digest.status().ToString());
        continue;
      }
      if (traced) {
        auto expected = oracle.find(ReadKey(request));
        report->Check(expected != oracle.end() && expected->second == *digest,
                      "traced replay answer differs: " + DescribeRead(request));
      }
    }
    double elapsed =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    if (summary != nullptr) {
      *summary = spans.Summarize();
      report->Check(ctx.spans_path.empty() || spans.WriteJsonl(ctx.spans_path),
                    "cannot write spans to " + ctx.spans_path);
    }
    return elapsed;
  };
  // After a discarded warm-up pass, untraced and traced passes run in
  // ABBA order, so linear drift in the machine does not read as tracing
  // overhead.
  ReadCounters counters;
  SpanSummary summary;
  (void)replay(false, nullptr, nullptr);
  double untraced_ms = replay(false, nullptr, nullptr);
  double traced_ms = replay(true, &summary, &counters);
  traced_ms += replay(true, nullptr, nullptr);
  untraced_ms += replay(false, nullptr, nullptr);
  ReportLayers(summary, counters, report);
  report->metrics["bench.trace_overhead"] =
      untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0;
  {
    std::vector<std::pair<uint64_t, double>> slow = summary.requests;
    std::sort(slow.begin(), slow.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::string text;
    for (size_t i = 0; i < std::min<size_t>(slow.size(), 5); ++i) {
      text += JsonNumber(slow[i].second) + "ms " +
              DescribeRead(replayed.at(slow[i].first - 1)) + "; ";
    }
    report->info["slowest_replayed"] = text;
  }
  report->metrics["index.build_s"] = (*corpus)->index_build_s;
  report->metrics["pagestore.open_s"] = (*corpus)->open_s;
  if (ctx.workload == Workload::kHotPaged) {
    // pack_s: PackShardedDb of the same database into a scratch set.
    Result<std::shared_ptr<xml::Database>> db =
        storage::LoadDatabase(ctx.setup_dir + "/db");
    if (!db.ok()) return Fail(db.status().ToString());
    const std::string out = ctx.work_dir + "/replay_pack/set.qvset";
    std::filesystem::create_directories(ctx.work_dir + "/replay_pack");
    storage::ShardingSpec spec;
    spec.shards = ctx.spec.shards;
    spec.colocate_tag = "isbn";
    Clock::time_point start = Clock::now();
    Status packed = pagestore::PackShardedDb(**db, spec, out);
    report->metrics["pagestore.pack_s"] =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (!packed.ok()) return Fail(packed.ToString());
  } else {
    report->metrics["pagestore.pack_s"] = 0;
  }
  return 0;
}

// --- live_ingest -----------------------------------------------------------

struct AckedWrite {
  bool tombstone = false;
  std::string name;
  uint64_t xml_digest = 0;
  uint64_t step = 0;  // the writer's op index (WriterOp regenerates it)
  double sent_ms = 0;
};

using WalKey = std::tuple<bool, std::string, uint64_t>;

WalKey KeyOf(const pagestore::DeltaRecord& record) {
  return {record.tombstone, record.name,
          record.tombstone ? 0 : Fnv64(record.xml)};
}
WalKey KeyOf(const AckedWrite& write) {
  return {write.tombstone, write.name, write.xml_digest};
}

/// Checks that every acknowledged write of each connection is in the
/// WAL, in that connection's order. Returns the log's records (the
/// order the server applied them in), empty when the log is unreadable.
std::vector<pagestore::DeltaRecord> CheckWal(
    const std::string& path,
    const std::map<int, std::vector<AckedWrite>>& acked, Report* report) {
  std::vector<pagestore::DeltaRecord> records;
  Result<pagestore::WalReplay> replay = pagestore::ReplayWal(path);
  if (!replay.ok()) {
    report->Check(false, "WAL replay failed: " + replay.status().ToString());
    return records;
  }
  std::map<WalKey, std::vector<size_t>> where;
  for (size_t r = 0; r < replay->payloads.size(); ++r) {
    Result<pagestore::DeltaRecord> record =
        pagestore::DecodeDeltaPayload(replay->payloads[r]);
    if (!record.ok()) {
      report->Check(false, "WAL record " + std::to_string(r) + " undecodable");
      return {};
    }
    where[KeyOf(*record)].push_back(r);
    records.push_back(std::move(record).value());
  }
  uint64_t found = 0;
  for (const auto& [source, writes] : acked) {
    long long last = -1;
    for (const AckedWrite& w : writes) {
      auto it = where.find(KeyOf(w));
      long long at = -1;
      if (it != where.end()) {
        for (size_t r : it->second) {
          if (static_cast<long long>(r) > last) {
            at = static_cast<long long>(r);
            break;
          }
        }
      }
      if (at < 0) {
        report->Check(false, std::string("acknowledged ") +
                                 (w.tombstone ? "remove " : "insert ") +
                                 w.name + " of connection " +
                                 std::to_string(source) +
                                 (it == where.end()
                                      ? " missing from the WAL"
                                      : " out of order in the WAL"));
        break;
      }
      last = at;
      ++found;
    }
  }
  report->metrics["bench.wal_records_checked"] = static_cast<double>(found);
  return records;
}

/// Test hook for the WAL check: copies the log at `path` to `out` without
/// the record of `skip`, appending the other payloads through
/// pagestore::Wal so the copy has valid checksums and consecutive
/// sequence numbers and replays cleanly. False when `skip` is not in
/// the log.
Result<bool> CopyWalWithout(const std::string& path, const AckedWrite& skip,
                            const std::string& out) {
  QUICKVIEW_ASSIGN_OR_RETURN(pagestore::WalReplay replay,
                             pagestore::ReplayWal(path));
  std::filesystem::remove(out);
  pagestore::WalOptions options;
  options.sync = false;  // a scratch copy
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<pagestore::Wal> copy,
                             pagestore::Wal::Open(out, options));
  bool dropped = false;
  for (const std::string& payload : replay.payloads) {
    QUICKVIEW_ASSIGN_OR_RETURN(pagestore::DeltaRecord record,
                               pagestore::DecodeDeltaPayload(payload));
    if (!dropped && KeyOf(record) == KeyOf(skip)) {
      dropped = true;
      continue;
    }
    QUICKVIEW_RETURN_IF_ERROR(copy->Append(payload).status());
  }
  return dropped;
}

/// live_ingest's traced replay covers the operations sent in the run's
/// first this many ms (about 1600 of them).
constexpr double kLiveReplayMs = 8000;

int DriveLive(const DriveContext& ctx, Report* report) {
  LoadOptions options;
  options.port = ctx.port;
  uint64_t pooled_sent = ctx.ready_sent;
  Result<ServerView> before = ReadServer(ctx.port);
  if (!before.ok()) return Fail(before.status().ToString());

  // The timed phase, over the first open_share of the run: open-loop
  // Searches, paced writers and open-loop replacements of reviews.xml,
  // each on a connection of its own. Every stream is a fixed schedule, so
  // the seed fixes the mix of operations whose server CPU is measured.
  const double open_s = ctx.seconds * ctx.spec.open_share;
  std::vector<ConnPlan> plans;
  uint64_t read_count = 0;
  uint64_t schedule_digest = 0;
  // Connection 1: open-loop Searches.
  std::vector<ConnPlan> reads =
      OpenReadPlans(ctx, open_s, 1, &read_count, &schedule_digest);
  plans.push_back(std::move(reads[0]));
  std::vector<Request> read_requests = plans[0].scheduled;
  // Connections 2..: paced writers (one write in flight each, so each
  // connection's writes apply in its order).
  std::vector<std::atomic<uint64_t>> steps(
      static_cast<size_t>(ctx.spec.writers));
  for (int w = 0; w < ctx.spec.writers; ++w) {
    ConnPlan plan;
    plan.paced = true;
    std::vector<double> due = Arrivals(
        ctx.seed, 10 + static_cast<uint64_t>(w), ctx.spec.writer_qps, open_s);
    for (uint64_t step = 0; step < due.size(); ++step) {
      Request op = WriterOp(ctx.seed, w, step);
      op.source = 1 + w;
      op.index = step;
      op.due_ms = due[step];
      schedule_digest = Fnv64(JsonNumber(op.due_ms) + op.doc, schedule_digest);
      plan.scheduled.push_back(std::move(op));
    }
    steps[static_cast<size_t>(w)] = due.size();
    plans.push_back(std::move(plan));
  }
  // Last connection: open-loop replacements of reviews.xml.
  const int replacer = 1 + ctx.spec.writers;
  std::vector<Request> replaces;
  {
    ConnPlan plan;
    std::vector<double> arrivals =
        FixedRate(ctx.seed, ctx.spec.replace_qps, open_s);
    for (size_t v = 0; v < arrivals.size(); ++v) {
      Request op = ReplaceOp(ctx.seed, v + 1);
      op.source = replacer;
      op.index = v + 1;
      op.due_ms = arrivals[v];
      replaces.push_back(op);
      schedule_digest = Fnv64(JsonNumber(op.due_ms) + op.xml, schedule_digest);
    }
    plan.scheduled = replaces;
    plans.push_back(std::move(plan));
  }
  PhaseResult phase =
      RunCpuPhase(options, ctx.server_pid, std::move(plans), report);
  if (!phase.status.ok()) return Fail("live phase: " + phase.status.ToString());
  pooled_sent += phase.pooled_sent;

  // Then the writers alone in a closed loop for the rest of the run,
  // continuing their streams: the ingest rate.
  std::vector<ConnPlan> writer_plans;
  for (int w = 0; w < ctx.spec.writers; ++w) {
    ConnPlan plan;
    plan.closed_until_ms = ctx.seconds * (1.0 - ctx.spec.open_share) * 1000.0;
    plan.next = [&ctx, &steps, w]() -> std::optional<Request> {
      const uint64_t step = steps[static_cast<size_t>(w)]++;
      Request op = WriterOp(ctx.seed, w, step);
      op.source = 1 + w;
      op.index = step;
      return op;
    };
    writer_plans.push_back(std::move(plan));
  }
  PhaseResult ingest = RunPhase(options, std::move(writer_plans));
  if (!ingest.status.ok()) {
    return Fail("ingest phase: " + ingest.status.ToString());
  }
  pooled_sent += ingest.pooled_sent;
  Result<ServerView> after = ReadServer(ctx.port);
  if (!after.ok()) return Fail(after.status().ToString());
  // Every outcome of the run, the closed loop's timed after the timed
  // phase's, so that send times order the whole run.
  std::vector<Outcome> run_outcomes = phase.outcomes;
  for (Outcome o : ingest.outcomes) {
    o.due_ms += phase.elapsed_ms;
    o.sent_ms += phase.elapsed_ms;
    o.done_ms += phase.elapsed_ms;
    run_outcomes.push_back(o);
  }

  LatencySummary lat;
  Summarize(phase.outcomes, &lat);
  LatencySummary ingested;
  Summarize(ingest.outcomes, &ingested);
  report->attempted = lat.attempted + ingested.attempted;
  report->failed = lat.failed + ingested.failed;
  report->Timing("search_ms", lat.search_ms);
  report->Timing("insert_ms", lat.insert_ms);
  report->metrics["search_samples"] = static_cast<double>(lat.search_ms.size());
  report->metrics["ingest_docs_s"] =
      Ratio(static_cast<double>(ingested.insert_ms.size()),
            ingest.elapsed_ms / 1000.0);
  report->metrics["error_rate"] =
      Ratio(static_cast<double>(report->failed),
            static_cast<double>(report->attempted));
  report->metrics["bench.late_p99_ms"] = Percentile(phase.late_ms, 0.99);
  report->metrics["bench.backlog_growth"] =
      BacklogGrowth(phase.outcomes, open_s * 1000.0);
  report->metrics["offered_qps"] = ctx.spec.offered_qps;
  report->metrics["p99_limit_ms"] = ctx.spec.p99_limit_ms;
  report->info["schedule_digest"] = Hex64(schedule_digest);
  ReportServer(*before, *after, pooled_sent, lat, report);

  // The WAL check. Writes per connection, in send order.
  std::map<int, std::vector<AckedWrite>> acked;
  std::map<uint64_t, std::pair<double, double>> replace_times;  // sent, done
  std::map<uint64_t, bool> replace_ok;
  double ingested_bytes = 0;
  std::map<int, std::vector<const Outcome*>> by_source;
  for (const Outcome& o : run_outcomes) by_source[o.source].push_back(&o);
  for (auto& [source, outcomes] : by_source) {
    if (source == 0) continue;
    std::sort(outcomes.begin(), outcomes.end(),
              [](const Outcome* a, const Outcome* b) {
                return a->index < b->index;
              });
    for (const Outcome* o : outcomes) {
      Request op = source == replacer
                       ? replaces[static_cast<size_t>(o->index - 1)]
                       : WriterOp(ctx.seed, source - 1, o->index);
      if (source == replacer) {
        replace_times[o->index] = {o->sent_ms, o->done_ms};
        replace_ok[o->index] = o->ok;
      }
      if (!o->ok) continue;
      acked[source].push_back(
          AckedWrite{op.kind == OpKind::kRemove, op.doc,
                     op.kind == OpKind::kRemove ? 0 : Fnv64(op.xml),
                     o->index, o->sent_ms});
      ingested_bytes += static_cast<double>(op.xml.size());
    }
  }
  std::string wal = ctx.wal_path;
  if (ctx.inject == "wal") {
    // Test hook: check a copy of the log that lacks the first write
    // writer connection 1 had acknowledged; the check must name it.
    wal = ctx.work_dir + "/wal.dropped";
    auto first = acked.find(1);
    if (first == acked.end() || first->second.empty()) {
      return Fail("inject wal: connection 1 has no acknowledged write");
    }
    Result<bool> dropped =
        CopyWalWithout(ctx.wal_path, first->second.front(), wal);
    if (!dropped.ok()) return Fail(dropped.status().ToString());
    if (!*dropped) return Fail("inject wal: acknowledged write not in the log");
  }
  const std::vector<pagestore::DeltaRecord> records =
      CheckWal(wal, acked, report);
  const double wal_bytes =
      static_cast<double>(std::filesystem::file_size(ctx.wal_path));
  report->metrics["pagestore.wal_bytes"] = wal_bytes;
  report->metrics["bytes_per_input_byte"] = Ratio(wal_bytes, ingested_bytes);

  // Search answers. Replaces pipelined on one connection may apply out
  // of send order, so the WAL (whose order is the apply order) gives the
  // sequence of reviews.xml states: position 0 is the generated corpus,
  // position k the k-th replace in the log. A search must see a state
  // at or after every replace acknowledged before it was sent, and
  // before any replace sent after it was answered; its answer must
  // equal the replay's answer in one of those states.
  std::map<uint64_t, uint64_t> version_of;  // xml digest -> version
  for (const Request& op : replaces) version_of[Fnv64(op.xml)] = op.version;
  std::vector<uint64_t> states{0};  // position -> version
  for (const pagestore::DeltaRecord& record : records) {
    auto version = version_of.find(Fnv64(record.xml));
    if (!record.tombstone && record.name == "reviews.xml" &&
        version != version_of.end()) {
      states.push_back(version->second);
    }
  }
  std::map<uint64_t, size_t> position;  // version -> position
  for (size_t k = 0; k < states.size(); ++k) position[states[k]] = k;
  std::map<uint64_t, const Request*> read_index;
  for (const Request& r : read_requests) read_index[r.index] = &r;
  struct Needed {
    const Outcome* outcome;
    size_t lo, hi;
  };
  std::vector<Needed> needed;
  std::map<size_t, std::set<std::string>> per_state;
  std::map<std::string, const Request*> key_request;
  for (const Outcome* o : by_source[0]) {
    if (!o->ok || records.empty()) continue;
    size_t lo = 0;
    size_t hi = states.size() - 1;
    for (const auto& [v, times] : replace_times) {
      auto at = position.find(v);
      if (at == position.end()) continue;
      if (replace_ok[v] && times.second <= o->sent_ms) {
        lo = std::max(lo, at->second);
      }
      if (times.first > o->done_ms) hi = std::min(hi, at->second - 1);
    }
    const Request* request = read_index.at(o->index);
    needed.push_back({o, lo, hi});
    for (size_t k = lo; k <= hi; ++k) per_state[k].insert(ReadKey(*request));
    key_request[ReadKey(*request)] = request;
  }
  Result<std::unique_ptr<LiveReplay>> oracle =
      LiveReplay::Open(ctx.setup_dir, ctx.views);
  if (!oracle.ok()) return Fail(oracle.status().ToString());
  std::map<std::pair<size_t, std::string>, Digest> expected;
  size_t applied = 0;
  for (const auto& [k, keys] : per_state) {
    while (applied < k) {
      ++applied;
      const Request& op = replaces[static_cast<size_t>(states[applied] - 1)];
      Status s = (*oracle)->Mutate(op, 0, nullptr);
      if (!s.ok()) return Fail(s.ToString());
    }
    for (const std::string& key : keys) {
      Result<Digest> d = (*oracle)->Read(OneShot(*key_request[key]), 0,
                                         nullptr, nullptr);
      if (!d.ok()) return Fail(d.status().ToString());
      expected[{k, key}] = *d;
    }
  }
  uint64_t checked = 0;
  for (const Needed& n : needed) {
    const Request* request = read_index.at(n.outcome->index);
    bool match = false;
    for (size_t k = n.lo; k <= n.hi && !match; ++k) {
      match = expected[{k, ReadKey(*request)}] == n.outcome->digest;
    }
    ++checked;
    report->Check(match, "live search answer matches no reviews.xml state "
                         "in log positions [" + std::to_string(n.lo) + ", " +
                             std::to_string(n.hi) + "]: " +
                             DescribeRead(*request));
  }
  report->metrics["bench.answers_checked"] = static_cast<double>(checked);

  if (!ctx.trace) return 0;

  // Traced replay: the acknowledged operations of the run's first
  // kLiveReplayMs, in send order, against a LiveDatabase without WAL.
  std::vector<std::pair<const Outcome*, Request>> sequence;
  for (const Outcome& o : phase.outcomes) {
    if (!o.ok || o.sent_ms >= kLiveReplayMs) continue;
    Request op;
    if (o.source == 0) {
      op = *read_index.at(o.index);
    } else if (o.source == replacer) {
      op = replaces[static_cast<size_t>(o.index - 1)];
    } else {
      op = WriterOp(ctx.seed, o.source - 1, o.index);
    }
    sequence.emplace_back(&o, std::move(op));
  }
  std::sort(sequence.begin(), sequence.end(), [](const auto& a, const auto& b) {
    return a.first->sent_ms < b.first->sent_ms;
  });
  auto replay = [&](bool traced, SpanSummary* summary,
                    ReadCounters* counters) -> Result<double> {
    SpanRecorder spans(traced);
    QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<LiveReplay> live,
                               LiveReplay::Open(ctx.setup_dir, ctx.views));
    Clock::time_point start = Clock::now();
    uint64_t id = 0;
    for (const auto& [outcome, op] : sequence) {
      ++id;
      if (op.kind == OpKind::kSearch) {
        QUICKVIEW_RETURN_IF_ERROR(
            live->Read(op, id, &spans, counters).status());
      } else {
        QUICKVIEW_RETURN_IF_ERROR(live->Mutate(op, id, &spans));
      }
    }
    double elapsed =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    if (summary != nullptr) {
      *summary = spans.Summarize();
      report->Check(ctx.spans_path.empty() || spans.WriteJsonl(ctx.spans_path),
                    "cannot write spans to " + ctx.spans_path);
      report->metrics["index.build_s"] = live->index_build_s();
    }
    return elapsed;
  };
  // A discarded warm-up pass, then untraced and traced passes in ABBA
  // order (as for the read workloads).
  ReadCounters counters;
  SpanSummary summary;
  double passes[4] = {0, 0, 0, 0};
  const bool traced_pass[4] = {false, true, true, false};
  if (Result<double> warm = replay(false, nullptr, nullptr); !warm.ok()) {
    return Fail(warm.status().ToString());
  }
  for (int i = 0; i < 4; ++i) {
    Result<double> ms = replay(traced_pass[i], i == 1 ? &summary : nullptr,
                               i == 1 ? &counters : nullptr);
    if (!ms.ok()) return Fail(ms.status().ToString());
    passes[i] = *ms;
  }
  ReportLayers(summary, counters, report);
  report->metrics["bench.trace_overhead"] =
      (passes[1] + passes[2]) / (passes[0] + passes[3]) - 1.0;
  report->metrics["pagestore.pack_s"] = 0;
  report->metrics["pagestore.open_s"] = 0;

  // pagestore.wal_append_ms: the acknowledged payloads appended to a
  // standalone log by as many writer threads as the run had.
  const std::string probe = ctx.work_dir + "/wal_probe.log";
  std::filesystem::remove(probe);
  Result<std::unique_ptr<pagestore::Wal>> log = pagestore::Wal::Open(probe);
  if (!log.ok()) return Fail(log.status().ToString());
  SpanRecorder wal_spans(true);
  std::atomic<bool> appended{true};
  std::vector<std::thread> writers;
  for (int w = 0; w < ctx.spec.writers; ++w) {
    writers.emplace_back([&, w]() {
      auto it = acked.find(1 + w);
      if (it == acked.end()) return;
      for (const AckedWrite& write : it->second) {
        if (write.sent_ms >= kLiveReplayMs) break;
        pagestore::DeltaRecord record;
        record.tombstone = write.tombstone;
        record.name = write.name;
        if (!write.tombstone) {
          record.xml = WriterOp(ctx.seed, w, write.step).xml;
        }
        ScopedSpan span(&wal_spans, "pagestore.wal_append", 0, -1);
        if (!(*log)->Append(pagestore::EncodeDeltaPayload(record)).ok()) {
          appended = false;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  report->Check(appended, "standalone WAL append failed");
  SpanSummary wal_summary = wal_spans.Summarize();
  report->Timing("pagestore.wal_append_ms",
                 wal_summary.durations_ms["pagestore.wal_append"]);
  return 0;
}

int CmdDrive(std::map<std::string, std::string> args) {
  DriveContext ctx;
  std::optional<Workload> workload = ParseWorkload(args["workload"]);
  if (!workload.has_value()) return Fail("drive: bad --workload");
  ctx.workload = *workload;
  ctx.spec = SpecFor(ctx.workload);
  ctx.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  ctx.seconds = std::atof(args["seconds"].c_str());
  ctx.trace = args["trace"] == "1";
  ctx.port = static_cast<uint16_t>(std::atoi(args["port"].c_str()));
  ctx.server_pid = static_cast<pid_t>(std::atoi(args["server-pid"].c_str()));
  ctx.setup_dir = args["setup"];
  ctx.work_dir = args["work"];
  ctx.wal_path = args["wal"];
  ctx.spans_path = args["spans"];
  ctx.inject = args["inject"];
  ctx.ready_sent = std::strtoull(args["ready-sent"].c_str(), nullptr, 10);
  ctx.views = ViewsFor(ctx.workload);
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  ctx.connections = static_cast<int>(std::clamp(cpus, 1L, 4L));
  if (ctx.seconds <= 0 || ctx.port == 0 || ctx.server_pid <= 0 ||
      ctx.setup_dir.empty() || args["out"].empty()) {
    return Fail(
        "drive: --seconds, --port, --server-pid, --setup and --out are "
        "required");
  }
  Report report;
  int rc = ctx.workload == Workload::kLiveIngest ? DriveLive(ctx, &report)
                                                 : DriveReads(ctx, &report);
  if (rc != 0) return rc;
  std::ofstream out(args["out"]);
  out << report.ToJson() << "\n";
  return out ? 0 : Fail("cannot write " + args["out"]);
}

}  // namespace
}  // namespace qvbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: qvbench gen|ready|drive --key value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  auto args = qvbench::ParseArgs(argc, argv);
  if (command == "gen") return qvbench::CmdGen(args);
  if (command == "ready") return qvbench::CmdReady(args);
  if (command == "drive") return qvbench::CmdDrive(args);
  std::fprintf(stderr, "qvbench: unknown command %s\n", command.c_str());
  return 2;
}
