// End-to-end serving throughput: the full network stack — framed
// protocol, admission gate, worker pool, cursor RPCs — driven by the
// closed-loop load driver over loopback, at 1..8 client connections.
// The in-process counterpart is bench_throughput (QueryService straight
// off the batch API); the delta between the two is the serving layer's
// overhead. Expected shape: throughput scales with connections until
// the worker pool saturates, with zero sheds at these offered loads.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include <benchmark/benchmark.h>

#include "server/load_driver.h"
#include "server/server.h"
#include "service/query_service.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"

namespace quickview::bench {
namespace {

/// One server for the whole binary: the demo corpus behind a
/// QueryService behind a Server on an ephemeral loopback port.
struct ServerFixture {
  std::unique_ptr<storage::ShardSet> corpus;  // one in-memory shard
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<server::Server> server;
};

ServerFixture& GetServerFixture() {
  static auto* fixture = [] {
    auto f = new ServerFixture();
    f->corpus = std::make_unique<storage::ShardSet>(
        storage::ShardSet::FromDatabase(workload::GenerateBookRevDatabase(
            workload::BookRevOptions{})));
    f->service = std::make_unique<service::QueryService>(f->corpus.get());
    Status registered =
        f->service->RegisterView("default", workload::BookRevView());
    if (!registered.ok()) {
      std::fprintf(stderr, "FATAL RegisterView: %s\n",
                   registered.ToString().c_str());
      std::abort();
    }
    f->server = std::make_unique<server::Server>(f->service.get(),
                                                 server::ServerOptions{});
    Status started = f->server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "FATAL Start: %s\n", started.ToString().c_str());
      std::abort();
    }
    return f;
  }();
  return *fixture;
}

void BM_ServerThroughput(benchmark::State& state) {
  ServerFixture& fixture = GetServerFixture();
  server::LoadOptions options;
  options.port = fixture.server->port();
  options.connections = static_cast<int>(state.range(0));
  options.requests_per_connection = 32;
  int64_t requests = 0;
  for (auto _ : state) {
    auto report = server::RunLoadDriver(options);
    if (!report.ok()) {
      std::fprintf(stderr, "FATAL RunLoadDriver: %s\n",
                   report.status().ToString().c_str());
      std::abort();
    }
    if (report->ok != report->attempted) {
      std::fprintf(stderr,
                   "FATAL load driver errors: %llu of %llu requests failed\n",
                   static_cast<unsigned long long>(report->attempted -
                                                   report->ok),
                   static_cast<unsigned long long>(report->attempted));
      std::abort();
    }
    requests += static_cast<int64_t>(report->attempted);
    state.counters["p99_us"] = benchmark::Counter(
        static_cast<double>(report->latency->ValueAtQuantile(0.99)));
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ServerThroughput)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->ArgName("connections");

}  // namespace
}  // namespace quickview::bench

BENCHMARK_MAIN();
