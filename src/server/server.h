// Server: the network front end over QueryService — a TCP listener
// speaking the framed binary protocol of server/protocol.h, built on
// thread-per-connection readers (hard connection cap) that dispatch RPC
// work onto one ThreadPool.
//
// Admission control: every pooled RPC passes a bounded admission gate
// before it may queue. Queue full -> the request is SHED: an immediate
// kResourceExhausted error frame from the reader thread, never unbounded
// buffering — under overload clients get a typed "back off" in O(1)
// instead of a timeout. Stats and CloseCursor bypass the gate and run
// inline on the reader thread: observability and resource release must
// keep working exactly when the pool is saturated.
//
// Deadlines: a request's deadline_ms is absolute from frame arrival.
// Expired before a worker picks it up -> kDeadlineExceeded without
// executing; otherwise the remaining budget flows into
// SearchRequest::deadline, so in-flight shard work unwinds through the
// engine's CancellationToken and the typed error crosses the wire.
//
// Handles: cursors opened by kOpenCursor are session-scoped ids living
// on the connection; disconnect destroys them (serialized against any
// in-flight FetchNext on the same cursor map). Prepared-query reuse
// happens one layer down, in the service's PreparedQueryCache — every
// Search/OpenCursor for the same (view, plan) hits it.
//
// Observability: per-opcode log-bucketed latency histograms
// (arrival -> response written) plus admission/shed/inflight/connection
// counters, all returned by the kStats RPC alongside the service's own
// QueryService::Stats. Every series also lives in an obs::MetricsRegistry
// (server counters, per-opcode latency histograms, and everything the
// QueryService stack registers), so `kStats format=text` answers with a
// Prometheus exposition. Requests carrying kFlagTrace (or all of them,
// with ServerOptions::trace_all) run with an obs::Trace whose request id
// is the wire request id; the serialized span tree rides back on the
// response and feeds the worst-K SlowQueryLog.
#ifndef QUICKVIEW_SERVER_SERVER_H_
#define QUICKVIEW_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "engine/result_cursor.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "service/query_service.h"

namespace quickview::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is Server::port() after Start.
  uint16_t port = 0;
  /// RPC worker threads; 0 = hardware concurrency.
  int worker_threads = 0;
  /// Admission gate: pooled RPCs queued-but-not-executing beyond this
  /// are shed with kResourceExhausted.
  size_t admission_queue_limit = 128;
  /// Hard cap on concurrent connections; over it, accepts are rejected
  /// with a kResourceExhausted error frame and closed.
  size_t max_connections = 64;
  /// Trace every request server-side, as if kFlagTrace were set — the
  /// slow-query log then always carries span trees. Responses only echo
  /// the trace back when the CLIENT set kFlagTrace on its request.
  bool trace_all = false;
  /// Slow-query log: completed requests at/above this latency compete
  /// for the worst-K slots. 0 considers every request.
  uint64_t slow_query_threshold_us = 0;
  /// Worst-K capacity of the slow-query log; 0 disables it.
  size_t slow_query_capacity = 8;
};

/// Whether TCP_NODELAY is set on socket `fd`; false for a descriptor that
/// is not an open TCP socket.
bool TcpNoDelayEnabled(int fd);

class Server {
 public:
  /// `service` must outlive the server. Call Start() to begin serving.
  Server(service::QueryService* service, const ServerOptions& options);

  /// Stops (if still running) and joins every thread.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept thread. InvalidArgument on a
  /// bad host, Internal on socket failures.
  Status Start();

  /// Closes the listener and every connection, joins all reader threads,
  /// and drains the worker pool. Idempotent.
  void Stop();

  /// The bound port (after Start); 0 before.
  uint16_t port() const { return port_; }

  /// The RPC worker pool — exposed so tests can stall it (submit gate
  /// tasks) to exercise shedding and deadline expiry deterministically.
  ThreadPool* worker_pool() { return &pool_; }

  /// The kStats answer, also available in-process.
  StatsResponse SnapshotStats() const;

  /// The unified metrics registry (server + QueryService stack).
  /// `kStats format=text` answers with MetricsText(); tools also dump it
  /// on shutdown.
  const obs::MetricsRegistry& registry() const { return registry_; }
  std::string MetricsText() const { return registry_.TextExposition(); }

 private:
  /// A server-side cursor plus the trace that produced it, so every
  /// later FetchNext keeps attributing materialization work to the same
  /// span tree.
  struct CursorEntry {
    std::unique_ptr<engine::ResultCursor> cursor;
    std::shared_ptr<obs::Trace> trace;
  };
  /// Per-connection state. Reader thread, worker tasks and the close
  /// path all hold a shared_ptr, so the fd closes exactly once — in the
  /// destructor, after the last user is gone (no fd-reuse races).
  struct Connection {
    ~Connection();

    int fd = -1;
    uint64_t id = 0;
    /// Serializes whole-frame writes (worker tasks and the reader thread
    /// may respond concurrently on one connection).
    qv::Mutex write_mu;
    /// Guards the cursor table. Disconnect cleanup destroys cursors
    /// under this lock, so an in-flight FetchNext on a worker either
    /// completes first or finds the cursor already gone — never touches
    /// a dying one.
    qv::Mutex cursor_mu;
    std::map<uint64_t, CursorEntry> cursors QV_GUARDED_BY(cursor_mu);
    uint64_t next_cursor QV_GUARDED_BY(cursor_mu) = 1;
    /// Set when the peer disconnected or the server is stopping; writers
    /// skip the (dead) socket.
    std::atomic<bool> closing{false};
  };

  void AcceptLoop();
  /// Joins reader threads whose connections already ended.
  void ReapFinishedReaders();
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  /// Routes one decoded frame: inline opcodes run here; pooled opcodes
  /// pass the admission gate and are submitted.
  void HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame,
                   std::chrono::steady_clock::time_point arrival);
  /// Trace + description of one RPC, filled by RunOpcode and consumed by
  /// the response path (traced payload) and the slow-query log.
  struct RpcObs {
    /// Serialized span tree; empty when the request ran untraced.
    std::string trace;
    /// Human-readable request summary for the slow-query log.
    std::string description;
  };

  /// Runs one RPC end to end: execute, respond (wrapping the payload
  /// with the span tree when the client asked for a trace), record
  /// latency, offer the slow-query log. Used by workers and the inline
  /// reader-thread path alike.
  void ExecuteRpc(const std::shared_ptr<Connection>& conn, const Frame& frame,
                  std::chrono::steady_clock::time_point arrival);
  /// Builds + executes the opcode's success payload; any error becomes
  /// an error frame. `arrival` anchors the request's absolute deadline.
  Result<std::string> RunOpcode(const std::shared_ptr<Connection>& conn,
                                const Frame& frame,
                                std::chrono::steady_clock::time_point arrival,
                                RpcObs* obs);
  /// Destroys every cursor the connection still holds (disconnect path).
  void CloseConnectionCursors(const std::shared_ptr<Connection>& conn);

  /// Writes one frame; on socket failure marks the connection closing.
  void SendFrame(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void SendResponse(const std::shared_ptr<Connection>& conn, Opcode opcode,
                    uint64_t request_id, std::string payload,
                    uint8_t flags = 0);
  void SendError(const std::shared_ptr<Connection>& conn, Opcode opcode,
                 uint64_t request_id, const Status& status);
  /// Response-written timestamp minus arrival, into the opcode's
  /// histogram; returns the elapsed microseconds.
  uint64_t RecordLatency(Opcode opcode,
                         std::chrono::steady_clock::time_point arrival);
  /// Registers the server's own counters, gauges and per-opcode latency
  /// histograms into registry_ (constructor-time; names are unique by
  /// construction, so failure is a programming error).
  void RegisterServerMetrics();

  service::QueryService* service_;
  ServerOptions options_;

  int listen_fd_ = -1;
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  qv::Mutex conns_mu_;
  std::map<uint64_t, std::shared_ptr<Connection>> conns_
      QV_GUARDED_BY(conns_mu_);
  std::map<uint64_t, std::thread> readers_ QV_GUARDED_BY(conns_mu_);
  /// Reader threads that returned and can be joined (a thread cannot
  /// join itself, so the accept loop / Stop reap them).
  std::vector<uint64_t> finished_readers_ QV_GUARDED_BY(conns_mu_);
  uint64_t next_conn_ QV_GUARDED_BY(conns_mu_) = 1;

  // Admission + observability counters (see StatsResponse).
  std::atomic<uint64_t> queued_{0};
  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_rejected_{0};
  std::atomic<uint64_t> open_cursors_{0};
  std::atomic<uint64_t> conns_open_{0};
  std::atomic<uint64_t> conns_accepted_{0};
  std::atomic<uint64_t> conns_rejected_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  Histogram latency_[kOpcodeSlots];
  /// Per-opcode admission outcomes (slot 0 unused), alongside the
  /// process-wide totals above.
  std::atomic<uint64_t> op_shed_[kOpcodeSlots]{};
  std::atomic<uint64_t> op_deadline_rejected_[kOpcodeSlots]{};

  /// Unified registry: server series registered in the constructor, plus
  /// everything QueryService::RegisterMetrics pulls in.
  obs::MetricsRegistry registry_;
  obs::SlowQueryLog slow_log_;

  ThreadPool pool_;  // last-ish: workers must stop before state above
};

}  // namespace quickview::server

#endif  // QUICKVIEW_SERVER_SERVER_H_
