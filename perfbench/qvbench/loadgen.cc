#include "qvbench/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "server/protocol.h"

namespace qvbench {

namespace {

using namespace quickview;
using server::Frame;
using server::Opcode;

/// A response that has not arrived in this long fails the request as a
/// transport error and ends the connection's phase.
constexpr double kStallMs = 20000;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::time_point At(Clock::time_point epoch, double ms) {
  return epoch + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
}

/// One loopback connection: blocking sends, polled non-blocking reads.
/// Its own sockets rather than server::Client, which is strictly one
/// request, one response: an open loop must keep sending while answers
/// are outstanding. Frames still go through the protocol's codecs.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  Status Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);  // lint:allow(raw-socket)
    if (fd_ < 0) return Status::Internal("socket failed");
    int one = 1;
    (void)::setsockopt(  // lint:allow(raw-socket)
        fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const auto* peer = reinterpret_cast<const sockaddr*>(&addr);
    if (::connect(fd_, peer, sizeof(addr)) != 0) {  // lint:allow(raw-socket)
      return Status::Internal(std::string("connect: ") + std::strerror(errno));
    }
    return Status::OK();
  }

  Status Send(Opcode opcode, uint64_t id, std::string payload) {
    Frame frame;
    frame.opcode = opcode;
    frame.request_id = id;
    frame.payload = std::move(payload);
    std::string wire;
    server::EncodeFrame(frame, &wire);
    size_t sent = 0;
    while (sent < wire.size()) {
      ssize_t n = ::send(  // lint:allow(raw-socket)
          fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::Internal("send failed");
      sent += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  /// Waits for readable bytes until `until`, then decodes every whole
  /// frame buffered so far into `frames`.
  Status Poll(Clock::time_point until, std::vector<Frame>* frames) {
    Clock::time_point now = Clock::now();
    auto wait = until > now ? until - now : Clock::duration::zero();
    timespec ts{};
    auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    ts.tv_sec = static_cast<time_t>(ns / 1000000000);
    ts.tv_nsec = static_cast<long>(ns % 1000000000);
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) return Status::OK();
      return Status::Internal("poll failed");
    }
    if (ready == 0) return Status::OK();
    char chunk[64 * 1024];
    for (;;) {
      // Acknowledge at once (Linux clears quick-ACK mode, so it is set
      // before every read). Many requests share each of the few
      // connections here; with delayed ACKs, the server's small writes
      // (it does not set TCP_NODELAY) would wait for the client's next
      // request or the delayed-ACK timer, an artifact of pipelining that
      // independent one-request-at-a-time clients do not see.
      int one = 1;
      (void)::setsockopt(  // lint:allow(raw-socket)
          fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      ssize_t n = ::recv(  // lint:allow(raw-socket)
          fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return Status::Internal("connection closed by server");
    }
    size_t offset = 0;
    while (offset < buffer_.size()) {
      Frame frame;
      size_t consumed = 0;
      Result<server::FrameDecode> state = server::DecodeFrame(
          std::string_view(buffer_).substr(offset), &frame, &consumed);
      if (!state.ok()) return state.status();
      if (*state == server::FrameDecode::kNeedMore) break;
      offset += consumed;
      frames->push_back(std::move(frame));
    }
    buffer_.erase(0, offset);
    return Status::OK();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The per-connection request state machine: Search answers in one
/// frame; a paged read is OpenCursor, FetchNext pages until top_k hits
/// or done, then CloseCursor; writes answer in one frame.
class RequestMachine {
 public:
  RequestMachine(WireConn* conn, Clock::time_point epoch,
                 std::atomic<uint64_t>* read_responses, uint64_t corrupt_at,
                 PhaseResult* local)
      : conn_(conn),
        epoch_(epoch),
        read_responses_(read_responses),
        corrupt_at_(corrupt_at),
        local_(local) {}

  size_t inflight() const { return pending_.size(); }

  /// Sends `request`'s first frame now; `due_ms` is its scheduled time.
  Status Start(const Request& request, double due_ms, bool closed_loop) {
    Outcome outcome;
    outcome.kind = request.kind;
    outcome.source = request.source;
    outcome.index = request.index;
    outcome.sent_ms = MsBetween(epoch_, Clock::now());
    outcome.due_ms = closed_loop ? outcome.sent_ms : due_ms;
    Pending pending;
    pending.outcome = local_->outcomes.size();
    pending.top_k = request.top_k;
    pending.page_size = request.page_size;
    std::string payload;
    Opcode opcode = Opcode::kSearch;
    switch (request.kind) {
      case OpKind::kSearch:
      case OpKind::kPaged: {
        server::SearchRpcRequest rpc;
        rpc.view = "v" + std::to_string(request.view);
        rpc.keywords = request.keywords;
        rpc.top_k = request.top_k;
        rpc.conjunctive = request.conjunctive;
        server::Encode(rpc, &payload);
        opcode = request.kind == OpKind::kPaged ? Opcode::kOpenCursor
                                                : Opcode::kSearch;
        break;
      }
      case OpKind::kInsert:
      case OpKind::kReplace: {
        server::InsertRequest insert;
        insert.name = request.doc;
        insert.xml_text = request.xml;
        server::Encode(insert, &payload);
        opcode = Opcode::kInsert;
        break;
      }
      case OpKind::kRemove: {
        server::RemoveRequest remove;
        remove.name = request.doc;
        server::Encode(remove, &payload);
        opcode = Opcode::kRemove;
        break;
      }
    }
    local_->outcomes.push_back(outcome);
    return SendStage(pending, opcode, std::move(payload));
  }

  /// Advances the request `frame` answers.
  Status OnFrame(Frame frame) {
    auto it = pending_.find(frame.request_id);
    if (it == pending_.end()) {
      return Status::Internal("response for unknown request id " +
                              std::to_string(frame.request_id));
    }
    Pending pending = std::move(it->second);
    pending_.erase(it);
    Outcome& outcome = local_->outcomes[pending.outcome];
    const double now_ms = MsBetween(epoch_, Clock::now());
    if ((frame.flags & server::kFlagError) != 0) {
      Status decoded;
      QUICKVIEW_RETURN_IF_ERROR(
          server::DecodeStatusPayload(frame.payload, &decoded));
      outcome.done_ms = now_ms;  // a failed request; `ok` stays false
      return Status::OK();
    }
    switch (frame.opcode) {
      case Opcode::kSearch: {
        QUICKVIEW_ASSIGN_OR_RETURN(engine::SearchResponse response,
                                   server::DecodeSearchResponse(frame.payload));
        MaybeCorrupt(&response.hits);
        pending.digest.Add(response.hits);
        return Finish(&outcome, pending, now_ms);
      }
      case Opcode::kOpenCursor: {
        QUICKVIEW_ASSIGN_OR_RETURN(
            server::OpenCursorResponse opened,
            server::DecodeOpenCursorResponse(frame.payload));
        pending.cursor = opened.cursor_id;
        return FetchPage(pending);
      }
      case Opcode::kFetchNext: {
        QUICKVIEW_ASSIGN_OR_RETURN(
            server::FetchNextResponse page,
            server::DecodeFetchNextResponse(frame.payload));
        if (pending.pages++ == 0) outcome.first_page_ms = now_ms;
        MaybeCorrupt(&page.hits);
        pending.digest.Add(page.hits);
        if (!page.done && !page.hits.empty() &&
            pending.digest.value().hits < pending.top_k) {
          return FetchPage(pending);
        }
        server::CloseCursorRequest close;
        close.cursor_id = pending.cursor;
        std::string payload;
        server::Encode(close, &payload);
        return SendStage(pending, Opcode::kCloseCursor, std::move(payload));
      }
      case Opcode::kCloseCursor:
      case Opcode::kInsert:
      case Opcode::kRemove:
        return Finish(&outcome, pending, now_ms);
      default:
        return Status::Internal("unexpected response opcode");
    }
  }

  /// Gives up on every request still in flight (they stay failed).
  void AbandonAll() { pending_.clear(); }

 private:
  struct Pending {
    size_t outcome = 0;
    uint32_t top_k = 0;
    uint32_t page_size = 0;
    uint64_t cursor = 0;
    int pages = 0;
    HitDigest digest;
  };

  Status SendStage(Pending pending, Opcode opcode, std::string payload) {
    const uint64_t id = next_id_++;
    if (opcode != Opcode::kCloseCursor && opcode != Opcode::kStats) {
      ++local_->pooled_sent;
    }
    pending_.emplace(id, std::move(pending));
    return conn_->Send(opcode, id, std::move(payload));
  }

  Status FetchPage(Pending pending) {
    server::FetchNextRequest fetch;
    fetch.cursor_id = pending.cursor;
    fetch.count = pending.page_size;
    std::string payload;
    server::Encode(fetch, &payload);
    return SendStage(std::move(pending), Opcode::kFetchNext,
                     std::move(payload));
  }

  Status Finish(Outcome* outcome, const Pending& pending, double now_ms) {
    outcome->ok = true;
    outcome->done_ms = now_ms;
    outcome->digest = pending.digest.value();
    return Status::OK();
  }

  void MaybeCorrupt(std::vector<engine::SearchHit>* hits) {
    const uint64_t n = read_responses_->fetch_add(1) + 1;
    if (corrupt_at_ != 0 && n == corrupt_at_ && !hits->empty() &&
        !(*hits)[0].xml.empty()) {
      (*hits)[0].xml[0] ^= 0x20;
    }
  }

  WireConn* conn_;
  Clock::time_point epoch_;
  std::atomic<uint64_t>* read_responses_;
  uint64_t corrupt_at_;
  PhaseResult* local_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Pending> pending_;
};

/// Pumps responses until `until`; false once the connection failed.
bool Pump(WireConn* conn, RequestMachine* machine, Clock::time_point until,
          Status* status) {
  std::vector<Frame> frames;
  Status polled = conn->Poll(until, &frames);
  for (Frame& frame : frames) {
    Status handled = machine->OnFrame(std::move(frame));
    if (!handled.ok() && polled.ok()) polled = handled;
  }
  if (!polled.ok()) {
    *status = polled;
    machine->AbandonAll();
    return false;
  }
  return true;
}

void RunConnection(const LoadOptions& options, ConnPlan plan,
                   Clock::time_point epoch,
                   std::atomic<uint64_t>* read_responses, PhaseResult* local) {
  WireConn conn;
  local->status = conn.Connect(options.port);
  if (!local->status.ok()) return;
  RequestMachine machine(&conn, epoch, read_responses,
                         options.corrupt_response, local);
  Status status;
  // Open loop: send each request at its due time, whatever is in flight
  // (a paced schedule waits for the request in flight).
  size_t next = 0;
  Clock::time_point last_progress = Clock::now();
  while (next < plan.scheduled.size() || machine.inflight() > 0) {
    Clock::time_point now = Clock::now();
    while (next < plan.scheduled.size() &&
           At(epoch, plan.scheduled[next].due_ms) <= now &&
           !(plan.paced && machine.inflight() > 0)) {
      const Request& request = plan.scheduled[next];
      if (!plan.paced) {
        local->late_ms.push_back(MsBetween(At(epoch, request.due_ms), now));
      }
      status = machine.Start(request, request.due_ms, /*closed_loop=*/false);
      if (!status.ok()) break;
      ++next;
      now = Clock::now();
    }
    if (!status.ok()) break;
    if (next == plan.scheduled.size() && machine.inflight() == 0) break;
    const size_t before = machine.inflight();
    const bool held = plan.paced && before > 0;
    Clock::time_point until = next < plan.scheduled.size() && !held
                                  ? At(epoch, plan.scheduled[next].due_ms)
                                  : now + std::chrono::milliseconds(50);
    if (!Pump(&conn, &machine, until, &status)) break;
    if (machine.inflight() != before) last_progress = Clock::now();
    if ((next == plan.scheduled.size() || held) &&
        MsBetween(last_progress, Clock::now()) > kStallMs) {
      machine.AbandonAll();
      status = Status::DeadlineExceeded("server stalled");
      break;
    }
  }
  // Closed loop: one request at a time until the phase ends.
  while (status.ok() && plan.next &&
         MsBetween(epoch, Clock::now()) < plan.closed_until_ms) {
    std::optional<Request> request = plan.next();
    if (!request.has_value()) break;
    status = machine.Start(*request, 0, /*closed_loop=*/true);
    Clock::time_point started = Clock::now();
    while (status.ok() && machine.inflight() > 0) {
      if (!Pump(&conn, &machine, Clock::now() + std::chrono::milliseconds(50),
                &status)) {
        break;
      }
      if (MsBetween(started, Clock::now()) > kStallMs) {
        machine.AbandonAll();
        status = Status::DeadlineExceeded("server stalled");
      }
    }
  }
  if (!status.ok()) machine.AbandonAll();
  local->elapsed_ms = MsBetween(epoch, Clock::now());
  if (!status.ok() && local->status.ok()) local->status = status;
}

}  // namespace

PhaseResult RunPhase(const LoadOptions& options, std::vector<ConnPlan> plans) {
  std::vector<PhaseResult> locals(plans.size());
  std::atomic<uint64_t> read_responses{0};
  // A short lead so every thread is connected before the first due time.
  const Clock::time_point epoch = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  threads.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    threads.emplace_back(RunConnection, std::cref(options),
                         std::move(plans[i]), epoch, &read_responses,
                         &locals[i]);
  }
  for (std::thread& thread : threads) thread.join();
  PhaseResult merged;
  for (PhaseResult& local : locals) {
    merged.outcomes.insert(merged.outcomes.end(), local.outcomes.begin(),
                           local.outcomes.end());
    merged.late_ms.insert(merged.late_ms.end(), local.late_ms.begin(),
                          local.late_ms.end());
    merged.pooled_sent += local.pooled_sent;
    merged.elapsed_ms = std::max(merged.elapsed_ms, local.elapsed_ms);
    if (!local.status.ok() && merged.status.ok()) merged.status = local.status;
  }
  return merged;
}

}  // namespace qvbench
