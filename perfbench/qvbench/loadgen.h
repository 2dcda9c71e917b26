// The wire half of the benchmark: drives a running quickview_server over
// loopback with the framed protocol, one thread per connection. Each
// thread both sends and receives on its connection (poll until the next
// due time), so an open-loop schedule is sent on time whether or not
// earlier requests have answered, with responses matched by request id.
// A closed-loop connection sends its next request only when the previous
// one completed. Every outcome keeps its timings and answer digest.
#ifndef PERFBENCH_QVBENCH_LOADGEN_H_
#define PERFBENCH_QVBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "qvbench/answers.h"
#include "qvbench/inputs.h"
#include "qvbench/spans.h"

namespace qvbench {

struct Outcome {
  OpKind kind = OpKind::kSearch;
  int source = 0;
  uint64_t index = 0;
  // Times in ms since the phase epoch. `due_ms` is the scheduled send
  // time (open loop) or the actual send time (closed loop).
  double due_ms = 0;
  double sent_ms = 0;
  double first_page_ms = 0;  // kPaged: first FetchNext answered
  double done_ms = 0;
  bool ok = false;  // false: error status, shed, deadline or transport
  Digest digest;    // reads
};

/// What one connection does during a phase: an open-loop schedule (each
/// request's due_ms set), or a closed loop pulling requests from `next`
/// until `closed_until_ms`. A `paced` schedule sends each request at its
/// due time or when the previous one answered, whichever is later, so it
/// never has two in flight (a writer whose writes must apply in order).
struct ConnPlan {
  std::vector<Request> scheduled;
  bool paced = false;
  std::function<std::optional<Request>()> next;
  double closed_until_ms = 0;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // all connections, unordered
  std::vector<double> late_ms;    // open-loop send lateness (not paced)
  uint64_t pooled_sent = 0;       // frames the server admits or sheds
  double elapsed_ms = 0;
  quickview::Status status;       // setup failure (cannot connect)
};

struct LoadOptions {
  uint16_t port = 0;
  /// Test hook: corrupt the answer of the N-th (1-based) read response
  /// before it is digested, so the output check must fail. 0 = off.
  uint64_t corrupt_response = 0;
};

/// Runs every plan on its own connection and thread, starting together.
PhaseResult RunPhase(const LoadOptions& options,
                     std::vector<ConnPlan> plans);

}  // namespace qvbench

#endif  // PERFBENCH_QVBENCH_LOADGEN_H_
