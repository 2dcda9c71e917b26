#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cstring>

namespace quickview::obs {

namespace {

// The longest decimal rendering of a uint64_t.
constexpr size_t kNumberBytes = 20;
// The longest rendering of a span line around its name and counters.
constexpr size_t kLineBytes =
    sizeof(" shard= start=us dur=us\n") + 3 * kNumberBytes;
// The longest rendering of a counter around its name.
constexpr size_t kCounterBytes = sizeof(" =") + kNumberBytes;

char* Put(char* out, std::string_view text) {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

// Serialize runs once per traced request, after the search has filled
// the caches, so its code is kept small: the two writers below stay out
// of line (inlined at every call site they cost more than they save).

// Put for a span or counter name: one of 4 to 16 bytes (most are) is
// copied as two overlapping fixed-size moves rather than a memcpy call.
[[gnu::noinline]] char* PutName(char* out, std::string_view name) {
  const char* from = name.data();
  const size_t size = name.size();
  if (size >= 8 && size <= 16) {
    uint64_t head;
    uint64_t tail;
    std::memcpy(&head, from, 8);
    std::memcpy(&tail, from + size - 8, 8);
    std::memcpy(out, &head, 8);
    std::memcpy(out + size - 8, &tail, 8);
  } else if (size >= 4 && size < 8) {
    uint32_t head;
    uint32_t tail;
    std::memcpy(&head, from, 4);
    std::memcpy(&tail, from + size - 4, 4);
    std::memcpy(out, &head, 4);
    std::memcpy(out + size - 4, &tail, 4);
  } else {
    std::memcpy(out, from, size);
  }
  return out + size;
}

[[gnu::noinline]] char* PutNumber(char* out, uint64_t value) {
  if (value < 10) {  // most counters and shard ids
    *out = static_cast<char>('0' + value);
    return out + 1;
  }
  return std::to_chars(out, out + kNumberBytes, value).ptr;
}

}  // namespace

void TraceSpan::Close() { CloseAt(Clock::now()); }

void TraceSpan::CloseAt(Clock::time_point end) {
  const uint64_t now = trace_->ToNs(end);
  duration_ns_ = now > start_ns_ ? now - start_ns_ : 0;
  closed_ = true;
}

void TraceSpan::AddCounter(std::string_view name, uint64_t delta) {
  if (spilled_ == nullptr) {
    // Names are literals: an upsert usually finds its own pointer.
    for (size_t i = 0; i < inline_count_; ++i) {
      if (name_sizes_[i] == name.size() &&
          (names_[i] == name.data() ||
           std::memcmp(names_[i], name.data(), name.size()) == 0)) {
        values_[i] += delta;
        return;
      }
    }
    text_bound_ += static_cast<uint32_t>(name.size() + kCounterBytes);
    if (inline_count_ < kInlineCounters && name.size() <= UINT8_MAX) {
      name_sizes_[inline_count_] = static_cast<uint8_t>(name.size());
      names_[inline_count_] = name.data();
      values_[inline_count_++] = delta;
      return;
    }
    spilled_ = std::make_unique<
        std::vector<std::pair<std::string_view, uint64_t>>>();
    for (size_t i = 0; i < inline_count_; ++i) {
      spilled_->emplace_back(counter_name(i), values_[i]);
    }
  } else {
    for (auto& [key, value] : *spilled_) {
      if (key == name) {
        value += delta;
        return;
      }
    }
    text_bound_ += static_cast<uint32_t>(name.size() + kCounterBytes);
  }
  spilled_->emplace_back(name, delta);
}

uint64_t TraceSpan::counter(std::string_view name) const {
  for (size_t i = 0; i < counter_count(); ++i) {
    if (counter_name(i) == name) return counter_value(i);
  }
  return 0;
}

Trace::Trace(uint64_t id, std::string_view root_name)
    : epoch_(TraceSpan::Clock::now()), id_(id) {
  // The Trace and a heap block of spans stay small requests for malloc:
  // glibc serves a request under 1 KB from its per-thread cache, while a
  // larger one may first consolidate every chunk the previous request
  // freed, which costs a warm search microseconds.
  static_assert(sizeof(Trace) < 960 &&
                sizeof(TraceSpan) * kBlockSpans < 960);
  root_ = StartSpanAt(root_name, nullptr, -1, epoch_);
}

uint64_t Trace::ToNs(TraceSpan::Clock::time_point instant) const {
  return instant <= epoch_
             ? 0
             : static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       instant - epoch_)
                       .count());
}

TraceSpan* Trace::StartSpan(std::string_view name, TraceSpan* parent,
                            int shard) {
  return StartSpanAt(name, parent, shard, TraceSpan::Clock::now());
}

TraceSpan* Trace::StartSpanAt(std::string_view name, TraceSpan* parent,
                              int shard, TraceSpan::Clock::time_point start) {
  const size_t slot = size_.fetch_add(1, std::memory_order_relaxed);
  TraceSpan* span;
  if (slot < kBlockSpans) {
    span = &first_block_[slot];
  } else {
    qv::MutexLock lock(mu_);
    span = BlockSlot(slot);
  }
  span->trace_ = this;
  span->name_ = name;
  span->parent_ = parent != nullptr ? parent : root_;  // null for the root
  span->depth_ = span->parent_ != nullptr ? span->parent_->depth_ + 1 : 0;
  span->shard_ = shard;
  span->start_ns_ = ToNs(start);
  span->text_bound_ =
      static_cast<uint32_t>(2 * span->depth_ + name.size() + kLineBytes);
  return span;
}

TraceSpan* Trace::BlockSlot(size_t slot) {
  const size_t block = slot / kBlockSpans - 1;
  while (blocks_.size() <= block) {
    blocks_.emplace_back(new TraceSpan[kBlockSpans]);
  }
  return &blocks_[block][slot % kBlockSpans];
}

const TraceSpan& Trace::At(size_t slot) const {
  if (slot < kBlockSpans) return first_block_[slot];
  return blocks_[slot / kBlockSpans - 1][slot % kBlockSpans];
}

std::vector<const TraceSpan*> Trace::spans() const {
  qv::MutexLock lock(mu_);
  const size_t count = size_.load(std::memory_order_relaxed);
  std::vector<const TraceSpan*> out;
  out.reserve(count);
  for (size_t slot = 0; slot < count; ++slot) out.push_back(&At(slot));
  return out;
}

char* Trace::Render(size_t slot, size_t count, char* out) const {
  const TraceSpan& span = At(slot);
  out = std::fill_n(out, 2 * span.depth_, ' ');
  out = PutName(out, span.name());
  if (span.shard() >= 0) {
    out = PutNumber(Put(out, " shard="), static_cast<uint64_t>(span.shard()));
  }
  out = PutNumber(Put(out, " start="), span.start_ns() / 1000);
  out = PutNumber(Put(out, "us dur="), span.duration_ns() / 1000);
  out = Put(out, "us");
  for (size_t i = 0; i < span.counter_count(); ++i) {
    *out++ = ' ';
    out = PutName(out, span.counter_name(i));
    *out++ = '=';
    out = PutNumber(out, span.counter_value(i));
  }
  *out++ = '\n';
  // A span is created after its parent, so its children follow it.
  for (size_t child = slot + 1; child < count; ++child) {
    if (At(child).parent() == &span) {
      out = Render(child, count, out);
    }
  }
  return out;
}

std::string Trace::Serialize() {
  if (!root_->closed()) root_->Close();
  qv::MutexLock lock(mu_);
  const size_t count = size_.load(std::memory_order_relaxed);
  size_t bound = sizeof("trace \n") + kNumberBytes;
  for (size_t slot = 0; slot < count; ++slot) bound += At(slot).text_bound_;
  // A request's trace fits the stack buffer.
  char stack_buffer[4096];
  std::unique_ptr<char[]> heap_buffer;
  char* buffer = stack_buffer;
  if (bound > sizeof(stack_buffer)) {
    heap_buffer.reset(new char[bound]);
    buffer = heap_buffer.get();
  }
  char* out = PutNumber(Put(buffer, "trace "), id_);
  *out++ = '\n';
  out = Render(0, count, out);
  return std::string(buffer, out);
}

}  // namespace quickview::obs
