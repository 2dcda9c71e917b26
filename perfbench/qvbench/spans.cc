#include "qvbench/spans.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

namespace qvbench {

namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

int SpanRecorder::Begin(const char* name, uint64_t request, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  qv::MutexLock lock(mu_);
  span.start = Clock::now();
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id) {
  if (!enabled_ || id < 0) return;
  Clock::time_point now = Clock::now();
  qv::MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

SpanSummary SpanRecorder::Summarize() const {
  qv::MutexLock lock(mu_);
  SpanSummary summary;
  std::vector<double> child_ms(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] += Ms(span.end - span.start);
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double ms = Ms(span.end - span.start);
    if (span.parent < 0 && std::strcmp(span.name, "request") == 0) {
      summary.request_ms += ms;
      summary.unattributed_ms += std::max(0.0, ms - child_ms[i]);
      summary.requests.emplace_back(span.request, ms);
      continue;
    }
    summary.durations_ms[span.name].push_back(ms);
    summary.total_ms[span.name] += ms;
  }
  return summary;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  qv::MutexLock lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (spans_.empty()) return static_cast<bool>(out);
  const Clock::time_point origin = spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"name\": \"" << span.name << "\", \"request\": " << span.request
        << ", \"id\": " << i << ", \"parent\": " << span.parent
        << ", \"start_us\": " << us(span.start)
        << ", \"end_us\": " << us(span.end) << "}\n";
  }
  return static_cast<bool>(out);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace qvbench
