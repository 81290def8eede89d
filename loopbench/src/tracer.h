// In-memory span recorder for the traced run.
//
// Each thread owns one SpanBuffer (pre-reserved, never shared), so
// recording a span is two clock reads and a vector append — no locks.
// A span records its name, start, end, parent (a span id in the same
// buffer, 0 for a top-level span) and a request id. Buffers are read
// only after their threads have been joined.
#ifndef LOOPBENCH_TRACER_H_
#define LOOPBENCH_TRACER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace loopbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t parent = 0;  // 1-based id in the same buffer, 0 = root
  std::uint64_t request = 0;

  double ms() const { return MsSince(start, end); }
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t reserve = 1 << 16) {
    spans_.reserve(reserve);
  }

  // Opens a span and returns its 1-based id.
  std::uint32_t Begin(const char* name, std::uint32_t parent,
                      std::uint64_t request) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start = Clock::now();
    spans_.push_back(s);
    return static_cast<std::uint32_t>(spans_.size());
  }
  void End(std::uint32_t id) { spans_[id - 1].end = Clock::now(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// RAII span; a null buffer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, std::uint32_t parent = 0,
             std::uint64_t request = 0)
      : buffer_(buffer),
        id_(buffer == nullptr ? 0 : buffer->Begin(name, parent, request)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  std::uint32_t id_;
};

// Per-name totals over a buffer: wall time and self time (wall minus
// the wall time of direct children).
struct SpanTotals {
  std::size_t count = 0;
  double wall_ms = 0.0;
  double self_ms = 0.0;
};

inline std::map<std::string, SpanTotals> Totals(const SpanBuffer& buffer) {
  const std::vector<Span>& spans = buffer.spans();
  std::vector<double> child_ms(spans.size() + 1, 0.0);
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.ms();
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.wall_ms += spans[i].ms();
    t.self_ms += spans[i].ms() - child_ms[i + 1];
  }
  return totals;
}

// Cost of recording one span, measured on a scratch buffer (ms).
inline double SpanCostMs() {
  constexpr int kSpans = 100000;
  SpanBuffer scratch(kSpans);
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&scratch, "overhead_probe");
  }
  return MsSince(t0, Clock::now()) / kSpans;
}

}  // namespace loopbench

#endif  // LOOPBENCH_TRACER_H_
