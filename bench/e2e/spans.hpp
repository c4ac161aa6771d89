// In-memory span recorder for traced repetitions. The benchmark opens a span
// around every call it makes into a layer; spans nest by call order, so a
// rebalance tick that fires inside a settle becomes that settle's child.
// Spans are written out only after the repetition ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pleroma::e2e {

class SpanRecorder {
 public:
  using NameId = std::uint32_t;
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    NameId name = 0;
    std::uint32_t parent = kNoParent;
    /// Groups the spans of one request: the event id for a publish, 0 for
    /// spans that serve the whole repetition.
    std::uint64_t trace = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  NameId intern(const std::string& name);
  const std::string& name(NameId id) const { return names_[id]; }

  std::uint32_t open(NameId name, std::uint64_t trace);
  void close(std::uint32_t span);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Each span's duration minus the time its direct children cover.
  std::vector<std::int64_t> selfTimes() const;

  /// Chrome trace-event JSON ("X" events, microsecond timestamps).
  bool writeChromeTrace(const std::string& path) const;

 private:
  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::string> names_;
};

/// Opens a span for its lifetime; does nothing when the recorder is null,
/// which is how untraced repetitions run the same code.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, SpanRecorder::NameId name, std::uint64_t trace = 0)
      : rec_(rec) {
    if (rec_ != nullptr) id_ = rec_->open(name, trace);
  }
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t id_ = 0;
};

}  // namespace pleroma::e2e
