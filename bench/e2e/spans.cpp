#include "spans.hpp"

#include <cstdio>
#include <fstream>

#include "obs/json.hpp"

namespace pleroma::e2e {

SpanRecorder::NameId SpanRecorder::intern(const std::string& name) {
  for (NameId i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<NameId>(names_.size() - 1);
}

std::uint32_t SpanRecorder::open(NameId name, std::uint64_t trace) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  s.trace = trace;
  s.startNs = nowNs();
  spans_.push_back(s);
  const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(std::uint32_t span) {
  spans_[span].endNs = nowNs();
  stack_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::selfTimes() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].endNs - spans_[i].startNs;
    if (spans_[i].parent != kNoParent) {
      self[spans_[i].parent] -= spans_[i].endNs - spans_[i].startNs;
    }
  }
  return self;
}

bool SpanRecorder::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\""
        << obs::jsonEscape(names_[s.name]) << "\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%lld,\"trace\":%llu}}",
                  static_cast<double>(s.startNs) / 1e3,
                  static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                  s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.trace));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace pleroma::e2e
