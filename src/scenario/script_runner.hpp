// A small command language for driving the middleware from scripts — used
// by the pleroma_cli example, by tests, and handy for reproducing bug
// reports. One command per line; '#' starts a comment.
//
//   topo fat-tree | topo ring N | topo line N | topo random N EXTRA SEED
//                               (a ring needs N >= 3, line and random N >= 1)
//   attrs K [BITS]              reset middleware with K attributes
//   adv  HOST lo:hi [lo:hi...]  advertise a rectangle (prints publisher id)
//   sub  HOST lo:hi [lo:hi...]  subscribe (prints subscription id)
//   unadv ID | unsub ID
//   pub  HOST v1 [v2...]        publish an event
//   fail L | restore L          link failure injection (by link id)
//   run                         settle the simulator, print deliveries
//   trees | flows SWITCH
//   stats                       one-line delivery/control summary
//   stats metrics               metrics registry, one line per metric
//   stats json                  metrics snapshot as single-line JSON
//   dimsel [THRESHOLD]          run dimension selection and re-index
//                               (0 < THRESHOLD <= 1, default 0.9)
//   scenario FILE.json          run a pleroma-scenario-v1 file exactly as
//                               scenario_run does (ScenarioRunner, full
//                               size): reset to its deployment, print each
//                               phase and fault, then one totals line
//   source FILE                 execute a plain command script from a file
//
// A scenario may deploy several partitions. There, the commands that need
// the one controller (adv, sub, pub, unadv, fail, restore, trees, dimsel
// and plain stats) print an error; the others keep working.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pleroma.hpp"

namespace pleroma::scenario {

class ScriptRunner {
 public:
  /// Output lines are passed to `sink` (e.g. print, or collect in a test).
  using OutputSink = std::function<void(const std::string&)>;

  explicit ScriptRunner(OutputSink sink);

  /// Executes one command line. Returns false when the script asked to
  /// quit; errors are reported through the sink and return true.
  bool executeLine(const std::string& line);

  /// Executes a whole script (newline separated).
  void executeScript(const std::string& script);

  /// The middleware currently driven (recreated by `topo`/`attrs`/
  /// `scenario`).
  core::Pleroma& middleware() noexcept { return *middleware_; }

 private:
  /// The CLI's own deployment: K attributes of BITS bits, one partition.
  void reset(net::Topology topo, int attrs, int bits);
  void reset(net::Topology topo, const core::PleromaOptions& options);
  /// Lists every later delivery at the next `run`.
  void collectDeliveries();
  /// False, after printing an error, when `cmd` needs the one controller
  /// and the deployment has several partitions.
  bool singlePartition(const std::string& cmd);
  net::NodeId hostByName(const std::string& name) const;
  net::NodeId switchByName(const std::string& name) const;
  /// Largest attribute value of the current schema.
  dz::AttributeValue domainMax() const;
  /// Reads one lo:hi range per attribute, each 0 <= lo <= hi <= domainMax().
  bool parseRanges(std::istream& in, dz::Rectangle& rect) const;
  void emit(const std::string& line) { sink_(line); }
  template <typename... Args>
  void emitf(const char* fmt, Args... args) {
    char buf[512];
    std::snprintf(buf, sizeof buf, fmt, args...);
    sink_(buf);
  }

  OutputSink sink_;
  std::unique_ptr<core::Pleroma> middleware_;
  int attrs_ = 2;
  int partitions_ = 1;
  std::vector<core::DeliveryRecord> pendingDeliveries_;
  /// `source` nesting depth; bounded so a file sourcing itself terminates.
  int sourceDepth_ = 0;
};

}  // namespace pleroma::scenario
