// pleroma_bench — end-to-end and per-layer benchmark.
//
//   pleroma_bench [--seed=N] [--reps=R | --seconds=S] [--workload=NAME]
//                 [--trace=DIR] [--smoke] [--workloads=DIR] --out=DIR
//   pleroma_bench compare BASE.json NEW.json
//
// Each repetition runs in a forked child, one at a time, on one thread.
// Repetitions are interleaved across workloads (w1..w4, w1..w4, ...), so
// slow drift of the machine spreads over all of them. --reps runs R rounds;
// --seconds runs rounds until S seconds have passed (at least three).
// --trace adds traced repetitions (one per workload after the --reps
// rounds, one per round with --seconds), whose spans give the per-layer
// metrics; end-to-end metrics always come from the untraced repetitions.
// Every metric is printed with its unit and written to DIR/results.json.
// The exit code is non-zero when any correctness check fails.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compare.hpp"
#include "metrics.hpp"
#include "obs/json.hpp"
#include "repetition.hpp"

namespace e2e = pleroma::e2e;
using pleroma::obs::JsonValue;

namespace {

/// The four workloads, in interleaving order (README.md says why each).
const std::vector<std::string> kWorkloads = {"fanout_uniform", "sub_churn",
                                             "hotspot_congested", "partitioned_ring"};
constexpr int kMinRounds = 3;

struct Options {
  std::uint64_t seed = 1;
  int reps = 5;
  double seconds = 0.0;
  std::vector<std::string> workloads = kWorkloads;
  std::string traceDir;
  bool smoke = false;
  std::string workloadDir = E2E_WORKLOAD_DIR;
  std::string outDir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "pleroma_bench: %s\n"
               "usage: pleroma_bench [--seed=N] [--reps=R | --seconds=S] "
               "[--workload=NAME] [--trace=DIR] [--smoke] [--workloads=DIR] --out=DIR\n"
               "       pleroma_bench compare BASE.json NEW.json\n",
               problem.c_str());
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  bool repsGiven = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--seed" && !value.empty()) {
        o.seed = std::stoull(value);
      } else if (key == "--reps" && !value.empty()) {
        o.reps = std::stoi(value);
        repsGiven = true;
      } else if (key == "--seconds" && !value.empty()) {
        o.seconds = std::stod(value);
      } else if (key == "--workload" && !value.empty()) {
        o.workloads = {value};
      } else if (key == "--trace" && !value.empty()) {
        o.traceDir = value;
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (key == "--workloads" && !value.empty()) {
        o.workloadDir = value;
      } else if (key == "--out" && !value.empty()) {
        o.outDir = value;
      } else {
        usage("unknown argument '" + arg + "'");
      }
    } catch (const std::exception&) {
      usage("bad value in '" + arg + "'");
    }
  }
  if (o.outDir.empty()) usage("--out=DIR is required");
  if (o.reps < 1 || o.seconds < 0) usage("--reps must be >= 1 and --seconds >= 0");
  // Two repetitions are the fewest that can show a nondeterministic metric.
  if (o.smoke && !repsGiven) o.reps = 2;
  return o;
}

/// One finished repetition as seen by the parent.
struct Outcome {
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void writeAll(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

/// The CPU every repetition is pinned to: the highest one this process may
/// run on (the lowest ones usually take the interrupts). Pinning cut the
/// run-to-run spread of run_s from about 9% to about 3% on a shared 4-vCPU
/// machine; -1 when the affinity mask cannot be read.
int repetitionCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &set)) return cpu;
  }
  return -1;
}

/// Runs one repetition in a forked child pinned to `cpu` and reaps it; the
/// child's peak RSS comes from wait4's ru_maxrss.
Outcome runChild(const e2e::RepetitionConfig& config, int cpu) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof one, &one);
    }
    JsonValue doc = JsonValue::object();
    int code = 0;
    try {
      const e2e::RepetitionResult r = e2e::runRepetition(config);
      JsonValue metrics = JsonValue::object();
      for (const auto& [name, value] : r.metrics) metrics.set(name, value);
      JsonValue errors = JsonValue::array();
      for (const std::string& e : r.errors) errors.push_back(e);
      doc.set("metrics", std::move(metrics));
      doc.set("errors", std::move(errors));
      doc.set("attempted", static_cast<unsigned long long>(r.attempted));
      doc.set("failed", static_cast<unsigned long long>(r.failed));
    } catch (const std::exception& e) {
      JsonValue errors = JsonValue::array();
      errors.push_back(std::string(e.what()));
      doc.set("errors", std::move(errors));
      code = 3;
    }
    writeAll(fds[1], doc.dump());
    ::close(fds[1]);
    std::fflush(stdout);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  ::wait4(pid, &status, 0, &usage);

  Outcome out;
  const std::optional<JsonValue> doc = JsonValue::parse(text);
  if (doc.has_value() && doc->isObject()) {
    if (const JsonValue* m = doc->get("metrics")) {
      for (const auto& [name, value] : m->members()) out.metrics[name] = value.asDouble();
    }
    if (const JsonValue* e = doc->get("errors")) {
      for (const JsonValue& line : e->items()) out.errors.push_back(line.asString());
    }
    if (const JsonValue* a = doc->get("attempted")) out.attempted = a->asInt();
    if (const JsonValue* f = doc->get("failed")) out.failed = f->asInt();
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.errors.push_back("repetition process ended abnormally (status " +
                         std::to_string(status) + ")");
  }
  out.metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

struct WorkloadRuns {
  std::vector<Outcome> plain;
  std::vector<Outcome> traced;
};

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string formatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Builds one workload's report, checks that every deterministic metric
/// repeated exactly, and prints the metric table.
JsonValue summarize(const std::string& name, const WorkloadRuns& runs,
                    std::vector<std::string>& errors) {
  std::uint64_t attempted = 0, failed = 0;
  for (const auto* group : {&runs.plain, &runs.traced}) {
    for (const Outcome& o : *group) {
      errors.insert(errors.end(), o.errors.begin(), o.errors.end());
      attempted += o.attempted;
      failed += o.failed;
    }
  }

  JsonValue metrics = JsonValue::object();
  std::printf("\n== %s: %zu repetitions, %zu traced\n", name.c_str(), runs.plain.size(),
              runs.traced.size());
  std::printf("%-36s %14s %-6s %14s %14s\n", "metric", "median", "unit", "q1", "q3");
  auto collect = [](const std::vector<Outcome>& group, const std::string& metric) {
    std::vector<double> values;
    for (const Outcome& o : group) {
      const auto it = o.metrics.find(metric);
      if (it != o.metrics.end()) values.push_back(it->second);
    }
    return values;
  };
  for (const e2e::MetricDef& def : e2e::metricCatalogue()) {
    std::vector<double> values;
    if (def.name == "obs.trace_overhead") {
      const std::vector<double> plainRun = collect(runs.plain, "run_s");
      const std::vector<double> tracedRun = collect(runs.traced, "run_s");
      if (plainRun.empty() || tracedRun.empty()) continue;
      values.push_back(e2e::median(tracedRun) / e2e::median(plainRun) - 1.0);
    } else if (def.kind == e2e::MetricKind::kLayer && def.varies) {
      values = collect(runs.traced, def.name);
    } else {
      values = collect(runs.plain, def.name);
    }
    if (values.empty()) continue;
    if (!def.varies) {
      // Tracing only adds span timings, so a deterministic metric must
      // repeat in the traced repetitions too.
      std::vector<double> all = values;
      const std::vector<double> traced = collect(runs.traced, def.name);
      all.insert(all.end(), traced.begin(), traced.end());
      for (const double v : all) {
        if (v != all.front()) {
          errors.push_back(name + ": deterministic metric " + def.name +
                           " differs across repetitions (" + formatValue(all.front()) +
                           " vs " + formatValue(v) + ")");
          break;
        }
      }
    }
    const double med = e2e::median(values);
    const e2e::Quartiles q = e2e::quartiles(values);
    std::printf("%-36s %14s %-6s %14s %14s\n", def.name.c_str(), formatValue(med).c_str(),
                def.unit.c_str(), formatValue(q.q1).c_str(), formatValue(q.q3).c_str());

    JsonValue m = JsonValue::object();
    m.set("unit", def.unit);
    m.set("kind", def.kind == e2e::MetricKind::kEndToEnd ? "end_to_end" : "per_layer");
    m.set("better", def.lowerIsBetter ? "lower" : "higher");
    if (def.kind == e2e::MetricKind::kEndToEnd) m.set("bound", def.bound);
    m.set("deterministic", !def.varies);
    m.set("median", med);
    m.set("q1", q.q1);
    m.set("q3", q.q3);
    m.set("values", JsonValue::Array(values.begin(), values.end()));
    metrics.set(def.name, std::move(m));
  }

  JsonValue w = JsonValue::object();
  w.set("name", name);
  w.set("reps", static_cast<unsigned long long>(runs.plain.size()));
  w.set("traced_reps", static_cast<unsigned long long>(runs.traced.size()));
  // Summed over every repetition (see RepetitionResult).
  w.set("attempted", static_cast<unsigned long long>(attempted));
  w.set("failed", static_cast<unsigned long long>(failed));
  w.set("metrics", std::move(metrics));
  return w;
}

int runBench(const Options& o) {
  std::filesystem::create_directories(o.outDir);
  if (!o.traceDir.empty()) std::filesystem::create_directories(o.traceDir);
  for (const std::string& w : o.workloads) {
    if (!std::filesystem::exists(o.workloadDir + "/" + w + ".json")) {
      usage("no workload file " + o.workloadDir + "/" + w + ".json");
    }
  }

  std::map<std::string, WorkloadRuns> runs;
  const int cpu = repetitionCpu();
  auto config = [&](const std::string& w, bool traced) {
    e2e::RepetitionConfig c;
    c.workloadFile = o.workloadDir + "/" + w + ".json";
    c.seed = o.seed;
    c.smoke = o.smoke;
    c.traced = traced;
    if (traced) c.traceDir = o.traceDir;
    return c;
  };
  auto round = [&](bool traced) {
    for (const std::string& w : o.workloads) {
      Outcome out = runChild(config(w, traced), cpu);
      (traced ? runs[w].traced : runs[w].plain).push_back(std::move(out));
    }
  };

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  if (o.seconds > 0) {
    // Timed mode: every round pairs an untraced and (with --trace) a traced
    // repetition, so the trace overhead compares neighbours in time.
    for (int r = 0; r < kMinRounds || elapsed() < o.seconds; ++r) {
      round(false);
      if (!o.traceDir.empty()) round(true);
    }
  } else {
    for (int r = 0; r < o.reps; ++r) round(false);
    if (!o.traceDir.empty()) round(true);
  }

  JsonValue meta = JsonValue::object();
  meta.set("seed", static_cast<unsigned long long>(o.seed));
  meta.set("reps", o.reps);
  meta.set("seconds", o.seconds);
  meta.set("smoke", o.smoke);
  meta.set("threads", 1);
  meta.set("pinned_cpu", cpu);
  meta.set("nproc", static_cast<unsigned long long>(std::thread::hardware_concurrency()));
  meta.set("cpu_model", cpuModel());
  meta.set("compiler", std::string("GCC ") + __VERSION__);
  meta.set("build_type", E2E_BUILD_TYPE);
  meta.set("git_describe", E2E_GIT_DESCRIBE);
  meta.set("wall_s", elapsed());

  std::vector<std::string> errors;
  JsonValue workloads = JsonValue::array();
  for (const std::string& w : o.workloads) workloads.push_back(summarize(w, runs[w], errors));

  JsonValue doc = JsonValue::object();
  doc.set("schema", "pleroma-e2e-v1");
  doc.set("metadata", std::move(meta));
  doc.set("correct", errors.empty());
  JsonValue errorList = JsonValue::array();
  for (const std::string& e : errors) errorList.push_back(e);
  doc.set("errors", std::move(errorList));
  doc.set("workloads", std::move(workloads));

  const std::string path = o.outDir + "/results.json";
  std::ofstream out(path);
  out << doc.dump(2) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "pleroma_bench: cannot write %s\n", path.c_str());
    return 1;
  }

  std::printf("\n");
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("correctness: %s\nresults: %s\n", errors.empty() ? "ok" : "FAILED",
              path.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "compare") {
    if (argc != 4) usage("compare takes BASE.json NEW.json");
    return e2e::compareResults(argv[2], argv[3]);
  }
  try {
    return runBench(parseOptions(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pleroma_bench: %s\n", e.what());
    return 1;
  }
}
