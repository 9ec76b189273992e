// Host-cost benchmark: argument parsing, the measured loop and the report.
//
//   hostbench --workload <task_measure|cluster_replay|ha_stream> --seed <n>
//             --seconds <s> --trace <0|1> --pins <file> [--trace-out <file>]
//   hostbench --record-pins
//
// A run first replays the workload's small fixed-seed canary and compares
// its modeled-number fingerprint with the pinned one, then repeats the
// seeded workload unit, each preceded by a timed batch of set-ups, until
// `--seconds` have passed. Every unit must reproduce the first unit's
// fingerprint and exact work counters, and every output check must pass;
// any failure makes the run exit 1. The last stdout line is one JSON
// object: with --trace 0 the end-to-end metrics (measured with spans off),
// with --trace 1 the per-layer metrics from units that alternate untraced
// and traced.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "tracer.h"
#include "workload.h"

namespace hostbench {
namespace {

constexpr std::uint64_t kCanarySeed = 20150615;  // HPDC'15
constexpr std::size_t kMinSetupSamples = 9;
constexpr double kSetupBatchSec = 0.02;
constexpr int kMinUnitsPerKind = 2;

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t, bool);
const std::map<std::string, Factory>& Workloads() {
  static const std::map<std::string, Factory> w = {
      {"task_measure", &MakeTaskMeasure},
      {"cluster_replay", &MakeClusterReplay},
      {"ha_stream", &MakeHaStream},
  };
  return w;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string pins;
  std::string trace_out;
  bool record_pins = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "hostbench: " << why
            << "\nusage: hostbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --pins <file> [--trace-out <file>]\n"
               "       hostbench --record-pins\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--record-pins") {
      a.record_pins = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = a.seconds > 0.0;
      } else if (k == "--trace") {
        if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
        a.trace = v == "1";
        have_trace = true;
      } else if (k == "--pins") {
        a.pins = v;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        Usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + k + ": " + v);
    }
  }
  if (a.record_pins) return a;
  if (!Workloads().contains(a.workload)) Usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace || a.pins.empty()) {
    Usage("--seed, --seconds (> 0), --trace and --pins are required");
  }
  return a;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double PeakRssMiB() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t CanaryFingerprint(const std::string& workload) {
  std::unique_ptr<Workload> w = Workloads().at(workload)(kCanarySeed, true);
  return w->RunUnit(false).fingerprint;
}

// Pinned canary fingerprints: "<workload> <16 hex digits>" per line.
std::map<std::string, std::string> ReadPins(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read pins file " + path);
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::string name, hex;
    if (!(ls >> name) || name[0] == '#') continue;
    if (ls >> hex) pins[name] = hex;
  }
  return pins;
}

struct Unit {
  bool traced = false;
  double wall_s = 0.0;
  UnitResult result;
  TraceTotals spans;  // traced units only
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Run {
 public:
  explicit Run(const Args& a) : args_(a) {}

  int Main() {
    const auto pins = ReadPins(args_.pins);
    {
      const std::string got = Hex(CanaryFingerprint(args_.workload));
      auto it = pins.find(args_.workload);
      const std::string want = it == pins.end() ? "(none)" : it->second;
      Check(got == want, "canary fingerprint " + got + " != pinned " + want +
                             ": a modeled number changed");
    }

    std::unique_ptr<Workload> w =
        Workloads().at(args_.workload)(args_.seed, false);
    Tracer tracer;
    const auto start = Clock::now();
    double longest = 0.0;
    for (int n = 0;; ++n) {
      const bool traced = args_.trace && n % 2 == 1;
      const bool enough = Count(false) >= kMinUnitsPerKind &&
                          (!args_.trace || Count(true) >= kMinUnitsPerKind);
      if (enough && SecondsSince(start) + longest > args_.seconds) break;
      // Set-up samples are spread over the run, one before each unit, so
      // the fastest is picked from the same host conditions as the units.
      SetupBatch(*w, tracer);
      Unit u;
      u.traced = traced;
      if (traced) Tracer::set_active(&tracer);
      const TraceTotals before = tracer.Totals();
      const auto t0 = Clock::now();
      u.result = w->RunUnit(traced);
      u.wall_s = SecondsSince(t0);
      u.spans = tracer.Totals().Minus(before);
      Tracer::set_active(nullptr);
      longest = std::max(longest, u.wall_s);
      CheckRepeats(u);
      units_.push_back(std::move(u));
      // Peak RSS through the first unit: later repetitions only add
      // allocator fragmentation, which would tie the figure to run length.
      if (units_.size() == 1) peak_rss_mib_ = PeakRssMiB();
    }
    const double measured_s = SecondsSince(start);
    while (setup_s_.size() < kMinSetupSamples) SetupBatch(*w, tracer);

    UnitResult final_checks;
    if (args_.trace) Tracer::set_active(&tracer);
    w->FinalChecks(&final_checks);
    Tracer::set_active(nullptr);
    Absorb(final_checks);
    for (const Unit& u : units_) Absorb(u.result);

    Report(measured_s, tracer);
    return errors_.empty() ? 0 : 1;
  }

 private:
  // One set-up sample: the fastest of a batch of set-ups that lasts at
  // least kSetupBatchSec, so a sub-millisecond set-up gets many tries at a
  // moment the host's other tenants leave it alone.
  void SetupBatch(Workload& w, Tracer& tracer) {
    if (args_.trace) Tracer::set_active(&tracer);
    const TraceTotals before = tracer.Totals();
    double total = 0.0, fastest = 0.0;
    int n = 0;
    do {
      const double s = w.SetupOnce();
      fastest = n == 0 ? s : std::min(fastest, s);
      total += s;
      ++n;
    } while (total < kSetupBatchSec);
    setup_s_.push_back(fastest);
    setup_spans_.push_back(tracer.Totals().Minus(before).Scaled(1.0 / n));
    Tracer::set_active(nullptr);
  }

  int Count(bool traced) const {
    return static_cast<int>(std::count_if(
        units_.begin(), units_.end(),
        [traced](const Unit& u) { return u.traced == traced; }));
  }

  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) errors_.push_back(what);
  }

  void Absorb(const UnitResult& r) {
    attempted_ += r.attempted;
    errors_.insert(errors_.end(), r.errors.begin(), r.errors.end());
  }

  // Fingerprints and exact work counters must match the first unit's,
  // traced or not. des.events is compared between traced units only, the
  // only ones whose telemetry sampler counts it.
  void CheckRepeats(const Unit& u) {
    if (units_.empty()) return;
    const Unit& first = units_.front();
    const std::string which = "unit " + std::to_string(units_.size()) +
                              (u.traced ? " (traced)" : "");
    Check(u.result.fingerprint == first.result.fingerprint,
          "fingerprint " + Hex(u.result.fingerprint) + " of " + which +
              " != " + Hex(first.result.fingerprint));
    auto without_events = [](std::map<std::string, double> counts) {
      counts.erase("des.events");
      return counts;
    };
    Check(without_events(u.result.counts) == without_events(first.result.counts),
          "exact work counters of " + which + " differ from unit 0");
    if (!u.traced) return;
    for (const Unit& v : units_) {
      if (!v.traced) continue;
      Check(u.result.counts == v.result.counts,
            "des.events of " + which + " differs from the first traced unit");
      break;
    }
  }

  template <class Fn>
  std::vector<double> PerUnit(bool traced, Fn&& fn) const {
    std::vector<double> xs;
    for (const Unit& u : units_) {
      if (u.traced == traced) xs.push_back(fn(u));
    }
    return xs;
  }

  double CountOf(const std::string& name) const {
    for (const Unit& u : units_) {
      auto it = u.result.counts.find(name);
      if (it != u.result.counts.end()) return it->second;
    }
    return 0.0;
  }

  // The unit's timed calls, each at its fastest over the untraced units,
  // summed. Other tenants of the host slow the calls by up to a third for
  // seconds at a time; the fastest repetition of each call sees the least
  // of it, so this sum repeats across runs far better than a median unit.
  double BestTimedSeconds() const {
    std::vector<double> best;
    for (const Unit& u : units_) {
      if (u.traced) continue;
      const std::vector<double>& c = u.result.call_s;
      if (best.empty()) best = c;
      for (std::size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(best[i], c[i]);
      }
    }
    return std::accumulate(best.begin(), best.end(), 0.0);
  }

  std::vector<Metric> EndToEnd() const {
    const UnitResult& work = units_.front().result;
    const double best_s = BestTimedSeconds();
    return {
        {"task_mb_per_s", work.work_mib / best_s, "MiB/s"},
        {"sim_tasks_per_s", work.work_tasks / best_s, "1/s"},
        {"setup_s", *std::min_element(setup_s_.begin(), setup_s_.end()), "s"},
        {"peak_rss_mb", peak_rss_mib_, "MiB"},
    };
  }

  std::vector<Metric> PerLayer() const {
    auto span_s = [this](std::initializer_list<const char*> names) {
      return Median(PerUnit(true, [&](const Unit& u) {
        double s = 0.0;
        for (const char* n : names) s += u.spans.Seconds(n);
        return s;
      }));
    };
    auto setup_span_s = [this](const char* name) {
      std::vector<double> xs;
      for (const TraceTotals& t : setup_spans_) xs.push_back(t.Seconds(name));
      return Median(xs);
    };
    auto share = [this](std::initializer_list<const char*> plus,
                        std::initializer_list<const char*> minus) {
      return Median(PerUnit(true, [&](const Unit& u) {
        double s = 0.0;
        for (const char* n : plus) s += u.spans.Seconds(n);
        for (const char* n : minus) s -= u.spans.Seconds(n);
        return s / u.wall_s;
      }));
    };
    const double untraced_wall =
        Median(PerUnit(false, [](const Unit& u) { return u.wall_s; }));
    const double traced_wall =
        Median(PerUnit(true, [](const Unit& u) { return u.wall_s; }));
    const double map_calls = CountOf("hadoop.map_task_calls");
    std::vector<double> restore_ms;
    for (const Unit& u : units_) {
      restore_ms.insert(restore_ms.end(), u.result.restore_ms.begin(),
                        u.result.restore_ms.end());
    }
    return {
        {"minic.interp_s", span_s({"minic.interp"}), "s"},
        {"minic.interp_steps", CountOf("minic.interp_steps"), "count"},
        {"minic.hook_ops", CountOf("minic.hook_ops"), "count"},
        {"gpurt.cpu_task_s", span_s({"gpurt.cpu_task"}), "s"},
        {"gpurt.gpu_task_s", span_s({"gpurt.gpu_task"}), "s"},
        {"gpurt.gpu_baseline_task_s", span_s({"gpurt.gpu_baseline_task"}), "s"},
        {"gpurt.reduce_s", span_s({"gpurt.reduce"}), "s"},
        {"gpurt.records", CountOf("gpurt.records"), "count"},
        {"gpurt.sort_elements", CountOf("gpurt.sort_elements"), "count"},
        {"gpurt.mem_requests", CountOf("gpurt.mem_requests"), "count"},
        {"gpurt.compile_s", setup_span_s("gpurt.compile"), "s"},
        {"apps.generate_s", setup_span_s("apps.generate"), "s"},
        {"multijob.run_s", span_s({"multijob.run", "stream.run"}), "s"},
        {"multijob.pick_job_s", span_s({"multijob.pick_job"}), "s"},
        {"multijob.pick_job_calls", CountOf("multijob.pick_job_calls"),
         "count"},
        {"hadoop.source_s", span_s({"hadoop.source"}), "s"},
        {"hadoop.map_task_calls", map_calls, "count"},
        {"multijob.self_s", Median(PerUnit(true, [](const Unit& u) {
           return u.spans.SelfSeconds("multijob.run") +
                  u.spans.SelfSeconds("stream.run");
         })),
         "s"},
        {"hadoop.useful_attempt_ratio",
         map_calls > 0 ? CountOf("hadoop.committed_maps") / map_calls : 0.0,
         "ratio"},
        {"des.events", CountOf("des.events"), "count"},
        {"ckpt.write_s", span_s({"ckpt.write"}), "s"},
        {"ckpt.writes", CountOf("ckpt.writes"), "count"},
        {"ckpt.bytes", CountOf("ckpt.bytes"), "count"},
        {"ckpt.restore_s", span_s({"ckpt.restore"}), "s"},
        {"ckpt.restore_ms", Median(restore_ms), "ms"},
        {"ckpt.restores", CountOf("ckpt.restores"), "count"},
        {"stream.windows", CountOf("stream.windows"), "count"},
        {"trace.overhead_s", traced_wall - untraced_wall, "s"},
        {"trace.overhead_share",
         untraced_wall > 0 ? (traced_wall - untraced_wall) / untraced_wall
                           : 0.0,
         "fraction"},
        {"trace.coverage", Median(PerUnit(true, [](const Unit& u) {
           return u.spans.top_level_seconds / u.wall_s;
         })),
         "fraction"},
        {"share.minic", share({"minic.interp"}, {}), "fraction"},
        {"share.gpurt",
         share({"gpurt.cpu_task", "gpurt.gpu_task", "gpurt.gpu_baseline_task",
                "gpurt.reduce"},
               {}),
         "fraction"},
        {"share.engine", share({"multijob.run", "stream.run"}, {"ckpt.write"}),
         "fraction"},
        {"share.ckpt", share({"ckpt.write", "ckpt.restore"}, {}), "fraction"},
    };
  }

  void Report(double measured_s, const Tracer& tracer) const {
    std::ostream& os = std::cout;
    const std::uint64_t fp =
        units_.empty() ? 0 : units_.front().result.fingerprint;
    os << "hostbench " << args_.workload << " seed=" << args_.seed
       << " units=" << Count(false) << " untraced + " << Count(true)
       << " traced in " << measured_s << " s, fingerprint " << Hex(fp) << "\n";
    for (std::size_t i = 0; i < units_.size(); ++i) {
      const Unit& u = units_[i];
      os << "  unit " << i << (u.traced ? " traced" : "") << ": wall "
         << u.wall_s << " s, timed "
         << std::accumulate(u.result.call_s.begin(), u.result.call_s.end(), 0.0)
         << " s\n";
    }
    const std::vector<Metric> e2e = EndToEnd();
    for (const Metric& m : e2e) {
      os << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    const double error_rate =
        attempted_ > 0 ? static_cast<double>(errors_.size()) / attempted_ : 1.0;
    os << "  error_rate = " << error_rate << " (" << errors_.size()
       << " failed of " << attempted_ << " checks)\n";
    for (const std::string& e : errors_) os << "  FAILED: " << e << "\n";

    std::vector<Metric> per_layer;
    if (args_.trace) {
      per_layer = PerLayer();
      os << "per-layer (median per traced unit):\n";
      for (const Metric& m : per_layer) {
        os << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
      }
      os << "host time by span over all traced units (total / self, s):\n";
      for (const auto& [name, t] : tracer.Totals().by_name) {
        os << "  " << name << " x" << t.count << ": " << t.seconds << " / "
           << t.self_seconds() << "\n";
      }
      if (!args_.trace_out.empty()) {
        std::ofstream f(args_.trace_out);
        tracer.WriteChromeJson(f, {{"workload", args_.workload},
                                   {"seed", std::to_string(args_.seed)},
                                   {"fingerprint", Hex(fp)}});
        os << "chrome trace: " << args_.trace_out << "\n";
      }
    }

    hd::json::Writer w(os);
    w.BeginObject();
    w.Key("correct").Bool(errors_.empty());
    w.Key("attempted").Int(attempted_);
    w.Key("failed").Int(static_cast<std::int64_t>(errors_.size()));
    w.Key("metrics").BeginObject();
    for (const Metric& m : args_.trace ? per_layer : e2e) {
      w.Key(m.name).BeginObject();
      w.Key("value").Number(m.value);
      w.Key("unit").String(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    os << std::endl;
  }

  Args args_;
  std::vector<double> setup_s_;
  std::vector<TraceTotals> setup_spans_;
  std::vector<Unit> units_;
  double peak_rss_mib_ = 0.0;
  std::int64_t attempted_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  const Args args = ParseArgs(argc, argv);
  if (args.record_pins) {
    std::cout << "# Canary fingerprints (seed " << kCanarySeed
              << "), regenerated by `hostbench --record-pins`.\n";
    for (const auto& [name, factory] : Workloads()) {
      std::cout << name << " " << Hex(CanaryFingerprint(name)) << "\n";
    }
    return 0;
  }
  try {
    return Run(args).Main();
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 1;
  }
}
