// Host-time spans recorded from outside the simulator.
//
// The benchmark wraps each call into a simulator layer in a Span named
// "<layer>.<operation>". While a Tracer is active, every span adds to exact
// per-name totals (count, seconds, seconds covered by child spans), and the
// first 2000 spans of each name are also kept as records (name, start, end,
// parent) for the Chrome trace written at exit. With no
// active Tracer a Span costs one branch, so the untraced runs that give the
// end-to-end metrics measure the simulator alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanTotals {
  std::int64_t count = 0;
  double seconds = 0.0;
  double child_seconds = 0.0;  // covered by spans nested directly inside

  double self_seconds() const { return seconds - child_seconds; }
};

// Totals by span name, plus the seconds covered by outermost spans.
struct TraceTotals {
  std::map<std::string, SpanTotals> by_name;
  double top_level_seconds = 0.0;

  // Per-name difference `*this - before` (for one measured interval).
  TraceTotals Minus(const TraceTotals& before) const;
  // Every duration multiplied by `f` (for a per-repetition mean).
  TraceTotals Scaled(double f) const;
  double Seconds(const std::string& name) const;
  double SelfSeconds(const std::string& name) const;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The tracer spans report to; null = tracing off.
  static Tracer* active();
  static void set_active(Tracer* t);

  // `name` must have static storage duration (a string literal).
  void Begin(const char* name);
  void End();

  TraceTotals Totals() const;

  // Chrome trace-event JSON ("X" events, host microseconds since the tracer
  // was created). `metadata` lands as otherData key/value strings.
  void WriteChromeJson(
      std::ostream& os,
      const std::map<std::string, std::string>& metadata) const;

 private:
  struct Name {
    std::string name;
    SpanTotals totals;
    std::size_t stored = 0;
  };
  struct Open {
    int name = 0;
    std::int64_t start_ns = 0;
    int record = -1;         // index into records_, or -1 when not stored
    double child_seconds = 0.0;
  };
  struct Record {
    int name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // nearest stored enclosing record
  };

  std::int64_t NowNs() const;
  int NameIndex(const char* name);

  Clock::time_point origin_;
  std::vector<Name> names_;
  std::unordered_map<const char*, int> index_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  double top_level_seconds_ = 0.0;
};

// RAII span; a no-op while no tracer is active.
class Span {
 public:
  explicit Span(const char* name) : tracer_(Tracer::active()) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace hostbench
