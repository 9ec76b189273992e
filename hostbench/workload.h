// The interface each benchmark workload implements, and the modeled-number
// fingerprint every workload folds its outputs into.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hostbench {

// FNV-1a over modeled values: doubles by bit pattern, integers, bytes.
class Fingerprint {
 public:
  void Bytes(std::string_view s) {
    for (unsigned char c : s) Byte(c);
    Byte(0xff);  // terminator: "ab"+"c" differs from "a"+"bc"
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// What one repetition of a workload did.
struct UnitResult {
  // Host seconds of each call the throughput metrics divide by, in an
  // order that is the same in every repetition.
  std::vector<double> call_s;
  double work_mib = 0.0;    // map input MiB (real or modeled)
  double work_tasks = 0.0;  // map tasks executed or committed
  std::uint64_t fingerprint = 0;
  // Exact work counters; must repeat bit-for-bit across repetitions.
  std::map<std::string, double> counts;
  std::vector<double> restore_ms;  // one per checkpoint restore
  int attempted = 0;
  std::vector<std::string> errors;  // one per failed check

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) errors.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One full set-up (compile/generate or engine and source construction),
  // discarded afterwards; returns host seconds. Timed several times per run
  // for the setup_s median.
  virtual double SetupOnce() = 0;

  // One repetition of the measured work. `traced` enables extra
  // instrumentation that needs a simulator hook (telemetry sampling); host
  // spans are switched by the caller through Tracer::active().
  virtual UnitResult RunUnit(bool traced) = 0;

  // Checks made once per run, after the measured repetitions.
  virtual void FinalChecks(UnitResult* result) { (void)result; }
};

// `canary` selects the small fixed-size variant whose fingerprint is pinned
// in pins.txt.
std::unique_ptr<Workload> MakeTaskMeasure(std::uint64_t seed, bool canary);
std::unique_ptr<Workload> MakeClusterReplay(std::uint64_t seed, bool canary);
std::unique_ptr<Workload> MakeHaStream(std::uint64_t seed, bool canary);

}  // namespace hostbench
