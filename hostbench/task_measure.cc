// task_measure: every Table 2 application runs one seeded split through the
// CPU ("gcc") path, the optimised GPU ("nvcc") path and the baseline GPU
// path, each followed by the reduce phase and a golden-output check, plus
// the map filter alone under the interpreter with counting hooks. The
// interpreter and gpurt do nearly all the work; the cluster engine none.
#include <cstdint>
#include <string>
#include <vector>

#include "apps/benchmark.h"
#include "bench/bench_util.h"
#include "common/prng.h"
#include "gpurt/cpu_task.h"
#include "gpurt/gpu_task.h"
#include "gpurt/job_program.h"
#include "gpurt/sort.h"
#include "gpusim/device.h"
#include "minic/interp.h"
#include "tracer.h"
#include "workload.h"

namespace hostbench {
namespace {

namespace gpurt = hd::gpurt;

// Split size per application: large enough that the three task paths
// dominate the unit, small enough for several repetitions per run.
constexpr std::int64_t kSplitBytes = 8 << 10;
constexpr std::int64_t kCanarySplitBytes = 1 << 10;

void FoldTask(Fingerprint& fp, const gpurt::MapTaskResult& m) {
  const gpurt::PhaseBreakdown& p = m.phases;
  for (double v : {p.input_read, p.record_count, p.map, p.aggregate, p.sort,
                   p.combine, p.output_write}) {
    fp.F64(v);
  }
  const gpurt::TaskStats& s = m.stats;
  for (std::int64_t v :
       {s.records, s.map_kv_pairs, s.out_kv_pairs, s.allocated_slots,
        s.whitespace_slots, s.sort_elements, s.texture_hits, s.texture_misses,
        s.shared_atomics, s.global_atomics, s.map_mem_requests,
        s.map_bytes_requested, s.shared_bank_conflicts, s.atomic_conflicts,
        s.output_bytes}) {
    fp.I64(v);
  }
  for (double v : {s.map_compute_cycles, s.map_mem_cycles, s.map_divergence,
                   s.map_coalescing}) {
    fp.F64(v);
  }
  for (const auto& part : m.partitions) {
    fp.I64(static_cast<std::int64_t>(part.size()));
    for (const auto& kv : part) {
      fp.Bytes(kv.key);
      fp.Bytes(kv.value);
    }
  }
}

// Runs `fn` inside a span and records its host seconds as the unit's next
// throughput call.
template <class Fn>
auto Timed(const char* span, UnitResult& r, Fn&& fn) {
  Span s(span);
  const auto t0 = Clock::now();
  auto out = fn();
  r.call_s.push_back(SecondsSince(t0));
  return out;
}

class TaskMeasure : public Workload {
 public:
  TaskMeasure(std::uint64_t seed, bool canary)
      : seed_(seed), split_bytes_(canary ? kCanarySplitBytes : kSplitBytes) {
    SetupOnce();
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      Span s("apps.golden");
      golden_.push_back(apps_[i]->golden({splits_[i]}));
    }
  }

  double SetupOnce() override {
    const auto t0 = Clock::now();
    std::vector<const hd::apps::Benchmark*> apps;
    std::vector<gpurt::JobProgram> jobs;
    std::vector<std::string> splits;
    std::uint64_t k = 0;
    for (const hd::apps::Benchmark& b : hd::apps::AllBenchmarks()) {
      apps.push_back(&b);
      {
        Span s("gpurt.compile");
        jobs.push_back(
            gpurt::CompileJob(b.map_source, b.combine_source, b.reduce_source));
      }
      Span s("apps.generate");
      ++k;
      const auto split_seed = hd::SplitMix64(seed_ ^ (0x7461736bULL + k));
      splits.push_back(b.generate(split_bytes_, split_seed));
    }
    apps_ = std::move(apps);
    jobs_ = std::move(jobs);
    splits_ = std::move(splits);
    return SecondsSince(t0);
  }

  UnitResult RunUnit(bool /*traced*/) override {
    UnitResult r;
    Fingerprint fp;
    double records = 0, sort_elements = 0, mem_requests = 0;
    double steps = 0, hook_ops = 0;
    double input_bytes = 0;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      const hd::apps::Benchmark& b = *apps_[i];
      const gpurt::JobProgram& job = jobs_[i];
      const std::string& split = splits_[i];
      const int reducers = b.map_only ? 0 : b.num_reducers();

      gpurt::MapTaskResult res[3];
      {
        gpurt::CpuTaskOptions o;
        o.num_reducers = reducers;
        res[0] = Timed("gpurt.cpu_task", r, [&] {
          return gpurt::CpuMapTask(job, cpu_, o).Run(split);
        });
      }
      for (int p = 1; p <= 2; ++p) {
        // The optimised path, then the "baseline translated" path of
        // Fig. 5 with every compiler and runtime optimisation off.
        gpurt::GpuTaskOptions o = p == 1 ? gpurt::GpuTaskOptions{}
                                         : hd::bench::BaselineGpuOptions();
        o.num_reducers = reducers;
        res[p] = Timed(p == 1 ? "gpurt.gpu_task" : "gpurt.gpu_baseline_task",
                       r, [&] {
                         hd::gpusim::GpuDevice device(device_);
                         return gpurt::GpuMapTask(job, &device, o).Run(split);
                       });
      }
      static constexpr const char* kPath[] = {"cpu", "gpu", "gpu_baseline"};
      for (int p = 0; p < 3; ++p) {
        input_bytes += static_cast<double>(split.size());
        records += static_cast<double>(res[p].stats.records);
        sort_elements += static_cast<double>(res[p].stats.sort_elements);
        mem_requests += static_cast<double>(res[p].stats.map_mem_requests);
        FoldTask(fp, res[p]);
        std::vector<gpurt::KvPair> output =
            Timed("gpurt.reduce", r, [&] { return Reduce(job, res[p], fp); });
        std::string diff;
        {
          Span s("apps.compare");
          diff = hd::apps::CompareWithGolden(b, golden_[i], std::move(output),
                                             1e-4);
        }
        r.Check(diff.empty(), b.id + " " + kPath[p] + " output: " + diff);
      }

      // The map filter alone under the interpreter: the minic layer with
      // no device model attached.
      Span s("minic.interp");
      hd::minic::TextIoEnv io(split);
      hd::minic::CountingHooks hooks;
      hd::minic::Interp interp(*job.map.unit, &io, &hooks);
      fp.I64(interp.RunMain());
      steps += static_cast<double>(interp.steps());
      const std::int64_t ops =
          hooks.total_ops() + hooks.mem_reads() + hooks.mem_writes();
      hook_ops += static_cast<double>(ops);
      for (int op = 0; op < 8; ++op) {
        fp.I64(hooks.count(static_cast<hd::minic::OpClass>(op)));
      }
      fp.I64(hooks.mem_reads());
      fp.I64(hooks.mem_writes());
    }
    r.work_mib = input_bytes / (1 << 20);
    r.work_tasks = 3.0 * static_cast<double>(apps_.size());
    r.fingerprint = fp.value();
    r.counts = {{"minic.interp_steps", steps},
                {"minic.hook_ops", hook_ops},
                {"gpurt.records", records},
                {"gpurt.sort_elements", sort_elements},
                {"gpurt.mem_requests", mem_requests}};
    return r;
  }

 private:
  // The framework's reduce side for one task: each partition is sorted and
  // run through the reduce filter (map-only jobs and combiner-only jobs
  // emit the sorted partitions as they are).
  std::vector<gpurt::KvPair> Reduce(const gpurt::JobProgram& job,
                                    const gpurt::MapTaskResult& m,
                                    Fingerprint& fp) const {
    std::vector<gpurt::KvPair> out;
    for (const auto& part : m.partitions) {
      std::vector<gpurt::KvPair> merged = part;
      gpurt::SortPairsByKey(&merged);
      if (job.reduce != nullptr) {
        gpurt::ReduceResult rr = gpurt::RunReduce(*job.reduce, merged, cpu_);
        fp.F64(rr.seconds);
        merged = std::move(rr.output);
      }
      for (const auto& kv : merged) {
        fp.Bytes(kv.key);
        fp.Bytes(kv.value);
      }
      out.insert(out.end(), merged.begin(), merged.end());
    }
    return out;
  }

  std::uint64_t seed_;
  std::int64_t split_bytes_;
  hd::gpusim::DeviceConfig device_ = hd::gpusim::DeviceConfig::TeslaK40();
  hd::gpusim::CpuConfig cpu_ = hd::gpusim::CpuConfig::XeonE5_2680();
  std::vector<const hd::apps::Benchmark*> apps_;
  std::vector<gpurt::JobProgram> jobs_;
  std::vector<std::string> splits_;
  std::vector<std::vector<gpurt::KvPair>> golden_;
};

}  // namespace

std::unique_ptr<Workload> MakeTaskMeasure(std::uint64_t seed, bool canary) {
  return std::make_unique<TaskMeasure>(seed, canary);
}

}  // namespace hostbench
