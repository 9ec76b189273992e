// Pieces shared by the two cluster-engine workloads: forwarding decorators
// that time the engine's calls into the inter-job scheduler and the task
// sources, the seeded batch-job trace over the Table 2 mix, and the
// fingerprint/exactly-once checks over the engine's metrics.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "hadoop/task_source.h"
#include "multijob/metrics.h"
#include "multijob/scheduler.h"
#include "multijob/workload.h"
#include "trace/timeseries.h"
#include "tracer.h"
#include "workload.h"

namespace hostbench {

// Calls the decorators below counted; heap-allocated by the owner so the
// pointers they hold stay valid when the owner moves.
struct CallCounts {
  std::int64_t pick = 0;
  std::int64_t map = 0;
};

// Forwards every call to `inner`; PickJob runs inside a multijob.pick_job
// span and is counted.
class TimedScheduler : public hd::multijob::InterJobScheduler {
 public:
  TimedScheduler(std::unique_ptr<hd::multijob::InterJobScheduler> inner,
                 std::int64_t* calls)
      : inner_(std::move(inner)), calls_(calls) {}

  const char* name() const override { return inner_->name(); }
  std::size_t PickJob(
      const std::vector<const hd::hadoop::JobState*>& runnable,
      const std::vector<const hd::hadoop::JobState*>& active) override {
    Span s("multijob.pick_job");
    ++*calls_;
    return inner_->PickJob(runnable, active);
  }
  const std::vector<double>* pool_weights() const override {
    return inner_->pool_weights();
  }

 private:
  std::unique_ptr<hd::multijob::InterJobScheduler> inner_;
  std::int64_t* calls_;
};

// A calibrated source whose MapTask calls run inside a hadoop.source span
// and are counted.
class TimedSource : public hd::hadoop::TaskTimeSource {
 public:
  TimedSource(const hd::hadoop::CalibratedTaskSource::Params& p,
              std::int64_t* calls)
      : inner_(p), calls_(calls) {}

  int num_map_tasks() const override { return inner_.num_map_tasks(); }
  int num_reducers() const override { return inner_.num_reducers(); }
  hd::hadoop::MapTaskTiming MapTask(int idx, bool on_gpu) override {
    Span s("hadoop.source");
    ++*calls_;
    return inner_.MapTask(idx, on_gpu);
  }
  double ReduceSeconds(int reducer) override {
    return inner_.ReduceSeconds(reducer);
  }

 private:
  hd::hadoop::CalibratedTaskSource inner_;
  std::int64_t* calls_;
};

struct BatchJob {
  const hd::multijob::AppTemplate* app = nullptr;
  double submit_sec = 0.0;
  hd::hadoop::CalibratedTaskSource::Params params;
};

// `num_jobs` open-loop Poisson arrivals at `rate_per_sec` over `mix`. Each
// application appears equally often (in a seeded order), so the total map
// count is the same for every seed and only arrivals, durations and
// placement vary.
inline std::vector<BatchJob> SampleBatchJobs(
    const std::vector<hd::multijob::AppTemplate>& mix, int num_jobs,
    double rate_per_sec, std::uint64_t seed) {
  hd::Prng prng(hd::SplitMix64(seed ^ 0x686f737462656e63ULL));
  std::vector<std::size_t> order;
  for (int j = 0; j < num_jobs; ++j) {
    order.push_back(static_cast<std::size_t>(j) % mix.size());
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[prng.NextBounded(i)]);
  }
  std::vector<BatchJob> jobs;
  double t = 0.0;
  for (std::size_t j = 0; j < order.size(); ++j) {
    BatchJob b;
    b.app = &mix[order[j]];
    t += -std::log(1.0 - prng.NextDouble()) / rate_per_sec;
    b.submit_sec = t;
    b.params = b.app->params;
    b.params.seed = hd::SplitMix64(seed + 0x9e37 * (j + 1));
    jobs.push_back(b);
  }
  return jobs;
}

inline void FoldWorkload(Fingerprint& fp,
                         const hd::multijob::WorkloadMetrics& m) {
  for (const hd::multijob::JobStats& j : m.jobs) {
    fp.I64(j.job_id);
    fp.Bytes(j.label);
    fp.I64(j.pool);
    fp.F64(j.submit_sec);
    fp.F64(j.start_sec);
    fp.F64(j.finish_sec);
    const hd::hadoop::JobResult& r = j.result;
    fp.F64(r.makespan_sec);
    fp.F64(r.map_phase_end_sec);
    fp.F64(r.max_observed_speedup);
    for (std::int64_t v :
         {r.cpu_tasks, r.gpu_tasks, r.gpu_failures, r.nonlocal_tasks,
          r.total_map_output_bytes, r.task_failures, r.task_retries,
          r.killed_attempts, r.maps_reexecuted, r.gpu_demotions,
          r.speculative_launched, r.speculative_wins, r.speculative_losses,
          r.preempted_attempts, r.nodes_lost, r.nodes_blacklisted}) {
      fp.I64(v);
    }
  }
  for (double v : {m.makespan_sec, m.cpu_utilization, m.gpu_utilization,
                   m.availability}) {
    fp.F64(v);
  }
  for (std::int64_t v :
       {m.gpu_bounces, m.nodes_crashed, m.nodes_recovered, m.nodes_lost,
        m.nodes_blacklisted, m.heartbeats_dropped, m.nodes_joined,
        m.nodes_left, m.leaves_refused, m.preemptions}) {
    fp.I64(v);
  }
}

// Checks that every batch job completed and committed each of its maps
// exactly once: a job's net committed output is num_maps x the source's
// per-map output bytes (re-executed maps subtract their lost output first,
// a double commit would add it twice). Batch jobs are the first
// `batch.size()` job ids. Returns the committed map count.
inline double CheckBatchJobs(const std::vector<BatchJob>& batch,
                             const hd::multijob::WorkloadMetrics& m,
                             UnitResult& r) {
  double maps = 0.0;
  for (std::size_t j = 0; j < batch.size(); ++j) {
    const std::string id = "job " + std::to_string(j);
    const bool present = j < m.jobs.size();
    r.Check(present, id + " missing from the run's metrics");
    if (!present) continue;
    const hd::multijob::JobStats& s = m.jobs[j];
    const auto& p = batch[j].params;
    r.Check(s.finish_sec >= s.submit_sec && s.finish_sec > 0.0,
            id + " did not complete");
    r.Check(s.result.total_map_output_bytes ==
                static_cast<std::int64_t>(p.num_maps) * p.map_output_bytes,
            id + " did not commit each map exactly once");
    maps += p.num_maps;
  }
  return maps;
}

// The telemetry sampler attached to traced units: a sample every 30 modeled
// seconds, with rings large enough that no point of a run falls off.
inline hd::trace::TimeSeriesOptions TelemetryOptions() {
  return {30.0, std::size_t{1} << 20};
}

// Events the DES serviced, integrated from the engine's des.events_per_sec
// telemetry probe.
inline double DesEvents(const hd::trace::TimeSeries& ts) {
  const hd::trace::TimeSeries::Series* s = ts.Find("des.events_per_sec");
  double events = 0.0;
  if (s != nullptr) {
    for (const auto& [t, v] : s->points) events += v * ts.sample_interval_sec();
  }
  return events;
}

// A cluster map task stands for one 256 MiB production fileSplit (Table 3),
// the split the Table 2 calibration models.
inline constexpr double kModeledSplitMiB = 256.0;

}  // namespace hostbench
