// cluster_replay: a MultiJobEngine replays open-loop Poisson arrivals of
// Table 2 mix jobs (calibrated task sources) on 150 trackers, with seeded
// faults and speculation and no checkpoints. Arrivals outpace the cluster,
// so pending maps queue deeply. The engine does all the work;
// the interpreter, gpurt and the checkpoint layer none.
#include <cstdint>
#include <memory>
#include <vector>

#include "engine_common.h"
#include "fault/fault.h"
#include "multijob/engine.h"

namespace hostbench {
namespace {

using hd::multijob::MultiJobEngine;

struct Size {
  int trackers;
  int jobs;
  int maps_per_job;
  double arrivals_per_sec;
};
constexpr Size kFull{150, 128, 400, 1.0};
constexpr Size kCanary{16, 8, 16, 0.05};

class ClusterReplay : public Workload {
 public:
  ClusterReplay(std::uint64_t seed, bool canary)
      : size_(canary ? kCanary : kFull),
        mix_(hd::multijob::Table2Mix(size_.maps_per_job, 2)),
        batch_(SampleBatchJobs(mix_, size_.jobs, size_.arrivals_per_sec, seed)),
        faults_(FaultSpec(seed)) {
    cluster_.num_slaves = size_.trackers;
    cluster_.map_slots_per_node = 4;
    cluster_.reduce_slots_per_node = 2;
    cluster_.gpus_per_node = 1;
    cluster_.speculation = true;
    cluster_.faults = &faults_;
  }

  double SetupOnce() override {
    const auto t0 = Clock::now();
    Engine e = Build(nullptr);
    return SecondsSince(t0);
  }

  UnitResult RunUnit(bool traced) override {
    UnitResult r;
    hd::trace::TimeSeries ts(TelemetryOptions());
    Engine e = Build(traced ? &ts : nullptr);

    hd::multijob::WorkloadMetrics m;
    {
      Span s("multijob.run");
      const auto t1 = Clock::now();
      m = e.engine->Run();
      r.call_s = {SecondsSince(t1)};
    }
    Fingerprint fp;
    FoldWorkload(fp, m);
    r.fingerprint = fp.value();
    r.Check(m.jobs.size() == batch_.size(), "not every job completed");
    const double maps = CheckBatchJobs(batch_, m, r);
    r.work_tasks = maps;
    r.work_mib = maps * kModeledSplitMiB;
    r.counts = {{"multijob.pick_job_calls", static_cast<double>(e.calls->pick)},
                {"hadoop.map_task_calls", static_cast<double>(e.calls->map)},
                {"hadoop.committed_maps", maps}};
    if (traced) r.counts["des.events"] = DesEvents(ts);
    Span s("multijob.teardown");
    e.engine.reset();
    return r;
  }

 private:
  struct Engine {
    std::unique_ptr<CallCounts> calls = std::make_unique<CallCounts>();
    std::vector<std::unique_ptr<TimedSource>> sources;
    std::unique_ptr<MultiJobEngine> engine;
  };

  // Engine and source construction plus every submission: the workload's
  // set-up.
  Engine Build(hd::trace::TimeSeries* ts) {
    Span s("multijob.setup");
    Engine e;
    hd::hadoop::ClusterConfig cfg = cluster_;
    cfg.timeseries = ts;
    e.engine = std::make_unique<MultiJobEngine>(
        cfg, std::make_unique<TimedScheduler>(
                 hd::multijob::MakeScheduler(
                     hd::multijob::SchedulerKind::kCapacity),
                 &e.calls->pick));
    for (const BatchJob& b : batch_) {
      e.sources.push_back(
          std::make_unique<TimedSource>(b.params, &e.calls->map));
      hd::multijob::JobSpec spec;
      spec.source = e.sources.back().get();
      spec.policy = hd::sched::Policy::kTail;
      spec.pool = b.app->pool;
      spec.label = b.app->id;
      e.engine->Submit(b.submit_sec, spec);
    }
    return e;
  }

  // Light faults: crashes and recoveries, dropped heartbeats, attempt
  // failures and slow nodes. Attempt failures stay rare: at fault_sweep's 2%
  // over ~51k attempts most trackers would reach the blacklist threshold and
  // the run would crawl on the rest.
  static hd::fault::FaultSpec FaultSpec(std::uint64_t seed) {
    hd::fault::FaultSpec f;
    f.seed = hd::SplitMix64(seed ^ 0x6661756c74ULL);
    f.crash_mttf_sec = 2000.0;
    f.permanent_fraction = 0.05;
    f.restart_sec = 25.0;
    f.horizon_sec = 400.0;
    f.heartbeat_drop_prob = 0.01;
    f.cpu_fail_prob = 0.002;
    f.gpu_fail_prob = 0.002;
    f.gpu_oom_prob = 0.001;
    f.slow_node_prob = 0.15;
    f.slow_factor = 1.5;
    return f;
  }

  Size size_;
  std::vector<hd::multijob::AppTemplate> mix_;
  std::vector<BatchJob> batch_;
  hd::fault::FaultInjector faults_;
  hd::hadoop::ClusterConfig cluster_;
};

}  // namespace

std::unique_ptr<Workload> MakeClusterReplay(std::uint64_t seed, bool canary) {
  return std::make_unique<ClusterReplay>(seed, canary);
}

}  // namespace hostbench
