// ha_stream: a StreamEngine runs the three stream_steady pipelines beside
// open-loop Table 2 mix batch jobs with a heterodoop.ckpt.v1 snapshot every
// 240.7 modeled seconds. After the run, each snapshot is restored into a
// freshly built engine; once per run, the restore from the middle snapshot
// continues to the end and must match the uninterrupted run exactly. It
// uses the engine in a second way to cluster_replay: snapshot writes beside
// the scheduling, and restores. The interpreter and gpurt do no work.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine_common.h"
#include "stream/engine.h"

namespace hostbench {
namespace {

using hd::stream::PipelineMetrics;
using hd::stream::PipelineSpec;
using hd::stream::StreamMetrics;

struct Size {
  int trackers;
  int batch_jobs;
  int maps_per_job;
  double batch_arrivals_per_sec;
  double rate_mult;  // scales the stream_steady pipeline rates
  double horizon_sec;
  double warmup_sec;
};
constexpr Size kFull{64, 64, 512, 0.04, 4.0, 1800.0, 300.0};
constexpr Size kCanary{8, 4, 16, 0.02, 0.5, 300.0, 60.0};

// Off the 3 s heartbeat grid, so no capture instant ties a heartbeat. At
// this cadence the run writes eight or nine snapshots, and writing them
// takes about half of RunStream's host time.
constexpr double kCheckpointSec = 240.7;

struct CkptCounts {
  std::int64_t writes = 0;
  std::int64_t bytes = 0;
};

// Times each snapshot serialization (the engine's virtual checkpoint
// writer) inside a ckpt.write span.
class TimedStreamEngine : public hd::stream::StreamEngine {
 public:
  TimedStreamEngine(hd::hadoop::ClusterConfig cfg,
                    std::unique_ptr<hd::multijob::InterJobScheduler> sched,
                    CkptCounts* counts)
      : StreamEngine(std::move(cfg), std::move(sched)), counts_(counts) {}

 protected:
  std::string CheckpointToText() override {
    Span s("ckpt.write");
    std::string text = StreamEngine::CheckpointToText();
    ++counts_->writes;
    counts_->bytes += static_cast<std::int64_t>(text.size());
    return text;
  }

 private:
  CkptCounts* counts_;
};

// The stream_steady pipelines (clicks, logs, sensors) with every mean rate
// scaled by `mult`: a copy of MakePipelines in bench/stream_steady.cc, which
// is private to that harness. Keep label, source shape and mean rate,
// trigger count and span, slo_sec, pool and backpressure equal to it.
std::vector<PipelineSpec> Pipelines(std::uint64_t seed, double mult) {
  std::vector<PipelineSpec> specs(3);
  PipelineSpec& clicks = specs[0];
  clicks.label = "clicks";
  clicks.source.shape = hd::stream::RateShape::kPoisson;
  clicks.source.mean_rate_per_sec = 4.0 * mult;
  clicks.source.seed = hd::SplitMix64(seed ^ 1);
  clicks.trigger.count = 48;
  clicks.trigger.span_sec = 15.0;
  clicks.slo_sec = 40.0;

  PipelineSpec& logs = specs[1];
  logs.label = "logs";
  logs.source.shape = hd::stream::RateShape::kBursty;
  logs.source.mean_rate_per_sec = 2.0 * mult;
  logs.source.seed = hd::SplitMix64(seed ^ 2);
  logs.trigger.count = 64;
  logs.trigger.span_sec = 20.0;
  logs.slo_sec = 60.0;
  logs.pool = 1;

  PipelineSpec& sensors = specs[2];
  sensors.label = "sensors";
  sensors.source.shape = hd::stream::RateShape::kDiurnal;
  sensors.source.mean_rate_per_sec = 1.0 * mult;
  sensors.source.seed = hd::SplitMix64(seed ^ 3);
  sensors.trigger.count = 32;
  sensors.trigger.span_sec = 30.0;
  sensors.slo_sec = 90.0;
  sensors.backpressure = hd::stream::Backpressure::kShed;
  return specs;
}

void FoldStream(Fingerprint& fp, const StreamMetrics& sm) {
  for (const PipelineMetrics& p : sm.pipelines) {
    fp.Bytes(p.label);
    fp.F64(p.slo_sec);
    fp.F64(p.offered_rate_per_sec);
    for (std::int64_t v :
         {p.records_arrived, p.records_processed, p.records_shed,
          p.windows_sealed, p.windows_empty, p.windows_shed,
          p.windows_shed_steady, p.windows_completed, p.seals_by_count,
          p.seals_by_time, p.slo_violations, p.backlog_at_horizon,
          p.max_queue_depth}) {
      fp.I64(v);
    }
    for (const auto* xs :
         {&p.latencies_sec, &p.watermark_lags_sec, &p.queue_depths}) {
      fp.I64(static_cast<std::int64_t>(xs->size()));
      for (double v : *xs) fp.F64(v);
    }
    fp.I64(p.stable ? 1 : 0);
    fp.F64(p.depth_growth);
  }
  FoldWorkload(fp, sm.workload);
  fp.F64(sm.horizon_sec);
  fp.F64(sm.warmup_sec);
}

class HaStream : public Workload {
 public:
  HaStream(std::uint64_t seed, bool canary)
      : seed_(seed),
        size_(canary ? kCanary : kFull),
        mix_(hd::multijob::Table2Mix(size_.maps_per_job, 2)),
        batch_(SampleBatchJobs(mix_, size_.batch_jobs,
                               size_.batch_arrivals_per_sec, seed)) {
    cluster_.num_slaves = size_.trackers;
    cluster_.map_slots_per_node = 4;
    cluster_.reduce_slots_per_node = 2;
    cluster_.gpus_per_node = 1;
    cluster_.checkpoint_interval_sec = kCheckpointSec;
  }

  double SetupOnce() override {
    const auto t0 = Clock::now();
    Engine e = Build(nullptr, nullptr);
    return SecondsSince(t0);
  }

  UnitResult RunUnit(bool traced) override {
    UnitResult r;
    Fingerprint fp;
    hd::trace::TimeSeries ts(TelemetryOptions());
    std::vector<std::string> kept;
    Engine e = Build(traced ? &ts : nullptr, &kept);

    StreamMetrics sm;
    {
      Span s("stream.run");
      const auto t1 = Clock::now();
      sm = e.engine->RunStream(size_.horizon_sec, size_.warmup_sec);
      r.call_s = {SecondsSince(t1)};
    }
    FoldStream(fp, sm);
    r.Check(e.engine->checkpoint_seq() == e.ckpt->writes,
            "checkpoint sequence does not match the snapshots written");
    r.Check(!kept.empty(), "no snapshot captured");

    const double batch_maps = CheckBatchJobs(batch_, sm.workload, r);
    const double maps = batch_maps + CheckWindowJobs(sm, r);
    r.work_tasks = maps;
    r.work_mib = maps * kModeledSplitMiB;

    // Restore every kept snapshot into a freshly built engine.
    for (const std::string& text : kept) {
      Engine fresh = Build(nullptr, nullptr, "stream.restore_setup");
      {
        Span s("ckpt.restore");
        const auto t1 = Clock::now();
        fresh.engine->RestoreFromText(text);
        r.restore_ms.push_back(SecondsSince(t1) * 1e3);
      }
      Span s("stream.teardown");
      fresh.engine.reset();
    }
    if (mid_snapshot_.empty() && !kept.empty()) {
      mid_snapshot_ = kept[kept.size() / 2];
      uninterrupted_ = sm;
    }
    r.fingerprint = fp.value();
    r.counts = {
        {"multijob.pick_job_calls", static_cast<double>(e.calls->pick)},
        {"hadoop.map_task_calls", static_cast<double>(e.calls->map)},
        {"hadoop.committed_maps", batch_maps},
        {"ckpt.writes", static_cast<double>(e.ckpt->writes)},
        {"ckpt.bytes", static_cast<double>(e.ckpt->bytes)},
        {"ckpt.restores", static_cast<double>(kept.size())},
        {"stream.windows", static_cast<double>(sm.TotalWindowsCompleted())}};
    if (traced) r.counts["des.events"] = DesEvents(ts);
    Span s("stream.teardown");
    e.engine.reset();
    return r;
  }

  // Kill -> restore: the run restored from the middle snapshot must end
  // with every metric field exactly equal to the uninterrupted run.
  void FinalChecks(UnitResult* r) override {
    if (mid_snapshot_.empty()) return;
    Span s("stream.restored_run");
    Engine e = Build(nullptr, nullptr, "stream.restore_setup");
    e.engine->RestoreFromText(mid_snapshot_);
    const StreamMetrics sm =
        e.engine->RunStream(size_.horizon_sec, size_.warmup_sec);
    Fingerprint fp, base;
    FoldStream(fp, sm);
    FoldStream(base, uninterrupted_);
    r->Check(fp.value() == base.value(),
             "run restored from the middle snapshot differs from the "
             "uninterrupted run");
  }

 private:
  struct Engine {
    std::unique_ptr<CallCounts> calls = std::make_unique<CallCounts>();
    std::unique_ptr<CkptCounts> ckpt = std::make_unique<CkptCounts>();
    std::vector<std::unique_ptr<TimedSource>> sources;
    std::unique_ptr<TimedStreamEngine> engine;
  };

  // Engine, pipelines and batch submissions: the workload's set-up, and
  // the rebuild a warm restart needs before RestoreFromText. `kept`
  // non-null collects every snapshot written.
  Engine Build(hd::trace::TimeSeries* ts, std::vector<std::string>* kept,
               const char* span = "stream.setup") {
    Span s(span);
    Engine e;
    hd::hadoop::ClusterConfig cfg = cluster_;
    cfg.timeseries = ts;
    if (kept != nullptr) {
      cfg.on_checkpoint = [kept](int, const std::string& text) {
        kept->push_back(text);
      };
    }
    e.engine = std::make_unique<TimedStreamEngine>(
        cfg,
        std::make_unique<TimedScheduler>(
            hd::multijob::MakeSloScheduler(hd::multijob::MakeScheduler(
                hd::multijob::SchedulerKind::kCapacity)),
            &e.calls->pick),
        e.ckpt.get());
    for (PipelineSpec& p : Pipelines(seed_, size_.rate_mult)) {
      e.engine->AddPipeline(std::move(p));
    }
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

  // Window jobs (the ids after the batch jobs) must complete with whole
  // maps of output, one job per non-empty completed window. Returns their
  // committed maps.
  double CheckWindowJobs(const StreamMetrics& sm, UnitResult& r) const {
    const hd::multijob::WorkloadMetrics& m = sm.workload;
    const std::int64_t window_map_bytes =
        hd::stream::WindowJobTemplate{}.map_output_bytes;
    double window_maps = 0.0;
    bool whole = true;
    for (std::size_t j = batch_.size(); j < m.jobs.size(); ++j) {
      const std::int64_t b = m.jobs[j].result.total_map_output_bytes;
      whole = whole && b > 0 && b % window_map_bytes == 0 &&
              m.jobs[j].finish_sec >= m.jobs[j].submit_sec;
      window_maps += static_cast<double>(b / window_map_bytes);
    }
    r.Check(whole, "a window job did not commit whole maps");
    std::int64_t ran = 0;
    for (const PipelineMetrics& p : sm.pipelines) {
      ran += p.windows_completed - p.windows_empty;
    }
    r.Check(static_cast<std::int64_t>(m.jobs.size() - batch_.size()) == ran,
            "window jobs do not match the non-empty completed windows");
    return window_maps;
  }

  std::uint64_t seed_;
  Size size_;
  std::vector<hd::multijob::AppTemplate> mix_;
  std::vector<BatchJob> batch_;
  hd::hadoop::ClusterConfig cluster_;
  // The first unit's middle snapshot and metrics, for FinalChecks.
  std::string mid_snapshot_;
  StreamMetrics uninterrupted_;
};

}  // namespace

std::unique_ptr<Workload> MakeHaStream(std::uint64_t seed, bool canary) {
  return std::make_unique<HaStream>(seed, canary);
}

}  // namespace hostbench
