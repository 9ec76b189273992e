// src/prof: trace reading, critical-path analysis, straggler attribution,
// kernel hotspot aggregation and the bench-suite regression comparator.
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hadoop/engine.h"
#include "prof/critical_path.h"
#include "prof/kernels.h"
#include "prof/regress.h"
#include "prof/timeline.h"
#include "prof/trace_file.h"
#include "trace/chrome.h"
#include "trace/timeseries.h"

namespace {

using namespace hd;
using trace::Arg;

prof::TraceFile Roundtrip(const trace::ChromeTraceSink& sink) {
  std::ostringstream os;
  sink.Write(os);
  return prof::TraceFile::Parse(os.str());
}

TEST(TraceFile, ParsesSpansInstantsAndTrackNames) {
  trace::ChromeTraceSink sink;
  sink.NameProcess(3, "node2");
  sink.NameThread({3, 1}, "cpu0");
  sink.Span("task", "cpu_map", {3, 1}, 1.5, 2.25,
            {Arg::Int("task", 7), Arg::Str("label", "WC")});
  sink.Instant("sched", "forced_gpu", {3, 0}, 4.0, {Arg::Int("task", 7)});
  const prof::TraceFile tf = Roundtrip(sink);
  EXPECT_EQ(tf.ProcessName(3), "node2");
  EXPECT_EQ(tf.ThreadName(3, 1), "cpu0");
  ASSERT_EQ(tf.events().size(), 2u);
  const prof::TraceEvent& span = tf.events()[0];
  EXPECT_EQ(span.phase, 'X');
  EXPECT_EQ(span.category, "task");
  EXPECT_EQ(span.name, "cpu_map");
  EXPECT_NEAR(span.start_sec, 1.5, 1e-12);
  EXPECT_NEAR(span.dur_sec, 2.25, 1e-12);
  EXPECT_EQ(span.ArgNumber("task"), 7.0);
  EXPECT_EQ(span.ArgString("label"), "WC");
  EXPECT_EQ(span.ArgString("missing", "d"), "d");
  const prof::TraceEvent& inst = tf.events()[1];
  EXPECT_EQ(inst.phase, 'i');
  EXPECT_EQ(inst.dur_sec, 0.0);
  EXPECT_NEAR(inst.start_sec, 4.0, 1e-12);
}

TEST(TraceFile, RejectsNonTraceDocuments) {
  EXPECT_THROW(prof::TraceFile::Parse("{\"foo\": 1}"), std::runtime_error);
  EXPECT_THROW(prof::TraceFile::Parse("nonsense"), std::runtime_error);
}

// A hand-built span DAG with a known longest chain:
//   lane 1: t0 [0,5)   t2 [5,15)
//   lane 2: t1 [0,8)   t3 [9,17)   (scheduling gap 8..9)
//   job span [0,20): 17..20 is the shuffle/reduce tail.
// Walking back from 20: shuffle_reduce(3) <- t3(8) <- wait(1) <- t1(8).
trace::ChromeTraceSink BuildDag() {
  trace::ChromeTraceSink sink;
  sink.NameProcess(0, "jobtracker");
  sink.NameProcess(1, "node0");
  sink.Span("job", "jobA", {0, 0}, 0.0, 20.0,
            {Arg::Int("job", 0), Arg::Str("policy", "gpu-first"),
             Arg::Float("max_observed_speedup", 1.0)});
  sink.Span("task", "cpu_map", {1, 1}, 0.0, 5.0,
            {Arg::Int("job", 0), Arg::Int("task", 0)});
  sink.Span("task", "cpu_map", {1, 2}, 0.0, 8.0,
            {Arg::Int("job", 0), Arg::Int("task", 1)});
  sink.Span("task", "cpu_map", {1, 1}, 5.0, 10.0,
            {Arg::Int("job", 0), Arg::Int("task", 2)});
  sink.Span("task", "cpu_map", {1, 2}, 9.0, 8.0,
            {Arg::Int("job", 0), Arg::Int("task", 3)});
  return sink;
}

TEST(CriticalPath, FindsKnownLongestChainWithWaitAndReduceSegments) {
  const std::vector<prof::JobAnalysis> jobs =
      prof::AnalyzeJobs(Roundtrip(BuildDag()));
  ASSERT_EQ(jobs.size(), 1u);
  const prof::JobAnalysis& j = jobs[0];
  EXPECT_EQ(j.job_id, 0);
  EXPECT_EQ(j.name, "jobA");
  EXPECT_EQ(j.policy, "gpu-first");
  EXPECT_NEAR(j.makespan_sec, 20.0, 1e-12);
  ASSERT_EQ(j.tasks.size(), 4u);

  ASSERT_EQ(j.chain.size(), 4u);
  EXPECT_EQ(j.chain[0].kind, prof::ChainSegment::Kind::kTask);
  EXPECT_EQ(j.chain[0].task, 1);
  EXPECT_NEAR(j.chain[0].dur_sec, 8.0, 1e-9);
  EXPECT_EQ(j.chain[1].kind, prof::ChainSegment::Kind::kWait);
  EXPECT_NEAR(j.chain[1].dur_sec, 1.0, 1e-9);
  EXPECT_EQ(j.chain[2].kind, prof::ChainSegment::Kind::kTask);
  EXPECT_EQ(j.chain[2].task, 3);
  EXPECT_NEAR(j.chain[2].dur_sec, 8.0, 1e-9);
  EXPECT_EQ(j.chain[3].kind, prof::ChainSegment::Kind::kShuffleReduce);
  EXPECT_NEAR(j.chain[3].dur_sec, 3.0, 1e-9);
  // The chain tiles [start, end]: durations sum to the makespan.
  EXPECT_NEAR(j.ChainTotalSec(), j.makespan_sec, 1e-9);
  EXPECT_NEAR(j.ChainWaitSec(), 1.0, 1e-9);

  // Slack: off-chain tasks have the most; the chain's tail task the least.
  for (const prof::TaskRecord& t : j.tasks) {
    if (t.task == 0) {
      EXPECT_NEAR(t.slack_sec, 15.0, 1e-9);
    } else if (t.task == 2) {
      EXPECT_NEAR(t.slack_sec, 5.0, 1e-9);
    } else if (t.task == 3) {
      EXPECT_NEAR(t.slack_sec, 3.0, 1e-9);
    }
  }
}

TEST(CriticalPath, AttributesInputSkewOnSeededSkewedWorkload) {
  trace::ChromeTraceSink sink;
  sink.NameProcess(0, "jobtracker");
  sink.NameProcess(1, "node0");
  sink.Span("job", "skewed", {0, 0}, 0.0, 11.0,
            {Arg::Int("job", 0), Arg::Str("policy", "cpu-only"),
             Arg::Float("max_observed_speedup", 1.0)});
  // Three nominal 2 s tasks and one deterministic 9 s tail task: the
  // same-device median is 2 s, so the tail task is input-skewed.
  sink.Span("task", "cpu_map", {1, 1}, 0.0, 2.0,
            {Arg::Int("job", 0), Arg::Int("task", 0)});
  sink.Span("task", "cpu_map", {1, 2}, 0.0, 2.0,
            {Arg::Int("job", 0), Arg::Int("task", 1)});
  sink.Span("task", "cpu_map", {1, 2}, 2.0, 2.0,
            {Arg::Int("job", 0), Arg::Int("task", 2)});
  sink.Span("task", "cpu_map", {1, 1}, 2.0, 9.0,
            {Arg::Int("job", 0), Arg::Int("task", 3)});
  const std::vector<prof::JobAnalysis> jobs =
      prof::AnalyzeJobs(Roundtrip(sink));
  ASSERT_EQ(jobs.size(), 1u);
  const prof::JobAnalysis& j = jobs[0];
  ASSERT_FALSE(j.stragglers.empty());
  // Latest-ending chain task first: the skewed tail task.
  EXPECT_EQ(j.stragglers[0].task, 3);
  EXPECT_EQ(j.stragglers[0].cause, "input_skew");
  EXPECT_NEAR(j.stragglers[0].excess_sec, 7.0, 1e-9);  // 9 - median 2
  // The nominal task feeding it is neither skewed nor misplaced
  // (speedup 1.0 means the CPU was the right device).
  ASSERT_GE(j.stragglers.size(), 2u);
  EXPECT_EQ(j.stragglers[1].cause, "none");
}

TEST(CriticalPath, AttributesDevicePlacementWhenGpuWasFaster) {
  trace::ChromeTraceSink sink;
  sink.NameProcess(0, "jobtracker");
  sink.NameProcess(1, "node0");
  sink.Span("job", "placed", {0, 0}, 0.0, 6.0,
            {Arg::Int("job", 0), Arg::Str("policy", "gpu-first"),
             Arg::Float("max_observed_speedup", 6.0)});
  sink.Span("task", "cpu_map", {1, 1}, 0.0, 6.0,
            {Arg::Int("job", 0), Arg::Int("task", 0)});
  sink.Span("task", "gpu_map", {1, 3}, 0.0, 1.0,
            {Arg::Int("job", 0), Arg::Int("task", 1)});
  const std::vector<prof::JobAnalysis> jobs =
      prof::AnalyzeJobs(Roundtrip(sink));
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_FALSE(jobs[0].stragglers.empty());
  const prof::Straggler& s = jobs[0].stragglers[0];
  EXPECT_EQ(s.task, 0);
  EXPECT_EQ(s.cause, "device_placement");
  // A 6x GPU would have cut 6 s to 1 s: 5 s of tail time explained.
  EXPECT_NEAR(s.excess_sec, 5.0, 1e-9);
}

// The acceptance scenario: the Fig. 3 toy job (19 equal tasks, 2 CPU slots
// + 1 GPU at 6x) run under gpu-first and tail scheduling into one trace on
// disjoint pid ranges, exactly as bench/fig3_tail_example wires it.
TEST(CriticalPath, Fig3TailSchedulingChainSumsToMakespanAndBeatsGpuFirst) {
  trace::ChromeTraceSink sink;
  double makespans[2] = {0.0, 0.0};
  int i = 0;
  for (sched::Policy policy : {sched::Policy::kGpuFirst, sched::Policy::kTail}) {
    hadoop::CalibratedTaskSource::Params p;
    p.num_maps = 19;
    p.num_reducers = 0;
    p.cpu_task_sec = 12.0;
    p.gpu_task_sec = 2.0;
    p.variation = 0.0;
    hadoop::CalibratedTaskSource source(p);
    hadoop::ClusterConfig c;
    c.num_slaves = 1;
    c.map_slots_per_node = 2;
    c.gpus_per_node = 1;
    c.heartbeat_sec = 0.1;
    c.sink = &sink;
    c.trace_pid_base = policy == sched::Policy::kTail ? 0 : 100;
    makespans[i++] =
        hadoop::JobEngine(c, &source, policy).Run().makespan_sec;
  }

  const std::vector<prof::JobAnalysis> jobs =
      prof::AnalyzeJobs(Roundtrip(sink));
  ASSERT_EQ(jobs.size(), 2u);  // one per pid base, ordered by tracker pid
  const prof::JobAnalysis& tail = jobs[0];
  const prof::JobAnalysis& gpu_first = jobs[1];
  EXPECT_EQ(tail.policy, "tail");
  EXPECT_EQ(gpu_first.policy, "gpu-first");
  EXPECT_NEAR(gpu_first.makespan_sec, makespans[0], 1e-9);
  EXPECT_NEAR(tail.makespan_sec, makespans[1], 1e-9);

  for (const prof::JobAnalysis& j : {tail, gpu_first}) {
    EXPECT_EQ(static_cast<int>(j.tasks.size()), 19);
    // The acceptance criterion: chain span durations sum exactly to the
    // job makespan (the chain tiles the job interval).
    EXPECT_NEAR(j.ChainTotalSec(), j.makespan_sec, 1e-9) << j.policy;
    ASSERT_FALSE(j.chain.empty());
    EXPECT_NEAR(j.chain.back().start_sec + j.chain.back().dur_sec, j.end_sec,
                1e-9);
  }

  // Algorithm 2's benefit, quantified from the one trace: the tail run
  // forced tasks onto the GPU after onset and finished sooner.
  EXPECT_GT(tail.forced_gpu, 0);
  EXPECT_GT(tail.tail_tasks_rescued, 0);
  EXPECT_GE(tail.tail_onset_sec, 0.0);
  EXPECT_LT(tail.tail_onset_sec, tail.end_sec);
  EXPECT_EQ(gpu_first.forced_gpu, 0);
  EXPECT_LT(tail.tail_onset_sec, tail.makespan_sec);

  const std::vector<prof::PolicyComparison> cmp = prof::ComparePolicies(jobs);
  ASSERT_EQ(cmp.size(), 1u);
  EXPECT_EQ(cmp[0].baseline_policy, "gpu-first");
  EXPECT_NEAR(cmp[0].saved_sec, makespans[0] - makespans[1], 1e-9);
  EXPECT_GT(cmp[0].saved_sec, 0.0);
  EXPECT_GT(cmp[0].saved_fraction, 0.0);
}

// A faulted run's trace: retry/speculative/killed/failed attempts become
// "recovery" chain segments, and the chain — recovery included — still
// tiles the makespan exactly.
TEST(CriticalPath, RecoverySegmentsTileTheMakespanUnderFaults) {
  fault::FaultSpec s;
  s.seed = 23;
  s.crash_mttf_sec = 150.0;
  s.permanent_fraction = 0.0;
  s.restart_sec = 40.0;
  s.horizon_sec = 600.0;
  s.cpu_fail_prob = 0.15;
  s.gpu_fail_prob = 0.1;
  s.slow_node_prob = 0.3;
  const fault::FaultInjector inj(s);

  trace::ChromeTraceSink sink;
  hadoop::CalibratedTaskSource::Params p;
  p.num_maps = 32;
  p.num_reducers = 0;
  p.cpu_task_sec = 10.0;
  p.gpu_task_sec = 2.0;
  p.variation = 0.0;
  hadoop::CalibratedTaskSource source(p);
  hadoop::ClusterConfig c;
  c.num_slaves = 4;
  c.map_slots_per_node = 2;
  c.gpus_per_node = 1;
  c.heartbeat_sec = 1.0;
  c.heartbeat_expiry_sec = 5.0;
  c.faults = &inj;
  c.speculation = true;
  c.max_task_attempts = 16;
  c.sink = &sink;
  const hadoop::JobResult r =
      hadoop::JobEngine(c, &source, sched::Policy::kTail).Run();
  ASSERT_GT(r.task_failures + r.killed_attempts, 0);  // faults engaged

  const std::vector<prof::JobAnalysis> jobs =
      prof::AnalyzeJobs(Roundtrip(sink));
  ASSERT_EQ(jobs.size(), 1u);
  const prof::JobAnalysis& j = jobs[0];
  // Every attempt — including failed, killed and speculative ones — is a
  // task record, so there are more records than map tasks.
  EXPECT_GT(static_cast<int>(j.tasks.size()), p.num_maps);
  EXPECT_EQ(j.retry_attempts + j.failed_attempts + j.killed_attempts > 0,
            true);
  EXPECT_EQ(static_cast<std::int64_t>(j.failed_attempts), r.task_failures);
  EXPECT_EQ(static_cast<std::int64_t>(j.killed_attempts), r.killed_attempts);
  EXPECT_EQ(static_cast<std::int64_t>(j.speculative_attempts),
            r.speculative_launched);

  // The acceptance criterion: with a "recovery" segment class in the walk,
  // chain segments still tile [start, end] exactly.
  EXPECT_NEAR(j.ChainTotalSec(), j.makespan_sec, 1e-9);
  ASSERT_FALSE(j.chain.empty());
  EXPECT_NEAR(j.chain.back().start_sec + j.chain.back().dur_sec, j.end_sec,
              1e-9);
  EXPECT_GE(j.ChainRecoverySec(), 0.0);
  EXPECT_LE(j.ChainRecoverySec(), j.makespan_sec + 1e-9);
  double tiled = 0.0;
  bool has_recovery = false;
  for (const prof::ChainSegment& seg : j.chain) {
    tiled += seg.dur_sec;
    if (seg.kind == prof::ChainSegment::Kind::kRecovery) {
      has_recovery = true;
      EXPECT_EQ(seg.name, "recovery");
      EXPECT_GE(seg.task, 0);
    }
  }
  EXPECT_NEAR(tiled, j.makespan_sec, 1e-9);
  EXPECT_EQ(j.ChainRecoverySec() > 0.0, has_recovery);

  // Fault instants parse as trace events (node_crash/node_recover live on
  // node lanes); the analysis must not choke on the new category.
  bool saw_fault_event = false;
  std::ostringstream os;
  sink.Write(os);
  saw_fault_event = os.str().find("node_crash") != std::string::npos;
  EXPECT_TRUE(saw_fault_event);
}

TEST(Kernels, AggregatesLaunchesAndRanksHotspots) {
  trace::ChromeTraceSink sink;
  for (int launch = 0; launch < 2; ++launch) {
    sink.Span("kernel", "map", {5, 1}, launch * 0.01, 0.002,
              {Arg::Float("device_cycles", 1000.0),
               Arg::Float("compute_cycles", 800.0),
               Arg::Float("mem_cycles", 300.0),
               Arg::Float("dram_roof_cycles", 200.0),
               Arg::Int("transactions", 40), Arg::Int("bytes_moved", 5120),
               Arg::Int("mem_requests", 100),
               Arg::Int("bytes_requested", 2560),
               Arg::Int("shared_accesses", 10),
               Arg::Int("shared_bank_conflicts", 3),
               Arg::Int("atomic_conflicts", 1),
               Arg::Float("divergence", 0.5),
               Arg::Float("texture_hit_rate", 0.9)});
  }
  sink.Span("kernel", "sort", {5, 1}, 0.02, 0.001,
            {Arg::Float("device_cycles", 500.0),
             Arg::Float("compute_cycles", 100.0),
             Arg::Float("mem_cycles", 200.0),
             Arg::Float("dram_roof_cycles", 500.0),
             Arg::Int("transactions", 80), Arg::Int("bytes_moved", 10240),
             Arg::Int("mem_requests", 40),
             Arg::Int("bytes_requested", 10240)});
  const prof::KernelProfile p = prof::ProfileKernels(Roundtrip(sink));
  ASSERT_EQ(p.kernels.size(), 2u);
  EXPECT_NEAR(p.total_sec, 0.005, 1e-12);
  const prof::KernelStats& map = p.kernels[0];  // hottest first
  EXPECT_EQ(map.name, "map");
  EXPECT_EQ(map.launches, 2);
  EXPECT_NEAR(map.total_sec, 0.004, 1e-12);
  EXPECT_EQ(map.transactions, 80);
  EXPECT_EQ(map.bytes_requested, 5120);
  EXPECT_EQ(map.shared_bank_conflicts, 6);
  EXPECT_EQ(map.atomic_conflicts, 2);
  EXPECT_NEAR(map.Divergence(), 0.5, 1e-12);
  EXPECT_NEAR(map.Coalescing(), 0.5, 1e-12);  // 5120 / 10240
  EXPECT_NEAR(map.TransactionsPerRequest(), 0.4, 1e-12);
  EXPECT_NEAR(map.TextureHitRate(), 0.9, 1e-12);
  EXPECT_EQ(map.Bound(), "compute");
  const prof::KernelStats& sort = p.kernels[1];
  EXPECT_EQ(sort.name, "sort");
  EXPECT_EQ(sort.Bound(), "dram");
  EXPECT_NEAR(sort.Coalescing(), 1.0, 1e-12);
  EXPECT_EQ(sort.TextureHitRate(), 0.0);
}

prof::Suite MakeSuite() {
  prof::Suite s;
  s.rev = "base";
  s.smoke = true;
  prof::BenchRun x;
  x.benchmark = "fig4a_cluster1";
  x.modeled_seconds = 100.0;
  x.metrics = {{"hadoop.cpu_tasks", 10.0}, {"hadoop.gpu_tasks", 5.0}};
  prof::BenchRun y;
  y.benchmark = "fig6_breakdown";
  y.modeled_seconds = 50.0;
  s.runs = {x, y};
  return s;
}

TEST(Regress, SuiteRoundTripsThroughJson) {
  const prof::Suite s = MakeSuite();
  std::ostringstream os;
  prof::WriteSuite(os, s);
  const prof::Suite back = prof::ParseSuite(os.str());
  EXPECT_EQ(back.rev, "base");
  EXPECT_TRUE(back.smoke);
  ASSERT_EQ(back.runs.size(), 2u);
  EXPECT_EQ(back.runs[0].benchmark, "fig4a_cluster1");
  EXPECT_EQ(back.runs[0].modeled_seconds, 100.0);
  ASSERT_EQ(back.runs[0].metrics.size(), 2u);
  EXPECT_EQ(back.runs[0].metrics[0].first, "hadoop.cpu_tasks");
  EXPECT_EQ(back.runs[0].metrics[0].second, 10.0);
  // Serialization is deterministic.
  std::ostringstream again;
  prof::WriteSuite(again, back);
  EXPECT_EQ(os.str(), again.str());
}

TEST(Regress, RejectsWrongSchema) {
  EXPECT_THROW(prof::ParseSuite("{\"schema\": \"other\", \"suite\": []}"),
               std::runtime_error);
  EXPECT_THROW(prof::RunFromBenchReport("{\"schema\": \"other\"}"),
               std::runtime_error);
}

TEST(Regress, IdenticalSuitesCompareClean) {
  const prof::Suite s = MakeSuite();
  const prof::CompareResult r = prof::Compare(s, s);
  EXPECT_TRUE(r.deltas.empty());
  EXPECT_EQ(r.regressions, 0);
  EXPECT_EQ(r.improvements, 0);
  EXPECT_FALSE(r.Failed());
}

TEST(Regress, DetectsInjectedRegressionWithAttribution) {
  const prof::Suite base = MakeSuite();
  prof::Suite cur = base;
  cur.rev = "cur";
  cur.runs[0].modeled_seconds = 110.0;          // +10% — beyond 1%
  cur.runs[0].metrics[1].second = 9.0;          // gpu_tasks 5 -> 9
  const prof::CompareResult r = prof::Compare(base, cur);
  EXPECT_EQ(r.regressions, 1);
  EXPECT_TRUE(r.Failed());
  ASSERT_GE(r.deltas.size(), 2u);
  EXPECT_EQ(r.deltas[0].metric, "modeled_seconds");
  EXPECT_TRUE(r.deltas[0].scored);
  EXPECT_TRUE(r.deltas[0].regression);
  EXPECT_NEAR(r.deltas[0].rel_change, 0.10, 1e-12);
  // Per-metric attribution rides under the regressing benchmark.
  EXPECT_EQ(r.deltas[1].benchmark, "fig4a_cluster1");
  EXPECT_EQ(r.deltas[1].metric, "hadoop.gpu_tasks");
  EXPECT_FALSE(r.deltas[1].scored);
  EXPECT_FALSE(r.deltas[1].regression);
}

TEST(Regress, ImprovementsAndMissingBenchmarks) {
  const prof::Suite base = MakeSuite();
  prof::Suite faster = base;
  faster.runs[1].modeled_seconds = 40.0;  // -20%
  const prof::CompareResult ok = prof::Compare(base, faster);
  EXPECT_EQ(ok.regressions, 0);
  EXPECT_EQ(ok.improvements, 1);
  EXPECT_FALSE(ok.Failed());

  prof::Suite dropped = base;
  dropped.runs.pop_back();
  const prof::CompareResult bad = prof::Compare(base, dropped);
  ASSERT_EQ(bad.removed_benchmarks.size(), 1u);
  EXPECT_EQ(bad.removed_benchmarks[0], "fig6_breakdown");
  EXPECT_TRUE(bad.Failed());  // a vanished benchmark fails the gate

  const prof::CompareResult added = prof::Compare(dropped, base);
  ASSERT_EQ(added.added_benchmarks.size(), 1u);
  EXPECT_FALSE(added.Failed());  // new coverage is fine
}

prof::Suite MakePinnedSuite() {
  prof::Suite s = MakeSuite();
  prof::BenchRun d;
  d.benchmark = "des_scale";
  d.modeled_seconds = 300.0;
  d.metrics = {{"des.events_total", 2000001.0},
               {"pinned.des.events_per_sec", 4.0e7}};
  s.runs.push_back(d);
  return s;
}

TEST(Regress, PinnedMetricsTolerateWallClockNoise) {
  // "pinned." metrics are wall-clock throughput numbers; machine noise —
  // even a 2x swing either way — must not score at all under the default
  // generous pinned_threshold of 0.9.
  const prof::Suite base = MakePinnedSuite();
  prof::Suite halved = base;
  halved.runs[2].metrics[1].second = 2.0e7;  // events/sec 40M -> 20M
  const prof::CompareResult slow = prof::Compare(base, halved);
  EXPECT_TRUE(slow.deltas.empty());
  EXPECT_FALSE(slow.Failed());

  prof::Suite doubled = base;
  doubled.runs[2].metrics[1].second = 8.0e7;
  const prof::CompareResult fast = prof::Compare(base, doubled);
  EXPECT_TRUE(fast.deltas.empty());  // no improvement credit either
  EXPECT_FALSE(fast.Failed());
}

TEST(Regress, PinnedMetricCollapseIsAScoredRegression) {
  const prof::Suite base = MakePinnedSuite();
  prof::Suite collapsed = base;
  collapsed.runs[2].metrics[1].second = 2.0e6;  // 40M -> 2M: -95%
  const prof::CompareResult r = prof::Compare(base, collapsed);
  EXPECT_EQ(r.regressions, 1);
  EXPECT_TRUE(r.Failed());
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].benchmark, "des_scale");
  EXPECT_EQ(r.deltas[0].metric, "pinned.des.events_per_sec");
  EXPECT_TRUE(r.deltas[0].scored);
  EXPECT_TRUE(r.deltas[0].regression);
  EXPECT_NEAR(r.deltas[0].rel_change, -0.95, 1e-12);

  // A tighter --pinned-threshold turns the 50% dip into a failure too.
  prof::Suite halved = base;
  halved.runs[2].metrics[1].second = 2.0e7;
  prof::CompareOptions tight;
  tight.pinned_threshold = 0.3;
  const prof::CompareResult strict = prof::Compare(base, halved, tight);
  EXPECT_EQ(strict.regressions, 1);
  EXPECT_TRUE(strict.Failed());
}

TEST(Regress, DisappearedPinnedKeyScoresAsFullCollapse) {
  // Silently dropping the pin from the report must fail the gate even
  // though no number got worse — that is exactly what the pin guards.
  const prof::Suite base = MakePinnedSuite();
  prof::Suite unpinned = base;
  unpinned.runs[2].metrics.pop_back();
  const prof::CompareResult r = prof::Compare(base, unpinned);
  EXPECT_EQ(r.regressions, 1);
  EXPECT_TRUE(r.Failed());
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].metric, "pinned.des.events_per_sec");
  EXPECT_EQ(r.deltas[0].after, 0.0);
  EXPECT_NEAR(r.deltas[0].rel_change, -1.0, 1e-12);
}

TEST(Regress, PinnedMetricsNeverRideAsAttribution) {
  // When modeled_seconds regresses, shared metrics attribute the change —
  // but pinned wall-clock keys are excluded from attribution: they only
  // ever appear as their own scored rows.
  const prof::Suite base = MakePinnedSuite();
  prof::Suite cur = base;
  cur.runs[2].modeled_seconds = 330.0;       // +10% modeled regression
  cur.runs[2].metrics[1].second = 2.0e7;     // pinned halves (noise)
  const prof::CompareResult r = prof::Compare(base, cur);
  EXPECT_EQ(r.regressions, 1);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].metric, "modeled_seconds");
}

// Produce a real producer-side export and read it back through the hdprof
// timeline parser — the round trip covers both ends of the wire format.
std::string SampleExport() {
  trace::TimeSeriesOptions opts;
  opts.sample_interval_sec = 2.0;
  trace::TimeSeries ts(opts);
  double work = 0.0, depth = 0.0;
  ts.AddCumulativeProbe("stream.clicks.records_arrived", [&] { return work; });
  ts.AddGaugeProbe("stream.clicks.queue_depth", [&] { return depth; });
  ts.AddGaugeProbe("cluster.running_attempts", [&] { return 3.0; });
  trace::SloRule r;
  r.name = "stream.clicks.queue_depth_high";
  r.kind = trace::SloRule::Kind::kAbove;
  r.series = "stream.clicks.queue_depth";
  r.threshold = 4.0;
  ts.slo().AddRule(r);
  for (int t = 1; t <= 10; ++t) {
    work += 10.0;
    depth = t >= 6 ? 6.0 : 1.0;  // backlog appears at t = 12 s
    ts.Sample(2.0 * t, nullptr, nullptr);
  }
  std::ostringstream os;
  ts.WriteJsonl(os);
  return os.str();
}

TEST(Timeline, ParsesProducerExportRoundTrip) {
  const prof::TimeSeriesFile f = prof::TimeSeriesFile::Parse(SampleExport());
  EXPECT_EQ(f.sample_interval_sec, 2.0);
  EXPECT_EQ(f.samples, 10);
  const prof::TsSeries* depth = f.Find("stream.clicks.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->kind, "gauge");
  ASSERT_EQ(depth->points.size(), 10u);
  EXPECT_EQ(depth->points[0].first, 2.0);
  EXPECT_EQ(depth->Min(), 1.0);
  EXPECT_EQ(depth->Max(), 6.0);
  EXPECT_EQ(depth->Last(), 6.0);
  // SteadyMean covers the back half: samples 6..10 all sit at depth 6.
  EXPECT_EQ(depth->SteadyMean(), 6.0);
  const prof::TsSeries* rate = f.Find("stream.clicks.records_arrived.rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->kind, "rate");
  EXPECT_EQ(rate->Last(), 5.0);  // 10 records per 2 s tick
  // The alert transition survived the round trip.
  ASSERT_EQ(f.alerts.size(), 1u);
  EXPECT_EQ(f.alerts[0].rule, "stream.clicks.queue_depth_high");
  EXPECT_EQ(f.alerts[0].state, "firing");
  EXPECT_EQ(f.alerts[0].t, 12.0);
}

TEST(Timeline, RejectsNonTimeseriesInput) {
  EXPECT_THROW(prof::TimeSeriesFile::Parse("{\"schema\": \"other\"}"),
               std::runtime_error);
  EXPECT_THROW(prof::TimeSeriesFile::Parse(""), std::runtime_error);
  EXPECT_THROW(
      prof::TimeSeriesFile::Parse(
          "{\"schema\": \"heterodoop.timeseries.v1\"}\n{\"no\": \"type\"}"),
      std::runtime_error);
}

TEST(Timeline, SparklineDownsamplesAndHandlesConstants) {
  std::vector<std::pair<double, double>> ramp;
  for (int i = 0; i < 100; ++i) {
    ramp.emplace_back(static_cast<double>(i), static_cast<double>(i));
  }
  const std::string s = prof::Sparkline(ramp, 10);
  EXPECT_EQ(s.size(), 10u);
  // Monotone input yields a non-decreasing glyph ramp ending at the top
  // (glyph order follows the brightness ramp, not ASCII codes).
  const std::string glyphs = "_.-:=*#%@";
  EXPECT_EQ(s.back(), '@');
  std::size_t prev = 0;
  for (char c : s) {
    const std::size_t level = glyphs.find(c);
    ASSERT_NE(level, std::string::npos) << s;
    EXPECT_GE(level, prev) << s;
    prev = level;
  }
  // Constant series render flat at the lowest glyph, never blank.
  const std::vector<std::pair<double, double>> flat(20, {0.0, 7.0});
  const std::string fs = prof::Sparkline(flat, 10);
  EXPECT_EQ(fs, std::string(10, '_'));
  // Fewer points than columns: one glyph per point.
  EXPECT_EQ(prof::Sparkline(flat, 60).size(), 20u);
  EXPECT_TRUE(prof::Sparkline({}, 10).empty());
}

TEST(Timeline, CompareDiffsSteadyStateMeans) {
  const prof::TimeSeriesFile before =
      prof::TimeSeriesFile::Parse(SampleExport());
  prof::TimeSeriesFile after = before;
  // Identical exports compare clean.
  const prof::CompareResult same =
      prof::CompareTimeSeries(before, after, 0.01);
  EXPECT_TRUE(same.deltas.empty());
  EXPECT_FALSE(same.Failed());
  // Doubling the steady-state queue depth surfaces as a delta; dropping a
  // series fails the compare like a removed benchmark.
  for (prof::TsSeries& s : after.series) {
    if (s.name == "stream.clicks.queue_depth") {
      for (auto& [t, v] : s.points) v *= 2.0;
    }
  }
  after.series.pop_back();  // whichever sorts last
  const prof::CompareResult r = prof::CompareTimeSeries(before, after, 0.01);
  ASSERT_FALSE(r.deltas.empty());
  bool saw_depth = false;
  for (const prof::Delta& d : r.deltas) {
    if (d.benchmark == "stream.clicks.queue_depth") {
      saw_depth = true;
      EXPECT_NEAR(d.rel_change, 1.0, 1e-12);
      EXPECT_FALSE(d.scored);  // attribution-only, never a regression count
    }
  }
  EXPECT_TRUE(saw_depth);
  EXPECT_EQ(r.removed_benchmarks.size(), 1u);
  EXPECT_TRUE(r.Failed());
}

}  // namespace
