// The fault-tolerance contract: deterministic injection (src/fault) and
// the JobTracker recovery semantics of the cluster engine — expiry
// re-execution, bounded retries, blacklisting, speculative execution and
// the exactly-once commit protocol.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "hadoop/engine.h"
#include "hadoop/functional_source.h"
#include "hadoop/task_source.h"
#include "multijob/workload.h"

namespace hd::hadoop {
namespace {

using sched::Policy;

CalibratedTaskSource::Params BaseParams() {
  CalibratedTaskSource::Params p;
  p.num_maps = 32;
  p.num_reducers = 2;
  p.cpu_task_sec = 10.0;
  p.gpu_task_sec = 2.0;
  p.variation = 0.0;
  p.map_output_bytes = 1 << 20;
  p.reduce_sec = 1.0;
  return p;
}

ClusterConfig SmallCluster() {
  ClusterConfig c;
  c.num_slaves = 4;
  c.map_slots_per_node = 2;
  c.reduce_slots_per_node = 2;
  c.gpus_per_node = 1;
  return c;
}

// --- FaultSpec / ClusterConfig validation --------------------------------

TEST(FaultSpec, ValidationRejectsBadFields) {
  auto rejects = [](auto mutate) {
    fault::FaultSpec s;
    mutate(s);
    EXPECT_THROW(fault::ValidateFaultSpec(s), CheckError);
  };
  rejects([](fault::FaultSpec& s) { s.crash_mttf_sec = -1.0; });
  rejects([](fault::FaultSpec& s) { s.permanent_fraction = 1.5; });
  rejects([](fault::FaultSpec& s) { s.restart_sec = -1.0; });
  rejects([](fault::FaultSpec& s) { s.heartbeat_drop_prob = -0.1; });
  rejects([](fault::FaultSpec& s) { s.cpu_fail_prob = 2.0; });
  rejects([](fault::FaultSpec& s) { s.gpu_oom_prob = -0.5; });
  rejects([](fault::FaultSpec& s) { s.slow_factor = 0.5; });
  fault::ValidateFaultSpec(fault::FaultSpec{});  // defaults are valid
}

TEST(FaultConfig, ClusterValidationRejectsBadRecoveryFields) {
  CalibratedTaskSource src(BaseParams());
  auto rejects = [&src](auto mutate) {
    ClusterConfig c = SmallCluster();
    mutate(c);
    EXPECT_THROW(JobEngine(c, &src, Policy::kCpuOnly), CheckError);
  };
  rejects([](ClusterConfig& c) { c.max_task_attempts = 0; });
  rejects([](ClusterConfig& c) { c.max_gpu_attempts = 0; });
  rejects([](ClusterConfig& c) { c.blacklist_task_failures = 0; });
  rejects([](ClusterConfig& c) { c.retry_backoff_sec = -1.0; });
  rejects([](ClusterConfig& c) { c.heartbeat_expiry_sec = c.heartbeat_sec; });
  rejects([](ClusterConfig& c) { c.speculation_slowdown = 1.0; });
}

// --- Injector determinism -------------------------------------------------

TEST(FaultInjector, CrashPlanDeterministicAndSane) {
  fault::FaultSpec s;
  s.seed = 7;
  s.crash_mttf_sec = 200.0;
  s.permanent_fraction = 0.3;
  s.restart_sec = 30.0;
  s.horizon_sec = 2000.0;
  const fault::FaultInjector a(s), b(s);
  const auto pa = a.CrashPlan(8);
  EXPECT_FALSE(pa.empty());
  // Identical across injector instances and query repetitions.
  EXPECT_EQ(pa.size(), b.CrashPlan(8).size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto pb = b.CrashPlan(8);
    EXPECT_DOUBLE_EQ(pa[i].at_sec, pb[i].at_sec);
    EXPECT_EQ(pa[i].node, pb[i].node);
    EXPECT_EQ(pa[i].permanent, pb[i].permanent);
  }
  // Ordered by time; inside the horizon; a permanent crash is each node's
  // last.
  std::map<int, bool> dead;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(pa[i].at_sec, pa[i - 1].at_sec);
    }
    EXPECT_LT(pa[i].at_sec, s.horizon_sec);
    EXPECT_FALSE(dead[pa[i].node]);
    if (pa[i].permanent) dead[pa[i].node] = true;
  }
}

TEST(FaultInjector, DrawsAreStatelessAndOrderIndependent) {
  fault::FaultSpec s;
  s.seed = 11;
  s.cpu_fail_prob = 0.3;
  s.gpu_fail_prob = 0.3;
  s.gpu_oom_prob = 0.2;
  s.heartbeat_drop_prob = 0.25;
  s.slow_node_prob = 0.5;
  const fault::FaultInjector inj(s);
  // Query in two different orders: every site's outcome is a pure function
  // of its identity.
  std::vector<fault::AttemptOutcome> fwd, bwd;
  for (int t = 0; t < 50; ++t) fwd.push_back(inj.DrawAttempt(0, t, 0, true));
  for (int t = 49; t >= 0; --t) bwd.push_back(inj.DrawAttempt(0, t, 0, true));
  for (int t = 0; t < 50; ++t) {
    EXPECT_EQ(fwd[static_cast<std::size_t>(t)],
              bwd[static_cast<std::size_t>(49 - t)]);
  }
  EXPECT_EQ(inj.DropHeartbeat(2, 17), inj.DropHeartbeat(2, 17));
  EXPECT_DOUBLE_EQ(inj.SlowFactor(3), inj.SlowFactor(3));
  const double fp = inj.FailPoint(1, 2, 3);
  EXPECT_GE(fp, 0.1);
  EXPECT_LT(fp, 0.9);
}

// --- Recovery semantics ---------------------------------------------------

// A transient outage longer than the expiry window loses the tracker: its
// running attempts re-enqueue AND the maps it already committed re-execute
// (their output lived on its local disk and reducers still need it).
TEST(FaultRecovery, ExpiryRerunsCommittedMaps) {
  fault::FaultSpec s;
  s.seed = 3;
  s.crash_mttf_sec = 120.0;
  s.permanent_fraction = 0.0;
  s.restart_sec = 45.0;  // > heartbeat_expiry_sec: the node gets lost
  s.horizon_sec = 400.0;
  const fault::FaultInjector inj(s);
  ASSERT_FALSE(inj.CrashPlan(4).empty());

  CalibratedTaskSource src(BaseParams());
  ClusterConfig c = SmallCluster();
  c.heartbeat_sec = 1.0;
  c.heartbeat_expiry_sec = 5.0;
  c.faults = &inj;
  const JobResult r = JobEngine(c, &src, Policy::kCpuOnly).Run();
  EXPECT_GT(r.nodes_lost, 0);
  EXPECT_GT(r.maps_reexecuted, 0);
  EXPECT_GT(r.task_retries, 0);
  // Re-execution costs time over the fault-free run.
  CalibratedTaskSource clean_src(BaseParams());
  ClusterConfig clean = c;
  clean.faults = nullptr;
  const JobResult base = JobEngine(clean, &clean_src, Policy::kCpuOnly).Run();
  EXPECT_GT(r.makespan_sec, base.makespan_sec);
  // Commit accounting stayed exact: every map's bytes counted exactly once.
  EXPECT_EQ(r.total_map_output_bytes, base.total_map_output_bytes);
}

// An outage shorter than the expiry window is a tracker restart: the
// JobTracker never declares it lost, but the attempts that died in the
// crash still reschedule when the tracker re-registers (this was a
// livelock once: tasks stuck kRunning with no attempt).
TEST(FaultRecovery, ShortOutageReschedulesKilledAttempts) {
  fault::FaultSpec s;
  s.seed = 5;
  s.crash_mttf_sec = 60.0;
  s.permanent_fraction = 0.0;
  s.restart_sec = 3.0;  // < expiry: never declared lost
  s.horizon_sec = 600.0;
  const fault::FaultInjector inj(s);
  CalibratedTaskSource src(BaseParams());
  ClusterConfig c = SmallCluster();
  c.heartbeat_sec = 1.0;
  c.heartbeat_expiry_sec = 10.0;
  c.faults = &inj;
  const JobResult r = JobEngine(c, &src, Policy::kCpuOnly).Run();  // finishes
  EXPECT_EQ(r.nodes_lost, 0);
  EXPECT_GT(r.killed_attempts, 0);
  EXPECT_GT(r.task_retries, 0);
}

TEST(FaultRecovery, FailedAttemptsRetryWithBackoffThenSucceed) {
  fault::FaultSpec s;
  s.seed = 2;
  s.cpu_fail_prob = 0.3;
  const fault::FaultInjector inj(s);
  CalibratedTaskSource src(BaseParams());
  ClusterConfig c = SmallCluster();
  c.faults = &inj;
  c.max_task_attempts = 10;
  const JobResult r = JobEngine(c, &src, Policy::kCpuOnly).Run();
  EXPECT_GT(r.task_failures, 0);
  EXPECT_EQ(r.task_failures, r.task_retries);  // every failure re-enqueued
  // cpu_tasks counts started attempts: one commit per map plus the failures.
  EXPECT_EQ(r.cpu_tasks, 32 + r.task_failures);
  // Exactly-once commit: bytes accumulate at commit time, once per map.
  EXPECT_EQ(r.total_map_output_bytes, 32 * (1 << 20));
}

TEST(FaultRecovery, ExhaustedAttemptsFailTheJob) {
  fault::FaultSpec s;
  s.seed = 2;
  s.cpu_fail_prob = 1.0;  // every attempt fails partway
  const fault::FaultInjector inj(s);
  CalibratedTaskSource src(BaseParams());
  ClusterConfig c = SmallCluster();
  c.faults = &inj;
  c.max_task_attempts = 3;
  c.retry_backoff_sec = 0.1;
  EXPECT_THROW(JobEngine(c, &src, Policy::kCpuOnly).Run(), JobFailedError);
}

TEST(FaultRecovery, BlacklistsFailingTrackerButNeverTheLastOne) {
  fault::FaultSpec s;
  s.seed = 19;
  s.cpu_fail_prob = 0.45;
  const fault::FaultInjector inj(s);
  {
    CalibratedTaskSource src(BaseParams());
    ClusterConfig c = SmallCluster();
    c.faults = &inj;
    c.max_task_attempts = 64;
    c.blacklist_task_failures = 3;
    c.retry_backoff_sec = 0.1;
    const JobResult r = JobEngine(c, &src, Policy::kCpuOnly).Run();
    EXPECT_GT(r.nodes_blacklisted, 0);
    EXPECT_EQ(r.cpu_tasks, 32 + r.task_failures);
    EXPECT_EQ(r.total_map_output_bytes, 32 * (1 << 20));
  }
  {
    // Single-tracker cluster under the same fault rate: blacklisting it
    // would livelock the cluster, so the engine must keep it schedulable.
    CalibratedTaskSource src(BaseParams());
    ClusterConfig c = SmallCluster();
    c.num_slaves = 1;
    c.faults = &inj;
    c.max_task_attempts = 64;
    c.blacklist_task_failures = 3;
    c.retry_backoff_sec = 0.1;
    const JobResult r = JobEngine(c, &src, Policy::kCpuOnly).Run();
    EXPECT_EQ(r.nodes_blacklisted, 0);
    EXPECT_EQ(r.cpu_tasks, 32 + r.task_failures);
    EXPECT_EQ(r.total_map_output_bytes, 32 * (1 << 20));
  }
}

TEST(FaultRecovery, GpuAttemptCapDemotesToCpu) {
  // A job whose GPU tasks always fail (kmeans on Cluster2): without the
  // cap, tail forcing bounces tasks through the GPU forever. With it, each
  // task fails at most max_gpu_attempts GPU launches before running
  // CPU-only.
  CalibratedTaskSource::Params p = BaseParams();
  p.gpu_supported = false;
  CalibratedTaskSource src(p);
  ClusterConfig c = SmallCluster();
  c.max_gpu_attempts = 2;
  const JobResult r = JobEngine(c, &src, Policy::kGpuFirst).Run();
  EXPECT_EQ(r.gpu_tasks, 0);
  EXPECT_GT(r.gpu_demotions, 0);
  EXPECT_LE(r.gpu_failures,
            static_cast<std::int64_t>(p.num_maps) * c.max_gpu_attempts);
  EXPECT_EQ(r.cpu_tasks, p.num_maps);
}

TEST(FaultRecovery, SpeculationRescuesSlowNodeAndCommitsOnce) {
  CalibratedTaskSource::Params p = BaseParams();
  p.num_reducers = 0;  // map-only: makespan is pure map placement
  CalibratedTaskSource src(p);
  ClusterConfig c = SmallCluster();
  c.gpus_per_node = 0;
  c.node_speed_factors = {1.0, 1.0, 1.0, 6.0};  // one crippled tracker
  c.speculation = true;
  const JobResult r = JobEngine(c, &src, Policy::kCpuOnly).Run();
  EXPECT_GT(r.speculative_launched, 0);
  EXPECT_GT(r.speculative_wins, 0);
  // Exactly one commit per map: wins + losses account for every duplicate,
  // and output bytes (accumulated at commit) count each map once.
  EXPECT_EQ(r.speculative_wins + r.speculative_losses,
            r.speculative_launched);
  EXPECT_EQ(r.cpu_tasks, p.num_maps + r.speculative_launched);
  EXPECT_EQ(r.total_map_output_bytes,
            static_cast<std::int64_t>(p.num_maps) * (1 << 20));

  CalibratedTaskSource src2(p);
  ClusterConfig no_spec = c;
  no_spec.speculation = false;
  const JobResult slow = JobEngine(no_spec, &src2, Policy::kCpuOnly).Run();
  EXPECT_LT(r.makespan_sec, slow.makespan_sec);  // speculation helped
}

// --- Determinism and the exactly-once headline ----------------------------

TEST(FaultRecovery, SeededReplayIsBitIdentical) {
  fault::FaultSpec s;
  s.seed = 23;
  s.crash_mttf_sec = 150.0;
  s.permanent_fraction = 0.2;
  s.restart_sec = 40.0;
  s.horizon_sec = 600.0;
  s.cpu_fail_prob = 0.1;
  s.gpu_fail_prob = 0.1;
  s.gpu_oom_prob = 0.05;
  s.heartbeat_drop_prob = 0.05;
  s.slow_node_prob = 0.3;
  const fault::FaultInjector inj(s);
  auto run = [&inj] {
    CalibratedTaskSource src(BaseParams());
    ClusterConfig c = SmallCluster();
    c.heartbeat_sec = 1.0;
    c.heartbeat_expiry_sec = 5.0;
    c.faults = &inj;
    c.speculation = true;
    c.max_task_attempts = 16;
    return JobEngine(c, &src, Policy::kTail).Run();
  };
  const JobResult a = run();
  const JobResult b = run();
  EXPECT_DOUBLE_EQ(a.makespan_sec, b.makespan_sec);
  EXPECT_EQ(a.cpu_tasks, b.cpu_tasks);
  EXPECT_EQ(a.gpu_tasks, b.gpu_tasks);
  EXPECT_EQ(a.task_failures, b.task_failures);
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.killed_attempts, b.killed_attempts);
  EXPECT_EQ(a.maps_reexecuted, b.maps_reexecuted);
  EXPECT_EQ(a.speculative_launched, b.speculative_launched);
  EXPECT_EQ(a.nodes_lost, b.nodes_lost);
  EXPECT_EQ(a.total_map_output_bytes, b.total_map_output_bytes);
}

constexpr const char* kWcMap = R"(
int getWord(char *line, int offset, char *word, int read, int maxw) {
  int i = offset;
  int j = 0;
  while (i < read && !isalnum(line[i])) i++;
  if (i >= read) return -1;
  while (i < read && isalnum(line[i]) && j < maxw - 1) {
    word[j] = line[i]; i++; j++;
  }
  word[j] = '\0';
  return i - offset;
}
int main() {
  char word[30], *line;
  size_t nbytes = 10000;
  int read, linePtr, offset, one;
  line = (char*) malloc(nbytes * sizeof(char));
  #pragma mapreduce mapper key(word) value(one) keylength(30) vallength(1)
  while ((read = getline(&line, &nbytes, stdin)) != -1) {
    linePtr = 0; offset = 0; one = 1;
    while ((linePtr = getWord(line, offset, word, read, 30)) != -1) {
      printf("%s\t%d\n", word, one);
      offset += linePtr;
    }
  }
  free(line);
  return 0;
}
)";

constexpr const char* kSumReduce = R"(
int main() {
  char word[30], prevWord[30];
  int count, val;
  prevWord[0] = '\0';
  count = 0;
  while (scanf("%s %d", word, &val) == 2) {
    if (strcmp(word, prevWord) == 0) { count += val; }
    else {
      if (prevWord[0] != '\0') printf("%s\t%d\n", prevWord, count);
      strcpy(prevWord, word);
      count = val;
    }
  }
  if (prevWord[0] != '\0') printf("%s\t%d\n", prevWord, count);
  return 0;
}
)";

std::map<std::string, long> Histogram(const std::vector<gpurt::KvPair>& kvs) {
  std::map<std::string, long> h;
  for (const auto& kv : kvs) {
    h[kv.key] += std::strtol(kv.value.c_str(), nullptr, 10);
  }
  return h;
}

// The headline invariant: a functional job's committed output is
// bit-identical with faults injected and without — node losses, retries,
// re-executed maps and speculative duplicates change when work runs,
// never what it computes.
TEST(FaultRecovery, OutputBitIdenticalUnderFaults) {
  const gpurt::JobProgram job = gpurt::CompileJob(kWcMap, "", kSumReduce);
  const std::vector<std::string> splits = {
      "the cat sat on the mat\n", "the dog ate the bone\n",
      "cat and dog and mat\n",    "bone of the dog\n",
      "a cat a dog a bone\n",     "mat under the cat\n",
      "the quick brown fox\n",    "fox and cat and dog\n"};
  FunctionalTaskSource::Options fopts;
  fopts.num_reducers = 2;
  fopts.gpu.blocks = 2;
  fopts.gpu.threads = 32;

  // Clock scaled to the functional tasks' microsecond durations; the
  // transient outage outlives the expiry window so committed maps on a
  // lost tracker re-execute.
  ClusterConfig c;
  c.num_slaves = 4;
  c.map_slots_per_node = 2;
  c.gpus_per_node = 1;
  c.heartbeat_sec = 2e-5;
  c.heartbeat_expiry_sec = 1e-4;
  c.retry_backoff_sec = 2e-5;
  c.max_task_attempts = 16;
  c.speculation = true;

  FunctionalTaskSource clean(job, splits, fopts);
  const JobResult base = JobEngine(c, &clean, Policy::kTail).Run();
  const auto want = Histogram(base.final_output);
  ASSERT_FALSE(want.empty());

  std::int64_t recovery_events = 0;
  for (std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    fault::FaultSpec s;
    s.seed = seed;
    s.crash_mttf_sec = 4e-4;
    s.permanent_fraction = 0.0;
    s.restart_sec = 1.5e-4;
    s.horizon_sec = 0.05;
    s.cpu_fail_prob = 0.15;
    s.gpu_fail_prob = 0.15;
    s.gpu_oom_prob = 0.05;
    s.heartbeat_drop_prob = 0.05;
    s.slow_node_prob = 0.25;
    const fault::FaultInjector inj(s);
    ClusterConfig fc = c;
    fc.faults = &inj;
    FunctionalTaskSource src(job, splits, fopts);
    const JobResult r = JobEngine(fc, &src, Policy::kTail).Run();
    EXPECT_EQ(Histogram(r.final_output), want) << "seed " << seed;
    recovery_events += r.task_failures + r.task_retries + r.killed_attempts +
                       r.maps_reexecuted + r.speculative_launched;
  }
  // The invariance must have been exercised, not vacuous.
  EXPECT_GT(recovery_events, 0);
}

// Fault-free runs with the injector attached but all rates zero behave
// identically to a null injector (the draws all come back clean).
TEST(FaultRecovery, ZeroRateInjectorMatchesNullInjector) {
  const fault::FaultInjector inj(fault::FaultSpec{});
  CalibratedTaskSource a_src(BaseParams()), b_src(BaseParams());
  ClusterConfig c = SmallCluster();
  const JobResult base = JobEngine(c, &a_src, Policy::kTail).Run();
  c.faults = &inj;
  const JobResult faulted = JobEngine(c, &b_src, Policy::kTail).Run();
  EXPECT_DOUBLE_EQ(base.makespan_sec, faulted.makespan_sec);
  EXPECT_EQ(base.cpu_tasks, faulted.cpu_tasks);
  EXPECT_EQ(base.gpu_tasks, faulted.gpu_tasks);
  EXPECT_EQ(faulted.task_failures, 0);
  EXPECT_EQ(faulted.nodes_lost, 0);
}

// The multi-job engine recovers too: a faulted workload drains, reports
// cluster-level availability and per-job recovery counters.
TEST(FaultRecovery, MultiJobWorkloadSurvivesFaults) {
  fault::FaultSpec s;
  s.seed = 31;
  s.crash_mttf_sec = 300.0;
  s.permanent_fraction = 0.1;
  s.restart_sec = 40.0;
  s.horizon_sec = 1200.0;
  s.cpu_fail_prob = 0.05;
  s.gpu_fail_prob = 0.05;
  s.heartbeat_drop_prob = 0.02;
  s.slow_node_prob = 0.2;
  const fault::FaultInjector inj(s);
  ClusterConfig c;
  c.num_slaves = 8;
  c.map_slots_per_node = 4;
  c.reduce_slots_per_node = 2;
  c.gpus_per_node = 1;
  c.faults = &inj;
  c.speculation = true;
  c.max_task_attempts = 16;
  multijob::WorkloadSpec spec;
  spec.mode = multijob::WorkloadSpec::Mode::kClosedLoop;
  spec.num_jobs = 8;
  spec.concurrency = 4;
  spec.policy = Policy::kTail;
  spec.seed = 20150615;
  const multijob::WorkloadMetrics m = multijob::RunWorkload(
      c, multijob::SchedulerKind::kFair, multijob::Table2Mix(16, 2), spec);
  EXPECT_EQ(m.jobs.size(), 8u);
  EXPECT_GT(m.nodes_crashed, 0);
  EXPECT_GT(m.availability, 0.0);
  EXPECT_LE(m.availability, 1.0);
  // Same spec replays bit-identically.
  const multijob::WorkloadMetrics m2 = multijob::RunWorkload(
      c, multijob::SchedulerKind::kFair, multijob::Table2Mix(16, 2), spec);
  EXPECT_DOUBLE_EQ(m.makespan_sec, m2.makespan_sec);
  EXPECT_EQ(m.TotalTaskRetries(), m2.TotalTaskRetries());
  EXPECT_EQ(m.TotalMapsReexecuted(), m2.TotalMapsReexecuted());
  EXPECT_DOUBLE_EQ(m.availability, m2.availability);
}

}  // namespace
}  // namespace hd::hadoop
