// The heartbeat's attempt index and incremental fill loop, held to the
// engine they replaced.
//
// DecisionStream: every inter-job pick and every attempt start of a small
// cluster_replay-shaped workload (Capacity scheduler, tail policy, faults,
// speculation) hashes to a value recorded before the index and the
// incremental fill existed. A change to the heartbeat that alters any
// decision, or the order the scheduler sees jobs in, changes the hash.
//
// IndexAudit: seeded scenarios mixing faults, speculation, quota
// preemption, drain and hard leaves and a kill->restore, with the engine
// recomputing its derived attempt index from a full registry scan at every
// heartbeat.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/prng.h"
#include "hadoop/checkpoint.h"
#include "fault/fault.h"
#include "hadoop/cluster_core.h"
#include "hadoop/task_source.h"
#include "multijob/engine.h"
#include "multijob/scheduler.h"
#include "multijob/workload.h"

namespace hd::multijob {
namespace {

using hadoop::CalibratedTaskSource;
using hadoop::ClusterConfig;
using hadoop::JobState;

// FNV-1a 64.
struct Fnv {
  std::uint64_t value = 1469598103934665603ULL;
  void Byte(unsigned char b) {
    value ^= b;
    value *= 1099511628211ULL;
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void Str(const std::string& s) {
    for (unsigned char c : s) Byte(c);
  }
};

// Forwards to `inner` and folds every call into `hash`: the runnable ids
// in the order the engine passed them, the active-set size, and the pick.
class HashingScheduler : public InterJobScheduler {
 public:
  HashingScheduler(std::unique_ptr<InterJobScheduler> inner, Fnv* hash,
                   std::int64_t* calls)
      : inner_(std::move(inner)), hash_(hash), calls_(calls) {}

  const char* name() const override { return inner_->name(); }
  const std::vector<double>* pool_weights() const override {
    return inner_->pool_weights();
  }

  std::size_t PickJob(const std::vector<const JobState*>& runnable,
                      const std::vector<const JobState*>& active) override {
    const std::size_t pick = inner_->PickJob(runnable, active);
    ++*calls_;
    hash_->U64(runnable.size());
    for (const JobState* j : runnable) {
      hash_->U64(static_cast<std::uint64_t>(j->id));
    }
    hash_->U64(active.size());
    hash_->U64(pick);
    return pick;
  }

 private:
  std::unique_ptr<InterJobScheduler> inner_;
  Fnv* hash_;
  std::int64_t* calls_;
};

struct DecisionStream {
  std::uint64_t picks_hash = 0;
  std::int64_t pick_calls = 0;
  std::uint64_t starts_hash = 0;
  std::int64_t starts = 0;
  std::size_t jobs_done = 0;
  WorkloadMetrics metrics;
};

// cluster_replay in miniature: 16 trackers (4 CPU slots + 1 GPU each),
// 32 Table 2 mix jobs on Poisson arrivals that outpace the cluster,
// speculation, and faults that lose trackers past the expiry window.
DecisionStream RunReplay(std::uint64_t seed) {
  fault::FaultSpec fs;
  fs.seed = SplitMix64(seed ^ 0x6661756c74ULL);
  fs.crash_mttf_sec = 150.0;
  fs.permanent_fraction = 0.1;
  fs.restart_sec = 40.0;
  fs.horizon_sec = 300.0;
  fs.heartbeat_drop_prob = 0.01;
  fs.cpu_fail_prob = 0.01;
  fs.gpu_fail_prob = 0.005;
  fs.gpu_oom_prob = 0.003;
  fs.slow_node_prob = 0.2;
  fs.slow_factor = 1.5;
  const fault::FaultInjector faults(fs);

  ClusterConfig cfg;
  cfg.num_slaves = 16;
  cfg.map_slots_per_node = 4;
  cfg.reduce_slots_per_node = 2;
  cfg.gpus_per_node = 1;
  cfg.speculation = true;
  cfg.faults = &faults;
  // Hexfloat times: the start lines carry the exact bits of each start.
  std::ostringstream trace;
  trace << std::hexfloat;
  cfg.trace = &trace;

  DecisionStream out;
  Fnv picks;
  MultiJobEngine eng(
      cfg, std::make_unique<HashingScheduler>(
               MakeScheduler(SchedulerKind::kCapacity), &picks,
               &out.pick_calls));
  const std::vector<AppTemplate> mix = Table2Mix(24, 2);
  std::vector<std::unique_ptr<CalibratedTaskSource>> keep;
  Prng prng(SplitMix64(seed));
  double t = 0.0;
  for (int j = 0; j < 32; ++j) {
    const AppTemplate& app =
        mix[(static_cast<std::size_t>(j) * 5) % mix.size()];
    CalibratedTaskSource::Params p = app.params;
    p.seed = SplitMix64(seed + 0x9e37 * static_cast<std::uint64_t>(j + 1));
    keep.push_back(std::make_unique<CalibratedTaskSource>(p));
    JobSpec spec;
    spec.source = keep.back().get();
    spec.policy = sched::Policy::kTail;
    spec.pool = app.pool;
    spec.label = app.id;
    t += -std::log(1.0 - prng.NextDouble()) / 0.25;
    eng.Submit(t, spec);
  }
  out.metrics = eng.Run();
  out.jobs_done = out.metrics.jobs.size();
  out.picks_hash = picks.value;

  // "t=<hex> job=<id> start task=<t> node=<n> CPU|GPU dur=<hex>": hash
  // everything before " dur=" — start time, job, task, node, device.
  Fnv starts;
  std::istringstream lines(trace.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(" start task=") == std::string::npos) continue;
    starts.Str(line.substr(0, line.find(" dur=")));
    starts.Byte('\n');
    ++out.starts;
  }
  out.starts_hash = starts.value;
  return out;
}

TEST(DecisionStream, PickAndStartStreamMatchesPin) {
  struct Pin {
    std::uint64_t seed;
    std::int64_t pick_calls;
    std::uint64_t picks_hash;
    std::int64_t starts;
    std::uint64_t starts_hash;
  };
  const Pin pins[] = {
      {1, 8635, 17667074161184219175ULL, 857, 3960775206423949073ULL},
      {424242, 9331, 3928947648548481762ULL, 880, 10596260969776604908ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    const DecisionStream a = RunReplay(pin.seed);
    EXPECT_EQ(a.jobs_done, 32u);
    EXPECT_EQ(a.pick_calls, pin.pick_calls);
    EXPECT_EQ(a.picks_hash, pin.picks_hash);
    EXPECT_EQ(a.starts, pin.starts);
    EXPECT_EQ(a.starts_hash, pin.starts_hash);
    // The stream crosses every path the heartbeat refactor touches.
    const WorkloadMetrics& m = a.metrics;
    EXPECT_GT(m.TotalSpeculativeLaunched(), 0);
    EXPECT_GT(m.TotalKilledAttempts(), 0);
    EXPECT_GT(m.TotalTaskFailures(), 0);
    EXPECT_GT(m.TotalMapsReexecuted(), 0);
    EXPECT_GT(m.nodes_lost, 0);
    EXPECT_GT(m.gpu_bounces, 0);
  }
}

// The audit scenario: 6 small trackers that gain one and lose two (a drain
// and a hard leave), faults that crash trackers past the expiry window,
// drop heartbeats, fail attempts and slow nodes down, speculation, and
// two-pool Capacity quotas with preemption armed. `restore_text` non-null
// restores that checkpoint first; `capture` non-null collects every
// checkpoint written. The audit runs at every heartbeat either way.
WorkloadMetrics RunAuditScenario(std::uint64_t seed,
                                 const std::string* restore_text,
                                 std::vector<std::string>* capture,
                                 hadoop::ClusterCore::IndexAudit* audit) {
  fault::FaultSpec fs;
  fs.seed = seed;
  fs.crash_mttf_sec = 100.0;
  fs.permanent_fraction = 0.0;
  fs.restart_sec = 40.0;
  fs.horizon_sec = 150.0;
  fs.heartbeat_drop_prob = 0.02;
  fs.cpu_fail_prob = 0.02;
  fs.gpu_fail_prob = 0.02;
  fs.gpu_oom_prob = 0.01;
  fs.slow_node_prob = 0.3;
  fs.slow_factor = 2.0;
  const fault::FaultInjector faults(fs);

  ClusterConfig cfg;
  cfg.num_slaves = 6;
  cfg.map_slots_per_node = 2;
  cfg.reduce_slots_per_node = 2;
  cfg.gpus_per_node = 1;
  cfg.speculation = true;
  cfg.faults = &faults;
  cfg.preemption_budget = 3;
  cfg.max_task_attempts = 8;
  cfg.checkpoint_interval_sec = 9.7;
  if (capture != nullptr) {
    cfg.on_checkpoint = [capture](int, const std::string& text) {
      capture->push_back(text);
    };
  }
  MultiJobEngine eng(cfg, MakeCapacityScheduler({3.0, 1.0}));
  eng.set_index_audit_for_test(audit);
  eng.ScheduleJoin(15.0);
  eng.ScheduleLeave(30.0, 1, /*drain=*/true);
  eng.ScheduleLeave(50.0, 2, /*drain=*/false);
  std::vector<std::unique_ptr<CalibratedTaskSource>> keep;
  const sched::Policy policies[] = {sched::Policy::kTail,
                                    sched::Policy::kCpuOnly,
                                    sched::Policy::kGpuFirst};
  for (int j = 0; j < 6; ++j) {
    CalibratedTaskSource::Params p;
    p.num_maps = 20 + 4 * j;
    p.num_reducers = 2;
    p.cpu_task_sec = 8.0 + j;
    p.gpu_task_sec = 2.0;
    p.variation = 0.3;
    p.seed = SplitMix64(seed + static_cast<std::uint64_t>(j));
    keep.push_back(std::make_unique<CalibratedTaskSource>(p));
    JobSpec spec;
    spec.source = keep.back().get();
    spec.policy = policies[j % 3];
    spec.pool = j % 2;
    spec.label = "audit" + std::to_string(j);
    eng.Submit(6.0 * j, spec);
  }
  if (restore_text != nullptr) eng.RestoreFromText(*restore_text);
  return eng.Run();
}

TEST(IndexAudit, IndexMatchesFullRegistryScanAtEveryHeartbeat) {
  for (std::uint64_t seed : {3ULL, 17ULL, 2015ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    hadoop::ClusterCore::IndexAudit audit;
    std::vector<std::string> ckpts;
    const WorkloadMetrics base =
        RunAuditScenario(seed, nullptr, &ckpts, &audit);
    ASSERT_EQ(base.jobs.size(), 6u);
    EXPECT_GT(audit.heartbeats, 100);
    EXPECT_TRUE(audit.violations.empty()) << audit.violations.front();
    // Every path that writes the registry ran.
    EXPECT_GT(base.TotalSpeculativeLaunched(), 0);
    EXPECT_GT(base.TotalTaskFailures(), 0);
    EXPECT_GT(base.preemptions, 0);
    EXPECT_GT(base.nodes_lost, 0);
    EXPECT_EQ(base.nodes_joined, 1);
    EXPECT_EQ(base.nodes_left, 2);

    // Kill at the middle checkpoint and restore into a fresh engine: the
    // index is rebuilt from the restored registry, not read back.
    ASSERT_GE(ckpts.size(), 3u);
    hadoop::ClusterCore::IndexAudit restored_audit;
    const WorkloadMetrics restored = RunAuditScenario(
        seed, &ckpts[ckpts.size() / 2], nullptr, &restored_audit);
    EXPECT_GT(restored_audit.heartbeats, 0);
    EXPECT_TRUE(restored_audit.violations.empty())
        << restored_audit.violations.front();
    ASSERT_EQ(restored.jobs.size(), base.jobs.size());
    for (std::size_t i = 0; i < base.jobs.size(); ++i) {
      EXPECT_EQ(restored.jobs[i].finish_sec, base.jobs[i].finish_sec);
    }
    EXPECT_EQ(restored.makespan_sec, base.makespan_sec);
  }
}

}  // namespace
}  // namespace hd::multijob
