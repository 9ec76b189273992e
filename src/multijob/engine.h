// Multi-job cluster engine: N MapReduce jobs share one simulated cluster's
// TaskTrackers. Each heartbeat response is filled slot-by-slot: the
// inter-job scheduler picks the job, the job's own sched::Policy picks the
// processor (so Algorithm 2's tail forcing still applies within a job,
// now competing with other jobs for the same GPU slots).
//
// Jobs are submitted at absolute simulated times (open-loop arrivals) or
// from the completion callback (closed-loop streams); heartbeat pulses run
// only while at least one job is in flight.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "hadoop/cluster_core.h"
#include "multijob/metrics.h"
#include "multijob/scheduler.h"

namespace hd::multijob {

// One job submission: the task source, the per-job scheduling policy and
// optional HDFS-backed locality, plus metrics labels.
struct JobSpec {
  hadoop::TaskTimeSource* source = nullptr;
  sched::Policy policy = sched::Policy::kTail;
  const hdfs::Hdfs* fs = nullptr;
  std::string input_path;
  int pool = 0;       // Capacity scheduler pool
  std::string label;  // app id, reported in JobStats
  // Absolute completion target for deadline-aware schedulers; infinity
  // (the default) marks a batch job without an SLO.
  double deadline_sec = std::numeric_limits<double>::infinity();
};

class MultiJobEngine : public hadoop::ClusterCore {
 public:
  MultiJobEngine(hadoop::ClusterConfig cfg,
                 std::unique_ptr<InterJobScheduler> scheduler);

  // Schedules a submission at absolute simulated time `when` (>= now()).
  // Valid before Run() and from within the completion callback. Returns
  // the job id (submission order).
  int Submit(double when, JobSpec spec);

  // Invoked at each job's simulated completion time; may Submit() further
  // jobs (closed-loop workloads).
  void set_on_job_done(std::function<void(const JobStats&)> cb) {
    on_job_done_ = std::move(cb);
  }

  // Runs until every submitted job completes; returns aggregate metrics.
  // With checkpoint_interval_sec set, writes heterodoop.ckpt.v1 snapshots
  // on the way; with stop_at_checkpoint set, may halt mid-flight (see
  // ClusterCore::halted()).
  WorkloadMetrics Run();

  // Warm restart: overlays a heterodoop.ckpt.v1 snapshot onto this engine.
  // Call after rebuilding the same configuration, re-registering the same
  // pipelines, re-submitting the same jobs in the same order and
  // re-scheduling the same membership plan — then Run() continues the
  // interrupted run and produces byte-identical final output and metrics.
  // Throws CheckpointError on corrupt input or an engine mismatch.
  void RestoreFromText(const std::string& text);
  void RestoreFromFile(const std::string& path);

  double now() const { return events_.now(); }
  int active_jobs() const { return active_jobs_; }
  std::int64_t preemptions() const { return preemptions_; }

 protected:
  // Invoked at each job's simulated completion time, before the public
  // on_job_done callback. Subclasses running standing pipelines (the
  // stream engine) override this to tie completions back to windows.
  virtual void OnJobCompleted(const JobStats& stats) { (void)stats; }

  // Checkpoint extension points for subclasses (the stream engine): extra
  // top-level sections next to "cluster"/"jobs"/"multijob", their restore
  // pre-pass (runs before the cluster/job overlay), and the rebuild of a
  // checkpointed job this engine's caller cannot re-submit (stream window
  // jobs own synthetic sources). The base engine supports none of that.
  virtual void WriteExtraSections(json::Writer& w) { (void)w; }
  virtual void RestoreExtraSections(const json::Value& doc) { (void)doc; }
  virtual JobSpec MakeRestoredJobSpec(const json::Value& entry);

  std::string CheckpointToText() override;

 private:
  void Activate(hadoop::JobState* job);
  void StartPulses();
  // One link of a node's heartbeat chain for generation `gen`; the chain
  // retires on generation bumps and stops while the node is down
  // (OnNodeRecovered restarts it).
  void PulseTick(int node_id, std::uint64_t gen);
  // ClusterConfig::batch_heartbeats: one cluster-wide link per interval
  // serving every live tracker in node order.
  void BatchTick(std::uint64_t gen);
  static void ActivateEvent(void* ctx, const hd::des::Payload& p);
  static void PulseTickEvent(void* ctx, const hd::des::Payload& p);
  static void BatchTickEvent(void* ctx, const hd::des::Payload& p);
  static void CompleteJobEvent(void* ctx, const hd::des::Payload& p);
  // Serves every active job from one TaskTracker heartbeat.
  void ClusterHeartbeat(int node_id);
  // Whether active_[i] can take a task from `node_id` in the response
  // being built: pending maps, allowance left, a usable slot free.
  bool Runnable(std::size_t i, int node_id) const;
  // Capacity-quota preemption: if a pool with pending work sits below its
  // slot quota, kill the youngest attempt of an over-quota pool on this
  // node and requeue its task. A preemption transfers one slot of the
  // response's allowance (cap_) from the victim to the claimant (the
  // allowance was computed from free slots before the kill freed one).
  // Returns true when an attempt was preempted (the fill loop then reruns
  // for the freed slot).
  bool MaybePreemptOn(int node_id);
  void CompleteJob(hadoop::JobState& job);
  void OnTaskFinished(hadoop::JobState& job, int node_id) override;
  void OnJobFinished(hadoop::JobState& job) override;
  void VisitActiveJobs(
      const std::function<void(hadoop::JobState&)>& fn) override;
  void OnNodeRecovered(int node_id) override;
  void OnClusterGrown(int node_id) override;

  std::unique_ptr<InterJobScheduler> scheduler_;
  std::vector<std::unique_ptr<hadoop::JobState>> jobs_;  // stable addresses
  std::vector<hadoop::JobState*> active_;  // maps in flight or reducing
  int submitted_ = 0;
  int completed_ = 0;
  int active_jobs_ = 0;
  // Jobs that finished past a finite deadline_sec; maintained live (at
  // each completion) so telemetry burn-rate rules can watch the budget
  // being spent mid-run.
  std::int64_t deadline_misses_ = 0;
  // Heartbeat pulses carry a generation; bumping it retires them when the
  // cluster drains, and Activate() starts a fresh set on 0 -> 1.
  std::uint64_t pulse_gen_ = 0;
  // Pending activation events, parallel to jobs_; restore cancels the ones
  // whose activation is already inside the snapshot.
  std::vector<hd::des::EventHandle> activate_events_;
  // Next scheduled fire time of each node's current-generation pulse chain
  // (-1 while stopped) and of the cluster-wide batch chain; checkpointed so
  // a restored run re-arms the heartbeat rotation at the original phases.
  std::vector<double> pulse_next_;
  double batch_next_ = -1.0;
  std::int64_t preemptions_ = 0;
  // ClusterHeartbeat's per-response scratch, parallel to active_ (cap_,
  // assigned_, rem_per_node_) or to the runnable list handed to PickJob
  // (runnable_, runnable_index_); members so a heartbeat allocates nothing.
  std::vector<int> cap_;
  std::vector<int> assigned_;
  std::vector<double> rem_per_node_;
  std::vector<const hadoop::JobState*> active_view_;
  std::vector<const hadoop::JobState*> runnable_;
  std::vector<std::size_t> runnable_index_;
  std::function<void(const JobStats&)> on_job_done_;
  WorkloadMetrics metrics_;
};

}  // namespace hd::multijob
