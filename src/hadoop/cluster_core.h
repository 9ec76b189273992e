// Cluster-level execution core shared by the single-job JobEngine and the
// multi-job engine (src/multijob).
//
// The split mirrors real Hadoop 1.x: the *cluster* owns the TaskTrackers
// (CPU/GPU map slots), the heartbeat clock and the DES event queue, while
// each *job* owns its pending map list, per-TaskTracker speedup statistics
// (Algorithm 2's aveSpeedup is tracked per job), reduce bookkeeping and
// result counters. N active jobs can therefore share one set of
// TaskTrackers; which job a freed slot serves is the caller's decision
// (trivially "the job" for JobEngine, an inter-job scheduler for
// multijob::MultiJobEngine).
//
// Fault tolerance follows the Hadoop 1.x JobTracker/TaskTracker contract:
// every map execution is an *attempt* with an id; the first attempt of a
// task to complete commits it (exactly-once — later duplicates are killed,
// so job output is bit-identical with or without faults; recovery changes
// timing, never answers). A TaskTracker silent past the expiry window is
// declared lost: its running attempts are killed and re-enqueued, and map
// outputs it committed are re-executed when reducers still need them (map
// output lives on tracker-local disk). Failed attempts retry with
// exponential backoff up to ClusterConfig::max_task_attempts; trackers
// accumulating failures are blacklisted; stragglers in the tail optionally
// get speculative second attempts that prefer idle GPUs (composing with
// Algorithm 2's tail forcing). All of it is driven by an optional
// fault::FaultInjector — null means fault-free and bit-identical modeled
// numbers, the trace::Sink convention.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "gpurt/kv.h"
#include "hadoop/checkpoint.h"
#include "hadoop/des.h"
#include "hadoop/task_source.h"
#include "hdfs/hdfs.h"
#include "sched/policy.h"
#include "trace/metrics.h"
#include "trace/timeseries.h"
#include "trace/trace.h"

namespace hd::hadoop {

// A map task exhausted ClusterConfig::max_task_attempts failed attempts;
// Hadoop 1.x fails the whole job at this point, and so do we.
class JobFailedError : public std::runtime_error {
 public:
  explicit JobFailedError(const std::string& what)
      : std::runtime_error(what) {}
};

struct ClusterConfig {
  int num_slaves = 4;
  int map_slots_per_node = 4;    // CPU map slots (Table 3: 20 / 4)
  int reduce_slots_per_node = 2;
  int gpus_per_node = 0;
  double heartbeat_sec = 3.0;
  double network_bytes_per_sec = 1.0e9;  // shuffle / non-local reads
  double reduce_slowstart = 0.2;  // Table 3: 20% maps before reduce starts
  // Extension (paper §9 future work): inter-node heterogeneity. When
  // non-empty, entry i scales every task duration on node i (e.g. 2.0 =
  // an older node at half speed). Size must equal num_slaves.
  std::vector<double> node_speed_factors;

  // --- Simulator core (src/des) ------------------------------------------
  // Event-queue backend: "calendar" (O(1) amortized, the default) or
  // "heap" (the reference binary heap). Both pop in identical (time, seq)
  // order, so every modeled number is bit-identical across backends.
  std::string des_backend = "calendar";
  // Batch heartbeat processing: one cluster-wide tick per heartbeat_sec
  // serving every tracker in node order, instead of num_slaves staggered
  // per-node chains. Cuts the standing heartbeat event population from
  // O(nodes) to O(1) — what keeps 10k trackers at 3 s from dominating the
  // event stream. Off by default: batching drops the per-node stagger
  // offsets, so modeled numbers differ (correct, but not pin-identical).
  bool batch_heartbeats = false;

  // --- Fault tolerance (Hadoop 1.x recovery semantics) -------------------
  // Deterministic fault injection (src/fault); null = fault-free, the
  // default, and bit-identical modeled numbers.
  const fault::FaultInjector* faults = nullptr;
  // A TaskTracker silent for longer than this is declared lost by the
  // JobTracker (mapred.tasktracker.expiry.interval). Must exceed the
  // heartbeat interval.
  double heartbeat_expiry_sec = 30.0;
  // Failed attempts allowed per task before the job aborts with
  // JobFailedError (mapred.map.max.attempts).
  int max_task_attempts = 4;
  // GPU attempts of one task that may end in GpuTaskFailure / device OOM
  // before the task is demoted to CPU-only placement. Bounds the §5.1
  // GPU-failure rescheduling loop (kmeans on Cluster2), which is otherwise
  // unbounded under tail forcing.
  int max_gpu_attempts = 3;
  // A TaskTracker accumulating this many failed attempts is blacklisted:
  // it keeps heartbeating but receives no further tasks. A restarted
  // tracker re-registers with a clean slate.
  int blacklist_task_failures = 4;
  // Exponential backoff base for re-enqueueing a failed attempt's task:
  // the k-th failure of a task waits retry_backoff_sec * 2^(k-1).
  double retry_backoff_sec = 1.0;
  // Speculative execution of stragglers (off by default so fault-free runs
  // stay pin-identical): once a job's pending queue drains, a second
  // attempt of the slowest running task launches on a free slot —
  // preferring GPUs, the tail-scheduling composition — and the first
  // completion commits while the loser is killed.
  bool speculation = false;
  // A running attempt is a straggler once its elapsed time exceeds this
  // multiple of the job's mean completed duration on the same device.
  double speculation_slowdown = 1.5;

  // Optional schedule trace (one line per task start/finish), for debugging
  // and for the Fig. 3 bench's timeline rendering.
  std::ostream* trace = nullptr;
  // Structured observability (src/trace); null = off and bit-identical
  // modeled numbers. Timestamps are DES virtual seconds. Track layout:
  // pid trace_pid_base is the JobTracker (one lane per job id), pid
  // trace_pid_base+node+1 is cluster node `node` with tid 0 for
  // heartbeats/decisions, tids 1..map_slots_per_node its CPU map slots and
  // the next gpus_per_node tids its GPU slots. `trace_pid_base` lets
  // several engine runs (e.g. two scheduling policies over the same seed)
  // share one trace file on disjoint pid ranges.
  trace::Sink* sink = nullptr;
  trace::Registry* metrics = nullptr;
  // Live telemetry (src/trace/timeseries.h); null = off, the default, and
  // bit-identical modeled numbers. When set, the engine schedules a
  // read-only sample event at every multiple of the sampler's interval:
  // the event snapshots cluster gauges (live trackers, running attempts,
  // slot utilization, DES events/sec, availability) plus whatever probes
  // the engine registered, then re-arms while other events remain — so
  // the queue still drains when the simulation is done.
  trace::TimeSeries* timeseries = nullptr;
  int trace_pid_base = 0;

  // --- Elastic HA serving (checkpoint / resize / preemption) -------------
  // JobTracker checkpoint cadence in modeled seconds; 0 (the default) = off
  // and zero perturbation. When positive, the multi-job engines write a
  // heterodoop.ckpt.v1 snapshot at every multiple of the interval
  // (tick k at k * interval, multiplication not accumulation) to
  // checkpoint_path (atomic tmp+rename overwrite) and/or on_checkpoint.
  double checkpoint_interval_sec = 0.0;
  std::string checkpoint_path;
  // Test/kill-restart hook: halt the run right after writing checkpoint
  // `stop_at_checkpoint` (>= 1), leaving the engine mid-flight — the
  // SIGKILL-equivalent a warm restart recovers from. 0 = never halt.
  int stop_at_checkpoint = 0;
  // Observation hook invoked after each checkpoint write with (seq, text);
  // read-only with respect to modeled state.
  std::function<void(int, const std::string&)> on_checkpoint;
  // Preemptive per-tenant quotas (Capacity scheduler pools): how many times
  // one job may have attempts killed for quota enforcement before it is
  // exempt (the anti-livelock bound). 0 (the default) disables preemption
  // entirely — bit-identical scheduling to the non-preemptive engine.
  int preemption_budget = 0;
  // Runtime resize floor: a ScheduleLeave that would drop the registered
  // tracker count below this is refused (counted, traced). The default 1
  // keeps the last tracker from draining away under active jobs.
  int min_tracker_floor = 1;

  // Throws one CheckError listing every violated invariant (see
  // ValidateClusterConfig below).
  void Validate() const;
};

// Checks every ClusterConfig invariant (positive slot/heartbeat/
// bandwidth values, slowstart fraction in [0,1], speed-factor arity,
// attempt/blacklist/backoff/expiry bounds, a known des_backend). Called
// from the ClusterCore constructor; collects *all* violations and throws
// one CheckError listing each of them (the translator::Translate
// convention), so a misconfigured sweep surfaces every problem at once.
void ValidateClusterConfig(const ClusterConfig& cfg);

struct JobResult {
  double makespan_sec = 0.0;
  double map_phase_end_sec = 0.0;
  std::int64_t cpu_tasks = 0;
  std::int64_t gpu_tasks = 0;
  std::int64_t gpu_failures = 0;
  std::int64_t nonlocal_tasks = 0;
  std::int64_t total_map_output_bytes = 0;
  double max_observed_speedup = 1.0;

  // --- Recovery accounting (all zero on a fault-free run) ----------------
  std::int64_t task_failures = 0;   // attempts that failed partway through
  std::int64_t task_retries = 0;    // re-enqueues after a failed attempt
  std::int64_t killed_attempts = 0;  // killed by node loss or losing a race
  std::int64_t maps_reexecuted = 0;  // committed maps rerun after node loss
  std::int64_t gpu_demotions = 0;   // tasks forced CPU-only by the GPU cap
  std::int64_t speculative_launched = 0;
  std::int64_t speculative_wins = 0;    // speculative attempt committed
  std::int64_t speculative_losses = 0;  // original won; speculative killed
  std::int64_t preempted_attempts = 0;  // killed by quota enforcement

  // Cluster-level counters snapshotted at job completion (single-job runs;
  // the multi-job engine reports them per workload instead).
  std::int64_t nodes_lost = 0;         // expiry declarations
  std::int64_t nodes_blacklisted = 0;

  // Functional sources only: the job's final output (reduce output, or map
  // output for map-only jobs).
  std::vector<gpurt::KvPair> final_output;
};

// Per-(job, TaskTracker) speedup bookkeeping: Algorithm 2's aveSpeedup,
// tracked per job because different jobs see different GPU speedups.
struct JobNodeStats {
  double cpu_avg = 0.0;
  std::int64_t cpu_n = 0;
  double gpu_avg = 0.0;
  std::int64_t gpu_n = 0;

  double AveSpeedup() const {
    if (cpu_n == 0 || gpu_n == 0 || gpu_avg <= 0.0) return 1.0;
    return cpu_avg / gpu_avg;
  }
};

// Lifecycle of one map task under the attempt/commit protocol.
enum class TaskState : unsigned char {
  kPending,    // in JobState::pending, schedulable
  kRunning,    // >= 1 attempt in flight (or lost with the tracker, until
               // the JobTracker's expiry sweep re-enqueues it)
  kRetryWait,  // last attempt failed; backoff timer pending
  kDone,       // committed exactly once
};

// Everything belonging to one MapReduce job in flight.
struct JobState {
  int id = 0;
  std::string label;  // app/bench id for traces and metrics
  TaskTimeSource* source = nullptr;
  sched::Policy policy = sched::Policy::kCpuOnly;
  const hdfs::Hdfs* fs = nullptr;
  std::string input_path;
  int pool = 0;  // multijob Capacity scheduler pool
  // Absolute simulated completion target. Infinity (the default) marks a
  // batch job with no latency SLO; streaming window jobs carry
  // seal_time + slo so deadline-aware inter-job schedulers (multijob's
  // MakeSloScheduler) can prioritize the window nearest to violation.
  double deadline_sec = std::numeric_limits<double>::infinity();

  std::vector<int> pending;    // unscheduled map task ids (FIFO)
  int remaining_maps = 0;      // scheduled-or-pending, not yet finished
  int maps_done = 0;
  int running_tasks = 0;       // currently occupying a slot (Fair shares)
  double max_speedup = 1.0;
  std::vector<JobNodeStats> node_stats;  // one per slave
  bool reduces_scheduled = false;
  std::vector<double> reduce_start;
  bool activated = false;  // the submission's activation event fired
  bool done = false;
  bool tail_onset_traced = false;  // first forced-GPU decision emitted

  // Per-task recovery bookkeeping (indexed by map task id).
  std::vector<TaskState> task_state;
  std::vector<int> attempts_started;  // next attempt index per task
  std::vector<int> attempts_failed;   // toward max_task_attempts
  std::vector<int> gpu_faults;        // toward max_gpu_attempts
  std::vector<unsigned char> cpu_only;  // demoted by the GPU-attempt cap
  std::vector<int> committed_node;    // node holding the map output; -1
  std::vector<std::int64_t> committed_bytes;  // its map-output size
  // Absolute fire time of a kRetryWait task's pending backoff timer
  // (checkpointed so a restore re-arms it); -1 otherwise.
  std::vector<double> retry_at;

  // Attempt index, derived from ClusterCore's registry and never
  // checkpointed: running attempts per task (at most an original and one
  // speculative duplicate, so a byte), and this job's running attempt ids
  // in ascending order.
  std::vector<unsigned char> live_attempts;
  std::vector<std::int64_t> attempt_ids;

  // Job-wide completed-duration averages feeding the speculation
  // straggler threshold.
  double cpu_dur_sum = 0.0;
  std::int64_t cpu_dur_n = 0;
  double gpu_dur_sum = 0.0;
  std::int64_t gpu_dur_n = 0;

  double submit_time = 0.0;
  double first_start_time = -1.0;  // <0 until the first task launches
  JobResult result;

  double MeanDuration(bool on_gpu) const {
    const double sum = on_gpu ? gpu_dur_sum : cpu_dur_sum;
    const std::int64_t n = on_gpu ? gpu_dur_n : cpu_dur_n;
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }
};

// Free map slots of one TaskTracker. Cluster state: shared by all jobs.
struct NodeSlots {
  int free_cpu = 0;
  int free_gpu = 0;
};

// Liveness/health of one TaskTracker as the JobTracker sees it.
struct NodeHealth {
  bool alive = true;         // false between a crash and its recovery
  bool lost = false;         // declared lost by the expiry sweep
  bool blacklisted = false;  // receives no new tasks
  double last_heartbeat_sec = 0.0;
  double down_since_sec = 0.0;   // valid while !alive
  int failed_attempts = 0;       // toward blacklist_task_failures
  std::int64_t heartbeat_seq = 0;

  // --- Runtime membership (elastic resize) -------------------------------
  // `member` is false for a tracker whose join is scheduled but has not
  // fired yet; `departed` marks one that has left for good. Initial nodes
  // are members from time 0. A draining tracker finishes its running
  // attempts but receives no new ones, then departs.
  bool member = true;
  bool draining = false;
  bool departed = false;
  double joined_sec = 0.0;
  double departed_sec = -1.0;   // < 0 while still registered
  double recover_at_sec = -1.0;  // pending RecoverEvent time; < 0 if none
};

// Owns the cluster (nodes, slots, DES clock) and implements the map-task
// placement/execution machinery for any JobState. Subclasses decide which
// job each heartbeat serves and react to completions via the hooks.
class ClusterCore {
 public:
  explicit ClusterCore(ClusterConfig cfg);
  virtual ~ClusterCore() = default;

  // --- Runtime cluster resize (DES-driven membership) --------------------
  // Schedules a fresh TaskTracker to join at modeled time `when` and
  // returns its node id (ids continue past the initial num_slaves). The
  // tracker exists immediately (so traces/arrays are sized) but is not a
  // member — it takes no work and accrues no availability denominator —
  // until the join event fires, at which point active jobs rebalance onto
  // it via an immediate heartbeat.
  int ScheduleJoin(double when);
  // Schedules tracker `node` to leave at `when`. Drain (the default)
  // finishes running attempts before departing; a hard leave kills them
  // and re-enqueues their tasks through the node-loss recovery path. A
  // leave that would drop the registered count below
  // ClusterConfig::min_tracker_floor is refused and counted.
  void ScheduleLeave(double when, int node, bool drain = true);
  // Trackers currently registered (members that have not departed).
  int registered_nodes() const;

  // True when the run stopped early at checkpoint stop_at_checkpoint —
  // the SIGKILL-equivalent state a warm restart recovers from.
  bool halted() const { return halted_; }
  // Sequence number of the last checkpoint written (0 = none yet).
  int checkpoint_seq() const { return checkpoint_seq_; }

  // Test-only audit of the derived attempt index. While set, every
  // heartbeat recomputes from a full registry scan the live attempts of
  // each task, the running attempts of each node, each job's attempt id
  // list and each active job's speculation candidate for the heartbeating
  // node, and appends every disagreement with the index to `violations`.
  struct IndexAudit {
    std::int64_t heartbeats = 0;
    std::vector<std::string> violations;
  };
  void set_index_audit_for_test(IndexAudit* audit) { index_audit_ = audit; }

 protected:
  // One in-flight map attempt. The DES completion/failure event carries
  // only the attempt id; `outcome_event` is its generation handle, and
  // killing the attempt cancels the event outright — no dead closure
  // lingers in the queue.
  struct Attempt {
    std::int64_t id = 0;
    JobState* job = nullptr;
    int task = -1;
    int index = 0;  // per-task attempt number
    int node = 0;
    bool on_gpu = false;
    bool speculative = false;
    double start_sec = 0.0;
    double duration = 0.0;  // full would-be duration
    std::int64_t output_bytes = 0;
    int lane = -1;
    bool will_fail = false;   // outcome event is a failure, not completion
    double outcome_at = 0.0;  // absolute outcome time (checkpointable)
    bool restored = false;    // resumed from a checkpoint, not started live
    des::EventHandle outcome_event;  // pending completion/failure event
  };

  // Validates the job against the cluster and fills in the derived fields
  // (pending list, per-node stats, per-task recovery tables). Call once
  // before scheduling it.
  void InitJob(JobState& job);

  // The sched::Policy view of `node_id` as seen by `job`: cluster slot
  // availability plus the job's own speedup estimate. A kCpuOnly job sees
  // zero GPUs even when the node has some (baseline Hadoop is GPU-blind).
  sched::NodeSched SchedView(const JobState& job, int node_id) const;

  // Algorithm 2's JobTracker side: how many tasks this job may receive
  // from `node_id` in the current heartbeat response.
  int HeartbeatCap(const JobState& job, int node_id) const;

  // Whether `node_id` has any slot this job could occupy right now.
  bool NodeHasUsableSlot(const JobState& job, int node_id) const;

  // Whether the JobTracker may hand `node_id` new work at all (alive and
  // not blacklisted).
  bool NodeSchedulable(int node_id) const;

  // TaskTracker-side heartbeat gate: false when the node is down or the
  // injector drops this heartbeat. A delivered heartbeat refreshes the
  // node's lease, re-registers a lost-but-alive tracker, and runs the
  // JobTracker's expiry sweep over every node.
  bool HeartbeatDelivered(int node_id);

  // Schedules the injector's crash/recovery plan onto the DES clock. Call
  // once at the start of Run(); a no-op without an injector.
  void ScheduleFaultPlan();

  // Picks up to `max_tasks` pending tasks, preferring node-local splits.
  std::vector<int> PickTasks(JobState& job, int node_id, int max_tasks);
  bool IsLocal(const JobState& job, int node_id, int task) const;

  void PlaceTask(JobState& job, int node_id, int task,
                 double maps_remaining_per_node);
  void StartMap(JobState& job, int node_id, int task, bool on_gpu,
                bool speculative = false);
  // Launches a speculative duplicate of the job's worst straggler on a
  // free slot of `node_id` (GPU preferred). Call after normal assignment
  // when the job's pending queue is empty; a no-op unless
  // cfg_.speculation is set.
  void MaybeSpeculate(JobState& job, int node_id);
  // The straggler MaybeSpeculate would duplicate on `node_id`: the
  // non-speculative, singly-attempted running task of `job` off that node
  // with the largest elapsed/mean ratio above speculation_slowdown, ties
  // to the lowest attempt id. task < 0 when there is none.
  struct SpecCandidate {
    int task = -1;
    double ratio = 0.0;
  };
  SpecCandidate SpeculationCandidate(const JobState& job, int node_id) const;
  void OnMapsProgress(JobState& job);
  void FinishJob(JobState& job);

  // Sum of node-seconds spent down, for availability accounting; nodes
  // still down at `horizon_sec` count up to the horizon.
  double NodeDownSeconds(double horizon_sec) const;

  // Trace helpers (no-ops when cfg_.sink is null). NodeTrack is lane `tid`
  // of cluster node `node_id` under the layout documented on ClusterConfig;
  // JobTrack is the job's JobTracker lane. EmitHeartbeat is called by the
  // engines' heartbeat handlers.
  trace::Track NodeTrack(int node_id, int tid) const {
    // Joined trackers shift one pid up: trace_pid_base + num_slaves + 1 is
    // reserved for the stream engine's pipeline lane.
    const int shift = node_id < cfg_.num_slaves ? 1 : 2;
    return trace::Track{cfg_.trace_pid_base + node_id + shift, tid};
  }
  trace::Track JobTrack(const JobState& job) const {
    return trace::Track{cfg_.trace_pid_base, job.id};
  }
  void EmitHeartbeat(int node_id);

  // Registers the cluster-level telemetry probes and schedules the first
  // sample tick at cfg_.timeseries->sample_interval_sec. Engines call it
  // once at the top of Run(), after registering their own probes; a no-op
  // when cfg_.timeseries is null. Tick times are exact multiples of the
  // interval (k * interval, computed by multiplication), and the sample
  // handler only reads state — it never perturbs modeled arithmetic.
  void StartTelemetry();

  // Called after each map completion (slot freed; Hadoop 1.x sends an
  // out-of-band heartbeat here) and after a job's last map completes.
  virtual void OnTaskFinished(JobState& job, int node_id) = 0;
  virtual void OnJobFinished(JobState& job) { (void)job; }
  // Recovery needs to reach every in-flight job (a lost tracker may hold
  // map outputs of several). Engines call `fn` for each active job.
  virtual void VisitActiveJobs(const std::function<void(JobState&)>& fn) = 0;
  // A transiently-crashed TaskTracker came back: the engine should restart
  // its heartbeat pulse (the pulse chain stops while the node is down).
  virtual void OnNodeRecovered(int node_id) { (void)node_id; }
  // A scheduled join fired and `node_id` is now a registered member: the
  // engine should size its per-job node tables, start the tracker's
  // heartbeat pulse, and rebalance active work onto it.
  virtual void OnClusterGrown(int node_id) { (void)node_id; }

  // --- Checkpoint machinery ---------------------------------------------
  // Serializes the full engine state as a heterodoop.ckpt.v1 document.
  // Engines that support warm restart override this; the base
  // implementation refuses (single-job JobEngine has no checkpoint story).
  virtual std::string CheckpointToText();
  // Per-job hook for extra checkpoint fields (the stream engine tags
  // window jobs with their pipeline/seq so a restore can rebuild their
  // synthetic task sources). Default: nothing.
  virtual void WriteJobExtra(json::Writer& w, const JobState& job) const {
    (void)w;
    (void)job;
  }

  // Arms the first checkpoint tick (seq restored_seq_+1) when
  // cfg_.checkpoint_interval_sec > 0; a no-op otherwise. Call from Run()
  // before draining events.
  void ScheduleCheckpointTicks();
  // Drains the event queue: events_.Run(), except when a stop_at_checkpoint
  // halt is armed, in which case it single-steps so the halt can freeze the
  // queue mid-flight.
  void DrainEvents();

  // Writes the "cluster" section (node health/slots, attempt registry,
  // lost-task list, membership plan, fault counters) into an open object.
  void WriteClusterSection(json::Writer& w);
  // Serializes one JobState (including its JobResult) as an object value.
  void WriteJobState(json::Writer& w, const JobState& job);

  // Restore passes (see checkpoint.h for the contract). ApplyClusterPre
  // overlays node health/slots/counters and re-schedules recovery and
  // membership events; ApplyJobState overlays one job's tables and arms its
  // retry timers; ApplyAttempts rebuilds the in-flight attempt registry in
  // ascending id order (preserving event-queue tie order) and the lost-task
  // list, resolving jobs through `job_by_id`.
  void ApplyClusterPre(const json::Value& cluster);
  void ApplyJobState(const json::Value& entry, JobState& job);
  void ApplyAttempts(const json::Value& cluster,
                     const std::function<JobState*(int)>& job_by_id);

  // Grows the per-node arrays (slots, health, lanes, lost-task lists) to
  // hold `n` trackers; new entries are non-members with zero slots until
  // admitted.
  void GrowArraysTo(int n);
  // Re-enqueues committed map outputs held by `node_id` for re-execution
  // (map output lives on tracker-local disk). Shared by the expiry sweep
  // and hard leaves.
  void ReexecuteCommittedMaps(int node_id);

  // Registered-tracker node-seconds up to `horizon_sec`, the availability
  // denominator. Equals num_slaves * horizon for a static cluster (fast
  // path, bit-exact); with membership churn each tracker contributes its
  // [joined, departed) overlap instead.
  double RegisteredNodeSeconds(double horizon_sec) const;

  // Kills attempt `id` (slot/lane freed, truncated span); `why` labels the
  // trace event. Protected so the multi-job engine's quota preemption can
  // kill victims through the same path node loss uses.
  void KillAttempt(std::int64_t id, const char* why);
  void RequeueTask(JobState& job, int task);
  bool HasRunningAttempt(const JobState& job, int task) const {
    return job.live_attempts[static_cast<std::size_t>(task)] != 0;
  }

  // One scheduled membership change. The plan is checkpointed (fired
  // entries and all) so a restored run can match it against the caller's
  // re-scheduled plan and cancel the already-fired events.
  struct MembershipOp {
    enum class Kind : unsigned char { kJoin, kLeave };
    Kind kind = Kind::kJoin;
    double when = 0.0;
    int node = 0;
    bool drain = true;
    bool fired = false;
    des::EventHandle event;
  };

  ClusterConfig cfg_;
  EventQueue events_;
  std::vector<NodeSlots> nodes_;
  std::vector<NodeHealth> health_;
  bool trace_job_ids_ = false;  // multijob traces tag lines with job=<id>

  // Per-node free trace lanes (tids), maintained only when cfg_.sink is
  // set; a running task holds its lane from StartMap to FinishMap so
  // overlapping tasks render on distinct rows.
  std::vector<std::vector<int>> free_cpu_lanes_;
  std::vector<std::vector<int>> free_gpu_lanes_;

  // Cluster-level accounting for utilization / contention metrics.
  double cpu_busy_sec_ = 0.0;   // map-slot-seconds spent on CPU tasks
  double gpu_busy_sec_ = 0.0;   // GPU-slot-seconds spent on GPU tasks
  std::int64_t gpu_bounces_ = 0;  // forced-GPU placements, every GPU busy

  // Cluster-level fault/recovery accounting.
  std::int64_t nodes_crashed_ = 0;
  std::int64_t nodes_recovered_ = 0;
  std::int64_t nodes_lost_ = 0;        // expiry declarations
  std::int64_t nodes_blacklisted_ = 0;
  std::int64_t heartbeats_dropped_ = 0;
  // Completed outage intervals [crash, recover); open outages live in
  // NodeHealth::down_since_sec. Kept as intervals so NodeDownSeconds can
  // clamp to a horizon (crash-plan events keep firing after the last job
  // completes; those must not count against availability).
  std::vector<std::pair<double, double>> outages_;

  // Membership accounting.
  std::int64_t nodes_joined_ = 0;
  std::int64_t nodes_left_ = 0;
  std::int64_t leaves_refused_ = 0;  // blocked by min_tracker_floor
  std::vector<MembershipOp> membership_plan_;
  bool membership_used_ = false;  // any join/leave scheduled this run
  int joins_scheduled_ = 0;
  // Pending RecoverEvent per node, cancellable on departure. Parallel to
  // health_.
  std::vector<des::EventHandle> recover_events_;

  // In-flight attempt registry (Hadoop 1.x attempt ids), in id order:
  // checkpoints, KillAttemptsOn and every tie-break rely on that order.
  // Protected so the multi-job engine's preemption can pick victims and
  // the checkpoint writer can serialize it; only InsertAttempt and
  // EraseAttempt write it.
  using Registry = std::map<std::int64_t, Attempt>;
  Registry running_;
  // Running attempts per node; with JobState::live_attempts and
  // JobState::attempt_ids, the index InsertAttempt/EraseAttempt derive.
  std::vector<int> node_running_;
  std::int64_t next_attempt_id_ = 1;
  // (job, task) pairs whose attempts died with the node, awaiting the
  // expiry sweep. Indexed by node.
  std::vector<std::vector<std::pair<JobState*, int>>> lost_tasks_;

  // Checkpoint / warm-restart state. restored_at_ >= 0 marks an engine
  // restored from checkpoint restored_seq_ at that modeled time; ticks and
  // telemetry resume *after* it instead of from 0.
  bool halted_ = false;
  int checkpoint_seq_ = 0;
  int restored_seq_ = 0;
  double restored_at_ = -1.0;

 private:
  // Pooled DES event trampolines (ctx is the ClusterCore): the payload
  // carries an attempt id, a node id, a packed crash, or a (job, task)
  // pair — never a heap-allocated closure.
  static void CrashEvent(void* ctx, const des::Payload& p);
  static void RecoverEvent(void* ctx, const des::Payload& p);
  static void SampleEvent(void* ctx, const des::Payload& p);
  static void AttemptDoneEvent(void* ctx, const des::Payload& p);
  static void AttemptFailedEvent(void* ctx, const des::Payload& p);
  static void RetryTimerEvent(void* ctx, const des::Payload& p);
  static void JoinEvent(void* ctx, const des::Payload& p);
  static void LeaveEvent(void* ctx, const des::Payload& p);
  static void CheckpointEvent(void* ctx, const des::Payload& p);

  // One telemetry sample at tick k (modeled time k * interval); re-arms
  // tick k+1 while other events remain in the queue.
  void SampleTick(std::int64_t k);

  // Standing auxiliary events (telemetry samples, checkpoint ticks)
  // currently in the queue. Each chain re-arms only while the queue holds
  // more than the auxiliary events, so two self-re-arming chains cannot
  // keep each other alive after the simulation proper has drained.
  std::int64_t aux_pending_ = 0;

  void CrashNode(const fault::NodeCrash& crash);
  void RecoverNode(int node_id);
  void CheckExpiry();
  void DeclareLost(int node_id);
  // Kills every running attempt on `node_id` (frees slots/lanes, emits
  // truncated spans) and remembers the (job, task) pairs for the expiry
  // sweep's re-enqueue.
  void KillAttemptsOn(int node_id);
  // Membership event bodies: a join admits the tracker and notifies the
  // engine; a leave drains or hard-kills, then departs.
  void AdmitNode(int node_id);
  void LeaveNow(int node_id, bool drain);
  void DepartNode(int node_id);
  // Writes checkpoint `k` (file and/or hook), then either halts the run
  // (stop_at_checkpoint) or re-arms tick k+1 while events remain.
  void CheckpointTick(int k);
  void OnAttemptDone(std::int64_t id);
  void OnAttemptFailed(std::int64_t id);
  // The GPU path of StartMap failed to launch (GpuTaskFailure or injected
  // OOM): account it, maybe demote the task, and rescue onto a CPU slot
  // or back to pending.
  void HandleGpuLaunchFailure(JobState& job, int node_id, int task,
                              bool speculative, bool injected_oom);
  // Reschedules the (job, task) pairs whose attempts died on `node_id`:
  // called from DeclareLost (expiry) and from RecoverNode (re-registration
  // after an outage shorter than the expiry window).
  void RequeueLostTasks(int node_id);
  void FreeSlot(int node_id, bool on_gpu, int lane);

  // The only writers of running_: each keeps the attempt index in step.
  void InsertAttempt(const Attempt& at);
  Attempt EraseAttempt(Registry::iterator it);
  // Compares the index with a full registry scan (set_index_audit_for_test).
  void AuditIndex(int node_id);

  // Lower bound on the last heartbeat of every registered, not-lost
  // tracker: while now minus it is within the expiry window, no tracker
  // can have expired and CheckExpiry skips its walk. -infinity forces
  // the next walk (a restore resets it so).
  double lease_floor_ = -std::numeric_limits<double>::infinity();
  IndexAudit* index_audit_ = nullptr;
};

}  // namespace hd::hadoop
