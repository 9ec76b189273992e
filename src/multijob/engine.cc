#include "multijob/engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/stats.h"
#include "hadoop/checkpoint.h"

namespace hd::multijob {

using hadoop::CheckpointError;
using hadoop::JobState;
namespace ckpt = hadoop::ckpt;

MultiJobEngine::MultiJobEngine(hadoop::ClusterConfig cfg,
                               std::unique_ptr<InterJobScheduler> scheduler)
    : hadoop::ClusterCore(std::move(cfg)), scheduler_(std::move(scheduler)) {
  HD_CHECK(scheduler_ != nullptr);
  trace_job_ids_ = true;
}

int MultiJobEngine::Submit(double when, JobSpec spec) {
  HD_CHECK_MSG(when >= events_.now(), "submission scheduled in the past");
  const int id = submitted_++;
  auto job = std::make_unique<JobState>();
  job->id = id;
  job->label = spec.label;
  job->source = spec.source;
  job->policy = spec.policy;
  job->fs = spec.fs;
  job->input_path = std::move(spec.input_path);
  job->pool = spec.pool;
  job->deadline_sec = spec.deadline_sec;
  job->submit_time = when;
  InitJob(*job);
  JobState* ptr = job.get();
  jobs_.push_back(std::move(job));
  // The handle stays parallel to jobs_ so a checkpoint restore can cancel
  // activations that already fired inside the snapshot.
  activate_events_.push_back(events_.At(when, &MultiJobEngine::ActivateEvent,
                                        this,
                                        des::Payload{des::PackPtr(ptr), 0}));
  return id;
}

void MultiJobEngine::ActivateEvent(void* ctx, const des::Payload& p) {
  static_cast<MultiJobEngine*>(ctx)->Activate(
      des::UnpackPtr<JobState>(p.u0));
}

void MultiJobEngine::PulseTickEvent(void* ctx, const des::Payload& p) {
  static_cast<MultiJobEngine*>(ctx)->PulseTick(static_cast<int>(p.u0), p.u1);
}

void MultiJobEngine::BatchTickEvent(void* ctx, const des::Payload& p) {
  static_cast<MultiJobEngine*>(ctx)->BatchTick(p.u0);
}

void MultiJobEngine::CompleteJobEvent(void* ctx, const des::Payload& p) {
  static_cast<MultiJobEngine*>(ctx)->CompleteJob(
      *des::UnpackPtr<JobState>(p.u0));
}

void MultiJobEngine::Activate(JobState* job) {
  job->activated = true;
  active_.push_back(job);
  if (++active_jobs_ == 1) StartPulses();
}

void MultiJobEngine::StartPulses() {
  const std::uint64_t gen = ++pulse_gen_;
  pulse_next_.assign(health_.size(), -1.0);
  batch_next_ = -1.0;
  if (cfg_.batch_heartbeats) {
    batch_next_ = events_.now() + cfg_.heartbeat_sec;
    events_.After(cfg_.heartbeat_sec, &MultiJobEngine::BatchTickEvent, this,
                  des::Payload{gen, 0});
    return;
  }
  for (int n = 0; n < static_cast<int>(health_.size()); ++n) {
    const hadoop::NodeHealth& h = health_[static_cast<std::size_t>(n)];
    // Not-yet-joined and departed trackers get no chain; a join starts one
    // through OnClusterGrown.
    if (!h.member || h.departed) continue;
    const double offset = cfg_.heartbeat_sec * (n + 1) / (cfg_.num_slaves + 1);
    pulse_next_[static_cast<std::size_t>(n)] = events_.now() + offset;
    events_.After(offset, &MultiJobEngine::PulseTickEvent, this,
                  des::Payload{static_cast<std::uint64_t>(n), gen});
  }
}

void MultiJobEngine::PulseTick(int node_id, std::uint64_t gen) {
  if (pulse_gen_ != gen) return;  // cluster drained: retire
  // A dead (or departed) tracker sends nothing; the chain resumes at
  // recovery.
  if (!health_[static_cast<std::size_t>(node_id)].alive) {
    pulse_next_[static_cast<std::size_t>(node_id)] = -1.0;
    return;
  }
  ClusterHeartbeat(node_id);
  pulse_next_[static_cast<std::size_t>(node_id)] =
      events_.now() + cfg_.heartbeat_sec;
  events_.After(cfg_.heartbeat_sec, &MultiJobEngine::PulseTickEvent, this,
                des::Payload{static_cast<std::uint64_t>(node_id), gen});
}

void MultiJobEngine::BatchTick(std::uint64_t gen) {
  if (pulse_gen_ != gen) return;  // cluster drained: retire
  for (int n = 0; n < static_cast<int>(health_.size()); ++n) {
    if (pulse_gen_ != gen) break;  // drained mid-tick
    const hadoop::NodeHealth& h = health_[static_cast<std::size_t>(n)];
    if (!h.member || h.departed || !h.alive) continue;
    ClusterHeartbeat(n);
  }
  if (pulse_gen_ != gen) return;
  batch_next_ = events_.now() + cfg_.heartbeat_sec;
  events_.After(cfg_.heartbeat_sec, &MultiJobEngine::BatchTickEvent, this,
                des::Payload{gen, 0});
}

void MultiJobEngine::OnNodeRecovered(int node_id) {
  if (active_jobs_ == 0) return;  // next Activate() restarts every pulse
  // In batch mode the cluster-wide chain never stopped; the recovered
  // node is picked up on its next tick.
  if (cfg_.batch_heartbeats) return;
  pulse_next_[static_cast<std::size_t>(node_id)] =
      events_.now() + cfg_.heartbeat_sec;
  events_.After(cfg_.heartbeat_sec, &MultiJobEngine::PulseTickEvent, this,
                des::Payload{static_cast<std::uint64_t>(node_id), pulse_gen_});
}

void MultiJobEngine::OnClusterGrown(int node_id) {
  // Per-job speedup tables must cover the new tracker before it can take
  // work (InitJob sized them to the tracker count at submission).
  for (const auto& job : jobs_) {
    if (job->node_stats.size() < nodes_.size()) {
      job->node_stats.resize(nodes_.size());
    }
  }
  if (active_jobs_ == 0) return;
  if (pulse_next_.size() < health_.size()) {
    pulse_next_.resize(health_.size(), -1.0);
  }
  // Rebalance immediately — the empty tracker gets a full heartbeat
  // response right away — then join the rotation (batch mode's cluster
  // tick picks it up by itself).
  ClusterHeartbeat(node_id);
  if (!cfg_.batch_heartbeats) {
    pulse_next_[static_cast<std::size_t>(node_id)] =
        events_.now() + cfg_.heartbeat_sec;
    events_.After(cfg_.heartbeat_sec, &MultiJobEngine::PulseTickEvent, this,
                  des::Payload{static_cast<std::uint64_t>(node_id),
                               pulse_gen_});
  }
}

void MultiJobEngine::VisitActiveJobs(
    const std::function<void(hadoop::JobState&)>& fn) {
  for (JobState* job : active_) fn(*job);
}

void MultiJobEngine::ClusterHeartbeat(int node_id) {
  if (!HeartbeatDelivered(node_id)) return;
  EmitHeartbeat(node_id);
  // A blacklisted tracker keeps heartbeating but gets no work.
  if (!NodeSchedulable(node_id)) return;
  // Without a free slot no job is runnable and speculation has nowhere to
  // go: only a quota preemption could open a slot, so without one the
  // response is empty.
  const bool preemptive = cfg_.preemption_budget > 0;
  const hadoop::NodeSlots& slots = nodes_[static_cast<std::size_t>(node_id)];
  if (!preemptive && slots.free_cpu == 0 && slots.free_gpu == 0) return;
  // Per-job heartbeat allowances and numMapsRemainingPerNode estimates,
  // computed once at response-construction time exactly as the single-job
  // JobTracker does (Algorithm 2 lines 8-9). A job without pending maps
  // cannot become runnable during the response unless a preemption hands
  // its victim's task back, so only then are its entries needed.
  const std::size_t n_active = active_.size();
  cap_.assign(n_active, 0);
  assigned_.assign(n_active, 0);
  rem_per_node_.assign(n_active, 0.0);
  for (std::size_t i = 0; i < n_active; ++i) {
    const JobState& job = *active_[i];
    if (!preemptive && job.pending.empty()) continue;
    cap_[i] = HeartbeatCap(job, node_id);
    rem_per_node_[i] =
        static_cast<double>(job.pending.size()) / cfg_.num_slaves;
  }
  active_view_.assign(active_.begin(), active_.end());
  // Fill the response slot-by-slot so Fair/Capacity shares interleave jobs
  // within a single heartbeat, not only across heartbeats. When quota
  // preemption frees a slot the fill loop reruns for it; with
  // preemption_budget 0 (the default) MaybePreemptOn is a constant false
  // and the response is built exactly once, as before.
  do {
    runnable_.clear();
    runnable_index_.clear();
    for (std::size_t i = 0; i < n_active; ++i) {
      if (Runnable(i, node_id)) {
        runnable_.push_back(active_[i]);
        runnable_index_.push_back(i);
      }
    }
    while (!runnable_.empty()) {
      const std::size_t pick = scheduler_->PickJob(runnable_, active_view_);
      HD_CHECK_MSG(pick < runnable_.size(), "scheduler picked out of range");
      const std::size_t i = runnable_index_[pick];
      JobState& job = *active_[i];
      const std::vector<int> task = PickTasks(job, node_id, 1);
      HD_CHECK(!task.empty());
      // A bounce (forced-GPU with the GPU busy) still consumes the job's
      // allowance, as it does in the single-job response.
      ++assigned_[i];
      PlaceTask(job, node_id, task[0], rem_per_node_[i]);
      // Within one pass free slots only shrink, allowances only get used
      // up and only the picked job's queue changes, so no job outside the
      // list can have become runnable: filtering it in order is the same
      // list a rescan of active_ would build.
      std::size_t kept = 0;
      for (std::size_t k = 0; k < runnable_.size(); ++k) {
        if (!Runnable(runnable_index_[k], node_id)) continue;
        runnable_[kept] = runnable_[k];
        runnable_index_[kept] = runnable_index_[k];
        ++kept;
      }
      runnable_.resize(kept);
      runnable_index_.resize(kept);
    }
  } while (MaybePreemptOn(node_id));
  // With every pending queue this node can serve drained, idle slots may
  // hunt stragglers across the active jobs that have no pending maps.
  if (!cfg_.speculation) return;
  for (std::size_t i = 0; i < n_active; ++i) {
    if (active_[i]->pending.empty()) MaybeSpeculate(*active_[i], node_id);
  }
}

bool MultiJobEngine::Runnable(std::size_t i, int node_id) const {
  const JobState& job = *active_[i];
  return !job.pending.empty() && assigned_[i] < cap_[i] &&
         NodeHasUsableSlot(job, node_id);
}

bool MultiJobEngine::MaybePreemptOn(int node_id) {
  if (cfg_.preemption_budget <= 0) return false;
  const std::vector<double>* weights = scheduler_->pool_weights();
  if (weights == nullptr || weights->empty()) return false;
  double weight_sum = 0.0;
  for (double w : *weights) weight_sum += w;
  if (weight_sum <= 0.0) return false;
  // Slot quotas follow the *registered* capacity: a resize moves every
  // pool's entitlement, which is what makes quotas meaningful under churn.
  double total_slots = 0.0;
  for (const hadoop::NodeHealth& h : health_) {
    if (h.member && !h.departed) {
      total_slots += cfg_.map_slots_per_node + cfg_.gpus_per_node;
    }
  }
  const auto pool_of = [&](const JobState& j) {
    if (j.pool < 0 || j.pool >= static_cast<int>(weights->size())) return 0;
    return j.pool;
  };
  std::vector<int> pool_running(weights->size(), 0);
  for (const JobState* j : active_) {
    pool_running[static_cast<std::size_t>(pool_of(*j))] += j->running_tasks;
  }
  const auto quota = [&](int pool) {
    return total_slots * (*weights)[static_cast<std::size_t>(pool)] /
           weight_sum;
  };
  // The claimant: an active job with pending work whose pool runs strictly
  // below floor(quota). The fill loop's allowance does not gate the claim —
  // in a saturated cluster every allowance is zero, which is exactly when
  // quota enforcement matters. A successful preemption instead transfers
  // one slot of allowance from the victim to the claimant (cap bump below)
  // so the re-run fill loop can hand it the freed slot. Earliest deadline
  // first (the EDF composition), then job id.
  const JobState* starved = nullptr;
  std::size_t starved_index = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const JobState& j = *active_[i];
    if (j.pending.empty()) continue;
    const int pool = pool_of(j);
    if (pool_running[static_cast<std::size_t>(pool)] >=
        static_cast<int>(std::floor(quota(pool)))) {
      continue;
    }
    if (starved == nullptr || j.deadline_sec < starved->deadline_sec ||
        (j.deadline_sec == starved->deadline_sec && j.id < starved->id)) {
      starved = &j;
      starved_index = i;
    }
  }
  if (starved == nullptr) return false;
  const int starved_pool = pool_of(*starved);
  const bool starved_gpu_ok = starved->policy != sched::Policy::kCpuOnly;
  // The victim: the youngest running attempt on this node from a pool
  // strictly over ceil(quota), holding a slot the claimant can use, whose
  // job still has preemption budget left and is not deadline-tighter than
  // the claimant (EDF protection — quotas never steal from a more urgent
  // window).
  const Attempt* victim = nullptr;
  for (const auto& [id, at] : running_) {
    if (at.node != node_id) continue;
    const JobState& vj = *at.job;
    const int vpool = pool_of(vj);
    if (vpool == starved_pool) continue;
    if (pool_running[static_cast<std::size_t>(vpool)] <=
        static_cast<int>(std::ceil(quota(vpool)))) {
      continue;
    }
    if (vj.result.preempted_attempts >= cfg_.preemption_budget) continue;
    if (vj.deadline_sec < starved->deadline_sec) continue;
    if (at.on_gpu && !starved_gpu_ok) continue;
    if (victim == nullptr || at.start_sec > victim->start_sec ||
        (at.start_sec == victim->start_sec && at.id > victim->id)) {
      victim = &at;
    }
  }
  if (victim == nullptr) return false;
  JobState& vjob = *victim->job;
  const int task = victim->task;
  const std::int64_t vid = victim->id;
  ++vjob.result.preempted_attempts;
  ++preemptions_;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("multijob.preemptions").Add(1);
  }
  if (cfg_.sink != nullptr) {
    cfg_.sink->Instant("multijob", "preempt", NodeTrack(node_id, 0),
                       events_.now(),
                       {trace::Arg::Int("victim_job", vjob.id),
                        trace::Arg::Int("task", task),
                        trace::Arg::Int("for_job", starved->id)});
  }
  KillAttempt(vid, "preempted");
  // A quota kill is not a task failure: the work goes straight back to
  // pending without burning a retry or a backoff (unless a speculative
  // duplicate still runs it).
  if (!HasRunningAttempt(vjob, task)) {
    vjob.task_state[static_cast<std::size_t>(task)] =
        hadoop::TaskState::kPending;
    vjob.pending.push_back(task);
  }
  // The allowance transfer: the freed slot belongs to the claimant when
  // the fill loop re-runs, even though its heartbeat cap was computed
  // before the slot existed.
  ++cap_[starved_index];
  return true;
}

void MultiJobEngine::OnTaskFinished(JobState&, int node_id) {
  // Out-of-band heartbeat on completion serves *all* jobs: the freed slot
  // may well go to a different job than the one that finished.
  if (!active_.empty()) ClusterHeartbeat(node_id);
}

void MultiJobEngine::OnJobFinished(JobState& job) {
  // The map phase just drained; the modeled shuffle/reduce tail extends to
  // result.makespan_sec. Hold the job active until then so closed-loop
  // feeders and latency metrics see full completions.
  const double delay = job.result.makespan_sec - events_.now();
  HD_CHECK(delay >= 0.0);
  events_.After(delay, &MultiJobEngine::CompleteJobEvent, this,
                des::Payload{des::PackPtr(&job), 0});
}

void MultiJobEngine::CompleteJob(JobState& job) {
  active_.erase(std::find(active_.begin(), active_.end(), &job));
  ++completed_;
  // Infinite deadline (batch) never misses.
  if (job.result.makespan_sec > job.deadline_sec) ++deadline_misses_;
  if (--active_jobs_ == 0) ++pulse_gen_;  // retire pulses lazily

  if (cfg_.sink != nullptr) {
    if (job.first_start_time > job.submit_time) {
      cfg_.sink->Span("multijob", "queue_wait", JobTrack(job),
                      job.submit_time,
                      job.first_start_time - job.submit_time,
                      {trace::Arg::Int("job", job.id),
                       trace::Arg::Int("pool", job.pool)});
    }
    cfg_.sink->Instant("multijob", "job_complete", JobTrack(job),
                       events_.now(),
                       {trace::Arg::Int("job", job.id),
                        trace::Arg::Str("label", job.label)});
  }
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("multijob.jobs_completed").Add(1);
    cfg_.metrics->distribution("multijob.queue_wait_sec")
        .Record(job.first_start_time - job.submit_time);
    cfg_.metrics->distribution("multijob.job_latency_sec")
        .Record(job.result.makespan_sec - job.submit_time);
  }

  JobStats stats;
  stats.job_id = job.id;
  stats.label = job.label;
  stats.pool = job.pool;
  stats.submit_sec = job.submit_time;
  stats.start_sec = job.first_start_time;
  stats.finish_sec = job.result.makespan_sec;
  stats.result = job.result;
  metrics_.jobs.push_back(stats);
  OnJobCompleted(stats);
  if (on_job_done_) on_job_done_(stats);
}

WorkloadMetrics MultiJobEngine::Run() {
  ScheduleFaultPlan();
  if (cfg_.timeseries != nullptr) {
    trace::TimeSeries& ts = *cfg_.timeseries;
    ts.AddGaugeProbe("multijob.active_jobs", [this] {
      return static_cast<double>(active_jobs_);
    });
    ts.AddCumulativeProbe("multijob.jobs_submitted", [this] {
      return static_cast<double>(submitted_);
    });
    ts.AddCumulativeProbe("multijob.jobs_completed", [this] {
      return static_cast<double>(completed_);
    });
    ts.AddCumulativeProbe("multijob.deadline_misses", [this] {
      return static_cast<double>(deadline_misses_);
    });
    if (cfg_.preemption_budget > 0) {
      ts.AddCumulativeProbe("multijob.preemptions", [this] {
        return static_cast<double>(preemptions_);
      });
    }
    // Default SLO rule: jobs with finite deadlines may miss 5% of
    // completions before the budget burns. Deadline-free workloads never
    // fire it (0 misses over any window evaluates to zero burn).
    trace::SloRule rule;
    rule.name = "multijob.deadline_miss_burn";
    rule.kind = trace::SloRule::Kind::kBurnRate;
    rule.bad_series = "multijob.deadline_misses";
    rule.total_series = "multijob.jobs_completed";
    rule.budget = 0.05;
    rule.track = trace::Track{cfg_.trace_pid_base, 0};
    ts.slo().AddRule(rule);
  }
  StartTelemetry();
  ScheduleCheckpointTicks();
  DrainEvents();
  if (halted_) {
    // stop_at_checkpoint froze the queue mid-flight — the SIGKILL
    // equivalent. The snapshot is the authoritative state; whatever is in
    // metrics_ is the partial progress up to the halt.
    return metrics_;
  }
  HD_CHECK_MSG(completed_ == submitted_,
               "event queue drained with jobs still in flight");
  std::sort(metrics_.jobs.begin(), metrics_.jobs.end(),
            [](const JobStats& a, const JobStats& b) {
              return a.job_id < b.job_id;
            });
  for (const JobStats& j : metrics_.jobs) {
    metrics_.makespan_sec = std::max(metrics_.makespan_sec, j.finish_sec);
  }
  const double horizon = metrics_.makespan_sec;
  if (!membership_used_) {
    // Static cluster: the exact pre-elastic expressions (pin-identical).
    metrics_.cpu_utilization = stats::Utilization(
        cpu_busy_sec_,
        static_cast<double>(cfg_.num_slaves) * cfg_.map_slots_per_node,
        horizon);
    metrics_.gpu_utilization = stats::Utilization(
        gpu_busy_sec_,
        static_cast<double>(cfg_.num_slaves) * cfg_.gpus_per_node, horizon);
  } else {
    // Elastic cluster: busy-slot-seconds over the slot-seconds that were
    // actually registered, so a half-capacity interval is not charged for
    // absent trackers.
    const double reg_sec = RegisteredNodeSeconds(horizon);
    metrics_.cpu_utilization = stats::Utilization(
        cpu_busy_sec_, static_cast<double>(cfg_.map_slots_per_node), reg_sec);
    metrics_.gpu_utilization = stats::Utilization(
        gpu_busy_sec_, static_cast<double>(cfg_.gpus_per_node), reg_sec);
  }
  metrics_.gpu_bounces = gpu_bounces_;
  metrics_.nodes_crashed = nodes_crashed_;
  metrics_.nodes_recovered = nodes_recovered_;
  metrics_.nodes_lost = nodes_lost_;
  metrics_.nodes_blacklisted = nodes_blacklisted_;
  metrics_.heartbeats_dropped = heartbeats_dropped_;
  metrics_.nodes_joined = nodes_joined_;
  metrics_.nodes_left = nodes_left_;
  metrics_.leaves_refused = leaves_refused_;
  metrics_.preemptions = preemptions_;
  if (horizon > 0.0 && cfg_.num_slaves > 0) {
    // RegisteredNodeSeconds returns the exact pre-elastic denominator
    // expression for static clusters, so existing pins hold bit-for-bit.
    metrics_.availability =
        1.0 - NodeDownSeconds(horizon) / RegisteredNodeSeconds(horizon);
  }
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->gauge("multijob.makespan_sec").Set(metrics_.makespan_sec);
    cfg_.metrics->gauge("multijob.cpu_utilization")
        .Set(metrics_.cpu_utilization);
    cfg_.metrics->gauge("multijob.gpu_utilization")
        .Set(metrics_.gpu_utilization);
    cfg_.metrics->counter("multijob.gpu_bounces").Set(gpu_bounces_);
    cfg_.metrics->counter("multijob.jobs_submitted").Set(submitted_);
    if (cfg_.faults != nullptr) {
      cfg_.metrics->gauge("multijob.availability").Set(metrics_.availability);
      cfg_.metrics->counter("multijob.task_retries")
          .Set(metrics_.TotalTaskRetries());
      cfg_.metrics->counter("multijob.maps_reexecuted")
          .Set(metrics_.TotalMapsReexecuted());
    }
    if (membership_used_) {
      cfg_.metrics->counter("multijob.nodes_joined").Set(nodes_joined_);
      cfg_.metrics->counter("multijob.nodes_left").Set(nodes_left_);
      cfg_.metrics->counter("multijob.leaves_refused").Set(leaves_refused_);
      if (cfg_.faults == nullptr) {
        cfg_.metrics->gauge("multijob.availability")
            .Set(metrics_.availability);
      }
    }
  }
  return metrics_;
}

// --- Checkpoint / warm restart ---------------------------------------------

std::string MultiJobEngine::CheckpointToText() {
  std::ostringstream os;
  json::Writer w(os);
  w.BeginObject();
  w.Key("schema").String(hadoop::kCheckpointSchema);
  w.Key("seq").Int(checkpoint_seq_);
  w.Key("time").Number(events_.now());
  // Fingerprint of everything the restore target must rebuild identically
  // before overlaying the snapshot.
  w.Key("config").BeginObject();
  w.Key("num_slaves").Int(cfg_.num_slaves);
  w.Key("map_slots").Int(cfg_.map_slots_per_node);
  w.Key("reduce_slots").Int(cfg_.reduce_slots_per_node);
  w.Key("gpus").Int(cfg_.gpus_per_node);
  w.Key("heartbeat_sec").Number(cfg_.heartbeat_sec);
  w.Key("batch_heartbeats").Bool(cfg_.batch_heartbeats);
  w.Key("scheduler").String(scheduler_->name());
  w.EndObject();
  WriteClusterSection(w);
  w.Key("jobs").BeginArray();
  for (const auto& job : jobs_) WriteJobState(w, *job);
  w.EndArray();
  w.Key("multijob").BeginObject();
  w.Key("submitted").Int(submitted_);
  w.Key("completed").Int(completed_);
  w.Key("deadline_misses").Int(deadline_misses_);
  w.Key("preemptions").Int(preemptions_);
  w.Key("pulse_gen").String(ckpt::U64Str(pulse_gen_));
  w.Key("active").BeginArray();
  for (const JobState* j : active_) w.Int(j->id);
  w.EndArray();
  w.Key("pulses").BeginArray();
  for (double t : pulse_next_) w.Number(t);
  w.EndArray();
  w.Key("batch_pulse").Number(batch_next_);
  // Completion order, so the restored metrics_.jobs rebuild matches the
  // original's pre-sort contents.
  w.Key("completed_ids").BeginArray();
  for (const JobStats& s : metrics_.jobs) w.Int(s.job_id);
  w.EndArray();
  w.EndObject();
  WriteExtraSections(w);
  if (cfg_.metrics != nullptr) {
    w.Key("registry").BeginObject();
    w.Key("counters").BeginObject();
    for (const auto& [name, c] : cfg_.metrics->counters()) {
      w.Key(name).Int(c.value());
    }
    w.EndObject();
    w.Key("gauges").BeginObject();
    for (const auto& [name, g] : cfg_.metrics->gauges()) {
      w.Key(name).Number(g.value());
    }
    w.EndObject();
    w.Key("distributions").BeginObject();
    for (const auto& [name, d] : cfg_.metrics->distributions()) {
      w.Key(name).BeginObject();
      w.Key("samples").BeginArray();
      for (double x : d.samples()) w.Number(x);
      w.EndArray();
      w.Key("count").Int(d.count());
      w.Key("sum").Number(d.Sum());
      w.Key("min").Number(d.count() > 0 ? d.Min() : 0.0);
      w.Key("max").Number(d.count() > 0 ? d.Max() : 0.0);
      w.Key("cap").Int(d.reservoir_cap());
      w.Key("rng").String(ckpt::U64Str(d.reservoir_rng()));
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  return os.str();
}

JobSpec MultiJobEngine::MakeRestoredJobSpec(const json::Value& entry) {
  throw CheckpointError(
      "checkpoint job " + std::to_string(ckpt::Int(entry, "id")) + " ('" +
      ckpt::Str(entry, "label") +
      "') was not re-submitted before restore — batch workloads must be "
      "re-submitted by the caller; only stream window jobs are rebuilt "
      "from the snapshot");
}

void MultiJobEngine::RestoreFromFile(const std::string& path) {
  RestoreFromText(ckpt::ReadFile(path));
}

void MultiJobEngine::RestoreFromText(const std::string& text) {
  const json::Value doc = ckpt::ParseCheckpoint(text);
  HD_CHECK_MSG(events_.serviced() == 0 && restored_at_ < 0.0,
               "restore requires a fresh engine (before Run())");
  const int seq = static_cast<int>(ckpt::Int(doc, "seq"));
  const double time = ckpt::Num(doc, "time");
  // Config fingerprint first: a snapshot from a different cluster shape
  // would corrupt state silently, so collect every difference and refuse.
  const json::Value& conf = ckpt::Get(doc, "config");
  std::vector<std::string> mismatches;
  const auto check_int = [&](const char* key, std::int64_t mine) {
    const std::int64_t theirs = ckpt::Int(conf, key);
    if (theirs != mine) {
      mismatches.push_back(std::string(key) + " is " +
                           std::to_string(theirs) + " in the checkpoint but " +
                           std::to_string(mine) + " here");
    }
  };
  check_int("num_slaves", cfg_.num_slaves);
  check_int("map_slots", cfg_.map_slots_per_node);
  check_int("reduce_slots", cfg_.reduce_slots_per_node);
  check_int("gpus", cfg_.gpus_per_node);
  if (ckpt::Num(conf, "heartbeat_sec") != cfg_.heartbeat_sec) {
    mismatches.push_back("heartbeat_sec differs");
  }
  if (ckpt::Bool(conf, "batch_heartbeats") != cfg_.batch_heartbeats) {
    mismatches.push_back("batch_heartbeats differs");
  }
  if (ckpt::Str(conf, "scheduler") != scheduler_->name()) {
    mismatches.push_back("scheduler is '" + ckpt::Str(conf, "scheduler") +
                         "' in the checkpoint but '" + scheduler_->name() +
                         "' here");
  }
  if (!mismatches.empty()) {
    std::string msg = "checkpoint was written by a different configuration (" +
                      std::to_string(mismatches.size()) + " mismatch" +
                      (mismatches.size() == 1 ? "" : "es") + "):";
    for (const std::string& m : mismatches) msg += "\n  - " + m;
    throw CheckpointError(msg);
  }
  // Subclass sections (stream pipeline state) go first: window-job rebuild
  // below needs the pipes overlaid.
  RestoreExtraSections(doc);
  ApplyClusterPre(ckpt::Get(doc, "cluster"));
  const auto& jobs = ckpt::Arr(doc, "jobs");
  for (const json::Value& entry : jobs) {
    const int id = static_cast<int>(ckpt::Int(entry, "id"));
    if (id < 0 || id > submitted_) {
      throw CheckpointError("checkpoint jobs are not in id order (job " +
                            std::to_string(id) + ")");
    }
    if (id == submitted_) {
      // A job the caller cannot re-submit: rebuild its spec from the
      // snapshot (stream window jobs) and submit it here, preserving id
      // order so attempt/event replay stays deterministic.
      JobSpec spec = MakeRestoredJobSpec(entry);
      const int got = Submit(ckpt::Num(entry, "submit"), std::move(spec));
      HD_CHECK(got == id);
    }
    JobState& job = *jobs_[static_cast<std::size_t>(id)];
    ApplyJobState(entry, job);
    if (job.activated) {
      // The activation fired inside the snapshot; the re-submitted event
      // must not push the job into active_ a second time.
      events_.Cancel(activate_events_[static_cast<std::size_t>(id)]);
      activate_events_[static_cast<std::size_t>(id)] = des::EventHandle{};
    }
  }
  if (static_cast<int>(jobs.size()) != submitted_) {
    throw CheckpointError(
        "checkpoint holds " + std::to_string(jobs.size()) + " jobs but " +
        std::to_string(submitted_) +
        " were submitted — submit the original workload before restoring");
  }
  ApplyAttempts(ckpt::Get(doc, "cluster"), [this](int id) -> JobState* {
    if (id < 0 || id >= static_cast<int>(jobs_.size())) return nullptr;
    return jobs_[static_cast<std::size_t>(id)].get();
  });
  const json::Value& mj = ckpt::Get(doc, "multijob");
  if (ckpt::Int(mj, "submitted") != submitted_) {
    throw CheckpointError("checkpoint submitted count differs from the "
                          "re-submitted workload");
  }
  completed_ = static_cast<int>(ckpt::Int(mj, "completed"));
  deadline_misses_ = ckpt::Int(mj, "deadline_misses");
  preemptions_ = ckpt::Int(mj, "preemptions");
  pulse_gen_ = ckpt::U64(mj, "pulse_gen");
  const auto job_at = [&](const json::Value& v, const char* what) {
    const int id = static_cast<int>(v.number);
    if (!v.is_number() || id < 0 || id >= static_cast<int>(jobs_.size())) {
      throw CheckpointError(std::string("corrupt checkpoint: bad job id in ") +
                            what);
    }
    return jobs_[static_cast<std::size_t>(id)].get();
  };
  active_.clear();
  for (const json::Value& v : ckpt::Arr(mj, "active")) {
    JobState* job = job_at(v, "active");
    active_.push_back(job);
    if (job->done) {
      // The map phase finished pre-capture; only the completion timer at
      // the modeled reduce-tail end remains.
      events_.At(job->result.makespan_sec, &MultiJobEngine::CompleteJobEvent,
                 this, des::Payload{des::PackPtr(job), 0});
    }
  }
  active_jobs_ = static_cast<int>(active_.size());
  metrics_.jobs.clear();
  for (const json::Value& v : ckpt::Arr(mj, "completed_ids")) {
    const JobState& job = *job_at(v, "completed_ids");
    JobStats stats;
    stats.job_id = job.id;
    stats.label = job.label;
    stats.pool = job.pool;
    stats.submit_sec = job.submit_time;
    stats.start_sec = job.first_start_time;
    stats.finish_sec = job.result.makespan_sec;
    stats.result = job.result;
    metrics_.jobs.push_back(std::move(stats));
  }
  if (static_cast<int>(metrics_.jobs.size()) != completed_) {
    throw CheckpointError(
        "corrupt checkpoint: completed_ids does not match completed count");
  }
  const auto& pulses = ckpt::Arr(mj, "pulses");
  pulse_next_.assign(pulses.size(), -1.0);
  for (std::size_t i = 0; i < pulses.size(); ++i) {
    pulse_next_[i] = pulses[i].number;
  }
  batch_next_ = ckpt::Num(mj, "batch_pulse");
  if (active_jobs_ > 0) {
    if (cfg_.batch_heartbeats) {
      if (batch_next_ >= 0.0) {
        events_.At(batch_next_, &MultiJobEngine::BatchTickEvent, this,
                   des::Payload{pulse_gen_, 0});
      }
    } else {
      if (pulse_next_.size() != health_.size()) {
        throw CheckpointError(
            "corrupt checkpoint: pulse table does not cover the cluster");
      }
      for (std::size_t n = 0; n < pulse_next_.size(); ++n) {
        if (pulse_next_[n] >= 0.0) {
          events_.At(pulse_next_[n], &MultiJobEngine::PulseTickEvent, this,
                     des::Payload{static_cast<std::uint64_t>(n), pulse_gen_});
        }
      }
    }
  }
  if (cfg_.metrics != nullptr) {
    const json::Value* reg = doc.Find("registry");
    if (reg != nullptr) {
      const json::Value& counters = ckpt::Get(*reg, "counters");
      const json::Value& gauges = ckpt::Get(*reg, "gauges");
      const json::Value& dists = ckpt::Get(*reg, "distributions");
      if (!counters.is_object() || !gauges.is_object() ||
          !dists.is_object()) {
        throw CheckpointError("corrupt checkpoint: registry sections must "
                              "be objects");
      }
      for (const auto& [name, v] : counters.object) {
        cfg_.metrics->counter(name).Set(static_cast<std::int64_t>(v.number));
      }
      for (const auto& [name, v] : gauges.object) {
        cfg_.metrics->gauge(name).Set(v.number);
      }
      for (const auto& [name, v] : dists.object) {
        std::vector<double> samples;
        for (const json::Value& s : ckpt::Arr(v, "samples")) {
          samples.push_back(s.number);
        }
        cfg_.metrics->distribution(name).RestoreState(
            std::move(samples), ckpt::Int(v, "count"), ckpt::Num(v, "sum"),
            ckpt::Num(v, "min"), ckpt::Num(v, "max"), ckpt::Int(v, "cap"),
            ckpt::U64(v, "rng"));
      }
    }
  }
  // Committed-work replay for functional sources: re-run the maps that
  // committed (or are in flight) pre-capture so the source's cached
  // results cover them at FinalOutput time. Timing is discarded — the
  // committed durations/bytes are already in the overlaid state — so this
  // reconstructs answers, never re-does modeled work. Pure no-op for
  // calibrated sources. Jobs already done extracted FinalOutput into
  // result.final_output pre-capture and need nothing.
  for (const auto& jp : jobs_) {
    JobState& job = *jp;
    if (job.done) continue;
    for (std::size_t t = 0; t < job.task_state.size(); ++t) {
      if (job.task_state[t] == hadoop::TaskState::kDone ||
          job.task_state[t] == hadoop::TaskState::kRunning) {
        job.source->MapTask(static_cast<int>(t), false);
      }
    }
  }
  restored_seq_ = seq;
  checkpoint_seq_ = seq;
  restored_at_ = time;
}

}  // namespace hd::multijob
