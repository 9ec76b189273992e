#include "hadoop/cluster_core.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hd::hadoop {

void ClusterConfig::Validate() const {
  // Collect every violation and report them in one CheckError (the
  // translator::Translate convention): a misconfigured sweep surfaces all
  // of its problems in a single run.
  std::vector<std::string> violations;
  auto require = [&violations](bool ok, std::string msg) {
    if (!ok) violations.push_back(std::move(msg));
  };
  require(num_slaves > 0, "cluster needs at least one slave");
  require(map_slots_per_node > 0,
          "each slave needs at least one CPU map slot");
  require(reduce_slots_per_node >= 0,
          "reduce_slots_per_node must be non-negative");
  require(gpus_per_node >= 0, "gpus_per_node must be non-negative");
  require(heartbeat_sec > 0.0, "heartbeat_sec must be positive");
  require(network_bytes_per_sec > 0.0,
          "network_bytes_per_sec must be positive");
  require(reduce_slowstart >= 0.0 && reduce_slowstart <= 1.0,
          "reduce_slowstart must be a fraction in [0, 1]");
  require(trace_pid_base >= 0, "trace_pid_base must be non-negative");
  require(heartbeat_expiry_sec > heartbeat_sec,
          "heartbeat_expiry_sec must exceed the heartbeat interval or "
          "every tracker expires between its own heartbeats");
  require(max_task_attempts >= 1,
          "max_task_attempts must allow at least one attempt");
  require(max_gpu_attempts >= 1,
          "max_gpu_attempts must allow at least one GPU attempt");
  require(blacklist_task_failures >= 1,
          "blacklist_task_failures must be at least 1");
  require(retry_backoff_sec >= 0.0, "retry_backoff_sec must be non-negative");
  require(speculation_slowdown > 1.0,
          "speculation_slowdown must exceed 1 (a straggler is slower "
          "than the mean, not faster)");
  require(des_backend == "calendar" || des_backend == "heap",
          "des_backend '" + des_backend +
              "' unknown (valid: " + des::kBackendNames + ")");
  require(checkpoint_interval_sec >= 0.0,
          "checkpoint_interval_sec must be non-negative (0 = off)");
  require(stop_at_checkpoint >= 0, "stop_at_checkpoint must be non-negative");
  require(stop_at_checkpoint == 0 || checkpoint_interval_sec > 0.0,
          "stop_at_checkpoint requires a positive checkpoint_interval_sec "
          "(there is no checkpoint to stop at otherwise)");
  require(preemption_budget >= 0, "preemption_budget must be non-negative");
  // Upper bound only when num_slaves itself is valid — an invalid slave
  // count already has its own violation, no need to cascade.
  require(min_tracker_floor >= 0 &&
              (num_slaves <= 0 || min_tracker_floor <= num_slaves),
          "min_tracker_floor must lie in [0, num_slaves]");
  if (!node_speed_factors.empty()) {
    require(static_cast<int>(node_speed_factors.size()) == num_slaves,
            "node_speed_factors must have one entry per slave");
    for (double f : node_speed_factors) {
      if (!(f > 0.0)) {
        require(false, "node speed factors must be positive");
        break;
      }
    }
  }
  if (violations.empty()) return;
  std::string msg = "invalid ClusterConfig (" +
                    std::to_string(violations.size()) + " violation" +
                    (violations.size() == 1 ? "" : "s") + "):";
  for (const std::string& v : violations) msg += "\n  - " + v;
  HD_CHECK_MSG(false, msg);
}

void ValidateClusterConfig(const ClusterConfig& cfg) { cfg.Validate(); }

namespace {
// Validates before ClusterCore's EventQueue member is constructed from
// cfg_.des_backend, so an unknown backend is reported alongside every
// other violation instead of throwing from the queue factory first.
ClusterConfig Validated(ClusterConfig cfg) {
  cfg.Validate();
  return cfg;
}
}  // namespace

ClusterCore::ClusterCore(ClusterConfig cfg)
    : cfg_(Validated(std::move(cfg))), events_(cfg_.des_backend) {
  nodes_.resize(static_cast<std::size_t>(cfg_.num_slaves));
  for (auto& n : nodes_) {
    n.free_cpu = cfg_.map_slots_per_node;
    n.free_gpu = cfg_.gpus_per_node;
  }
  health_.resize(static_cast<std::size_t>(cfg_.num_slaves));
  node_running_.resize(static_cast<std::size_t>(cfg_.num_slaves));
  lost_tasks_.resize(static_cast<std::size_t>(cfg_.num_slaves));
  recover_events_.resize(static_cast<std::size_t>(cfg_.num_slaves));
  if (cfg_.sink != nullptr) {
    cfg_.sink->NameProcess(cfg_.trace_pid_base, "jobtracker");
    free_cpu_lanes_.resize(nodes_.size());
    free_gpu_lanes_.resize(nodes_.size());
    for (int node = 0; node < cfg_.num_slaves; ++node) {
      cfg_.sink->NameProcess(cfg_.trace_pid_base + node + 1,
                             "node" + std::to_string(node));
      cfg_.sink->NameThread(NodeTrack(node, 0), "tasktracker");
      auto& cpu = free_cpu_lanes_[static_cast<std::size_t>(node)];
      auto& gpu = free_gpu_lanes_[static_cast<std::size_t>(node)];
      // Stored highest-first so acquiring from the back hands out the
      // lowest free tid (tasks fill rows top-down in the viewer).
      for (int s = cfg_.map_slots_per_node; s >= 1; --s) {
        cfg_.sink->NameThread(NodeTrack(node, s),
                              "cpu" + std::to_string(s - 1));
        cpu.push_back(s);
      }
      for (int g = cfg_.gpus_per_node; g >= 1; --g) {
        const int tid = cfg_.map_slots_per_node + g;
        cfg_.sink->NameThread(NodeTrack(node, tid),
                              "gpu" + std::to_string(g - 1));
        gpu.push_back(tid);
      }
    }
  }
}

void ClusterCore::EmitHeartbeat(int node_id) {
  if (cfg_.sink == nullptr) return;
  const NodeSlots& n = nodes_[static_cast<std::size_t>(node_id)];
  cfg_.sink->Instant("hadoop", "heartbeat", NodeTrack(node_id, 0),
                     events_.now(),
                     {trace::Arg::Int("free_cpu", n.free_cpu),
                      trace::Arg::Int("free_gpu", n.free_gpu)});
}

void ClusterCore::InitJob(JobState& job) {
  HD_CHECK(job.source != nullptr);
  if (job.fs != nullptr) {
    HD_CHECK_MSG(job.fs->NumSplits(job.input_path) ==
                     job.source->num_map_tasks(),
                 "input file split count does not match the task source");
  }
  job.remaining_maps = job.source->num_map_tasks();
  job.pending.resize(static_cast<std::size_t>(job.remaining_maps));
  for (int i = 0; i < job.remaining_maps; ++i) job.pending[i] = i;
  // Sized to the full tracker array, not num_slaves: trackers joined at
  // runtime index past the initial set.
  job.node_stats.assign(nodes_.size(), {});
  const auto n = static_cast<std::size_t>(job.remaining_maps);
  job.task_state.assign(n, TaskState::kPending);
  job.attempts_started.assign(n, 0);
  job.attempts_failed.assign(n, 0);
  job.gpu_faults.assign(n, 0);
  job.cpu_only.assign(n, 0);
  job.committed_node.assign(n, -1);
  job.committed_bytes.assign(n, 0);
  job.retry_at.assign(n, -1.0);
  job.live_attempts.assign(n, 0);
  job.attempt_ids.clear();
}

sched::NodeSched ClusterCore::SchedView(const JobState& job,
                                        int node_id) const {
  const NodeSlots& n = nodes_[static_cast<std::size_t>(node_id)];
  const bool gpu_blind = job.policy == sched::Policy::kCpuOnly;
  sched::NodeSched v;
  v.free_cpu_slots = n.free_cpu;
  v.free_gpu_slots = gpu_blind ? 0 : n.free_gpu;
  v.num_gpus = gpu_blind ? 0 : cfg_.gpus_per_node;
  v.ave_speedup =
      job.node_stats[static_cast<std::size_t>(node_id)].AveSpeedup();
  return v;
}

int ClusterCore::HeartbeatCap(const JobState& job, int node_id) const {
  return sched::MaxTasksThisHeartbeat(
      job.policy, SchedView(job, node_id),
      static_cast<int>(job.pending.size()), job.max_speedup, cfg_.num_slaves);
}

bool ClusterCore::NodeHasUsableSlot(const JobState& job, int node_id) const {
  const NodeSlots& n = nodes_[static_cast<std::size_t>(node_id)];
  if (n.free_cpu > 0) return true;
  return job.policy != sched::Policy::kCpuOnly && n.free_gpu > 0;
}

bool ClusterCore::NodeSchedulable(int node_id) const {
  const NodeHealth& h = health_[static_cast<std::size_t>(node_id)];
  return h.member && !h.departed && !h.draining && h.alive && !h.blacklisted;
}

bool ClusterCore::HeartbeatDelivered(int node_id) {
  if (index_audit_ != nullptr) AuditIndex(node_id);
  NodeHealth& h = health_[static_cast<std::size_t>(node_id)];
  // A tracker that never joined or already left does not heartbeat.
  if (!h.member || h.departed) return false;
  if (cfg_.faults == nullptr) return true;
  if (!h.alive) return false;
  ++h.heartbeat_seq;
  if (cfg_.faults->DropHeartbeat(node_id, h.heartbeat_seq)) {
    ++heartbeats_dropped_;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("fault.heartbeats_dropped").Add(1);
    }
    if (cfg_.sink != nullptr) {
      cfg_.sink->Instant("fault", "heartbeat_drop", NodeTrack(node_id, 0),
                         events_.now(),
                         {trace::Arg::Int("seq", h.heartbeat_seq)});
    }
    return false;
  }
  h.last_heartbeat_sec = events_.now();
  lease_floor_ = std::min(lease_floor_, h.last_heartbeat_sec);
  if (h.lost) {
    // A tracker the JobTracker gave up on is heartbeating again: it
    // re-registers as a fresh tracker with a clean failure record
    // (whatever it was running was already re-enqueued at expiry).
    h.lost = false;
    h.blacklisted = false;
    h.failed_attempts = 0;
    if (cfg_.sink != nullptr) {
      cfg_.sink->Instant("fault", "node_reregister", NodeTrack(node_id, 0),
                         events_.now(), {});
    }
  }
  CheckExpiry();
  return true;
}

void ClusterCore::CrashEvent(void* ctx, const des::Payload& p) {
  auto* core = static_cast<ClusterCore*>(ctx);
  core->CrashNode(fault::UnpackNodeCrash(p.u0, p.u1, core->events_.now()));
}

void ClusterCore::RecoverEvent(void* ctx, const des::Payload& p) {
  static_cast<ClusterCore*>(ctx)->RecoverNode(static_cast<int>(p.u0));
}

void ClusterCore::AttemptDoneEvent(void* ctx, const des::Payload& p) {
  static_cast<ClusterCore*>(ctx)->OnAttemptDone(
      static_cast<std::int64_t>(p.u0));
}

void ClusterCore::AttemptFailedEvent(void* ctx, const des::Payload& p) {
  static_cast<ClusterCore*>(ctx)->OnAttemptFailed(
      static_cast<std::int64_t>(p.u0));
}

void ClusterCore::RetryTimerEvent(void* ctx, const des::Payload& p) {
  auto* core = static_cast<ClusterCore*>(ctx);
  auto* job = des::UnpackPtr<JobState>(p.u0);
  const int task = static_cast<int>(p.u1);
  if (job->task_state[static_cast<std::size_t>(task)] ==
      TaskState::kRetryWait) {
    core->RequeueTask(*job, task);
  }
}

void ClusterCore::SampleEvent(void* ctx, const des::Payload& p) {
  auto* core = static_cast<ClusterCore*>(ctx);
  --core->aux_pending_;
  core->SampleTick(static_cast<std::int64_t>(p.u0));
}

void ClusterCore::JoinEvent(void* ctx, const des::Payload& p) {
  auto* core = static_cast<ClusterCore*>(ctx);
  MembershipOp& op = core->membership_plan_[static_cast<std::size_t>(p.u0)];
  op.fired = true;
  core->AdmitNode(op.node);
}

void ClusterCore::LeaveEvent(void* ctx, const des::Payload& p) {
  auto* core = static_cast<ClusterCore*>(ctx);
  MembershipOp& op = core->membership_plan_[static_cast<std::size_t>(p.u0)];
  op.fired = true;
  core->LeaveNow(op.node, op.drain);
}

void ClusterCore::CheckpointEvent(void* ctx, const des::Payload& p) {
  static_cast<ClusterCore*>(ctx)->CheckpointTick(static_cast<int>(p.u0));
}

// --- Runtime cluster resize -----------------------------------------------

void ClusterCore::GrowArraysTo(int n) {
  const auto count = static_cast<std::size_t>(n);
  if (nodes_.size() >= count) return;
  while (nodes_.size() < count) {
    nodes_.emplace_back();  // zero slots until admitted
    NodeHealth h;
    h.member = false;  // not registered until the join event fires
    h.alive = false;
    health_.push_back(h);
  }
  node_running_.resize(count);
  lost_tasks_.resize(count);
  recover_events_.resize(count);
  if (cfg_.sink != nullptr) {
    free_cpu_lanes_.resize(count);
    free_gpu_lanes_.resize(count);
  }
}

int ClusterCore::ScheduleJoin(double when) {
  HD_CHECK_MSG(when >= events_.now(), "cannot schedule a join in the past");
  const int node = static_cast<int>(nodes_.size());
  ++joins_scheduled_;
  membership_used_ = true;
  GrowArraysTo(node + 1);
  MembershipOp op;
  op.kind = MembershipOp::Kind::kJoin;
  op.when = when;
  op.node = node;
  const auto idx = static_cast<std::uint64_t>(membership_plan_.size());
  membership_plan_.push_back(op);
  membership_plan_.back().event =
      events_.At(when, &ClusterCore::JoinEvent, this, des::Payload{idx, 0});
  return node;
}

void ClusterCore::ScheduleLeave(double when, int node, bool drain) {
  HD_CHECK_MSG(when >= events_.now(), "cannot schedule a leave in the past");
  HD_CHECK_MSG(node >= 0 && node < static_cast<int>(nodes_.size()),
               "ScheduleLeave: unknown tracker id");
  membership_used_ = true;
  MembershipOp op;
  op.kind = MembershipOp::Kind::kLeave;
  op.when = when;
  op.node = node;
  op.drain = drain;
  const auto idx = static_cast<std::uint64_t>(membership_plan_.size());
  membership_plan_.push_back(op);
  membership_plan_.back().event =
      events_.At(when, &ClusterCore::LeaveEvent, this, des::Payload{idx, 0});
}

int ClusterCore::registered_nodes() const {
  int n = 0;
  for (const NodeHealth& h : health_) {
    if (h.member && !h.departed) ++n;
  }
  return n;
}

void ClusterCore::AdmitNode(int node_id) {
  const auto i = static_cast<std::size_t>(node_id);
  NodeHealth& h = health_[i];
  HD_CHECK(!h.member && !h.departed);
  h.member = true;
  h.alive = true;
  h.lost = false;
  h.joined_sec = events_.now();
  h.last_heartbeat_sec = events_.now();
  lease_floor_ = std::min(lease_floor_, h.last_heartbeat_sec);
  nodes_[i].free_cpu = cfg_.map_slots_per_node;
  nodes_[i].free_gpu = cfg_.gpus_per_node;
  ++nodes_joined_;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("cluster.nodes_joined").Add(1);
  }
  if (cfg_.sink != nullptr) {
    cfg_.sink->NameProcess(NodeTrack(node_id, 0).pid,
                           "node" + std::to_string(node_id));
    cfg_.sink->NameThread(NodeTrack(node_id, 0), "tasktracker");
    auto& cpu = free_cpu_lanes_[i];
    auto& gpu = free_gpu_lanes_[i];
    cpu.clear();
    gpu.clear();
    for (int s = cfg_.map_slots_per_node; s >= 1; --s) {
      cfg_.sink->NameThread(NodeTrack(node_id, s),
                            "cpu" + std::to_string(s - 1));
      cpu.push_back(s);
    }
    for (int g = cfg_.gpus_per_node; g >= 1; --g) {
      const int tid = cfg_.map_slots_per_node + g;
      cfg_.sink->NameThread(NodeTrack(node_id, tid),
                            "gpu" + std::to_string(g - 1));
      gpu.push_back(tid);
    }
    cfg_.sink->Instant("membership", "node_join", NodeTrack(node_id, 0),
                       events_.now(), {trace::Arg::Int("node", node_id)});
  }
  if (cfg_.trace != nullptr) {
    *cfg_.trace << "t=" << events_.now() << " join node=" << node_id << "\n";
  }
  OnClusterGrown(node_id);
}

void ClusterCore::LeaveNow(int node_id, bool drain) {
  const auto i = static_cast<std::size_t>(node_id);
  NodeHealth& h = health_[i];
  if (!h.member || h.departed) return;  // left (or never joined) already
  if (registered_nodes() - 1 < cfg_.min_tracker_floor) {
    ++leaves_refused_;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("cluster.leaves_refused").Add(1);
    }
    if (cfg_.sink != nullptr) {
      cfg_.sink->Instant(
          "membership", "leave_refused", NodeTrack(node_id, 0), events_.now(),
          {trace::Arg::Int("node", node_id),
           trace::Arg::Int("floor", cfg_.min_tracker_floor)});
    }
    return;
  }
  if (drain) {
    h.draining = true;
    if (cfg_.sink != nullptr) {
      cfg_.sink->Instant("membership", "drain_start", NodeTrack(node_id, 0),
                         events_.now(), {trace::Arg::Int("node", node_id)});
    }
    if (node_running_[i] == 0) DepartNode(node_id);
    return;
  }
  // Hard leave: the tracker's running attempts die with it and its
  // committed map outputs become unreachable — exactly the node-loss
  // recovery path, minus the expiry wait.
  KillAttemptsOn(node_id);
  RequeueLostTasks(node_id);
  ReexecuteCommittedMaps(node_id);
  DepartNode(node_id);
}

void ClusterCore::DepartNode(int node_id) {
  const auto i = static_cast<std::size_t>(node_id);
  NodeHealth& h = health_[i];
  if (h.departed) return;
  h.departed = true;
  h.draining = false;
  h.departed_sec = events_.now();
  // Close an open outage: departed trackers stop accruing downtime (they
  // also stop counting toward the availability denominator).
  if (!h.alive) outages_.emplace_back(h.down_since_sec, events_.now());
  h.alive = false;
  events_.Cancel(recover_events_[i]);
  recover_events_[i] = des::EventHandle{};
  h.recover_at_sec = -1.0;
  ++nodes_left_;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("cluster.nodes_left").Add(1);
  }
  if (cfg_.sink != nullptr) {
    cfg_.sink->Instant("membership", "node_leave", NodeTrack(node_id, 0),
                       events_.now(), {trace::Arg::Int("node", node_id)});
  }
  if (cfg_.trace != nullptr) {
    *cfg_.trace << "t=" << events_.now() << " leave node=" << node_id << "\n";
  }
}

void ClusterCore::StartTelemetry() {
  trace::TimeSeries* ts = cfg_.timeseries;
  if (ts == nullptr) return;
  const double cpu_slots =
      static_cast<double>(cfg_.num_slaves) * cfg_.map_slots_per_node;
  if (cpu_slots > 0.0) {
    ts->AddRateProbe(
        "cluster.cpu_util", [this] { return cpu_busy_sec_; },
        1.0 / cpu_slots);
  }
  const double gpu_slots =
      static_cast<double>(cfg_.num_slaves) * cfg_.gpus_per_node;
  if (gpu_slots > 0.0) {
    ts->AddRateProbe(
        "cluster.gpu_util", [this] { return gpu_busy_sec_; },
        1.0 / gpu_slots);
  }
  ts->AddGaugeProbe("cluster.running_attempts", [this] {
    return static_cast<double>(running_.size());
  });
  ts->AddGaugeProbe("cluster.live_trackers", [this] {
    double n = 0.0;
    for (const NodeHealth& h : health_) {
      n += (h.member && !h.departed && h.alive) ? 1.0 : 0.0;
    }
    return n;
  });
  // Availability over modeled time: the fraction of registered trackers
  // currently up (fault::FaultInjector crash plans carve this below 1.0);
  // the run-total availability gauge integrates the same signal.
  ts->AddGaugeProbe("cluster.available_frac", [this] {
    double up = 0.0;
    double reg = 0.0;
    for (const NodeHealth& h : health_) {
      if (!h.member || h.departed) continue;
      reg += 1.0;
      up += h.alive ? 1.0 : 0.0;
    }
    return reg > 0.0 ? up / reg : 1.0;
  });
  ts->AddRateProbe("des.events_per_sec", [this] {
    return static_cast<double>(events_.serviced());
  });
  if (membership_used_ && cfg_.min_tracker_floor > 0) {
    // Elastic runs alert when churn (or a refused plan) leaves fewer live
    // trackers than the configured floor. Registered only under
    // membership so static runs' alert streams are untouched.
    trace::SloRule rule;
    rule.name = "cluster.tracker_floor";
    rule.kind = trace::SloRule::Kind::kBelow;
    rule.series = "cluster.live_trackers";
    rule.threshold = static_cast<double>(cfg_.min_tracker_floor);
    rule.track = trace::Track{cfg_.trace_pid_base, 0};
    ts->slo().AddRule(rule);
  }
  if (restored_at_ >= 0.0) {
    // Warm restart: resume the tick chain after the restore point instead
    // of re-sampling from t=0 (history before the restore is not part of
    // the checkpoint — the series is observational, see DESIGN.md).
    const auto k0 = static_cast<std::int64_t>(restored_at_ /
                                              ts->sample_interval_sec());
    ++aux_pending_;
    events_.At(static_cast<double>(k0 + 1) * ts->sample_interval_sec(),
               &ClusterCore::SampleEvent, this,
               des::Payload{static_cast<std::uint64_t>(k0 + 1), 0});
  } else {
    SampleTick(0);
  }
}

void ClusterCore::SampleTick(std::int64_t k) {
  trace::TimeSeries* ts = cfg_.timeseries;
  if (k > 0) ts->Sample(events_.now(), cfg_.metrics, cfg_.sink);
  // Re-arm while the simulation still has events of its own: when the
  // queue holds nothing but auxiliary chains (this sampler, checkpoint
  // ticks), the run is over and the queue must drain. Tick times are
  // k * interval — multiplication, not accumulation, so a million ticks
  // carry no floating-point drift.
  if (k == 0 ||
      events_.pending() > static_cast<std::size_t>(aux_pending_)) {
    ++aux_pending_;
    events_.At(static_cast<double>(k + 1) * ts->sample_interval_sec(),
               &ClusterCore::SampleEvent, this,
               des::Payload{static_cast<std::uint64_t>(k + 1), 0});
  }
}

void ClusterCore::ScheduleFaultPlan() {
  if (cfg_.faults == nullptr) return;
  // The crash plan covers the initial trackers only; runtime-joined
  // trackers are outside the injector's plan. On a warm restart, crashes
  // at or before the restore point already happened — their outage state
  // (and any pending recovery) came back with the checkpoint.
  for (const fault::NodeCrash& crash : cfg_.faults->CrashPlan(cfg_.num_slaves)) {
    if (restored_at_ >= 0.0 && crash.at_sec <= restored_at_) continue;
    const auto [u0, u1] = fault::PackNodeCrash(crash);
    events_.At(crash.at_sec, &ClusterCore::CrashEvent, this,
               des::Payload{u0, u1});
  }
}

void ClusterCore::CrashNode(const fault::NodeCrash& crash) {
  NodeHealth& h = health_[static_cast<std::size_t>(crash.node)];
  if (!h.member || h.departed) return;  // left before the planned crash
  if (!h.alive) return;  // CrashPlan leaves restart gaps; defensive anyway
  h.alive = false;
  h.down_since_sec = events_.now();
  ++nodes_crashed_;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("fault.node_crashes").Add(1);
  }
  if (cfg_.sink != nullptr) {
    cfg_.sink->Instant("fault", "node_crash", NodeTrack(crash.node, 0),
                       events_.now(),
                       {trace::Arg::Int("permanent", crash.permanent ? 1 : 0)});
  }
  if (cfg_.trace != nullptr) {
    *cfg_.trace << "t=" << events_.now() << " crash node=" << crash.node
                << (crash.permanent ? " permanent" : " transient") << "\n";
  }
  // The tracker process dies with its slots' contents: every running
  // attempt is gone. The JobTracker only learns of it at heartbeat expiry
  // (DeclareLost), which re-enqueues the work.
  KillAttemptsOn(crash.node);
  if (h.departed) return;  // a draining tracker departed as its slots freed
  if (!crash.permanent) {
    h.recover_at_sec = events_.now() + crash.down_sec;
    recover_events_[static_cast<std::size_t>(crash.node)] = events_.After(
        crash.down_sec, &ClusterCore::RecoverEvent, this,
        des::Payload{static_cast<std::uint64_t>(crash.node), 0});
  }
}

void ClusterCore::RecoverNode(int node_id) {
  NodeHealth& h = health_[static_cast<std::size_t>(node_id)];
  if (h.departed) return;  // defensive: departure cancels the event
  HD_CHECK(!h.alive);
  recover_events_[static_cast<std::size_t>(node_id)] = des::EventHandle{};
  h.recover_at_sec = -1.0;
  outages_.emplace_back(h.down_since_sec, events_.now());
  h.alive = true;
  h.lost = false;
  h.blacklisted = false;
  h.failed_attempts = 0;
  h.last_heartbeat_sec = events_.now();
  lease_floor_ = std::min(lease_floor_, h.last_heartbeat_sec);
  ++nodes_recovered_;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("fault.node_recoveries").Add(1);
  }
  if (cfg_.sink != nullptr) {
    cfg_.sink->Instant("fault", "node_recover", NodeTrack(node_id, 0),
                       events_.now(), {});
  }
  // The restarted tracker re-registers with empty slots. If the outage was
  // shorter than the expiry window the JobTracker never declared it lost,
  // so the attempts that died in the crash were still "running" on the
  // books — reschedule them now, exactly as a re-registration does in
  // Hadoop. (After an expiry, DeclareLost already drained this list.)
  RequeueLostTasks(node_id);
  OnNodeRecovered(node_id);
}

void ClusterCore::CheckExpiry() {
  // Subtraction rounds monotonically, so now - lease <= now - lease_floor_
  // for every live lease: within the window, no tracker can have expired.
  if (events_.now() - lease_floor_ <= cfg_.heartbeat_expiry_sec) return;
  double floor = std::numeric_limits<double>::infinity();
  for (int node = 0; node < static_cast<int>(health_.size()); ++node) {
    NodeHealth& h = health_[static_cast<std::size_t>(node)];
    if (!h.member || h.departed) continue;
    if (h.lost) continue;
    if (events_.now() - h.last_heartbeat_sec > cfg_.heartbeat_expiry_sec) {
      DeclareLost(node);
    } else {
      floor = std::min(floor, h.last_heartbeat_sec);
    }
  }
  lease_floor_ = floor;
}

void ClusterCore::DeclareLost(int node_id) {
  NodeHealth& h = health_[static_cast<std::size_t>(node_id)];
  h.lost = true;
  ++nodes_lost_;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("hadoop.nodes_expired").Add(1);
  }
  if (cfg_.sink != nullptr) {
    cfg_.sink->Instant("fault", "node_expired", NodeTrack(node_id, 0),
                       events_.now(), {});
  }
  if (cfg_.trace != nullptr) {
    *cfg_.trace << "t=" << events_.now() << " expired node=" << node_id
                << "\n";
  }
  // If the tracker is actually alive (its heartbeats were dropped), the
  // JobTracker still kills its attempts — same as real Hadoop, where a
  // tracker declared lost has its tasks rescheduled even if it later
  // turns out to be healthy.
  KillAttemptsOn(node_id);
  // Re-enqueue the in-flight work that died with the tracker.
  RequeueLostTasks(node_id);
  ReexecuteCommittedMaps(node_id);
}

void ClusterCore::ReexecuteCommittedMaps(int node_id) {
  // Map outputs committed on the dead (or hard-departed) tracker lived on
  // its local disk: jobs whose reducers still need them must re-execute
  // those maps.
  VisitActiveJobs([this, node_id](JobState& job) {
    if (job.done || job.source->num_reducers() == 0) return;
    const int total = job.source->num_map_tasks();
    for (int task = 0; task < total; ++task) {
      const auto t = static_cast<std::size_t>(task);
      if (job.committed_node[t] != node_id) continue;
      job.committed_node[t] = -1;
      job.result.total_map_output_bytes -= job.committed_bytes[t];
      job.committed_bytes[t] = 0;
      job.task_state[t] = TaskState::kPending;
      job.pending.push_back(task);
      ++job.remaining_maps;
      --job.maps_done;
      ++job.result.maps_reexecuted;
      if (cfg_.metrics != nullptr) {
        cfg_.metrics->counter("hadoop.maps_reexecuted").Add(1);
      }
      if (cfg_.sink != nullptr) {
        cfg_.sink->Instant("fault", "map_reexecute", JobTrack(job),
                           events_.now(),
                           {trace::Arg::Int("job", job.id),
                            trace::Arg::Int("task", task),
                            trace::Arg::Int("lost_node", node_id)});
      }
    }
  });
}

void ClusterCore::RequeueLostTasks(int node_id) {
  auto& lost = lost_tasks_[static_cast<std::size_t>(node_id)];
  for (auto& [job, task] : lost) {
    if (job->done) continue;
    const auto t = static_cast<std::size_t>(task);
    if (job->task_state[t] != TaskState::kRunning) continue;
    if (HasRunningAttempt(*job, task)) continue;  // speculative twin lives
    RequeueTask(*job, task);
  }
  lost.clear();
}

void ClusterCore::KillAttemptsOn(int node_id) {
  std::vector<std::int64_t> ids;
  for (const auto& [id, at] : running_) {
    if (at.node == node_id) ids.push_back(id);
  }
  for (std::int64_t id : ids) {
    const Attempt& at = running_.at(id);
    lost_tasks_[static_cast<std::size_t>(node_id)].emplace_back(at.job,
                                                                at.task);
    KillAttempt(id, "node_lost");
  }
}

void ClusterCore::KillAttempt(std::int64_t id, const char* why) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  const Attempt at = EraseAttempt(it);
  events_.Cancel(at.outcome_event);
  JobState& job = *at.job;
  const double elapsed = events_.now() - at.start_sec;
  if (cfg_.sink != nullptr) {
    trace::Args args = {trace::Arg::Int("job", job.id),
                        trace::Arg::Int("task", at.task),
                        trace::Arg::Str("label", job.label),
                        trace::Arg::Float("duration_sec", elapsed),
                        trace::Arg::Int("killed", 1),
                        trace::Arg::Str("reason", why)};
    if (at.index > 0) args.push_back(trace::Arg::Int("attempt", at.index));
    if (at.speculative) args.push_back(trace::Arg::Int("speculative", 1));
    if (at.restored) args.push_back(trace::Arg::Int("restored", 1));
    cfg_.sink->Span("task", at.on_gpu ? "gpu_map" : "cpu_map",
                    NodeTrack(at.node, at.lane), at.start_sec, elapsed, args);
  }
  if (cfg_.trace != nullptr) {
    *cfg_.trace << "t=" << events_.now();
    if (trace_job_ids_) *cfg_.trace << " job=" << job.id;
    *cfg_.trace << " kill task=" << at.task << " node=" << at.node << " ("
                << why << ")\n";
  }
  if (at.on_gpu) {
    gpu_busy_sec_ += elapsed;
  } else {
    cpu_busy_sec_ += elapsed;
  }
  FreeSlot(at.node, at.on_gpu, at.lane);
  --job.running_tasks;
  ++job.result.killed_attempts;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("hadoop.killed_attempts").Add(1);
  }
}

bool ClusterCore::IsLocal(const JobState& job, int node_id, int task) const {
  if (job.fs == nullptr) return true;
  return job.fs->Split(job.input_path, task).IsLocalTo(node_id);
}

std::vector<int> ClusterCore::PickTasks(JobState& job, int node_id,
                                        int max_tasks) {
  std::vector<int> picked;
  if (max_tasks <= 0) return picked;
  // Pass 1: data-local splits.
  for (auto it = job.pending.begin();
       it != job.pending.end() &&
       static_cast<int>(picked.size()) < max_tasks;) {
    if (IsLocal(job, node_id, *it)) {
      picked.push_back(*it);
      it = job.pending.erase(it);
    } else {
      ++it;
    }
  }
  // Pass 2: any split.
  while (static_cast<int>(picked.size()) < max_tasks &&
         !job.pending.empty()) {
    picked.push_back(job.pending.front());
    job.pending.erase(job.pending.begin());
  }
  for (int task : picked) {
    job.task_state[static_cast<std::size_t>(task)] = TaskState::kRunning;
  }
  return picked;
}

void ClusterCore::PlaceTask(JobState& job, int node_id, int task,
                            double maps_remaining_per_node) {
  NodeSlots& node = nodes_[static_cast<std::size_t>(node_id)];
  const sched::NodeSched view = SchedView(job, node_id);
  const bool demoted = job.cpu_only[static_cast<std::size_t>(task)] != 0;
  const bool want_gpu =
      !demoted && sched::PlaceOnGpu(job.policy, view, maps_remaining_per_node);
  if (cfg_.sink != nullptr && !demoted &&
      job.policy == sched::Policy::kTail &&
      sched::TailForces(view, maps_remaining_per_node)) {
    // Algorithm 2's forced-GPU decision, with the inputs that produced it.
    const trace::Args args = {
        trace::Arg::Int("job", job.id),
        trace::Arg::Int("task", task),
        trace::Arg::Float("maps_remaining_per_node", maps_remaining_per_node),
        trace::Arg::Float("ave_speedup", view.ave_speedup),
        trace::Arg::Int("num_gpus", view.num_gpus),
        trace::Arg::Int("free_cpu", view.free_cpu_slots),
        trace::Arg::Int("free_gpu", view.free_gpu_slots)};
    if (!job.tail_onset_traced) {
      job.tail_onset_traced = true;
      cfg_.sink->Instant("sched", "tail_onset", JobTrack(job), events_.now(),
                         args);
    }
    cfg_.sink->Instant("sched", "forced_gpu", NodeTrack(node_id, 0),
                       events_.now(), args);
  }
  if (want_gpu) {
    if (node.free_gpu > 0) {
      StartMap(job, node_id, task, /*on_gpu=*/true);
    } else {
      // Tail forcing with every local GPU busy: hand the task back so the
      // next TaskTracker with an idle GPU picks it up, rather than queueing
      // behind this node's GPU.
      ++gpu_bounces_;
      if (cfg_.metrics != nullptr) {
        cfg_.metrics->counter("hadoop.gpu_bounces").Add(1);
      }
      if (cfg_.sink != nullptr) {
        cfg_.sink->Instant("sched", "gpu_bounce", NodeTrack(node_id, 0),
                           events_.now(),
                           {trace::Arg::Int("job", job.id),
                            trace::Arg::Int("task", task)});
      }
      job.task_state[static_cast<std::size_t>(task)] = TaskState::kPending;
      job.pending.insert(job.pending.begin(), task);
    }
    return;
  }
  if (node.free_cpu > 0) {
    StartMap(job, node_id, task, /*on_gpu=*/false);
  } else if (!demoted && job.policy != sched::Policy::kCpuOnly &&
             node.free_gpu > 0) {
    StartMap(job, node_id, task, /*on_gpu=*/true);
  } else {
    // No capacity after all (tail cap raced with completions): put back.
    job.task_state[static_cast<std::size_t>(task)] = TaskState::kPending;
    job.pending.insert(job.pending.begin(), task);
  }
}

void ClusterCore::HandleGpuLaunchFailure(JobState& job, int node_id, int task,
                                         bool speculative, bool injected_oom) {
  NodeSlots& node = nodes_[static_cast<std::size_t>(node_id)];
  // §5.1: the failure is reported to the TaskTracker, the GPU driver is
  // revived, and the task is rescheduled — here directly onto a CPU slot
  // when one is free.
  ++job.result.gpu_failures;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("hadoop.gpu_failures").Add(1);
    if (injected_oom) cfg_.metrics->counter("fault.gpu_oom").Add(1);
  }
  if (cfg_.sink != nullptr) {
    trace::Args args = {trace::Arg::Int("job", job.id),
                        trace::Arg::Int("task", task)};
    if (injected_oom) args.push_back(trace::Arg::Int("oom", 1));
    cfg_.sink->Instant("hadoop", "gpu_failure", NodeTrack(node_id, 0),
                       events_.now(), args);
  }
  const auto t = static_cast<std::size_t>(task);
  if (++job.gpu_faults[t] >= cfg_.max_gpu_attempts && job.cpu_only[t] == 0) {
    // The GPU-failure rescheduling loop is bounded: after max_gpu_attempts
    // faults the task is pinned to CPU slots, even under tail forcing.
    job.cpu_only[t] = 1;
    ++job.result.gpu_demotions;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("hadoop.gpu_demotions").Add(1);
    }
    if (cfg_.sink != nullptr) {
      cfg_.sink->Instant("hadoop", "gpu_demotion", NodeTrack(node_id, 0),
                         events_.now(),
                         {trace::Arg::Int("job", job.id),
                          trace::Arg::Int("task", task),
                          trace::Arg::Int("gpu_faults", job.gpu_faults[t])});
    }
  }
  if (speculative) return;  // the original attempt is still running
  if (node.free_cpu > 0) {
    StartMap(job, node_id, task, /*on_gpu=*/false);
  } else {
    job.task_state[t] = TaskState::kPending;
    job.pending.insert(job.pending.begin(), task);
  }
}

void ClusterCore::StartMap(JobState& job, int node_id, int task, bool on_gpu,
                           bool speculative) {
  NodeSlots& node = nodes_[static_cast<std::size_t>(node_id)];
  const auto t = static_cast<std::size_t>(task);
  const int attempt_index = job.attempts_started[t]++;
  fault::AttemptOutcome outcome = fault::AttemptOutcome::kOk;
  if (cfg_.faults != nullptr) {
    outcome = cfg_.faults->DrawAttempt(job.id, task, attempt_index, on_gpu);
  }
  MapTaskTiming timing;
  if (on_gpu) {
    if (outcome == fault::AttemptOutcome::kDeviceOom) {
      HandleGpuLaunchFailure(job, node_id, task, speculative,
                             /*injected_oom=*/true);
      return;
    }
    try {
      timing = job.source->MapTask(task, /*on_gpu=*/true);
    } catch (const GpuTaskFailure&) {
      HandleGpuLaunchFailure(job, node_id, task, speculative,
                             /*injected_oom=*/false);
      return;
    }
    --node.free_gpu;
    ++job.result.gpu_tasks;
  } else {
    timing = job.source->MapTask(task, /*on_gpu=*/false);
    HD_CHECK(node.free_cpu > 0);
    --node.free_cpu;
    ++job.result.cpu_tasks;
  }
  ++job.running_tasks;
  job.task_state[t] = TaskState::kRunning;
  if (job.first_start_time < 0.0) job.first_start_time = events_.now();
  double duration = timing.seconds;
  if (!cfg_.node_speed_factors.empty()) {
    duration *= cfg_.node_speed_factors[static_cast<std::size_t>(node_id)];
  }
  if (cfg_.faults != nullptr) {
    duration *= cfg_.faults->SlowFactor(node_id);
  }
  if (cfg_.trace != nullptr) {
    *cfg_.trace << "t=" << events_.now();
    if (trace_job_ids_) *cfg_.trace << " job=" << job.id;
    *cfg_.trace << " start task=" << task << " node=" << node_id
                << (on_gpu ? " GPU" : " CPU") << " dur=" << timing.seconds
                << "\n";
  }
  if (!IsLocal(job, node_id, task)) {
    ++job.result.nonlocal_tasks;
    duration += static_cast<double>(job.fs->Split(job.input_path, task).bytes) /
                cfg_.network_bytes_per_sec;
  }
  int lane = -1;
  if (cfg_.sink != nullptr) {
    auto& lanes = on_gpu ? free_gpu_lanes_[static_cast<std::size_t>(node_id)]
                         : free_cpu_lanes_[static_cast<std::size_t>(node_id)];
    HD_CHECK(!lanes.empty());
    lane = lanes.back();
    lanes.pop_back();
  }
  Attempt at;
  at.id = next_attempt_id_++;
  at.job = &job;
  at.task = task;
  at.index = attempt_index;
  at.node = node_id;
  at.on_gpu = on_gpu;
  at.speculative = speculative;
  at.start_sec = events_.now();
  at.duration = duration;
  at.output_bytes = timing.output_bytes;
  at.lane = lane;
  const std::int64_t id = at.id;
  // The completion/failure event carries only the attempt id; its
  // generation handle lives on the registry entry, and KillAttempt
  // cancels the event outright (no dead closure left to drain).
  const des::Payload payload{static_cast<std::uint64_t>(id), 0};
  if (outcome == fault::AttemptOutcome::kFail) {
    const double fail_at =
        duration * cfg_.faults->FailPoint(job.id, task, attempt_index);
    at.will_fail = true;
    at.outcome_at = events_.now() + fail_at;
    at.outcome_event =
        events_.After(fail_at, &ClusterCore::AttemptFailedEvent, this, payload);
  } else {
    at.outcome_at = events_.now() + duration;
    at.outcome_event =
        events_.After(duration, &ClusterCore::AttemptDoneEvent, this, payload);
  }
  InsertAttempt(at);
}

void ClusterCore::MaybeSpeculate(JobState& job, int node_id) {
  if (!cfg_.speculation || job.done || !job.pending.empty()) return;
  const NodeSlots& node = nodes_[static_cast<std::size_t>(node_id)];
  if (node.free_cpu == 0 && node.free_gpu == 0) return;
  const auto [best_task, best_ratio] = SpeculationCandidate(job, node_id);
  if (best_task < 0) return;
  // Tail composition: a speculative attempt prefers an idle GPU — the
  // straggler is by definition in the tail, where Algorithm 2 forces GPUs.
  const bool on_gpu = job.policy != sched::Policy::kCpuOnly &&
                      node.free_gpu > 0 &&
                      job.cpu_only[static_cast<std::size_t>(best_task)] == 0;
  if (!on_gpu && node.free_cpu == 0) return;
  ++job.result.speculative_launched;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("hadoop.speculative_launched").Add(1);
  }
  if (cfg_.sink != nullptr) {
    cfg_.sink->Instant("hadoop", "speculative_launch", NodeTrack(node_id, 0),
                       events_.now(),
                       {trace::Arg::Int("job", job.id),
                        trace::Arg::Int("task", best_task),
                        trace::Arg::Float("slowdown_ratio", best_ratio)});
  }
  StartMap(job, node_id, best_task, on_gpu, /*speculative=*/true);
}

ClusterCore::SpecCandidate ClusterCore::SpeculationCandidate(
    const JobState& job, int node_id) const {
  // Only singly-attempted tasks qualify (one speculative duplicate at
  // most), and not ones on this very node (a duplicate should not share
  // the original's failure domain). attempt_ids ascends, so the strict >
  // keeps the lowest attempt id among equal ratios.
  SpecCandidate best{-1, cfg_.speculation_slowdown};
  for (std::int64_t id : job.attempt_ids) {
    const Attempt& at = running_.find(id)->second;
    if (at.speculative || at.node == node_id) continue;
    if (job.live_attempts[static_cast<std::size_t>(at.task)] != 1) continue;
    const double mean = job.MeanDuration(at.on_gpu);
    if (mean <= 0.0) continue;
    const double ratio = (events_.now() - at.start_sec) / mean;
    if (ratio > best.ratio) best = {at.task, ratio};
  }
  return best;
}

void ClusterCore::InsertAttempt(const Attempt& at) {
  running_.emplace(at.id, at);
  JobState& job = *at.job;
  ++job.live_attempts[static_cast<std::size_t>(at.task)];
  // Ids are handed out ascending and restored in ascending order, so this
  // is an append; upper_bound keeps the list sorted regardless.
  job.attempt_ids.insert(std::upper_bound(job.attempt_ids.begin(),
                                          job.attempt_ids.end(), at.id),
                         at.id);
  ++node_running_[static_cast<std::size_t>(at.node)];
}

ClusterCore::Attempt ClusterCore::EraseAttempt(Registry::iterator it) {
  const Attempt at = it->second;
  running_.erase(it);
  JobState& job = *at.job;
  --job.live_attempts[static_cast<std::size_t>(at.task)];
  job.attempt_ids.erase(std::lower_bound(job.attempt_ids.begin(),
                                         job.attempt_ids.end(), at.id));
  --node_running_[static_cast<std::size_t>(at.node)];
  return at;
}

void ClusterCore::AuditIndex(int node_id) {
  IndexAudit& audit = *index_audit_;
  ++audit.heartbeats;
  const std::string where = "t=" + std::to_string(events_.now()) +
                            " heartbeat node=" + std::to_string(node_id) +
                            ": ";
  std::map<std::pair<const JobState*, int>, int> live;
  std::map<const JobState*, std::vector<std::int64_t>> ids;
  std::vector<int> per_node(node_running_.size(), 0);
  for (const auto& [id, at] : running_) {
    ++live[{at.job, at.task}];
    ids[at.job].push_back(id);
    ++per_node[static_cast<std::size_t>(at.node)];
  }
  for (std::size_t n = 0; n < per_node.size(); ++n) {
    if (per_node[n] != node_running_[n]) {
      audit.violations.push_back(where + "node " + std::to_string(n) +
                                 " runs " + std::to_string(per_node[n]) +
                                 " attempts, index says " +
                                 std::to_string(node_running_[n]));
    }
  }
  const auto check_job = [&](const JobState& job) {
    for (std::size_t t = 0; t < job.live_attempts.size(); ++t) {
      const auto found = live.find({&job, static_cast<int>(t)});
      const int scanned = found == live.end() ? 0 : found->second;
      if (scanned != job.live_attempts[t]) {
        audit.violations.push_back(
            where + "job " + std::to_string(job.id) + " task " +
            std::to_string(t) + " has " + std::to_string(scanned) +
            " live attempts, index says " +
            std::to_string(job.live_attempts[t]));
      }
    }
    const auto found = ids.find(&job);
    if ((found == ids.end() ? std::vector<std::int64_t>{} : found->second) !=
        job.attempt_ids) {
      audit.violations.push_back(where + "job " + std::to_string(job.id) +
                                 " attempt id list differs from the registry");
    }
  };
  for (const auto& [job, list] : ids) check_job(*job);
  VisitActiveJobs([&](JobState& job) {
    if (ids.count(&job) == 0) check_job(job);
    // Reference candidate: two passes over the whole registry with a
    // per-task attempt count.
    std::map<int, int> attempts_of;
    for (const auto& [id, at] : running_) {
      if (at.job == &job) ++attempts_of[at.task];
    }
    SpecCandidate scanned{-1, cfg_.speculation_slowdown};
    for (const auto& [id, at] : running_) {
      if (at.job != &job || at.speculative) continue;
      if (at.node == node_id) continue;
      if (attempts_of[at.task] != 1) continue;
      const double mean = job.MeanDuration(at.on_gpu);
      if (mean <= 0.0) continue;
      const double ratio = (events_.now() - at.start_sec) / mean;
      if (ratio > scanned.ratio) scanned = {at.task, ratio};
    }
    const SpecCandidate indexed = SpeculationCandidate(job, node_id);
    if (scanned.task != indexed.task || scanned.ratio != indexed.ratio) {
      audit.violations.push_back(
          where + "job " + std::to_string(job.id) +
          " speculation candidate is task " + std::to_string(scanned.task) +
          ", index says task " + std::to_string(indexed.task));
    }
  });
}

void ClusterCore::FreeSlot(int node_id, bool on_gpu, int lane) {
  NodeSlots& node = nodes_[static_cast<std::size_t>(node_id)];
  if (on_gpu) {
    ++node.free_gpu;
  } else {
    ++node.free_cpu;
  }
  if (cfg_.sink != nullptr && lane >= 0) {
    auto& lanes = on_gpu ? free_gpu_lanes_[static_cast<std::size_t>(node_id)]
                         : free_cpu_lanes_[static_cast<std::size_t>(node_id)];
    lanes.push_back(lane);
  }
  // A draining tracker departs the moment its last attempt lets go of a
  // slot (the caller has already removed that attempt from the registry).
  NodeHealth& h = health_[static_cast<std::size_t>(node_id)];
  if (h.draining && !h.departed &&
      node_running_[static_cast<std::size_t>(node_id)] == 0) {
    DepartNode(node_id);
  }
}

void ClusterCore::OnAttemptDone(std::int64_t id) {
  auto it = running_.find(id);
  if (it == running_.end()) return;  // killed while in flight
  const Attempt at = EraseAttempt(it);
  JobState& job = *at.job;
  JobNodeStats& stats = job.node_stats[static_cast<std::size_t>(at.node)];
  const auto t = static_cast<std::size_t>(at.task);
  if (cfg_.sink != nullptr) {
    trace::Args args = {trace::Arg::Int("job", job.id),
                        trace::Arg::Int("task", at.task),
                        trace::Arg::Str("label", job.label),
                        trace::Arg::Float("duration_sec", at.duration)};
    if (at.index > 0) args.push_back(trace::Arg::Int("attempt", at.index));
    if (at.speculative) args.push_back(trace::Arg::Int("speculative", 1));
    if (at.restored) args.push_back(trace::Arg::Int("restored", 1));
    cfg_.sink->Span("task", at.on_gpu ? "gpu_map" : "cpu_map",
                    NodeTrack(at.node, at.lane), at.start_sec, at.duration,
                    args);
  }
  if (cfg_.metrics != nullptr) {
    cfg_.metrics
        ->counter(at.on_gpu ? "hadoop.gpu_tasks" : "hadoop.cpu_tasks")
        .Add(1);
    cfg_.metrics
        ->distribution(at.on_gpu ? "hadoop.gpu_task_sec"
                                 : "hadoop.cpu_task_sec")
        .Record(at.duration);
  }
  if (cfg_.trace != nullptr) {
    *cfg_.trace << "t=" << events_.now();
    if (trace_job_ids_) *cfg_.trace << " job=" << job.id;
    *cfg_.trace << " finish task=" << at.task << " node=" << at.node
                << (at.on_gpu ? " GPU" : " CPU") << "\n";
  }
  if (at.on_gpu) {
    gpu_busy_sec_ += at.duration;
    stats.gpu_avg =
        (stats.gpu_avg * stats.gpu_n + at.duration) / (stats.gpu_n + 1);
    ++stats.gpu_n;
    job.gpu_dur_sum += at.duration;
    ++job.gpu_dur_n;
  } else {
    cpu_busy_sec_ += at.duration;
    stats.cpu_avg =
        (stats.cpu_avg * stats.cpu_n + at.duration) / (stats.cpu_n + 1);
    ++stats.cpu_n;
    job.cpu_dur_sum += at.duration;
    ++job.cpu_dur_n;
  }
  FreeSlot(at.node, at.on_gpu, at.lane);
  job.max_speedup = std::max(job.max_speedup, stats.AveSpeedup());
  job.result.max_observed_speedup = job.max_speedup;
  --job.running_tasks;

  // Exactly-once commit: the first attempt to finish owns the task's
  // output; any concurrent attempt is killed right here, so no later
  // completion can reach this point for the same task.
  job.task_state[t] = TaskState::kDone;
  job.committed_node[t] = at.node;
  job.committed_bytes[t] = at.output_bytes;
  job.result.total_map_output_bytes += at.output_bytes;
  --job.remaining_maps;
  ++job.maps_done;
  std::vector<std::int64_t> losers;
  if (job.live_attempts[t] != 0) {
    for (std::int64_t oid : job.attempt_ids) {
      if (running_.at(oid).task == at.task) losers.push_back(oid);
    }
  }
  for (std::int64_t oid : losers) {
    const bool loser_speculative = running_.at(oid).speculative;
    KillAttempt(oid, "lost_race");
    if (at.speculative) {
      // accounted below: the speculative attempt won
    } else if (loser_speculative) {
      ++job.result.speculative_losses;
      if (cfg_.metrics != nullptr) {
        cfg_.metrics->counter("hadoop.speculative_losses").Add(1);
      }
    }
  }
  if (at.speculative) {
    ++job.result.speculative_wins;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("hadoop.speculative_wins").Add(1);
    }
  }

  OnMapsProgress(job);
  OnTaskFinished(job, at.node);
}

void ClusterCore::OnAttemptFailed(std::int64_t id) {
  auto it = running_.find(id);
  if (it == running_.end()) return;  // killed while in flight
  const Attempt at = EraseAttempt(it);
  JobState& job = *at.job;
  const auto t = static_cast<std::size_t>(at.task);
  const double elapsed = events_.now() - at.start_sec;
  if (cfg_.sink != nullptr) {
    trace::Args args = {trace::Arg::Int("job", job.id),
                        trace::Arg::Int("task", at.task),
                        trace::Arg::Str("label", job.label),
                        trace::Arg::Float("duration_sec", elapsed),
                        trace::Arg::Int("failed", 1)};
    if (at.index > 0) args.push_back(trace::Arg::Int("attempt", at.index));
    if (at.speculative) args.push_back(trace::Arg::Int("speculative", 1));
    if (at.restored) args.push_back(trace::Arg::Int("restored", 1));
    cfg_.sink->Span("task", at.on_gpu ? "gpu_map" : "cpu_map",
                    NodeTrack(at.node, at.lane), at.start_sec, elapsed, args);
    cfg_.sink->Instant("fault", "task_fail", NodeTrack(at.node, 0),
                       events_.now(),
                       {trace::Arg::Int("job", job.id),
                        trace::Arg::Int("task", at.task),
                        trace::Arg::Int("attempt", at.index)});
  }
  if (cfg_.trace != nullptr) {
    *cfg_.trace << "t=" << events_.now();
    if (trace_job_ids_) *cfg_.trace << " job=" << job.id;
    *cfg_.trace << " fail task=" << at.task << " node=" << at.node
                << " attempt=" << at.index << "\n";
  }
  if (at.on_gpu) {
    gpu_busy_sec_ += elapsed;
  } else {
    cpu_busy_sec_ += elapsed;
  }
  FreeSlot(at.node, at.on_gpu, at.lane);
  --job.running_tasks;
  ++job.result.task_failures;
  ++job.attempts_failed[t];
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("fault.task_failures").Add(1);
  }
  // Tracker health: enough failures and the JobTracker stops trusting it —
  // unless it is the last schedulable tracker standing (blacklisting it
  // would leave pending work with nowhere to run, forever).
  NodeHealth& h = health_[static_cast<std::size_t>(at.node)];
  bool other_schedulable = false;
  for (int n = 0; n < static_cast<int>(health_.size()); ++n) {
    if (n != at.node && NodeSchedulable(n)) {
      other_schedulable = true;
      break;
    }
  }
  ++h.failed_attempts;
  if (other_schedulable &&
      h.failed_attempts >= cfg_.blacklist_task_failures && !h.blacklisted) {
    h.blacklisted = true;
    ++nodes_blacklisted_;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("hadoop.nodes_blacklisted").Add(1);
    }
    if (cfg_.sink != nullptr) {
      cfg_.sink->Instant("fault", "node_blacklisted", NodeTrack(at.node, 0),
                         events_.now(),
                         {trace::Arg::Int("failed_attempts",
                                          h.failed_attempts)});
    }
  }
  if (job.attempts_failed[t] >= cfg_.max_task_attempts) {
    throw JobFailedError("job " + std::to_string(job.id) + " task " +
                         std::to_string(at.task) + " failed " +
                         std::to_string(job.attempts_failed[t]) +
                         " attempts (max_task_attempts=" +
                         std::to_string(cfg_.max_task_attempts) + ")");
  }
  if (HasRunningAttempt(job, at.task)) return;  // a twin may still commit
  // Exponential backoff before the task becomes schedulable again.
  job.task_state[t] = TaskState::kRetryWait;
  const int shift = std::min(job.attempts_failed[t] - 1, 20);
  const double backoff =
      cfg_.retry_backoff_sec * static_cast<double>(std::int64_t{1} << shift);
  job.retry_at[t] = events_.now() + backoff;
  events_.After(backoff, &ClusterCore::RetryTimerEvent, this,
                des::Payload{des::PackPtr(&job),
                             static_cast<std::uint64_t>(at.task)});
}

void ClusterCore::RequeueTask(JobState& job, int task) {
  job.task_state[static_cast<std::size_t>(task)] = TaskState::kPending;
  job.retry_at[static_cast<std::size_t>(task)] = -1.0;
  job.pending.push_back(task);
  ++job.result.task_retries;
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("hadoop.task_retries").Add(1);
  }
}

double ClusterCore::NodeDownSeconds(double horizon_sec) const {
  double down = 0.0;
  for (const auto& [start, end] : outages_) {
    down += std::max(0.0, std::min(end, horizon_sec) - start);
  }
  for (const NodeHealth& h : health_) {
    // Departed/unjoined trackers carry alive == false without being down;
    // their (closed) outages are already in outages_.
    if (!h.member || h.departed) continue;
    if (!h.alive) down += std::max(0.0, horizon_sec - h.down_since_sec);
  }
  return down;
}

double ClusterCore::RegisteredNodeSeconds(double horizon_sec) const {
  if (!membership_used_) {
    // Static cluster: the exact expression every pre-elastic pin was
    // computed with (bit-identical, not just equal).
    return static_cast<double>(cfg_.num_slaves) * horizon_sec;
  }
  double total = 0.0;
  for (const NodeHealth& h : health_) {
    if (!h.member && h.departed_sec < 0.0) continue;  // never admitted
    const double start = h.member || h.departed ? h.joined_sec : 0.0;
    const double end =
        h.departed ? std::min(h.departed_sec, horizon_sec) : horizon_sec;
    total += std::max(0.0, end - start);
  }
  return total;
}

// --- Checkpoint machinery --------------------------------------------------

void ClusterCore::ScheduleCheckpointTicks() {
  if (cfg_.checkpoint_interval_sec <= 0.0) return;
  // A restored engine resumes the cadence after the restore point: the
  // checkpoint it came from was tick restored_seq_, so the next write is
  // restored_seq_ + 1. Fresh runs start at tick 1.
  const int k = restored_seq_ + 1;
  ++aux_pending_;
  events_.At(static_cast<double>(k) * cfg_.checkpoint_interval_sec,
             &ClusterCore::CheckpointEvent, this,
             des::Payload{static_cast<std::uint64_t>(k), 0});
}

void ClusterCore::CheckpointTick(int k) {
  checkpoint_seq_ = k;
  // The counter bumps *before* serialization so checkpoint k records k
  // writes; a restored run then continues the count exactly where the
  // original did (registry byte-identity across a kill/restore).
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("cluster.checkpoints").Add(1);
  }
  const std::string text = CheckpointToText();
  if (!cfg_.checkpoint_path.empty()) {
    ckpt::AtomicWriteFile(cfg_.checkpoint_path, text);
  }
  if (cfg_.on_checkpoint) cfg_.on_checkpoint(k, text);
  if (cfg_.sink != nullptr) {
    cfg_.sink->Instant(
        "ha", "checkpoint", trace::Track{cfg_.trace_pid_base, 0},
        events_.now(),
        {trace::Arg::Int("seq", k),
         trace::Arg::Int("bytes", static_cast<std::int64_t>(text.size()))});
  }
  if (cfg_.stop_at_checkpoint > 0 && k >= cfg_.stop_at_checkpoint) {
    // The SIGKILL-equivalent: freeze the queue mid-flight. DrainEvents
    // stops stepping, Run() returns without completing the workload.
    halted_ = true;
    return;
  }
  if (events_.pending() > static_cast<std::size_t>(aux_pending_)) {
    ++aux_pending_;
    events_.At(static_cast<double>(k + 1) * cfg_.checkpoint_interval_sec,
               &ClusterCore::CheckpointEvent, this,
               des::Payload{static_cast<std::uint64_t>(k + 1), 0});
  }
}

void ClusterCore::DrainEvents() {
  if (cfg_.checkpoint_interval_sec > 0.0 && cfg_.stop_at_checkpoint > 0) {
    while (!halted_ && events_.Step()) {
    }
  } else {
    events_.Run();
  }
}

std::string ClusterCore::CheckpointToText() {
  HD_CHECK_MSG(false,
               "checkpointing requires a multi-job engine "
               "(MultiJobEngine/StreamEngine); this engine has no "
               "checkpoint format");
  return {};
}

namespace {

void WriteIntVec(json::Writer& w, const char* key,
                 const std::vector<int>& v) {
  w.Key(key).BeginArray();
  for (int x : v) w.Int(x);
  w.EndArray();
}

void WriteDoubleVec(json::Writer& w, const char* key,
                    const std::vector<double>& v) {
  w.Key(key).BeginArray();
  for (double x : v) w.Number(x);
  w.EndArray();
}

std::vector<int> ReadIntVec(const json::Value& obj, const char* key) {
  std::vector<int> out;
  for (const json::Value& v : ckpt::Arr(obj, key)) {
    out.push_back(static_cast<int>(v.number));
  }
  return out;
}

std::vector<double> ReadDoubleVec(const json::Value& obj, const char* key) {
  std::vector<double> out;
  for (const json::Value& v : ckpt::Arr(obj, key)) out.push_back(v.number);
  return out;
}

}  // namespace

void ClusterCore::WriteClusterSection(json::Writer& w) {
  w.Key("cluster").BeginObject();
  w.Key("next_attempt_id").Int(next_attempt_id_);
  w.Key("cpu_busy_sec").Number(cpu_busy_sec_);
  w.Key("gpu_busy_sec").Number(gpu_busy_sec_);
  w.Key("gpu_bounces").Int(gpu_bounces_);
  w.Key("nodes_crashed").Int(nodes_crashed_);
  w.Key("nodes_recovered").Int(nodes_recovered_);
  w.Key("nodes_lost").Int(nodes_lost_);
  w.Key("nodes_blacklisted").Int(nodes_blacklisted_);
  w.Key("heartbeats_dropped").Int(heartbeats_dropped_);
  w.Key("nodes_joined").Int(nodes_joined_);
  w.Key("nodes_left").Int(nodes_left_);
  w.Key("leaves_refused").Int(leaves_refused_);
  w.Key("membership_used").Bool(membership_used_);
  w.Key("outages").BeginArray();
  for (const auto& [start, end] : outages_) {
    w.BeginArray().Number(start).Number(end).EndArray();
  }
  w.EndArray();
  w.Key("nodes").BeginArray();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeSlots& n = nodes_[i];
    const NodeHealth& h = health_[i];
    w.BeginObject();
    w.Key("free_cpu").Int(n.free_cpu);
    w.Key("free_gpu").Int(n.free_gpu);
    w.Key("alive").Bool(h.alive);
    w.Key("lost").Bool(h.lost);
    w.Key("blacklisted").Bool(h.blacklisted);
    w.Key("member").Bool(h.member);
    w.Key("draining").Bool(h.draining);
    w.Key("departed").Bool(h.departed);
    w.Key("last_heartbeat").Number(h.last_heartbeat_sec);
    w.Key("down_since").Number(h.down_since_sec);
    w.Key("failed_attempts").Int(h.failed_attempts);
    w.Key("heartbeat_seq").Int(h.heartbeat_seq);
    w.Key("joined").Number(h.joined_sec);
    w.Key("departed_at").Number(h.departed_sec);
    w.Key("recover_at").Number(h.recover_at_sec);
    w.EndObject();
  }
  w.EndArray();
  // running_ iterates in ascending attempt id — the original event
  // insertion order, which the restore replays to keep same-time ties
  // deterministic.
  w.Key("attempts").BeginArray();
  for (const auto& [id, at] : running_) {
    w.BeginObject();
    w.Key("id").Int(id);
    w.Key("job").Int(at.job->id);
    w.Key("task").Int(at.task);
    w.Key("index").Int(at.index);
    w.Key("node").Int(at.node);
    w.Key("gpu").Bool(at.on_gpu);
    w.Key("spec").Bool(at.speculative);
    w.Key("start").Number(at.start_sec);
    w.Key("duration").Number(at.duration);
    w.Key("bytes").Int(at.output_bytes);
    w.Key("fail").Bool(at.will_fail);
    w.Key("outcome_at").Number(at.outcome_at);
    w.EndObject();
  }
  w.EndArray();
  w.Key("lost").BeginArray();
  for (std::size_t node = 0; node < lost_tasks_.size(); ++node) {
    for (const auto& [job, task] : lost_tasks_[node]) {
      w.BeginObject();
      w.Key("node").Int(static_cast<std::int64_t>(node));
      w.Key("job").Int(job->id);
      w.Key("task").Int(task);
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("plan").BeginArray();
  for (const MembershipOp& op : membership_plan_) {
    w.BeginObject();
    w.Key("kind").String(op.kind == MembershipOp::Kind::kJoin ? "join"
                                                              : "leave");
    w.Key("when").Number(op.when);
    w.Key("node").Int(op.node);
    w.Key("drain").Bool(op.drain);
    w.Key("fired").Bool(op.fired);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void ClusterCore::ApplyClusterPre(const json::Value& cluster) {
  std::vector<std::string> mismatches;
  const auto& nodes = ckpt::Arr(cluster, "nodes");
  if (nodes.size() != nodes_.size()) {
    throw CheckpointError(
        "checkpoint has " + std::to_string(nodes.size()) +
        " trackers but the engine has " + std::to_string(nodes_.size()) +
        " — re-schedule the original membership plan before restoring");
  }
  const auto& plan = ckpt::Arr(cluster, "plan");
  if (plan.size() != membership_plan_.size()) {
    throw CheckpointError(
        "checkpoint membership plan has " + std::to_string(plan.size()) +
        " ops but the engine has " +
        std::to_string(membership_plan_.size()) +
        " scheduled — re-schedule the original plan before restoring");
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    MembershipOp& op = membership_plan_[i];
    const json::Value& rec = plan[i];
    const bool rec_join = ckpt::Str(rec, "kind") == "join";
    if ((op.kind == MembershipOp::Kind::kJoin) != rec_join ||
        ckpt::Num(rec, "when") != op.when ||
        ckpt::Int(rec, "node") != op.node ||
        ckpt::Bool(rec, "drain") != op.drain) {
      mismatches.push_back("membership op " + std::to_string(i) +
                           " differs from the checkpointed plan");
      continue;
    }
    if (ckpt::Bool(rec, "fired")) {
      // Already happened before the capture: its effect is in the
      // snapshot, so the re-scheduled event must not fire again.
      events_.Cancel(op.event);
      op.event = des::EventHandle{};
      op.fired = true;
    }
  }
  if (!mismatches.empty()) {
    std::string msg = "checkpoint does not match the engine (" +
                      std::to_string(mismatches.size()) + " mismatch" +
                      (mismatches.size() == 1 ? "" : "es") + "):";
    for (const std::string& m : mismatches) msg += "\n  - " + m;
    throw CheckpointError(msg);
  }
  next_attempt_id_ = ckpt::Int(cluster, "next_attempt_id");
  cpu_busy_sec_ = ckpt::Num(cluster, "cpu_busy_sec");
  gpu_busy_sec_ = ckpt::Num(cluster, "gpu_busy_sec");
  gpu_bounces_ = ckpt::Int(cluster, "gpu_bounces");
  nodes_crashed_ = ckpt::Int(cluster, "nodes_crashed");
  nodes_recovered_ = ckpt::Int(cluster, "nodes_recovered");
  nodes_lost_ = ckpt::Int(cluster, "nodes_lost");
  nodes_blacklisted_ = ckpt::Int(cluster, "nodes_blacklisted");
  heartbeats_dropped_ = ckpt::Int(cluster, "heartbeats_dropped");
  nodes_joined_ = ckpt::Int(cluster, "nodes_joined");
  nodes_left_ = ckpt::Int(cluster, "nodes_left");
  leaves_refused_ = ckpt::Int(cluster, "leaves_refused");
  lease_floor_ = -std::numeric_limits<double>::infinity();
  outages_.clear();
  for (const json::Value& o : ckpt::Arr(cluster, "outages")) {
    if (!o.is_array() || o.array.size() != 2) {
      throw CheckpointError("corrupt checkpoint: outage is not a [s, e] pair");
    }
    outages_.emplace_back(o.array[0].number, o.array[1].number);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const json::Value& rec = nodes[i];
    NodeSlots& n = nodes_[i];
    NodeHealth& h = health_[i];
    n.free_cpu = static_cast<int>(ckpt::Int(rec, "free_cpu"));
    n.free_gpu = static_cast<int>(ckpt::Int(rec, "free_gpu"));
    h.alive = ckpt::Bool(rec, "alive");
    h.lost = ckpt::Bool(rec, "lost");
    h.blacklisted = ckpt::Bool(rec, "blacklisted");
    h.member = ckpt::Bool(rec, "member");
    h.draining = ckpt::Bool(rec, "draining");
    h.departed = ckpt::Bool(rec, "departed");
    h.last_heartbeat_sec = ckpt::Num(rec, "last_heartbeat");
    h.down_since_sec = ckpt::Num(rec, "down_since");
    h.failed_attempts = static_cast<int>(ckpt::Int(rec, "failed_attempts"));
    h.heartbeat_seq = ckpt::Int(rec, "heartbeat_seq");
    h.joined_sec = ckpt::Num(rec, "joined");
    h.departed_sec = ckpt::Num(rec, "departed_at");
    h.recover_at_sec = ckpt::Num(rec, "recover_at");
    if (h.member && !h.departed && !h.alive && h.recover_at_sec >= 0.0) {
      recover_events_[i] = events_.At(
          h.recover_at_sec, &ClusterCore::RecoverEvent, this,
          des::Payload{static_cast<std::uint64_t>(i), 0});
    }
    // A tracker admitted before the capture never ran AdmitNode in this
    // process: name its trace lanes now (attempt restore pops them).
    if (cfg_.sink != nullptr && h.member &&
        static_cast<int>(i) >= cfg_.num_slaves) {
      const int node_id = static_cast<int>(i);
      cfg_.sink->NameProcess(NodeTrack(node_id, 0).pid,
                             "node" + std::to_string(node_id));
      cfg_.sink->NameThread(NodeTrack(node_id, 0), "tasktracker");
      auto& cpu = free_cpu_lanes_[i];
      auto& gpu = free_gpu_lanes_[i];
      cpu.clear();
      gpu.clear();
      for (int s = cfg_.map_slots_per_node; s >= 1; --s) {
        cfg_.sink->NameThread(NodeTrack(node_id, s),
                              "cpu" + std::to_string(s - 1));
        cpu.push_back(s);
      }
      for (int g = cfg_.gpus_per_node; g >= 1; --g) {
        const int tid = cfg_.map_slots_per_node + g;
        cfg_.sink->NameThread(NodeTrack(node_id, tid),
                              "gpu" + std::to_string(g - 1));
        gpu.push_back(tid);
      }
    }
  }
}

void ClusterCore::WriteJobState(json::Writer& w, const JobState& job) {
  w.BeginObject();
  w.Key("id").Int(job.id);
  w.Key("label").String(job.label);
  w.Key("pool").Int(job.pool);
  if (std::isfinite(job.deadline_sec)) {
    w.Key("deadline").Number(job.deadline_sec);
  } else {
    w.Key("deadline").Null();
  }
  w.Key("submit").Number(job.submit_time);
  w.Key("first_start").Number(job.first_start_time);
  w.Key("activated").Bool(job.activated);
  w.Key("done").Bool(job.done);
  WriteIntVec(w, "pending", job.pending);
  w.Key("remaining_maps").Int(job.remaining_maps);
  w.Key("maps_done").Int(job.maps_done);
  w.Key("running_tasks").Int(job.running_tasks);
  w.Key("max_speedup").Number(job.max_speedup);
  w.Key("node_stats").BeginArray();
  for (const JobNodeStats& s : job.node_stats) {
    w.BeginObject();
    w.Key("cpu_avg").Number(s.cpu_avg);
    w.Key("cpu_n").Int(s.cpu_n);
    w.Key("gpu_avg").Number(s.gpu_avg);
    w.Key("gpu_n").Int(s.gpu_n);
    w.EndObject();
  }
  w.EndArray();
  w.Key("reduces_scheduled").Bool(job.reduces_scheduled);
  WriteDoubleVec(w, "reduce_start", job.reduce_start);
  w.Key("tail_onset_traced").Bool(job.tail_onset_traced);
  w.Key("task_state").BeginArray();
  for (TaskState s : job.task_state) w.Int(static_cast<int>(s));
  w.EndArray();
  WriteIntVec(w, "attempts_started", job.attempts_started);
  WriteIntVec(w, "attempts_failed", job.attempts_failed);
  WriteIntVec(w, "gpu_faults", job.gpu_faults);
  w.Key("cpu_only").BeginArray();
  for (unsigned char c : job.cpu_only) w.Int(c);
  w.EndArray();
  WriteIntVec(w, "committed_node", job.committed_node);
  w.Key("committed_bytes").BeginArray();
  for (std::int64_t b : job.committed_bytes) w.Int(b);
  w.EndArray();
  WriteDoubleVec(w, "retry_at", job.retry_at);
  w.Key("cpu_dur_sum").Number(job.cpu_dur_sum);
  w.Key("cpu_dur_n").Int(job.cpu_dur_n);
  w.Key("gpu_dur_sum").Number(job.gpu_dur_sum);
  w.Key("gpu_dur_n").Int(job.gpu_dur_n);
  const JobResult& r = job.result;
  w.Key("result").BeginObject();
  w.Key("makespan_sec").Number(r.makespan_sec);
  w.Key("map_phase_end_sec").Number(r.map_phase_end_sec);
  w.Key("cpu_tasks").Int(r.cpu_tasks);
  w.Key("gpu_tasks").Int(r.gpu_tasks);
  w.Key("gpu_failures").Int(r.gpu_failures);
  w.Key("nonlocal_tasks").Int(r.nonlocal_tasks);
  w.Key("total_map_output_bytes").Int(r.total_map_output_bytes);
  w.Key("max_observed_speedup").Number(r.max_observed_speedup);
  w.Key("task_failures").Int(r.task_failures);
  w.Key("task_retries").Int(r.task_retries);
  w.Key("killed_attempts").Int(r.killed_attempts);
  w.Key("maps_reexecuted").Int(r.maps_reexecuted);
  w.Key("gpu_demotions").Int(r.gpu_demotions);
  w.Key("speculative_launched").Int(r.speculative_launched);
  w.Key("speculative_wins").Int(r.speculative_wins);
  w.Key("speculative_losses").Int(r.speculative_losses);
  w.Key("preempted_attempts").Int(r.preempted_attempts);
  w.Key("nodes_lost").Int(r.nodes_lost);
  w.Key("nodes_blacklisted").Int(r.nodes_blacklisted);
  w.Key("final_output").BeginArray();
  for (const gpurt::KvPair& kv : r.final_output) {
    w.BeginArray().String(kv.key).String(kv.value).EndArray();
  }
  w.EndArray();
  w.EndObject();
  WriteJobExtra(w, job);
  w.EndObject();
}

void ClusterCore::ApplyJobState(const json::Value& entry, JobState& job) {
  if (ckpt::Str(entry, "label") != job.label) {
    throw CheckpointError("checkpoint job " +
                          std::to_string(ckpt::Int(entry, "id")) +
                          " is labeled '" + ckpt::Str(entry, "label") +
                          "' but the re-submitted job is '" + job.label +
                          "' — submit the original workload before restoring");
  }
  job.pool = static_cast<int>(ckpt::Int(entry, "pool"));
  const json::Value& deadline = ckpt::Get(entry, "deadline");
  job.deadline_sec = deadline.is_number()
                         ? deadline.number
                         : std::numeric_limits<double>::infinity();
  job.submit_time = ckpt::Num(entry, "submit");
  job.first_start_time = ckpt::Num(entry, "first_start");
  job.activated = ckpt::Bool(entry, "activated");
  job.done = ckpt::Bool(entry, "done");
  job.pending = ReadIntVec(entry, "pending");
  job.remaining_maps = static_cast<int>(ckpt::Int(entry, "remaining_maps"));
  job.maps_done = static_cast<int>(ckpt::Int(entry, "maps_done"));
  job.running_tasks = static_cast<int>(ckpt::Int(entry, "running_tasks"));
  job.max_speedup = ckpt::Num(entry, "max_speedup");
  const auto& stats = ckpt::Arr(entry, "node_stats");
  job.node_stats.assign(stats.size(), {});
  for (std::size_t i = 0; i < stats.size(); ++i) {
    JobNodeStats& s = job.node_stats[i];
    s.cpu_avg = ckpt::Num(stats[i], "cpu_avg");
    s.cpu_n = ckpt::Int(stats[i], "cpu_n");
    s.gpu_avg = ckpt::Num(stats[i], "gpu_avg");
    s.gpu_n = ckpt::Int(stats[i], "gpu_n");
  }
  job.reduces_scheduled = ckpt::Bool(entry, "reduces_scheduled");
  job.reduce_start = ReadDoubleVec(entry, "reduce_start");
  job.tail_onset_traced = ckpt::Bool(entry, "tail_onset_traced");
  job.task_state.clear();
  for (const json::Value& v : ckpt::Arr(entry, "task_state")) {
    job.task_state.push_back(static_cast<TaskState>(v.number));
  }
  job.attempts_started = ReadIntVec(entry, "attempts_started");
  job.attempts_failed = ReadIntVec(entry, "attempts_failed");
  job.gpu_faults = ReadIntVec(entry, "gpu_faults");
  job.cpu_only.clear();
  for (const json::Value& v : ckpt::Arr(entry, "cpu_only")) {
    job.cpu_only.push_back(static_cast<unsigned char>(v.number));
  }
  job.committed_node = ReadIntVec(entry, "committed_node");
  job.committed_bytes.clear();
  for (const json::Value& v : ckpt::Arr(entry, "committed_bytes")) {
    job.committed_bytes.push_back(static_cast<std::int64_t>(v.number));
  }
  job.retry_at = ReadDoubleVec(entry, "retry_at");
  // The attempt index is derived state: ApplyAttempts rebuilds it.
  job.live_attempts.assign(job.task_state.size(), 0);
  job.attempt_ids.clear();
  job.cpu_dur_sum = ckpt::Num(entry, "cpu_dur_sum");
  job.cpu_dur_n = ckpt::Int(entry, "cpu_dur_n");
  job.gpu_dur_sum = ckpt::Num(entry, "gpu_dur_sum");
  job.gpu_dur_n = ckpt::Int(entry, "gpu_dur_n");
  const json::Value& res = ckpt::Get(entry, "result");
  JobResult& r = job.result;
  r.makespan_sec = ckpt::Num(res, "makespan_sec");
  r.map_phase_end_sec = ckpt::Num(res, "map_phase_end_sec");
  r.cpu_tasks = ckpt::Int(res, "cpu_tasks");
  r.gpu_tasks = ckpt::Int(res, "gpu_tasks");
  r.gpu_failures = ckpt::Int(res, "gpu_failures");
  r.nonlocal_tasks = ckpt::Int(res, "nonlocal_tasks");
  r.total_map_output_bytes = ckpt::Int(res, "total_map_output_bytes");
  r.max_observed_speedup = ckpt::Num(res, "max_observed_speedup");
  r.task_failures = ckpt::Int(res, "task_failures");
  r.task_retries = ckpt::Int(res, "task_retries");
  r.killed_attempts = ckpt::Int(res, "killed_attempts");
  r.maps_reexecuted = ckpt::Int(res, "maps_reexecuted");
  r.gpu_demotions = ckpt::Int(res, "gpu_demotions");
  r.speculative_launched = ckpt::Int(res, "speculative_launched");
  r.speculative_wins = ckpt::Int(res, "speculative_wins");
  r.speculative_losses = ckpt::Int(res, "speculative_losses");
  r.preempted_attempts = ckpt::Int(res, "preempted_attempts");
  r.nodes_lost = ckpt::Int(res, "nodes_lost");
  r.nodes_blacklisted = ckpt::Int(res, "nodes_blacklisted");
  r.final_output.clear();
  for (const json::Value& kv : ckpt::Arr(res, "final_output")) {
    if (!kv.is_array() || kv.array.size() != 2) {
      throw CheckpointError(
          "corrupt checkpoint: final_output entry is not a [k, v] pair");
    }
    r.final_output.push_back({kv.array[0].string, kv.array[1].string});
  }
  // Re-arm the pending retry backoff timers exactly where they were.
  for (std::size_t t = 0; t < job.task_state.size(); ++t) {
    if (job.task_state[t] == TaskState::kRetryWait && job.retry_at[t] >= 0.0) {
      events_.At(job.retry_at[t], &ClusterCore::RetryTimerEvent, this,
                 des::Payload{des::PackPtr(&job),
                              static_cast<std::uint64_t>(t)});
    }
  }
}

void ClusterCore::ApplyAttempts(
    const json::Value& cluster,
    const std::function<JobState*(int)>& job_by_id) {
  HD_CHECK(running_.empty());
  for (const json::Value& rec : ckpt::Arr(cluster, "attempts")) {
    Attempt at;
    at.id = ckpt::Int(rec, "id");
    const int job_id = static_cast<int>(ckpt::Int(rec, "job"));
    at.job = job_by_id(job_id);
    if (at.job == nullptr) {
      throw CheckpointError("checkpoint attempt references unknown job " +
                            std::to_string(job_id));
    }
    at.task = static_cast<int>(ckpt::Int(rec, "task"));
    at.index = static_cast<int>(ckpt::Int(rec, "index"));
    at.node = static_cast<int>(ckpt::Int(rec, "node"));
    if (at.task < 0 ||
        at.task >= static_cast<int>(at.job->live_attempts.size()) ||
        at.node < 0 || at.node >= static_cast<int>(nodes_.size())) {
      throw CheckpointError("corrupt checkpoint: attempt " +
                            std::to_string(at.id) +
                            " names a task or tracker out of range");
    }
    at.on_gpu = ckpt::Bool(rec, "gpu");
    at.speculative = ckpt::Bool(rec, "spec");
    at.start_sec = ckpt::Num(rec, "start");
    at.duration = ckpt::Num(rec, "duration");
    at.output_bytes = ckpt::Int(rec, "bytes");
    at.will_fail = ckpt::Bool(rec, "fail");
    at.outcome_at = ckpt::Num(rec, "outcome_at");
    at.restored = true;
    if (cfg_.sink != nullptr) {
      auto& lanes = at.on_gpu
                        ? free_gpu_lanes_[static_cast<std::size_t>(at.node)]
                        : free_cpu_lanes_[static_cast<std::size_t>(at.node)];
      HD_CHECK(!lanes.empty());
      at.lane = lanes.back();
      lanes.pop_back();
    }
    const des::Payload payload{static_cast<std::uint64_t>(at.id), 0};
    at.outcome_event =
        at.will_fail
            ? events_.At(at.outcome_at, &ClusterCore::AttemptFailedEvent,
                         this, payload)
            : events_.At(at.outcome_at, &ClusterCore::AttemptDoneEvent, this,
                         payload);
    InsertAttempt(at);
  }
  for (const json::Value& rec : ckpt::Arr(cluster, "lost")) {
    const int job_id = static_cast<int>(ckpt::Int(rec, "job"));
    JobState* job = job_by_id(job_id);
    if (job == nullptr) {
      throw CheckpointError("checkpoint lost-task references unknown job " +
                            std::to_string(job_id));
    }
    const std::int64_t node = ckpt::Int(rec, "node");
    const std::int64_t task = ckpt::Int(rec, "task");
    if (node < 0 || node >= static_cast<std::int64_t>(lost_tasks_.size()) ||
        task < 0 ||
        task >= static_cast<std::int64_t>(job->live_attempts.size())) {
      throw CheckpointError(
          "corrupt checkpoint: lost task names a task or tracker out of range");
    }
    lost_tasks_[static_cast<std::size_t>(node)].emplace_back(
        job, static_cast<int>(task));
  }
}

void ClusterCore::OnMapsProgress(JobState& job) {
  const int total = job.source->num_map_tasks();
  if (!job.reduces_scheduled && job.source->num_reducers() > 0 &&
      job.maps_done >= static_cast<int>(cfg_.reduce_slowstart * total)) {
    job.reduces_scheduled = true;
    const int reduce_capacity = cfg_.num_slaves * cfg_.reduce_slots_per_node;
    HD_CHECK_MSG(job.source->num_reducers() <= reduce_capacity,
                 "more reducers than reduce slots; wave scheduling of "
                 "reducers is not modeled");
    job.reduce_start.assign(
        static_cast<std::size_t>(job.source->num_reducers()), events_.now());
    if (cfg_.sink != nullptr) {
      cfg_.sink->Instant(
          "hadoop", "reduce_slowstart", JobTrack(job), events_.now(),
          {trace::Arg::Int("job", job.id),
           trace::Arg::Int("maps_done", job.maps_done),
           trace::Arg::Int("reducers", job.source->num_reducers())});
    }
  }
  if (job.remaining_maps == 0) FinishJob(job);
}

void ClusterCore::FinishJob(JobState& job) {
  HD_CHECK(!job.done);
  job.done = true;
  job.result.map_phase_end_sec = events_.now();
  double makespan = job.result.map_phase_end_sec;
  if (job.source->num_reducers() > 0) {
    if (!job.reduces_scheduled) {
      job.reduce_start.assign(
          static_cast<std::size_t>(job.source->num_reducers()), events_.now());
    }
    const double shuffle_bytes_per_reducer =
        static_cast<double>(job.result.total_map_output_bytes) /
        job.source->num_reducers();
    for (int r = 0; r < job.source->num_reducers(); ++r) {
      const double fetch_done =
          std::max(job.result.map_phase_end_sec,
                   job.reduce_start[static_cast<std::size_t>(r)] +
                       shuffle_bytes_per_reducer / cfg_.network_bytes_per_sec);
      makespan = std::max(makespan, fetch_done + job.source->ReduceSeconds(r));
    }
  }
  job.result.makespan_sec = makespan;
  job.result.final_output = job.source->FinalOutput();
  job.result.nodes_lost = nodes_lost_;
  job.result.nodes_blacklisted = nodes_blacklisted_;
  if (cfg_.sink != nullptr) {
    const std::string name =
        job.label.empty() ? "job" + std::to_string(job.id) : job.label;
    cfg_.sink->NameThread(JobTrack(job), "job" + std::to_string(job.id));
    // Map phase and full job as nested spans on the job's JobTracker lane.
    cfg_.sink->Span(
        "job", name, JobTrack(job), job.submit_time,
        makespan - job.submit_time,
        {trace::Arg::Int("job", job.id),
         trace::Arg::Str("policy", sched::PolicyName(job.policy)),
         trace::Arg::Int("cpu_tasks", job.result.cpu_tasks),
         trace::Arg::Int("gpu_tasks", job.result.gpu_tasks),
         trace::Arg::Int("nonlocal_tasks", job.result.nonlocal_tasks),
         trace::Arg::Float("max_observed_speedup",
                           job.result.max_observed_speedup)});
    if (job.first_start_time >= 0.0) {
      cfg_.sink->Span("job", "map_phase", JobTrack(job), job.first_start_time,
                      job.result.map_phase_end_sec - job.first_start_time,
                      {trace::Arg::Int("maps", job.maps_done)});
    }
  }
  if (cfg_.metrics != nullptr) {
    cfg_.metrics->counter("hadoop.jobs").Add(1);
    cfg_.metrics->distribution("hadoop.job_latency_sec")
        .Record(makespan - job.submit_time);
  }
  OnJobFinished(job);
}

}  // namespace hd::hadoop
