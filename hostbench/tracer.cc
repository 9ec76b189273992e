#include "tracer.h"

#include "common/check.h"
#include "common/json.h"

namespace hostbench {

namespace {
Tracer* g_active = nullptr;
// Records kept per span name for the Chrome trace; totals stay exact.
constexpr std::size_t kMaxStoredPerName = 2000;
}  // namespace

TraceTotals TraceTotals::Minus(const TraceTotals& before) const {
  TraceTotals d;
  for (const auto& [name, t] : by_name) {
    SpanTotals x = t;
    if (auto it = before.by_name.find(name); it != before.by_name.end()) {
      x.count -= it->second.count;
      x.seconds -= it->second.seconds;
      x.child_seconds -= it->second.child_seconds;
    }
    if (x.count > 0) d.by_name[name] = x;
  }
  d.top_level_seconds = top_level_seconds - before.top_level_seconds;
  return d;
}

TraceTotals TraceTotals::Scaled(double f) const {
  TraceTotals d = *this;
  for (auto& [name, t] : d.by_name) {
    t.seconds *= f;
    t.child_seconds *= f;
  }
  d.top_level_seconds *= f;
  return d;
}

double TraceTotals::Seconds(const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.seconds;
}

double TraceTotals::SelfSeconds(const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.self_seconds();
}

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer* Tracer::active() { return g_active; }
void Tracer::set_active(Tracer* t) { g_active = t; }

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::NameIndex(const char* name) {
  auto [it, inserted] = index_.try_emplace(name, 0);
  if (inserted) {
    it->second = static_cast<int>(names_.size());
    names_.push_back(Name{name, {}, 0});
  }
  return it->second;
}

void Tracer::Begin(const char* name) {
  Open o;
  o.name = NameIndex(name);
  Name& n = names_[static_cast<std::size_t>(o.name)];
  if (n.stored < kMaxStoredPerName) {
    ++n.stored;
    int parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    }
    o.record = static_cast<int>(records_.size());
    records_.push_back(Record{o.name, 0, -1, parent});
  }
  o.start_ns = NowNs();
  if (o.record >= 0) records_.back().start_ns = o.start_ns;
  stack_.push_back(o);
}

void Tracer::End() {
  const std::int64_t end_ns = NowNs();
  HD_CHECK(!stack_.empty());
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = static_cast<double>(end_ns - o.start_ns) * 1e-9;
  SpanTotals& t = names_[static_cast<std::size_t>(o.name)].totals;
  ++t.count;
  t.seconds += dur;
  t.child_seconds += o.child_seconds;
  if (o.record >= 0) {
    records_[static_cast<std::size_t>(o.record)].end_ns = end_ns;
  }
  if (stack_.empty()) {
    top_level_seconds_ += dur;
  } else {
    stack_.back().child_seconds += dur;
  }
}

TraceTotals Tracer::Totals() const {
  TraceTotals t;
  for (const Name& n : names_) {
    if (n.totals.count > 0) t.by_name[n.name] = n.totals;
  }
  t.top_level_seconds = top_level_seconds_;
  return t;
}

void Tracer::WriteChromeJson(
    std::ostream& os,
    const std::map<std::string, std::string>& metadata) const {
  hd::json::Writer w(os);
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("otherData").BeginObject();
  for (const auto& [k, v] : metadata) w.Key(k).String(v);
  w.EndObject();
  w.Key("traceEvents").BeginArray();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < r.start_ns) continue;  // still open
    w.BeginObject();
    w.Key("name").String(names_[static_cast<std::size_t>(r.name)].name);
    w.Key("cat").String("host");
    w.Key("ph").String("X");
    w.Key("ts").Number(static_cast<double>(r.start_ns) * 1e-3);
    w.Key("dur").Number(static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
    w.Key("pid").Int(1);
    w.Key("tid").Int(1);
    w.Key("args").BeginObject();
    w.Key("id").Int(static_cast<std::int64_t>(i));
    w.Key("parent").Int(r.parent);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  // Exact totals, including the spans beyond the per-name storage cap.
  w.Key("spanTotals").BeginArray();
  for (const Name& n : names_) {
    w.BeginObject();
    w.Key("name").String(n.name);
    w.Key("count").Int(n.totals.count);
    w.Key("stored").Int(static_cast<std::int64_t>(n.stored));
    w.Key("total_s").Number(n.totals.seconds);
    w.Key("self_s").Number(n.totals.self_seconds());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
}

}  // namespace hostbench
