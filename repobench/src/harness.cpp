#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/journal.hpp"

namespace repobench {

using scandiag::JsonValue;

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> shardOrder(std::size_t poolSize, std::uint64_t seed) {
  std::vector<std::size_t> order(poolSize);
  for (std::size_t i = 0; i < poolSize; ++i) order[i] = i;
  for (std::size_t i = poolSize; i > 1; --i) {
    const std::size_t j = mixSeed(seed, i) % i;
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double peakRssMb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

std::uint64_t fnvFold(std::uint64_t digest, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    digest ^= (value >> (8 * b)) & 0xff;
    digest *= 1099511628211ULL;
  }
  return digest;
}

// ---------------------------------------------------------------------------

ExpectedStore::ExpectedStore(const Options& options, const std::string& workload)
    : path_(options.expectedDir + "/" + workload + ".json") {
  if (options.record) return;
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("missing recorded expected outputs: " + path_);
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue root = scandiag::parseJson(text.str());
  if (root.at("workload").asString() != workload) {
    throw std::runtime_error(path_ + " records workload " + root.at("workload").asString());
  }
  shards_ = root.at("shards").items();
  if (shards_.empty()) throw std::runtime_error(path_ + " records no shards");
}

const JsonValue& ExpectedStore::shard(std::size_t index) const {
  if (index >= shards_.size()) throw std::out_of_range("expected shard index out of range");
  return shards_[index];
}

namespace {

void writeValue(scandiag::JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::Object:
      w.beginObject();
      for (const auto& [name, member] : v.members()) {
        w.key(name);
        writeValue(w, member);
      }
      w.endObject();
      break;
    case JsonValue::Kind::Array:
      w.beginArray();
      for (const JsonValue& item : v.items()) writeValue(w, item);
      w.endArray();
      break;
    case JsonValue::Kind::String:
      w.value(v.asString());
      break;
    case JsonValue::Kind::Number:
      w.value(v.asUint());
      break;
    case JsonValue::Kind::Bool:
      w.value(v.asBool());
      break;
    case JsonValue::Kind::Null:
      w.null();
      break;
  }
}

}  // namespace

void ExpectedStore::save(const std::string& poolInfo) const {
  std::ostringstream out;
  {
    scandiag::JsonWriter w(out, /*pretty=*/false);
    w.beginObject();
    w.field("workload", path_.substr(path_.find_last_of('/') + 1,
                                     path_.size() - path_.find_last_of('/') - 6));
    w.field("pool", poolInfo);
    w.key("shards").beginArray();
    for (const JsonValue& shard : recorded_) writeValue(w, shard);
    w.endArray();
    w.endObject();
  }
  // One shard per line keeps the checked-in file diffable.
  std::string text = out.str();
  std::string pretty;
  int depth = 0;
  for (char c : text) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    pretty += c;
    if (c == ',' && depth == 2) pretty += '\n';
    if (c == '[' && depth == 2) pretty += '\n';
  }
  pretty += '\n';
  scandiag::atomicWriteFile(path_, pretty);
}

JsonValue makeRecord(const std::vector<std::pair<std::string, std::uint64_t>>& fields) {
  std::vector<std::pair<std::string, JsonValue>> members;
  members.reserve(fields.size());
  for (const auto& [name, value] : fields) members.emplace_back(name, JsonValue::makeUint(value));
  return JsonValue::makeObject(std::move(members));
}

// ---------------------------------------------------------------------------

std::size_t Tracer::begin(const std::string& name, std::uint64_t item) {
  SpanRecord span;
  span.name = name;
  span.item = item;
  span.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Tracer::end(std::size_t index) {
  SpanRecord& span = spans_.at(index);
  span.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  if (stack_.empty() || stack_.back() != index) throw std::logic_error("span closed out of order");
  stack_.pop_back();
  return static_cast<double>(span.endNs - span.startNs) * 1e-9;
}

void Tracer::startPass() {
  if (!stack_.empty()) throw std::logic_error("pass started inside an open span");
  passStart_ = spans_.size();
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::map<std::string, double> self;
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (std::size_t i = passStart_; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.parent >= 0) childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
  }
  for (std::size_t i = passStart_; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    self[s.name] += static_cast<double>(s.endNs - s.startNs - childNs[i]) * 1e-9;
  }
  return self;
}

double Tracer::topLevelSeconds() const {
  std::int64_t total = 0;
  for (std::size_t i = passStart_; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) total += spans_[i].endNs - spans_[i].startNs;
  }
  return static_cast<double>(total) * 1e-9;
}

void Tracer::writeJsonl(const std::string& path) const {
  std::string text;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%lld,\"item\":%llu}\n",
                  i, s.name.c_str(), static_cast<long long>(s.startNs),
                  static_cast<long long>(s.endNs), static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.item));
    text += line;
  }
  scandiag::atomicWriteFile(path, text);
}

Span::Span(Tracer* tracer, const std::string& name, std::uint64_t item) : tracer_(tracer) {
  if (tracer_) {
    index_ = tracer_->begin(name, item);
  } else {
    start_ = Clock::now();
  }
}

double Span::close() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = tracer_ ? tracer_->end(index_) : secondsBetween(start_, Clock::now());
  return seconds_;
}

std::map<std::string, std::uint64_t> counterDelta(const scandiag::obs::MetricsSnapshot& before,
                                                  const scandiag::obs::MetricsSnapshot& after) {
  std::map<std::string, std::uint64_t> delta;
  for (std::size_t i = 0; i < scandiag::obs::kNumCounters; ++i) {
    const auto c = static_cast<scandiag::obs::Counter>(i);
    delta[scandiag::obs::counterName(c)] = after.counter(c) - before.counter(c);
  }
  return delta;
}

double poolBusySeconds(const scandiag::obs::MetricsSnapshot& before,
                       const scandiag::obs::MetricsSnapshot& after) {
  double busy = 0.0;
  for (const scandiag::obs::WorkerStat& w : after.workers) {
    std::uint64_t prior = 0;
    for (const scandiag::obs::WorkerStat& b : before.workers) {
      if (b.worker == w.worker) prior = b.busyNanos;
    }
    busy += static_cast<double>(w.busyNanos - prior) * 1e-9;
  }
  return busy;
}

bool checkCounters(Report& report, const JsonValue& expected,
                   const std::map<std::string, std::uint64_t>& counters, const std::string& where) {
  bool ok = true;
  for (const auto& [key, value] : expected.members()) {
    if (key.rfind("obs.", 0) != 0) continue;
    const auto it = counters.find(key.substr(4));
    if (it == counters.end()) continue;
    ok = report.expectEqual(where + "." + key, it->second, value.asUint()) && ok;
  }
  return ok;
}

// ---------------------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit) {
  for (auto& entry : metrics_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

void Report::failed(std::size_t n, const std::string& why) {
  failed_ += n;
  if (mismatchesLogged_++ < 20) std::fprintf(stderr, "repobench: failed %zu: %s\n", n, why.c_str());
}

void Report::invalid(const std::string& why) {
  invalidReasons_.push_back(why);
  std::fprintf(stderr, "repobench: run invalid: %s\n", why.c_str());
}

bool Report::expectEqual(const std::string& what, std::uint64_t got, std::uint64_t expected) {
  const std::string perturbed = ".candidates";
  if (options_->perturb && !perturbed_ && what.size() >= perturbed.size() &&
      what.compare(what.size() - perturbed.size(), perturbed.size(), perturbed) == 0) {
    perturbed_ = true;
    expected += 1;
  }
  if (got == expected) return true;
  if (mismatchesLogged_++ < 20) {
    std::fprintf(stderr, "repobench: %s = %llu, recorded %llu\n", what.c_str(),
                 static_cast<unsigned long long>(got), static_cast<unsigned long long>(expected));
  }
  return false;
}

bool Report::expectEqual(const JsonValue& expected, const std::string& key, std::uint64_t got,
                         const std::string& where) {
  return expectEqual(where + "." + key, got, expected.at(key).asUint());
}

std::string Report::json(bool correct) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value] = metrics_[i];
    if (!std::isfinite(value.first)) throw std::runtime_error("metric " + name + " is not finite");
    std::snprintf(buf, sizeof(buf), "%.17g", value.first);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           value.second + "\"}";
  }
  out += "}}";
  return out;
}

void Report::emitQuality() {
  if (checked_ == 0 || sumActual_ == 0) throw std::logic_error("no graded diagnoses");
  const double dr = static_cast<double>(sumCandidates_) / static_cast<double>(sumActual_) - 1.0;
  const double wrongShare = static_cast<double>(wrong_) / static_cast<double>(checked_);
  metric("dr", dr, "ratio");
  metric("sound_share", 1.0 - wrongShare, "fraction");
  char line[200];
  std::snprintf(line, sizeof(line), "quality: dr %.6f, wrong_share %.6f (%zu of %zu graded diagnoses)",
                dr, wrongShare, wrong_, checked_);
  note(line);
}

// ---------------------------------------------------------------------------

Rounds::Rounds(const Options& options, std::size_t minimum)
    : options_(&options), minimum_(minimum) {}

bool Rounds::more() const {
  if (done_ < minimum_) return true;
  return !options_->smoke && secondsBetween(start_, Clock::now()) < options_->seconds;
}

void reportBatches(Report& report, const BatchFigures& batches, const BatchFigures& rounds,
                   const std::string& what) {
  if (batches.seconds.empty() || rounds.seconds.empty()) {
    throw std::logic_error("no timed batches");
  }
  std::vector<double> ms, rates;
  for (double s : batches.seconds) ms.push_back(s * 1e3);
  for (std::size_t i = 0; i < rounds.seconds.size(); ++i) {
    rates.push_back(rounds.operations[i] / rounds.seconds[i]);
  }
  const double p50 = quantile(ms, 0.5);
  const double p90 = quantile(ms, 0.9);
  const double saturation = median(rates);
  report.metric("p50_ms", p50, "ms");
  report.metric("p90_ms", p90, "ms");
  report.metric("saturation_rps", saturation, "req/s");
  char line[300];
  std::snprintf(line, sizeof(line),
                "%s: turnaround over %zu batches p50 %.3f ms, p90 %.3f ms; %.1f ops/s, median "
                "over %zu rounds",
                what.c_str(), ms.size(), p50, p90, saturation, rates.size());
  report.note(line);
}

// ---------------------------------------------------------------------------

LayerMetrics::LayerMetrics() {
  order_ = {
      {"netlist.generate_s", "s"},       {"netlist.levelize_s", "s"},
      {"bist.patterns_s", "s"},          {"sim.good_s", "s"},
      {"sim.fault_s", "s"},              {"sim.faults", "count"},
      {"sim.detected", "count"},         {"sim.detect_share", "fraction"},
      {"sim.cone_hit_share", "fraction"}, {"soc.build_s", "s"},
      {"soc.responses_s", "s"},          {"diagnosis.prepare_s", "s"},
      {"diagnosis.score_s", "s"},        {"diagnosis.sessions", "count"},
      {"diagnosis.sessions_per_s", "sessions/s"},
      {"diagnosis.intersect_s", "s"},    {"diagnosis.prune_s", "s"},
      {"diagnosis.prune_input", "count"}, {"diagnosis.prune_removed", "count"},
      {"diagnosis.prune_share", "fraction"},
      {"diagnosis.recover_s", "s"},      {"diagnosis.retry_sessions", "count"},
      {"diagnosis.inconsistencies", "count"},
      {"diagnosis.union_s", "s"},        {"atpg.s", "s"},
      {"atpg.patterns", "count"},        {"atpg.useful", "count"},
      {"atpg.scenarios", "count"},       {"atpg.useful_share", "fraction"},
      {"atpg.scenario_max_s", "s"},      {"inject.scenario_gen_s", "s"},
      {"inject.noise_events", "count"},  {"inject.degraded", "count"},
      {"inject.scenarios", "count"},     {"inject.degraded_share", "fraction"},
      {"common.journal_s", "s"},         {"common.journal_records", "count"},
      {"common.pool_busy_s", "s"},       {"common.pool_capacity_s", "s"},
      {"common.pool_busy_share", "fraction"},
      {"serve.handle_ms.inject", "ms"},  {"serve.handle_ms.log", "ms"},
      {"serve.handle_ms.defect", "ms"},  {"serve.codec_us", "us"},
      {"serve.transport_ms", "ms"},      {"serve.p99_ms", "ms"},
      {"serve.p99_samples", "count"},    {"serve.lateness_ms", "ms"},
      {"serve.shed", "count"},           {"trace.wall_s", "s"},
      {"trace.untraced_s", "s"},         {"trace.overhead_share", "fraction"},
      {"trace.unattributed_s", "s"},     {"trace.unattributed_share", "fraction"},
      {"trace.duplicate_s", "s"},        {"check.wrong_share", "fraction"},
      {"check.failed_share", "fraction"},
  };
  for (std::size_t i = 0; i < scandiag::obs::kNumCounters; ++i) {
    order_.emplace_back(
        std::string("obs.") + scandiag::obs::counterName(static_cast<scandiag::obs::Counter>(i)),
        "count");
  }
  for (const auto& entry : order_) values_[entry.first] = 0.0;
}

void LayerMetrics::set(const std::string& name, double value) {
  if (!values_.count(name)) throw std::logic_error("unknown per-layer metric " + name);
  values_[name] = value;
}

void LayerMetrics::add(const std::string& name, double value) { set(name, get(name) + value); }

double LayerMetrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("unknown per-layer metric " + name);
  return it->second;
}

void LayerMetrics::setCounters(const std::map<std::string, std::uint64_t>& counters) {
  for (const auto& [name, value] : counters) {
    const std::string key = "obs." + name;
    if (values_.count(key)) values_[key] = static_cast<double>(value);
  }
}

void LayerMetrics::setTrace(double wall, double untraced, double duplicate, double topLevel) {
  set("trace.wall_s", wall);
  set("trace.untraced_s", untraced);
  set("trace.overhead_share", (wall - duplicate) / untraced - 1.0);
  set("trace.unattributed_s", wall - topLevel);
  set("trace.unattributed_share", (wall - topLevel) / wall);
  set("trace.duplicate_s", duplicate);
}

void LayerMetrics::setChecks(const Report& report) {
  set("check.wrong_share", report.checkedCount() ? static_cast<double>(report.wrongCount()) /
                                                       static_cast<double>(report.checkedCount())
                                                 : 0.0);
  set("check.failed_share", static_cast<double>(report.failedCount()) /
                                static_cast<double>(std::max<std::size_t>(1, report.attemptedCount())));
}

void LayerMetrics::emit(Report& report) const {
  for (const auto& [name, unit] : order_) report.metric(name, values_.at(name), unit);
}

}  // namespace repobench
