#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/alloc_counter.h"

namespace perfbench {

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(index, xs.size() - 1)];
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Jain(const std::vector<double>& xs) {
  double sum = 0.0, sq = 0.0;
  for (double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Checks -----------------------------------------------------------------

void Checks::Record(const std::string& name, bool ok,
                    const std::string& detail) {
  Record(name, 1, ok ? 0 : 1, detail);
}

void Checks::Record(const std::string& name, uint64_t attempted,
                    uint64_t failed, const std::string& detail) {
  Tally& t = tallies_[name];
  t.attempted += attempted;
  t.failed += failed;
  if (failed > 0 && t.first_failure.empty()) {
    t.first_failure = detail.empty() ? "failed" : detail;
  }
}

uint64_t Checks::attempted() const {
  uint64_t n = 0;
  for (const auto& [name, t] : tallies_) n += t.attempted;
  return n;
}

uint64_t Checks::failed() const {
  uint64_t n = 0;
  for (const auto& [name, t] : tallies_) n += t.failed;
  return n;
}

void Checks::Print() const {
  std::printf("checks (failed / attempted):\n");
  for (const auto& [name, t] : tallies_) {
    std::printf("  %-34s %llu / %llu%s%s\n", name.c_str(),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.attempted),
                t.failed > 0 ? "  first failure: " : "",
                t.first_failure.c_str());
  }
}

// --- Spans ------------------------------------------------------------------

uint64_t Spans::Now() const {
  return tracer_ != nullptr ? tracer_->NowMicros() : 0;
}

int Spans::Open(const char* name) {
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, Now(), 0, parent});
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Spans::Close(int index) {
  spans_[index].end_us = Now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Spans::AppendChromeEvents(std::string* out, uint64_t run_id) const {
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"cat\":\"perfbench\","
                  "\"ts\":%llu,\"dur\":%llu,\"pid\":2,\"tid\":0,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%llu}}",
                  s.name, static_cast<unsigned long long>(s.start_us),
                  static_cast<unsigned long long>(s.end_us - s.start_us), i,
                  s.parent, static_cast<unsigned long long>(run_id));
    if (!out->empty() && out->back() != '[') out->push_back(',');
    out->append(buf);
  }
}

// --- Telemetry readouts -----------------------------------------------------

std::map<std::string, std::vector<double>> ProgramSpanDurations(
    const std::string& trace) {
  // The exporter writes one flat object per span with "name" first and
  // "dur" after it; nothing else in the document contains `{"name":"`.
  std::map<std::string, std::vector<double>> out;
  const std::string key = "{\"name\":\"";
  size_t pos = trace.find(key);
  while (pos != std::string::npos) {
    size_t name_begin = pos + key.size();
    size_t name_end = trace.find('"', name_begin);
    size_t dur = trace.find("\"dur\":", name_end);
    if (name_end == std::string::npos || dur == std::string::npos) break;
    out[trace.substr(name_begin, name_end - name_begin)].push_back(
        std::strtod(trace.c_str() + dur + 6, nullptr));
    pos = trace.find(key, dur);
  }
  return out;
}

double HistogramPercentile(const themis::telemetry::Histogram& h, double p) {
  using themis::telemetry::Histogram;
  uint64_t total = h.Count();
  if (total == 0) return 0.0;
  double target = std::ceil(p / 100.0 * static_cast<double>(total));
  uint64_t seen = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    seen += h.BucketCount(b);
    if (static_cast<double>(seen) >= target) {
      return b == 0 ? 0.0 : std::ldexp(1.0, b - Histogram::kBucketBias);
    }
  }
  return std::ldexp(1.0, Histogram::kBuckets - 1 - Histogram::kBucketBias);
}

namespace {

// Per-thread ring capacity: the busiest thread of any workload records a
// few ten thousand program spans per pass.
constexpr size_t kTraceRingCapacity = size_t{1} << 18;

themis::telemetry::TelemetryOptions TracedOptions() {
  themis::telemetry::TelemetryOptions o;
  o.trace_ring_capacity = kTraceRingCapacity;
  return o;
}

}  // namespace

TracedPass::TracedPass() : telemetry_(TracedOptions()) {
  themis::telemetry::Install(&telemetry_);
}

TracedPass::~TracedPass() { themis::telemetry::Uninstall(); }

double TracedPass::PoolHitRatio() {
  double hits = static_cast<double>(CounterValue("infra.pool.row_hits") +
                                    CounterValue("infra.pool.columnar_hits"));
  double misses =
      static_cast<double>(CounterValue("infra.pool.row_misses") +
                          CounterValue("infra.pool.columnar_misses"));
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

uint64_t TracedPass::evicted() {
  std::string trace = ExportTrace();
  uint64_t retained = 0;
  for (size_t pos = trace.find("{\"name\":\""); pos != std::string::npos;
       pos = trace.find("{\"name\":\"", pos + 1)) {
    ++retained;
  }
  uint64_t recorded = telemetry_.tracer().recorded();
  return recorded > retained ? recorded - retained : 0;
}

std::string TracedPass::ExportTrace() {
  std::string out;
  telemetry_.tracer().ExportChromeTrace(&out);
  return out;
}

uint64_t Allocations() { return themis::AllocCounter::allocations(); }

// --- Host record ------------------------------------------------------------

namespace {

// Fixed integer work; returns a value so the loop is not optimised away.
uint64_t SpinLoop(uint64_t iterations) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

constexpr uint64_t kSpinIterations = 40'000'000;

double TimedSpins(int threads) {
  std::atomic<uint64_t> sink{0};
  auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&sink] { sink += SpinLoop(kSpinIterations); });
  }
  for (std::thread& t : pool) t.join();
  double s = SecondsSince(t0);
  if (sink.load() == 42) std::printf(" ");
  return s;
}

}  // namespace

void PrintHostRecord() {
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  int k = static_cast<int>(std::max(nproc, 1L));
  double one = TimedSpins(1);
  double many = TimedSpins(k);
  // Calibration: millions of xorshift steps per second on one thread.
  double score = static_cast<double>(kSpinIterations) / one / 1e6;
  double capacity = static_cast<double>(k) * one / many;
  std::printf("host: nproc=%ld calibration=%.1f Mstep/s "
              "parallel_capacity=%.2fx (%d spin loops vs 1)\n",
              nproc, score, capacity, k);
}

bool WriteTrace(const std::string& path, const Result& result,
                uint64_t run_id) {
  std::string doc = "{\"traceEvents\":[";
  const std::string& program = result.program_trace;
  size_t open = program.find('[');
  size_t close = program.rfind(']');
  if (open != std::string::npos && close != std::string::npos &&
      close > open + 1) {
    doc.append(program, open + 1, close - open - 1);
  }
  std::string own;
  result.spans.AppendChromeEvents(&own, run_id);
  if (!own.empty()) {
    if (doc.back() != '[') doc.push_back(',');
    doc.append(own);
  }
  doc.append("],\"displayTimeUnit\":\"ms\"}\n");
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"workload.build_s", "s"},
      {"workload.gen_ns_per_tuple", "ns"},
      {"workload.gen_share", "share"},
      {"workload.gen_lag_p99_ms", "ms"},
      {"workload.gen_ceiling_tuples_per_s", "tuples/s"},
      {"sim.events", "count"},
      {"sim.events_per_tuple", "ratio"},
      {"sim.messages", "count"},
      {"sim.bytes", "bytes"},
      {"parsim.run_until_calls", "count"},
      {"parsim.epochs", "count"},
      {"parsim.busy_s", "s"},
      {"parsim.barrier_wait_s", "s"},
      {"parsim.serial_in_run_s", "s"},
      {"parsim.amdahl_coverage", "share"},
      {"parsim.speedup_2v1", "ratio"},
      {"parsim.speedup_4v1", "ratio"},
      {"node.shed_tick_s", "s"},
      {"node.shed_tick_share", "share"},
      {"node.shed_tick_us_p99", "us"},
      {"node.ib_tuples_p99", "tuples"},
      {"node.overloaded_tick_ratio", "ratio"},
      {"shedding.shed_fraction", "share"},
      {"shedding.select_calls", "count"},
      {"shedding.select_us_p50", "us"},
      {"shedding.select_us_p99", "us"},
      {"shedding.ib_batches_p99", "batches"},
      {"federation.run_for_calls", "count"},
      {"federation.run_for_s", "s"},
      {"federation.between_run_for_s", "s"},
      {"federation.deploy_s", "s"},
      {"federation.plan_apply_s", "s"},
      {"federation.plans", "count"},
      {"federation.replaced_fragments", "count"},
      {"federation.dead_drop_fraction", "share"},
      {"runtime.allocs_per_tuple", "allocs"},
      {"runtime.pool_hit_ratio", "ratio"},
      {"runtime.ckpt_taken", "count"},
      {"runtime.ckpt_bytes", "bytes"},
      {"runtime.ckpt_restore_hit_ratio", "ratio"},
      {"runtime.ckpt_skip_ratio", "ratio"},
      {"runtime.ckpt_overhead", "ratio"},
      {"server.push_us_p50", "us"},
      {"server.push_us_p99", "us"},
      {"server.ib_tuples_max", "tuples"},
      {"server.busy_share", "share"},
      {"server.stamp_us_p99", "us"},
      {"server.ingest_us_p99", "us"},
      {"server.execute_us_p99", "us"},
      {"server.shed_us_p99", "us"},
      {"server.queue_depth_p99", "tasks"},
      {"server.credit_stalls", "count"},
      {"server.latency_p50_ms", "ms"},
      {"server.latency_p99_ms", "ms"},
      {"telemetry.overhead", "ratio"},
      {"telemetry.spans_evicted", "count"},
  };
  return kMetrics;
}

void Result::Layer(const std::string& name, double value) {
  for (const auto& [known, unit] : PerLayerMetrics()) {
    if (known == name) {
      per_layer[name] = value;
      return;
    }
  }
  std::fprintf(stderr, "undeclared per-layer metric %s\n", name.c_str());
  std::abort();
}

void PrintResult(const Args& args, const Result& result) {
  std::vector<Metric> metrics = result.end_to_end;
  if (args.trace) {
    metrics.clear();
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = result.per_layer.find(name);
      metrics.push_back(
          {name, it == result.per_layer.end() ? 0.0 : it->second, unit});
    }
  }
  std::printf("%s metrics (%s):\n", args.trace ? "per-layer" : "end-to-end",
              args.workload.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  result.checks.Print();
  std::string json = "{\"correct\": ";
  json += result.checks.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.checks.attempted());
  json += ", \"failed\": " + std::to_string(result.checks.failed());
  json += ", \"metrics\": {";
  char buf[320];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
