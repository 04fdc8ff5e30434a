// Shared pieces of the repo benchmark: run arguments, timing, statistics,
// the correctness-check ledger, benchmark-owned spans, telemetry readouts
// and the result record every workload fills in.
#ifndef THEMIS_PERFBENCH_COMMON_H_
#define THEMIS_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace output of a traced run; empty = not written.
  std::string trace_out;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Accumulating stopwatch: Start/Stop pairs add up; the benchmark pauses it
/// around its own checks so they never count as system time.
class Stopwatch {
 public:
  void Start() { t0_ = Clock::now(); }
  void Stop() {
    laps_.push_back(SecondsSince(t0_));
    total_ += laps_.back();
  }
  double seconds() const { return total_; }
  /// Every Start-Stop interval, in order.
  const std::vector<double>& laps() const { return laps_; }

 private:
  Clock::time_point t0_;
  double total_ = 0.0;
  std::vector<double> laps_;
};

double Median(std::vector<double> xs);
/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> xs, double p);
double Mean(const std::vector<double>& xs);
/// Jain's fairness index; 0 for an empty or all-zero sample.
double Jain(const std::vector<double>& xs);
/// Peak resident set size of this process, MB.
double PeakRssMb();

/// \brief Named correctness checks, each counted as attempted / failed.
///
/// A failed check is reported, never hidden: the run still completes and
/// its result carries `correct: false`.
class Checks {
 public:
  /// Records one evaluation of check `name`; `detail` is printed (once per
  /// check name, first failure only) when `ok` is false.
  void Record(const std::string& name, bool ok, const std::string& detail = "");
  /// Records `attempted` evaluations of which `failed` failed.
  void Record(const std::string& name, uint64_t attempted, uint64_t failed,
              const std::string& detail);
  uint64_t attempted() const;
  uint64_t failed() const;
  void Print() const;

 private:
  struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string first_failure;
  };
  std::map<std::string, Tally> tallies_;
};

/// \brief Benchmark-owned spans (name, start, end, parent), recorded on the
/// driving thread around every call into a layer, kept in memory and
/// written out with the program's own spans at exit.
class Spans {
 public:
  /// Opens a span; returns its index. `name` must be a string literal.
  int Open(const char* name);
  void Close(int index);
  /// Appends the spans as Chrome-trace events (pid 2, run id in args).
  void AppendChromeEvents(std::string* out, uint64_t run_id) const;
  /// Time base: the installed program tracer's clock, so both kinds of
  /// spans share one timeline. Spans are recorded only in traced passes.
  void SetTimeBase(const themis::telemetry::SpanTracer* tracer) {
    tracer_ = tracer;
  }

 private:
  struct Span {
    const char* name;
    uint64_t start_us;
    uint64_t end_us;
    int parent;
  };
  uint64_t Now() const;

  const themis::telemetry::SpanTracer* tracer_ = nullptr;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a Spans recorder; a null recorder records nothing.
class SpanScope {
 public:
  SpanScope(Spans* spans, const char* name)
      : spans_(spans), index_(spans != nullptr ? spans->Open(name) : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int index_;
};

/// Durations (µs) of the program's spans, grouped by name, parsed from the
/// tracer's Chrome-trace export.
std::map<std::string, std::vector<double>> ProgramSpanDurations(
    const std::string& chrome_trace);

/// p-th percentile of a log2-bucketed registry histogram, reported as the
/// upper edge of the bucket holding it (0 when empty).
double HistogramPercentile(const themis::telemetry::Histogram& h, double p);

/// \brief A traced pass: installs a Telemetry with a span ring big enough
/// for the run (evictions are counted, not hidden) and uninstalls it on
/// destruction.
class TracedPass {
 public:
  TracedPass();
  ~TracedPass();
  TracedPass(const TracedPass&) = delete;
  TracedPass& operator=(const TracedPass&) = delete;

  themis::telemetry::Telemetry& telemetry() { return telemetry_; }
  themis::telemetry::MetricRegistry& metrics() { return telemetry_.metrics(); }
  uint64_t CounterValue(const char* name) {
    return metrics().GetCounter(name)->Value();
  }
  /// Batch-pool hits ÷ (hits + misses) over both data planes (infra.pool.*).
  double PoolHitRatio();
  /// Program spans recorded but overwritten in the rings.
  uint64_t evicted();
  /// Exports the program's spans (call after the traced work quiesced).
  std::string ExportTrace();

 private:
  themis::telemetry::Telemetry telemetry_;
};

/// Heap allocations so far (0 unless the counting allocator is linked).
uint64_t Allocations();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief Everything one run reports.
struct Result {
  Checks checks;
  std::vector<Metric> end_to_end;
  /// Per-layer values by name; see PerLayerMetrics() for the full list.
  std::map<std::string, double> per_layer;
  Spans spans;
  /// Program spans (Chrome-trace JSON) from the traced pass, if any.
  std::string program_trace;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  /// Sets a per-layer metric; the name must be one of PerLayerMetrics().
  void Layer(const std::string& name, double value);
};

/// Every per-layer metric (name, unit) in report order. A traced run
/// reports all of them; a layer that does no such work on a workload
/// reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Host record printed beside every result: core count, a single-thread
/// calibration score and the measured parallel capacity (k spin loops on
/// k = nproc threads vs one loop).
void PrintHostRecord();

/// Writes program and benchmark spans as one Chrome trace.
bool WriteTrace(const std::string& path, const Result& result,
                uint64_t run_id);

/// Prints metrics, checks and the final one-line JSON result.
void PrintResult(const Args& args, const Result& result);

}  // namespace perfbench

#endif  // THEMIS_PERFBENCH_COMMON_H_
