// Shared plumbing of the ledger benchmark: wall/CPU clocks, sample sets
// with percentiles, the metric sheet printed at the end, and the span
// recorder of the traced run.
//
// Nothing here calls into the ledger; stages.cc does that.

#ifndef LEDGERBENCH_COMMON_H_
#define LEDGERBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ledgerbench {

using Nanos = int64_t;

/// Monotonic time in nanoseconds (steady_clock).
Nanos NowNs();
/// CPU time (user + system) of the whole process in nanoseconds.
Nanos ProcessCpuNs();
/// Process high-water resident set in MiB.
double PeakRssMiB();
/// Threads the process runs right now (/proc/self/status).
int CurrentThreads();

inline double NsToMs(Nanos ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(Nanos ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToS(Nanos ns) { return static_cast<double>(ns) / 1e9; }

/// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// \brief The benchmark's result sheet: metrics by name, plus the
/// attempted/failed operation counts and named output checks.
struct Sheet {
  struct Metric {
    double value = 0;
    std::string unit;
    size_t samples = 0;
  };
  std::map<std::string, Metric> metrics;
  /// Determinism counts: identical for two runs with one seed.
  std::map<std::string, double> counts;
  /// Output checks by name; a check recorded twice passes only if both
  /// passed.
  std::map<std::string, bool> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Record one output check; a failing check also prints its detail.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  bool AllChecksPass() const;
  /// One JSON object on one line.
  std::string ToJson() const;
};

/// \brief In-memory span recorder for the traced run. A span carries a
/// name, start and end, its parent span and a trace id (the batch, query
/// group or proof request it belongs to). Safe from any thread.
class Tracer {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;  // 0 = root
    uint64_t trace = 0;
    std::string name;
    Nanos start = 0;
    Nanos end = 0;
  };

  /// Opens a span; returns its id (0 when tracing is off).
  uint32_t Begin(const std::string& name, uint64_t trace, uint32_t parent = 0);
  void End(uint32_t id);
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Spans recorded so far (copy; call once the traced work is done).
  std::vector<Span> spans() const;
  /// Self time per span name: each span's duration minus the part of it
  /// its children cover, summed by name.
  std::map<std::string, Nanos> SelfTimeByName() const;
  /// Total duration and count per span name.
  std::map<std::string, std::pair<Nanos, size_t>> TotalByName() const;
  /// Durations of every span called `name`, in ms.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Write every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens in the constructor, closes in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t trace,
             uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, trace, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace ledgerbench

#endif  // LEDGERBENCH_COMMON_H_
