// Result records, spans and the shared helpers of the RADD benchmark.

#ifndef RADD_PERFBENCH_REPORT_H_
#define RADD_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// How a metric behaves between runs of one seed: sim-time values and
/// counts must repeat exactly, wall and memory values are host-noisy.
enum class Kind { kWall, kSim, kCount, kMemory };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Kind kind = Kind::kWall;
};

/// Everything one invocation measured. `e2e` holds the end-to-end metrics
/// that apply to the workload, `layers` the per-layer ones (traced runs).
struct Report {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  /// Units of work the correctness verdict covers (ops or schedules) and
  /// how many of them failed a check unexpectedly.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Oracle violations that make the run incorrect, and violations of
  /// the recorded known failures (known_failures.json), which do not.
  std::vector<std::string> violations;
  std::vector<std::string> expected_violations;
  std::vector<std::string> notes;

  void E2e(std::string name, double value, std::string unit, Kind kind) {
    e2e.push_back({std::move(name), value, std::move(unit), kind});
  }
  void Layer(std::string name, double value, std::string unit, Kind kind) {
    layers.push_back({std::move(name), value, std::move(unit), kind});
  }
  std::string ToJson() const;
};

/// In-memory span log of a traced run: one record per call the benchmark
/// makes into a layer (or a layer makes back into the benchmark's
/// wrappers). `parent` is the index of the enclosing span, so a handler's
/// self time is its duration minus its child sends. Written out at exit.
class Tracer {
 public:
  struct Span {
    uint64_t start_ns;
    uint64_t dur_ns;
    uint64_t op;      ///< request id the call belongs to (0 = unknown)
    int32_t parent;   ///< enclosing span index, -1 at top level
    uint16_t name;    ///< id returned by Name()
    uint16_t site;
  };

  Tracer() : epoch_(Clock::now()) {}
  /// Registers a span name; returns its id.
  uint16_t Name(const std::string& name);
  /// Opens a span; returns its index for End().
  int32_t Begin(uint16_t name, uint32_t site, uint64_t op) {
    spans_.push_back({Now(), 0, op, open_, name,
                      static_cast<uint16_t>(site)});
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
  }
  void End(int32_t index) {
    Span& s = spans_[static_cast<size_t>(index)];
    s.dur_ns = Now() - s.start_ns;
    open_ = s.parent;
  }
  /// Records an already-timed span (e.g. measured on a worker thread).
  void Add(uint16_t name, uint32_t site, uint64_t op, uint64_t start_ns,
           uint64_t dur_ns) {
    spans_.push_back({start_ns, dur_ns, op, -1, name,
                      static_cast<uint16_t>(site)});
  }
  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  struct Summary {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;  ///< total minus time covered by child spans
  };
  /// Per-name totals over every recorded span.
  std::vector<Summary> Summarize() const;
  size_t size() const { return spans_.size(); }
  /// Writes every span as TSV (name, site, op, parent, start_ns, dur_ns)
  /// under a "# stamp" line.
  bool WriteTsv(const std::string& path, const std::string& stamp) const;

 private:
  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// RAII span: no-op when `tracer` is null (untraced runs pay one branch).
class Scope {
 public:
  Scope(Tracer* tracer, uint16_t name, uint32_t site, uint64_t op)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(name, site, op) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Peak resident set of this process so far, in MiB.
double PeakRssMiB();

/// Median of a sample (copied; 0 for an empty one).
double Median(std::vector<double> v);

/// Nearest-rank percentile `p` of a sample (sorted in place; 0 if empty).
double Percentile(std::vector<double>& v, double p);

/// JSON string literal for `s`.
std::string Quote(const std::string& s);

}  // namespace perfbench

#endif  // RADD_PERFBENCH_REPORT_H_
