// Measurement containers and result emission for the loop benchmark.
//
// A run keeps raw samples (not just a summary), so every reported metric
// carries its sample count and its within-run spread next to the value.
// Two lines end the benchmark's standard output: a detailed report (host
// fingerprint, per-op accounting, every metric with samples and spread)
// and, last, the result object a caller parses:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#ifndef LOOPBENCH_REPORT_H_
#define LOOPBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace loopbench {

// Raw samples of one quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Linear-interpolated quantile, p in [0, 1]; 0 when empty.
  double Quantile(double p) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  double Mean() const { return empty() ? 0.0 : Sum() / size(); }
  // Interquartile range over the median (0 when the median is 0).
  double Spread() const;
  void Reserve(std::size_t n) { values_.reserve(n); }

 private:
  std::vector<double> values_;
};

// Attempted / succeeded / failed counts of one operation type.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;

  void Ok() { ++attempted; ++succeeded; }
  void Fail() { ++attempted; ++failed; }
  void Merge(const OpCount& o) {
    attempted += o.attempted;
    succeeded += o.succeeded;
    failed += o.failed;
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // repetitions behind the value
  double spread = 0.0;      // within-run IQR / median (or range / median)
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1, double spread = 0.0);
  // Median of `s`, with its count and spread.
  void SetMedian(const std::string& name, const Samples& s,
                 const std::string& unit);
  void SetQuantile(const std::string& name, const Samples& s, double p,
                   const std::string& unit);

  OpCount& op(const std::string& name) { return ops_[name]; }
  void Note(const std::string& key, double value) { notes_[key] = value; }
  void Check(const std::string& name, bool ok, const std::string& detail);

  bool correct() const { return failed_checks_ == 0; }
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  // The detailed report line (JSON object under "loopbench_report").
  std::string ReportJson(const std::string& workload, std::uint64_t seed,
                         double seconds, bool trace) const;
  // The result line: `names` selects (and orders) the metrics emitted.
  // Returns false and leaves `out` empty when a named metric is missing
  // or not finite.
  bool ResultJson(const std::vector<std::string>& names,
                  std::string* out) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, OpCount> ops_;
  std::map<std::string, double> notes_;
  // Check name -> {passed, failed}.
  std::map<std::string, std::pair<std::size_t, std::size_t>> checks_;
  std::size_t failed_checks_ = 0;
};

// nproc, CPU model, compiler and build type, as a JSON object.
std::string HostFingerprintJson();

// Host CPU time counters (/proc/stat, all CPUs): stolen and total ticks.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks ReadCpuTicks();

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace loopbench

#endif  // LOOPBENCH_REPORT_H_
