#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace loopbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Full precision: runs are compared on raw measurements.
std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double Samples::Quantile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Spread() const {
  const double median = Median();
  if (median == 0.0) return 0.0;
  return (Quantile(0.75) - Quantile(0.25)) / median;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 double spread) {
  metrics_[name] = Metric{value, unit, samples, spread};
}

void Report::SetMedian(const std::string& name, const Samples& s,
                       const std::string& unit) {
  Set(name, s.Median(), unit, s.size(), s.Spread());
}

void Report::SetQuantile(const std::string& name, const Samples& s, double p,
                         const std::string& unit) {
  Set(name, s.Quantile(p), unit, s.size(), s.Spread());
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  auto& [passed, failed] = checks_[name];
  if (ok) {
    ++passed;
    return;
  }
  ++failed;
  ++failed_checks_;
  std::fprintf(stderr, "loopbench: CHECK FAILED %s: %s\n", name.c_str(),
               detail.c_str());
}

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [name, c] : ops_) n += c.attempted;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const auto& [name, c] : ops_) n += c.failed;
  return n;
}

std::string Report::ReportJson(const std::string& workload,
                               std::uint64_t seed, double seconds,
                               bool trace) const {
  std::ostringstream o;
  o << "{\"loopbench_report\":{\"workload\":" << JsonString(workload)
    << ",\"seed\":" << seed << ",\"seconds\":" << JsonNumber(seconds)
    << ",\"trace\":" << (trace ? "true" : "false")
    << ",\"host\":" << HostFingerprintJson() << ",\"ops\":{";
  bool first = true;
  for (const auto& [name, c] : ops_) {
    o << (first ? "" : ",") << JsonString(name) << ":{\"attempted\":"
      << c.attempted << ",\"succeeded\":" << c.succeeded
      << ",\"failed\":" << c.failed << "}";
    first = false;
  }
  const std::uint64_t total = attempted();
  o << "},\"fail_ratio\":"
    << JsonNumber(total == 0 ? 0.0
                             : static_cast<double>(failed()) /
                                   static_cast<double>(total))
    << ",\"notes\":{";
  first = true;
  for (const auto& [key, value] : notes_) {
    o << (first ? "" : ",") << JsonString(key) << ":" << JsonNumber(value);
    first = false;
  }
  o << "},\"checks\":{";
  first = true;
  for (const auto& [name, counts] : checks_) {
    o << (first ? "" : ",") << JsonString(name) << ":{\"passed\":"
      << counts.first << ",\"failed\":" << counts.second << "}";
    first = false;
  }
  o << "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics_) {
    o << (first ? "" : ",") << JsonString(name)
      << ":{\"value\":" << JsonNumber(std::isfinite(m.value) ? m.value : -1)
      << ",\"unit\":" << JsonString(m.unit) << ",\"samples\":" << m.samples
      << ",\"spread\":" << JsonNumber(m.spread) << "}";
    first = false;
  }
  o << "}}}";
  return o.str();
}

bool Report::ResultJson(const std::vector<std::string>& names,
                        std::string* out) const {
  std::ostringstream o;
  o << "{\"correct\":" << (correct() ? "true" : "false")
    << ",\"attempted\":" << attempted() << ",\"failed\":" << failed()
    << ",\"metrics\":{";
  bool first = true;
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "loopbench: metric %s missing or not finite\n",
                   name.c_str());
      out->clear();
      return false;
    }
    o << (first ? "" : ",") << JsonString(name)
      << ":{\"value\":" << JsonNumber(it->second.value)
      << ",\"unit\":" << JsonString(it->second.unit) << "}";
    first = false;
  }
  o << "}}";
  *out = o.str();
  return true;
}

std::string HostFingerprintJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef LOOPBENCH_BUILD_TYPE
  const std::string build_type = LOOPBENCH_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  std::ostringstream o;
  o << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"cpu\":" << JsonString(cpu) << ",\"compiler\":"
    << JsonString(compiler) << ",\"build_type\":" << JsonString(build_type)
    << "}";
  return o.str();
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": the all-CPU line
  double value = 0.0;
  for (int field = 0; field < 10 && (stat >> value); ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace loopbench
