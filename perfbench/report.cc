#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kWall:
      return "wall";
    case Kind::kSim:
      return "sim";
    case Kind::kCount:
      return "count";
    case Kind::kMemory:
      return "memory";
  }
  return "wall";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void AppendMetrics(std::string& out, const std::vector<Metric>& metrics) {
  out += "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + ", \"kind\": " +
           Quote(KindName(m.kind)) + "}";
  }
  out += "}";
}

void AppendStrings(std::string& out, const std::vector<std::string>& v) {
  out += "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(v[i]);
  }
  out += "]";
}

}  // namespace

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Report::ToJson() const {
  std::string out = "{\"workload\": " + Quote(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"traced\": " + (traced ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"e2e\": ";
  AppendMetrics(out, e2e);
  out += ", \"layers\": ";
  AppendMetrics(out, layers);
  out += ", \"violations\": ";
  AppendStrings(out, violations);
  out += ", \"expected_violations\": ";
  AppendStrings(out, expected_violations);
  out += ", \"notes\": ";
  AppendStrings(out, notes);
  return out + "}";
}

uint16_t Tracer::Name(const std::string& name) {
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

std::vector<Tracer::Summary> Tracer::Summarize() const {
  std::vector<Summary> out(names_.size());
  for (const Span& s : spans_) {
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_ns += s.dur_ns;
    sum.self_ns += s.dur_ns;
    if (s.parent >= 0) {
      Summary& up = out[spans_[static_cast<size_t>(s.parent)].name];
      up.self_ns -= std::min(up.self_ns, s.dur_ns);
    }
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path,
                      const std::string& stamp) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# stamp %s\nname\tsite\top\tparent\tstart_ns\tdur_ns\n",
               stamp.c_str());
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%u\t%llu\t%d\t%llu\t%llu\n", names_[s.name].c_str(),
                 static_cast<unsigned>(s.site),
                 static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.dur_ns));
  }
  return std::fclose(f) == 0;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
