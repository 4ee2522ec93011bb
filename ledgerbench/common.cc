#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace ledgerbench {

Nanos NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Nanos ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int CurrentThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void Sheet::Check(const std::string& name, bool ok, const std::string& detail) {
  auto it = checks.emplace(name, true).first;
  it->second = it->second && ok;
  if (!ok) {
    std::fprintf(stderr, "check failed: %s %s\n", name.c_str(), detail.c_str());
  }
}

bool Sheet::AllChecksPass() const {
  for (const auto& check : checks) {
    if (!check.second) return false;
  }
  return !checks.empty();
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Sheet::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (AllChecksPass() && failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << Num(m.value) << ", \"unit\": \"" << m.unit
        << "\", \"samples\": " << m.samples << "}";
    first = false;
  }
  out << "}, \"counts\": {";
  first = true;
  for (const auto& [name, v] : counts) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << Num(v);
    first = false;
  }
  out << "}, \"checks\": {";
  first = true;
  for (const auto& [name, ok] : checks) {
    out << (first ? "" : ", ") << "\"" << name << "\": "
        << (ok ? "true" : "false");
    first = false;
  }
  out << "}}";
  return out.str();
}

uint32_t Tracer::Begin(const std::string& name, uint64_t trace,
                       uint32_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.parent = parent;
  span.trace = trace;
  span.name = name;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.start = NowNs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  const Nanos now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = now;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, Nanos> Tracer::SelfTimeByName() const {
  const std::vector<Span> all = spans();
  std::unordered_map<uint32_t, std::vector<std::pair<Nanos, Nanos>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, Nanos> self;
  for (const Span& s : all) {
    Nanos covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      Nanos run_start = 0, run_end = -1;
      for (const auto& [b, e] : kids) {
        const Nanos cb = std::max(b, s.start), ce = std::min(e, s.end);
        if (ce <= cb) continue;
        if (cb > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = cb;
          run_end = ce;
        } else {
          run_end = std::max(run_end, ce);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    self[s.name] += (s.end - s.start) - covered;
  }
  return self;
}

std::map<std::string, std::pair<Nanos, size_t>> Tracer::TotalByName() const {
  std::map<std::string, std::pair<Nanos, size_t>> total;
  for (const Span& s : spans()) {
    total[s.name].first += s.end - s.start;
    total[s.name].second += 1;
  }
  return total;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans()) {
    if (s.name == name) out.push_back(NsToMs(s.end - s.start));
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"trace\": %llu, \"name\": "
                 "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.trace),
                 s.name.c_str(), static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace ledgerbench
