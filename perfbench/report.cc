// Exact order statistics, metric lines and the result JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

// The ceil(q·n)-th smallest of sorted `v` (1-based rank), q in (0, 1].
size_t NearestRank(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

Percentiles ExactPercentiles(std::vector<double> samples, double tail_q) {
  Percentiles p;
  p.n = samples.size();
  if (p.n == 0) return p;
  std::sort(samples.begin(), samples.end());
  p.p50 = samples[NearestRank(p.n, 0.5) - 1];
  const size_t tail_rank = NearestRank(p.n, tail_q);
  p.tail = samples[tail_rank - 1];
  p.beyond = p.n - tail_rank;
  return p;
}

Percentiles WindowedPercentiles(const std::vector<double>& samples,
                                const std::vector<double>& at_s, double span_s,
                                size_t windows, double tail_q) {
  std::vector<std::vector<double>> slices(windows);
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto w = static_cast<size_t>(at_s[i] / span_s *
                                       static_cast<double>(windows));
    slices[std::min(w, windows - 1)].push_back(samples[i]);
  }
  std::vector<double> p50s, tails;
  Percentiles out;
  out.n = samples.size();
  out.beyond = out.n;
  for (auto& slice : slices) {
    if (slice.empty()) continue;
    const Percentiles p = ExactPercentiles(std::move(slice), tail_q);
    p50s.push_back(p.p50);
    tails.push_back(p.tail);
    out.beyond = std::min(out.beyond, p.beyond);
  }
  out.windows = p50s.size();
  if (out.windows == 0) return out;
  // Nearest-rank median, as for raw samples.
  std::sort(p50s.begin(), p50s.end());
  std::sort(tails.begin(), tails.end());
  const size_t mid = NearestRank(out.windows, 0.5) - 1;
  out.p50 = p50s[mid];
  out.tail = tails[mid];
  return out;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note,
                    bool json) {
  std::printf("metric %-36s %14.6f %-10s%s%s\n", name.c_str(), value,
              unit.c_str(), note.empty() ? "" : "  # ", note.c_str());
  if (json) json_.push_back({name, {value, unit}});
}

void Report::PrintResult(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < json_.size(); ++i) {
    char value[64];
    // %.17g keeps every digit the double carries; JSON has no inf/nan.
    const double v = json_[i].second.first;
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    if (i != 0) out += ", ";
    out += "\"" + json_[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + json_[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks t;
  // cpu user nice system idle iowait irq softirq steal ...
  uint64_t field[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (uint64_t& f : field) stat >> f;
  }
  for (const uint64_t f : field) t.busy += f;
  t.busy -= field[3] + field[4];  // idle, iowait
  t.steal = field[7];
  return t;
}

tq::runtime::MetricsView Delta(const tq::runtime::MetricsView& before,
                               const tq::runtime::MetricsView& after) {
  tq::runtime::MetricsView d;
#define PERFBENCH_SUB(name) d.name = after.name - before.name;
  TQ_METRICS_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  for (size_t f = 0; f < tq::runtime::kNumOpFamilies; ++f) {
    d.op_histograms[f].count =
        after.op_histograms[f].count - before.op_histograms[f].count;
    d.op_histograms[f].sum_ns =
        after.op_histograms[f].sum_ns - before.op_histograms[f].sum_ns;
  }
  return d;
}

void Accumulate(tq::runtime::MetricsView* a,
                const tq::runtime::MetricsView& b) {
#define PERFBENCH_ADD(name) a->name += b.name;
  TQ_METRICS_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  for (size_t f = 0; f < tq::runtime::kNumOpFamilies; ++f) {
    a->op_histograms[f].count += b.op_histograms[f].count;
    a->op_histograms[f].sum_ns += b.op_histograms[f].sum_ns;
  }
}

double HistMeanUs(const tq::runtime::MetricsView& v,
                  tq::runtime::OpFamily family) {
  return v.op_histograms[static_cast<size_t>(family)].MeanNs() / 1e3;
}

}  // namespace perfbench
