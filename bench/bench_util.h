// Shared helpers for the reproduction benchmarks: table printing and environment-based scaling.
//
// Every binary prints the rows/series of its paper table or figure. Absolute numbers are
// host-specific (this substrate is an emulator, not the authors' HiKey board); the *shapes* —
// who wins, by what factor, where crossovers fall — are the reproduction targets, recorded in
// README.md.
//
// SBT_BENCH_SCALE scales workload sizes: 1 = quick CI sizes (default), larger = closer to the
// paper's 1M-events-per-window runs.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sbt {

inline int BenchScale() {
  const char* env = std::getenv("SBT_BENCH_SCALE");
  if (env == nullptr) {
    return 1;
  }
  const int v = std::atoi(env);
  return v < 1 ? 1 : v;
}

inline void PrintHeader(const char* title, const char* paper_claim) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper: %s\n", paper_claim);
  std::printf("%s\n", std::string(78, '-').c_str());
}

// Machine-readable mirror of a bench's printed table: a flat JSON array of row objects,
// written as BENCH_<name>.json so CI can upload the numbers as artifacts and chart the perf
// trajectory across commits. Rows land in SBT_BENCH_JSON_DIR (default: the current working
// directory — the build dir under ctest).
class JsonBenchReport {
 public:
  explicit JsonBenchReport(std::string name) : name_(std::move(name)) {}

  JsonBenchReport& BeginRow() {
    rows_.emplace_back();
    return *this;
  }
  JsonBenchReport& Num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return Raw(key, buf);
  }
  JsonBenchReport& Int(const char* key, uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    return Raw(key, buf);
  }
  JsonBenchReport& Bool(const char* key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonBenchReport& Str(const char* key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", c);
        quoted += esc;
      } else {
        quoted += c;
      }
    }
    quoted += '"';
    return Raw(key, quoted);
  }

  std::string path() const {
    const char* dir = std::getenv("SBT_BENCH_JSON_DIR");
    std::string out = dir != nullptr ? std::string(dir) + "/" : std::string();
    return out + "BENCH_" + name_ + ".json";
  }

  // Serializes the rows collected so far. False (with a note on stderr) if the file cannot be
  // written — benches keep their table output either way. Alongside the gated rows, a
  // BENCH_<name>_metrics.json SIDECAR carries the full metrics-registry snapshot for this run
  // (a separate file on purpose: bench_gate.py requires every field on every row of the gated
  // JSONs, so metrics must never ride in them), and any SBT_TRACE_DUMP / SBT_METRICS_DUMP
  // flight-recorder or registry dumps are flushed here too.
  bool Write() const {
    const std::string file = path();
    FILE* f = std::fopen(file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonBenchReport: cannot write %s\n", file.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fputs("  {", f);
      for (size_t j = 0; j < rows_[i].size(); ++j) {
        std::fprintf(f, "%s\"%s\": %s", j == 0 ? "" : ", ", rows_[i][j].first.c_str(),
                     rows_[i][j].second.c_str());
      }
      std::fprintf(f, "}%s\n", i + 1 == rows_.size() ? "" : ",");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    WriteMetricsSidecar();
    obs::MetricsRegistry::Global().DumpIfConfigured();
    obs::Tracer::Global().DumpIfConfigured();
    return true;
  }

 private:
  void WriteMetricsSidecar() const {
    const char* dir = std::getenv("SBT_BENCH_JSON_DIR");
    std::string file = dir != nullptr ? std::string(dir) + "/" : std::string();
    file += "BENCH_" + name_ + "_metrics.json";
    FILE* f = std::fopen(file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonBenchReport: cannot write %s\n", file.c_str());
      return;
    }
    const std::string json = obs::ToJson(obs::MetricsRegistry::Global().Snapshot());
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }

  JsonBenchReport& Raw(const char* key, std::string rendered) {
    if (rows_.empty()) {
      rows_.emplace_back();
    }
    rows_.back().emplace_back(key, std::move(rendered));
    return *this;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

}  // namespace sbt

#endif  // BENCH_BENCH_UTIL_H_
