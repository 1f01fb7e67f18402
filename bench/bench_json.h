// Common JSON emitter for benchmark regression artifacts.
//
// Benches that participate in the perf trajectory write a BENCH_<name>.json
// file: a flat array of records, one per measured configuration, so CI can
// archive them and successive runs can be diffed mechanically. The format is
// deliberately boring — no nesting beyond one object per record, numbers as
// %.6g, insertion order preserved.

#ifndef RAS_BENCH_BENCH_JSON_H_
#define RAS_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/utsname.h>

#include "src/util/file_io.h"
#include "src/util/thread_pool.h"

namespace ras {
namespace bench {

// One flat JSON object; fields keep insertion order.
class JsonRecord {
 public:
  JsonRecord& Set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + Escape(value) + "\"");
    return *this;
  }
  JsonRecord& Set(const std::string& key, const char* value) {
    return Set(key, std::string(value));
  }
  JsonRecord& Set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonRecord& Set(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRecord& Set(const std::string& key, int value) {
    return Set(key, static_cast<int64_t>(value));
  }
  JsonRecord& Set(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

// Accumulates records and writes
// `{"bench": ..., <meta fields>, "records": [...]}`.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name) : bench_(std::move(bench_name)) {}

  // Top-level fields alongside "bench" — the shared schema (host, CPUs,
  // build) lives here so every BENCH_*.json is mechanically comparable.
  JsonRecord& Meta() { return meta_; }

  JsonRecord& AddRecord() {
    records_.emplace_back();
    return records_.back();
  }

  // Atomic (temp + rename): an interrupted bench leaves the previous
  // artifact intact, never a half-written JSON file. Returns false (and
  // prints to stderr) if the file cannot be written.
  bool WriteFile(const std::string& path) const {
    std::string out = "{\n  \"bench\": \"" + bench_ + "\",\n";
    std::string meta = meta_.ToString();
    if (meta.size() > 2) {  // More than the empty "{}".
      out += "  " + std::string(meta.begin() + 1, meta.end() - 1) + ",\n";
    }
    out += "  \"records\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out += "    " + records_[i].ToString() + (i + 1 < records_.size() ? "," : "") + "\n";
    }
    out += "  ]\n}\n";
    Status written = AtomicWriteFile(path, out);
    if (!written.ok()) {
      std::fprintf(stderr, "bench_json: %s\n", written.ToString().c_str());
      return false;
    }
    return true;
  }

 private:
  std::string bench_;
  JsonRecord meta_;
  std::vector<JsonRecord> records_;
};

// --- Shared schema, used by every trajectory bench ---

// Host, CPU and build-type fields common to every BENCH_*.json.
inline void AddStandardMeta(BenchJsonWriter& writer) {
  struct utsname un;
  const char* host = "unknown";
  const char* machine = "unknown";
  if (uname(&un) == 0) {
    host = un.nodename;
    machine = un.machine;
  }
  writer.Meta()
      .Set("host", host)
      .Set("machine", machine)
      .Set("usable_cpus", static_cast<int64_t>(UsableCpus()))
#ifdef NDEBUG
      .Set("build", "release");
#else
      .Set("build", "debug");
#endif
}

// The uniform determinism record: every trajectory bench re-runs its
// reference configuration and reports whether the outputs matched bitwise.
inline void AddDeterminismRecord(BenchJsonWriter& writer, const char* config,
                                 bool deterministic) {
  writer.AddRecord()
      .Set("config", std::string("determinism-check-") + config)
      .Set("deterministic", deterministic);
}

// Default output location: the repo root (RAS_BENCH_OUTPUT_DIR is injected
// by bench/CMakeLists.txt as CMAKE_SOURCE_DIR), so successive runs
// accumulate BENCH_*.json next to each other regardless of the build dir the
// binary runs from. An explicit CLI path still overrides.
#ifndef RAS_BENCH_OUTPUT_DIR
#define RAS_BENCH_OUTPUT_DIR "."
#endif
inline std::string DefaultOutputPath(const char* filename) {
  return std::string(RAS_BENCH_OUTPUT_DIR) + "/" + filename;
}

}  // namespace bench
}  // namespace ras

#endif  // RAS_BENCH_BENCH_JSON_H_
