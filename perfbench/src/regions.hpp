// Start/stop region timing for the benchmark, in the shape of the
// CPPJoules region API but with host time (steady_clock) in place of RAPL
// energy. Regions wrap calls into the program's public functions from
// the outside; nothing inside src/ is instrumented.
//
// Every region adds its duration to a per-name total, which the
// end-to-end metrics (wall_s, setup_s) are summed from in both modes.
// When spans are kept (the traced run), each region is also recorded as
// a span with its parent region and the id of the cluster run it belongs
// to, held in memory and written out once the benchmark ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds since the benchmark process started (its first static
/// initialiser).
double now_s();

struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index into spans(), -1 for a root span
  std::uint32_t run = 0;
};

class Regions {
 public:
  explicit Regions(bool keep_spans) : keep_spans_(keep_spans) {}

  /// Open a region nested in the innermost open one; `name` must be a
  /// string literal (spans keep the pointer).
  void start(const char* name);
  /// Close the innermost open region.
  void stop();

  /// Run id stamped on spans opened from now on.
  void set_run(std::uint32_t run) { run_ = run; }

  double total(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per span; false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    double start_s;
    int span;
  };
  bool keep_spans_;
  std::uint32_t run_ = 0;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  std::map<std::string, double, std::less<>> totals_;
};

/// Scoped region: opens on construction, closes on stop() or scope exit.
class Region {
 public:
  Region(Regions& regions, const char* name) : regions_(regions) {
    regions_.start(name);
  }
  ~Region() {
    if (open_) regions_.stop();
  }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  void stop() {
    open_ = false;
    regions_.stop();
  }

 private:
  Regions& regions_;
  bool open_ = true;
};

}  // namespace perfbench
