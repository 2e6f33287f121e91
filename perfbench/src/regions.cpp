#include "regions.hpp"

#include <chrono>
#include <cstdio>
#include <string_view>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

void Regions::start(const char* name) {
  int span = -1;
  const double t = now_s();
  if (keep_spans_) {
    span = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, t, t, open_.empty() ? -1 : open_.back().span, run_});
  }
  open_.push_back(Open{name, t, span});
}

void Regions::stop() {
  const double t = now_s();
  const Open top = open_.back();
  open_.pop_back();
  if (top.span >= 0) spans_[static_cast<std::size_t>(top.span)].end_s = t;
  auto it = totals_.find(std::string_view(top.name));
  if (it == totals_.end()) it = totals_.emplace(top.name, 0.0).first;
  it->second += t - top.start_s;
}

double Regions::total(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

bool Regions::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%d,\"run\":%u}\n",
                 i, s.name, s.start_s, s.end_s, s.parent, s.run);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
