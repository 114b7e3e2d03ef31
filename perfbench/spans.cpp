#include <algorithm>
#include <cstdio>
#include <fstream>

#include "perfbench.hpp"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.job = job_;
  const int index = static_cast<int>(records_.size());
  records_.push_back(rec);
  open_.push_back(index);
  records_.back().start_ns = now_ns();
  return index;
}

void SpanLog::end(int index) {
  records_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> SpanLog::median_self_ms() const {
  std::vector<std::int64_t> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = records_[i].end_ns - records_[i].start_ns;
  }
  for (const SpanRecord& rec : records_) {
    if (rec.parent >= 0) {
      self[static_cast<std::size_t>(rec.parent)] -= rec.end_ns - rec.start_ns;
    }
  }
  std::map<std::string, std::map<int, double>> per_job;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    per_job[records_[i].name][records_[i].job] += static_cast<double>(self[i]) / 1e6;
  }
  std::map<std::string, double> out;
  for (const auto& [name, jobs] : per_job) {
    std::vector<double> values;
    for (const auto& [job, ms] : jobs) values.push_back(ms);
    out[name] = median(std::move(values));
  }
  return out;
}

double SpanLog::median_root_share(const char* root) const {
  std::map<int, std::int64_t> covered;
  for (const SpanRecord& rec : records_) {
    if (rec.parent >= 0 &&
        std::string(records_[static_cast<std::size_t>(rec.parent)].name) == root) {
      covered[rec.parent] += rec.end_ns - rec.start_ns;
    }
  }
  std::vector<double> shares;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& rec = records_[i];
    if (rec.parent >= 0 || std::string(rec.name) != root) continue;
    const auto total = static_cast<double>(rec.end_ns - rec.start_ns);
    if (total <= 0.0) continue;
    shares.push_back((total - static_cast<double>(covered[static_cast<int>(i)])) /
                     total);
  }
  return median(std::move(shares));
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& rec = records_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%d,\"job\":%d}%s\n",
                  i, rec.name, static_cast<long long>(rec.start_ns),
                  static_cast<long long>(rec.end_ns), rec.parent, rec.job,
                  i + 1 < records_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
