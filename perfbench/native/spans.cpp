#include "spans.h"

#include <cstdio>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

void write_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

SpanLog::SpanLog() : owner_tid_(thread_index()) {}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), start_(Clock::now()) {
  record_.name = std::move(name);
  record_.id = log_.next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = open_spans.empty() ? 0 : open_spans.back();
  record_.tid = thread_index();
  open_spans.push_back(record_.id);
}

SpanLog::Scope::~Scope() {
  const Clock::time_point end = Clock::now();
  open_spans.pop_back();
  record_.start_us =
      std::chrono::duration<double, std::micro>(start_ - log_.t0_).count();
  record_.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
  log_.add(std::move(record_));
}

void SpanLog::add(Record record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) out.push_back(r.dur_us / 1000.0);
  }
  return out;
}

double SpanLog::total_s(std::string_view name) const {
  double ms = 0.0;
  for (const double d : durations_ms(name)) ms += d;
  return ms / 1000.0;
}

double SpanLog::top_level_s() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double us = 0.0;
  for (const Record& r : records_) {
    if (r.parent == 0 && r.tid == owner_tid_) us += r.dur_us;
  }
  return us / 1e6;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Record& r : records_) {
    if (!first) std::fputs(",\n", f);
    first = false;
    std::fputs("{\"name\":", f);
    write_json_string(f, r.name);
    std::fprintf(f,
                 ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu",
                 r.tid, r.start_us, r.dur_us,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
    for (const auto& [key, value] : r.args) {
      std::fputc(',', f);
      write_json_string(f, key);
      std::fprintf(f, ":%.17g", value);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
