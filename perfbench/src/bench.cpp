#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "campaign/sampler.h"
#include "kernels/registry.h"
#include "util/rng.h"

namespace ftb::perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  mismatches.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void report(const std::string& name, double value, const char* unit,
            const std::string& detail) {
  std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit,
              detail.c_str());
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {0};
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return !cpus.empty() && sched_setaffinity(0, sizeof(set), &set) == 0;
}

Prepared prepare_program(std::string name, fi::ProgramPtr program,
                         std::uint64_t seed, std::uint64_t batch) {
  Prepared prepared;
  prepared.kernel = std::move(name);
  prepared.program = std::move(program);
  const auto begin = Clock::now();
  prepared.golden = fi::run_golden(*prepared.program);
  prepared.golden_ms = seconds_since(begin) * 1e3;
  util::Rng rng(seed);
  prepared.ids = campaign::sample_uniform(
      rng, prepared.golden.sample_space_size(), batch);
  return prepared;
}

Prepared prepare_paper_kernel(const std::string& kernel, std::uint64_t seed,
                              std::uint64_t batch) {
  return prepare_program(kernel,
                         kernels::make_program(kernel, kernels::Preset::kPaper),
                         seed, batch);
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

namespace {

thread_local std::vector<int> open_spans;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next++;
  return index;
}

std::string layer_of(const char* name) {
  const std::string text(name);
  return text.substr(0, text.find('.'));
}

}  // namespace

Trace::Span::Span(Trace& trace, const char* name, int parent) : trace_(trace) {
  if (!trace_.enabled()) return;
  if (parent == kEnclosing) {
    parent = open_spans.empty() ? kNoParent : open_spans.back();
  }
  id_ = trace_.open(name, parent);
  open_spans.push_back(id_);
}

Trace::Span::~Span() {
  if (!trace_.enabled()) return;
  trace_.close(id_);
  if (!open_spans.empty() && open_spans.back() == id_) open_spans.pop_back();
}

int Trace::open(const char* name, int parent) {
  Record record;
  record.name = name;
  record.parent = parent;
  record.pass = pass_;
  record.thread = thread_index();
  record.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
  return static_cast<int>(records_.size() - 1);
}

void Trace::close(int id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(id)].end_ns = end;
}

int Trace::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
               int parent) {
  if (!enabled_) return kNoParent;
  const int id = open(name, parent);
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(id)].start_ns = start_ns;
  records_[static_cast<std::size_t>(id)].end_ns = end_ns;
  return id;
}

std::map<std::string, double> Trace::layer_self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<int>> children(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].parent >= 0) {
      children[static_cast<std::size_t>(records_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& span = records_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const int child : children[i]) {
      const Record& c = records_[static_cast<std::size_t>(child)];
      const std::int64_t begin = std::max(c.start_ns, span.start_ns);
      const std::int64_t end = std::min(c.end_ns, span.end_ns);
      if (end > begin) covered.emplace_back(begin, end);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [begin, end] : covered) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) union_ns += end - from;
      reach = std::max(reach, end);
    }
    self[layer_of(span.name)] +=
        static_cast<double>(span.end_ns - span.start_ns - union_ns) * 1e-9;
  }
  return self;
}

bool Trace::write_json(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"pass\": %llu}}",
                  i == 0 ? "" : ",", r.name, layer_of(r.name).c_str(),
                  (r.start_ns - origin) / 1e3, (r.end_ns - r.start_ns) / 1e3,
                  r.thread, i, r.parent,
                  static_cast<unsigned long long>(r.pass));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace ftb::perfbench
