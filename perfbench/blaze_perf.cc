// blaze_perf: the measuring program of the repository benchmark.
//
// perfbench/run.py builds this file against ../src and drives it:
//
//   blaze_perf reference --workload pr-blaze|pr-memdisk --seed N --inputs I,J,..
//       [--scale X]
//       Runs PageRank with no cache pressure on each listed input and prints
//       one {"input": I, "rank_sum": .., "num_vertices": ..} line per input.
//   blaze_perf measure --workload W --seed N --seconds S --trace 0|1
//       --setup-rounds R [--refs RANK_SUM:VERTICES,..] [--scale X]
//       [--corrupt-reference] [--trace-out PATH]
//       Sets up R times (the last set-up is kept), measures for S seconds,
//       checks every result and prints one JSON line: attempted/failed
//       counts, the per-round set-up times, and the metrics of the mode
//       (end-to-end with --trace 0, per-layer with --trace 1).
//
// A pr-* run covers one PageRank input per reference given: input i is the
// graph generated with WorkloadParams::seed = 1000 * seed + i. The graph's
// shape moves ACT and disk writes by 20-40% from one generator seed to the
// next, so a run measures whole passes over all its inputs.
//
// Everything is measured from outside the engine. The program reads the
// public RunMetrics snapshot and MetricsRegistry instruments, and it times
// the calls it makes itself: the PageRank driver, ExtractDependencies, the
// CacheCoordinator hooks (through forwarding coordinators: one that times
// engine jobs, in every pr-* application, and one that times every hook and
// exists only in traced runs) and the BlazeServiceClient verbs. Traced runs
// keep spans in memory and write them out as JSON lines at the end.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/blaze/blaze_coordinator.h"
#include "src/blaze/profiler.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/dataflow/cache_coordinator.h"
#include "src/dataflow/job_server.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/dataflow/task_context.h"
#include "src/dataflow/tenant.h"
#include "src/metrics/registry.h"
#include "src/metrics/run_metrics.h"
#include "src/net/message.h"
#include "src/workloads/pagerank.h"

namespace blaze::perf {
namespace {

// Engine shape of the bench harness (bench/harness.cc): 4 executors x 2
// threads, PageRank's calibrated memory store (working set 2-4x of it) and
// the throttled cache disk.
constexpr size_t kExecutors = 4;
constexpr size_t kThreadsPerExecutor = 2;
constexpr uint64_t kPrCapacityPerExecutor = MiB(1) + KiB(768);
constexpr uint64_t kPrDiskThroughput = 32ULL << 20;

// serve-rpc traffic. Two tenants with two closed-loop clients each; the
// dataset pool is 12 x 8192 rows of (key < 1024, value), ~60% of which fits
// in memory, read with Zipf(1.1) popularity; 15% of jobs shuffle.
constexpr int kClients = 4;
constexpr int kServeDatasets = 12;
constexpr size_t kServeRows = 8192;
constexpr size_t kServePartitions = 8;
constexpr uint32_t kServeKeySpace = 1024;
constexpr double kZipfAlpha = 1.1;
constexpr double kShuffleFrac = 0.15;
constexpr uint64_t kServeDiskThroughput = 64ULL << 20;
// An application on serve-rpc is a pipeline: one client's jobs, submitted
// back to back, each after the previous one's reply.
constexpr int kJobsPerApplication = 8;
// Poll interval of BlazeServiceClient::WaitDone, mirrored by the traced loop
// that times each Status call.
constexpr int kStatusPollMs = 10;

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  int setup_rounds = 0;  // measure mode: required
  bool corrupt_reference = false;
  std::vector<uint64_t> inputs;  // reference mode: the inputs to compute
  std::vector<std::pair<double, uint32_t>> refs;  // measure mode: per input
  std::string trace_out;
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "blaze_perf: %s\n", message.c_str());
  std::exit(2);
}

double ParseDouble(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) {
    Fail("bad number for " + flag + ": " + text);
  }
  return v;
}

uint64_t ParseU64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    Fail("bad integer for " + flag + ": " + text);
  }
  return v;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t end = std::min(text.find(',', pos), text.size());
    out.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

Options ParseOptions(int argc, char** argv) {
  if (argc < 2) {
    Fail("usage: blaze_perf reference|measure --workload W --seed N ...");
  }
  Options o;
  o.mode = argv[1];
  if (o.mode != "reference" && o.mode != "measure") {
    Fail("unknown mode " + o.mode);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      o.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      Fail("flag " + flag + " needs a value");
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = ParseU64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = ParseDouble(flag, value);
    } else if (flag == "--trace") {
      o.trace = ParseU64(flag, value) != 0;
    } else if (flag == "--scale") {
      o.scale = ParseDouble(flag, value);
    } else if (flag == "--setup-rounds") {
      o.setup_rounds = static_cast<int>(ParseU64(flag, value));
    } else if (flag == "--inputs") {
      for (const std::string& item : SplitCommas(value)) {
        o.inputs.push_back(ParseU64(flag, item.c_str()));
      }
    } else if (flag == "--refs") {
      for (const std::string& item : SplitCommas(value)) {
        const size_t colon = item.find(':');
        if (colon == std::string::npos) {
          Fail("--refs wants RANK_SUM:VERTICES items, got " + item);
        }
        o.refs.emplace_back(ParseDouble(flag, item.substr(0, colon).c_str()),
                            static_cast<uint32_t>(ParseU64(flag, item.c_str() + colon + 1)));
      }
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (o.workload != "pr-blaze" && o.workload != "pr-memdisk" && o.workload != "serve-rpc") {
    Fail("unknown workload '" + o.workload + "' (pr-blaze, pr-memdisk, serve-rpc)");
  }
  if (o.scale <= 0.0 || o.seconds <= 0.0) {
    Fail("--scale and --seconds must be positive");
  }
  if (o.mode == "measure" && o.setup_rounds < 1) {
    Fail("measure needs a positive --setup-rounds");
  }
  if (o.workload != "serve-rpc" && o.mode == "measure" && o.refs.empty()) {
    Fail("pr-* measure needs --refs");
  }
  if (o.workload != "serve-rpc" && o.mode == "reference" && o.inputs.empty()) {
    Fail("pr-* reference needs --inputs");
  }
  if (o.seed > UINT64_MAX / 1000 - 1000 || o.refs.size() > 1000 ||
      std::any_of(o.inputs.begin(), o.inputs.end(), [](uint64_t i) { return i >= 1000; })) {
    Fail("--seed too large, or more than 1000 inputs");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The EXPECT_DOUBLE_EQ standard: equal within 4 units in the last place.
bool AlmostEqualUlps(double a, double b) {
  if (a == b) {
    return true;
  }
  if (std::isnan(a) || std::isnan(b) || std::signbit(a) != std::signbit(b)) {
    return false;
  }
  int64_t ia = 0;
  int64_t ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  return std::llabs(ia - ib) <= 4;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";  // "<layer>.<what>"; always a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(spans_, {});
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// The span, and request, whose work the current thread is doing.
struct SpanContext {
  uint64_t span = 0;
  uint64_t request = 0;
};
thread_local SpanContext tl_context;

// Records one span over its scope when `log` is non-null. With make_current
// it is also the thread's context until the scope ends, so calls the engine
// makes on this thread (OnJobStart, UnpersistRdd) become its children.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, SpanContext parent, bool make_current = false)
      : log_(log) {
    if (log_ == nullptr) {
      return;
    }
    span_.id = log_->NewId();
    span_.parent = parent.span;
    span_.request = parent.request;
    span_.name = name;
    if (make_current) {
      saved_ = tl_context;
      tl_context = context();
      restore_ = true;
    }
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) {
      return;
    }
    span_.end_ns = NowNs();
    if (restore_) {
      tl_context = saved_;
    }
    log_->Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanContext context() const { return {span_.id, span_.request}; }

 private:
  SpanLog* log_;
  Span span_;
  SpanContext saved_;
  bool restore_ = false;
};

// Self time of each span (its duration minus the union of its children's
// intervals inside it), summed per layer: the name up to the first '.'.
std::map<std::string, double> SelfMsByLayer(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv;
      iv.reserve(it->second.size());
      for (const Span* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) {
          iv.emplace_back(lo, hi);
        }
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = -1;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          covered += cur_hi > cur_lo ? cur_hi - cur_lo : 0;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered += cur_hi > cur_lo ? cur_hi - cur_lo : 0;
    }
    const std::string name = s.name;
    out[name.substr(0, name.find('.'))] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Forwarding coordinator: times every CacheCoordinator hook of the installed
// coordinator. Installed only in traced runs.

struct HookCounts {
  double lookups = 0.0;
  double hits = 0.0;
  double lookup_ms = 0.0;
  double admit_ms = 0.0;  // BlockComputed: the admission decision and its evictions
  double plan_ms = 0.0;   // job and stage lifecycle hooks
  double unpersist_ms = 0.0;

  void Add(const HookCounts& o, double sign = 1.0) {
    lookups += sign * o.lookups;
    hits += sign * o.hits;
    lookup_ms += sign * o.lookup_ms;
    admit_ms += sign * o.admit_ms;
    plan_ms += sign * o.plan_ms;
    unpersist_ms += sign * o.unpersist_ms;
  }
};

class TracingCoordinator final : public CacheCoordinator {
 public:
  TracingCoordinator(std::unique_ptr<CacheCoordinator> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  HookCounts Counts() const {
    const auto count = [](const std::atomic<uint64_t>& n) {
      return static_cast<double>(n.load(std::memory_order_relaxed));
    };
    const auto ms = [](const std::atomic<int64_t>& ns) {
      return static_cast<double>(ns.load(std::memory_order_relaxed)) / 1e6;
    };
    return {count(lookups_),  count(hits_),   ms(lookup_ns_),
            ms(admit_ns_),    ms(plan_ns_),   ms(unpersist_ns_)};
  }

  // OnJobStart runs on the submitting thread, so the thread's context (the
  // application or the server-side job) becomes the parent of every hook
  // span of that engine job, whichever executor thread it runs on.
  void OnJobStart(const JobInfo& job) override {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_[job.job_id] = tl_context;
    }
    Timed(&plan_ns_, "cache.on_job_start", tl_context, [&] { inner_->OnJobStart(job); });
  }
  void OnJobEnd(int job_id) override {
    Timed(&plan_ns_, "cache.on_job_end", JobContext(job_id),
          [&] { inner_->OnJobEnd(job_id); });
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.erase(job_id);
  }
  void OnStageStart(const StageInfo& stage) override {
    Timed(&plan_ns_, "cache.on_stage_start", JobContext(stage.job_id),
          [&] { inner_->OnStageStart(stage); });
  }
  void OnStageComplete(const StageInfo& stage) override {
    Timed(&plan_ns_, "cache.on_stage_complete", JobContext(stage.job_id),
          [&] { inner_->OnStageComplete(stage); });
  }
  std::optional<BlockPtr> Lookup(const RddBase& rdd, uint32_t partition,
                                 TaskContext& tc) override {
    std::optional<BlockPtr> block;
    Timed(&lookup_ns_, "cache.lookup", JobContext(tc.job_id()),
          [&] { block = inner_->Lookup(rdd, partition, tc); });
    lookups_.fetch_add(1, std::memory_order_relaxed);
    if (block.has_value()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return block;
  }
  void BlockComputed(const RddBase& rdd, uint32_t partition, const BlockPtr& block,
                     double compute_ms, TaskContext& tc) override {
    Timed(&admit_ns_, "cache.block_computed", JobContext(tc.job_id()),
          [&] { inner_->BlockComputed(rdd, partition, block, compute_ms, tc); });
  }
  bool IsManaged(const RddBase& rdd) const override { return inner_->IsManaged(rdd); }
  bool IsCacheCandidate(const RddBase& rdd) const override {
    return inner_->IsCacheCandidate(rdd);
  }
  void UnpersistRdd(const RddBase& rdd) override {
    Timed(&unpersist_ns_, "cache.unpersist", tl_context, [&] { inner_->UnpersistRdd(rdd); });
  }
  void OnBlocksLost(const std::vector<BlockId>& ids) override { inner_->OnBlocksLost(ids); }

 private:
  template <typename F>
  void Timed(std::atomic<int64_t>* sink, const char* name, SpanContext parent, F&& fn) {
    ScopedSpan span(log_, name, parent);
    const int64_t start = NowNs();
    fn();
    sink->fetch_add(NowNs() - start, std::memory_order_relaxed);
  }
  SpanContext JobContext(int job_id) const {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = jobs_.find(job_id);
    return it == jobs_.end() ? SpanContext{} : it->second;
  }

  std::unique_ptr<CacheCoordinator> inner_;
  SpanLog* log_;
  std::atomic<uint64_t> lookups_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<int64_t> lookup_ns_{0};
  std::atomic<int64_t> admit_ns_{0};
  std::atomic<int64_t> plan_ns_{0};
  std::atomic<int64_t> unpersist_ns_{0};
  mutable std::mutex jobs_mu_;
  std::unordered_map<int, SpanContext> jobs_;
};

// Forwarding coordinator that times each engine job from OnJobStart to the
// end of OnJobEnd, so that job percentiles rest on exact samples. It times
// nothing else.
class JobClock final : public CacheCoordinator {
 public:
  explicit JobClock(std::unique_ptr<CacheCoordinator> inner) : inner_(std::move(inner)) {}

  std::vector<double> TakeJobMs() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(job_ms_, {});
  }

  void OnJobStart(const JobInfo& job) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      start_ns_[job.job_id] = NowNs();
    }
    inner_->OnJobStart(job);
  }
  void OnJobEnd(int job_id) override {
    inner_->OnJobEnd(job_id);
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = start_ns_.find(job_id);
    if (it != start_ns_.end()) {
      job_ms_.push_back(static_cast<double>(end - it->second) / 1e6);
      start_ns_.erase(it);
    }
  }
  void OnStageStart(const StageInfo& stage) override { inner_->OnStageStart(stage); }
  void OnStageComplete(const StageInfo& stage) override { inner_->OnStageComplete(stage); }
  std::optional<BlockPtr> Lookup(const RddBase& rdd, uint32_t partition,
                                 TaskContext& tc) override {
    return inner_->Lookup(rdd, partition, tc);
  }
  void BlockComputed(const RddBase& rdd, uint32_t partition, const BlockPtr& block,
                     double compute_ms, TaskContext& tc) override {
    inner_->BlockComputed(rdd, partition, block, compute_ms, tc);
  }
  bool IsManaged(const RddBase& rdd) const override { return inner_->IsManaged(rdd); }
  bool IsCacheCandidate(const RddBase& rdd) const override {
    return inner_->IsCacheCandidate(rdd);
  }
  void UnpersistRdd(const RddBase& rdd) override { inner_->UnpersistRdd(rdd); }
  void OnBlocksLost(const std::vector<BlockId>& ids) override { inner_->OnBlocksLost(ids); }

 private:
  std::unique_ptr<CacheCoordinator> inner_;
  std::mutex mu_;
  std::unordered_map<int, int64_t> start_ns_;
  std::vector<double> job_ms_;
};

// ---------------------------------------------------------------------------
// Layer totals over a measured phase

double SumTaskWallMs(const RunMetricsSnapshot& s) {
  double total = 0.0;
  for (const auto& [job, m] : s.per_job) {
    total += m.task_wall_ms;
  }
  return total;
}

struct LayerTotals {
  double tasks = 0, task_busy_ms = 0, compute_ms = 0, recompute_ms = 0, task_retries = 0;
  double hits_memory = 0, misses = 0, evict_disk = 0, evict_discard = 0;
  double profile_ms = 0, ilp_wait_ms = 0, mckp_calls = 0, mckp_ms = 0;
  double disk_ms = 0, disk_read_bytes = 0, disk_write_bytes = 0, disk_peak_bytes = 0;
  double async_spills = 0, async_spill_ms = 0, async_fetches = 0, spill_rejects = 0;
  double spill_queue_peak = 0;
  double columnar_decodes = 0, columnar_decode_ms = 0, columnar_bytes = 0, columnar_row_bytes = 0;
  double admits = 0;
  LatencyHistogram task_hist, stage_hist, job_hist, disk_io_hist;
  HookCounts hooks;

  // Adds the difference `after - before` of one engine's RunMetrics.
  void AddRun(const RunMetricsSnapshot& a, const RunMetricsSnapshot& b) {
    const auto d = [](auto x, auto y) { return static_cast<double>(x) - static_cast<double>(y); };
    tasks += d(a.num_tasks, b.num_tasks);
    task_busy_ms += SumTaskWallMs(a) - SumTaskWallMs(b);
    compute_ms += d(a.total_task.compute_ms, b.total_task.compute_ms);
    recompute_ms += d(a.total_task.recompute_ms, b.total_task.recompute_ms);
    task_retries += d(a.task_failures, b.task_failures);
    hits_memory += d(a.cache_hits_memory, b.cache_hits_memory);
    misses += d(a.cache_misses, b.cache_misses);
    evict_disk += d(a.evictions_to_disk, b.evictions_to_disk);
    evict_discard += d(a.evictions_discard, b.evictions_discard);
    profile_ms += d(a.profiling_ms, b.profiling_ms);
    ilp_wait_ms += d(a.total_task.ilp_wait_ms, b.total_task.ilp_wait_ms);
    mckp_calls += d(a.solver_invocations, b.solver_invocations);
    mckp_ms += d(a.solver_ms, b.solver_ms);
    disk_ms += d(a.total_task.cache_disk_ms, b.total_task.cache_disk_ms);
    disk_read_bytes += d(a.total_task.cache_disk_bytes_read, b.total_task.cache_disk_bytes_read);
    disk_write_bytes += d(a.disk_bytes_written_total, b.disk_bytes_written_total);
    disk_peak_bytes = std::max(disk_peak_bytes, static_cast<double>(a.disk_bytes_peak));
    async_spills += d(a.async_spills, b.async_spills);
    async_spill_ms += d(a.async_spill_ms, b.async_spill_ms);
    async_fetches += d(a.async_fetches, b.async_fetches);
    spill_rejects += d(a.spill_queue_rejects, b.spill_queue_rejects);
    spill_queue_peak =
        std::max(spill_queue_peak, static_cast<double>(a.spill_queue_peak_depth));
    columnar_decodes += d(a.columnar_decodes, b.columnar_decodes);
    columnar_decode_ms += d(a.columnar_decode_ms, b.columnar_decode_ms);
    columnar_bytes += d(a.columnar_bytes, b.columnar_bytes);
    columnar_row_bytes += d(a.columnar_row_bytes, b.columnar_row_bytes);
  }

  // Adds the process-wide registry since its last Reset().
  void AddRegistry() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    admits += static_cast<double>(reg.Counter("audit.admit")->Value());
    reg.Histogram("task.latency_ms")->MergeInto(&task_hist);
    reg.Histogram("sched.stage_latency_ms")->MergeInto(&stage_hist);
    reg.Histogram("sched.job_latency_ms")->MergeInto(&job_hist);
    reg.Histogram("disk.io_ms")->MergeInto(&disk_io_hist);
  }
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(int attempted, int failed, const std::vector<double>& setup_rounds_s,
                 const std::vector<Metric>& metrics, const std::string& info) {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"setup_rounds_s\":[";
  for (size_t i = 0; i < setup_rounds_s.size(); ++i) {
    out += (i ? "," : "") + Num(setup_rounds_s[i]);
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + Num(metrics[i].value) +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "},\"info\":\"" + info + "\"}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Per-layer metrics every workload prints, from one traced phase. `ops` is
// the number of applications (pr-*) or jobs (serve-rpc) in it.
void AddLayerMetrics(const LayerTotals& t, double ops, std::vector<Metric>* out) {
  const auto per_op = [ops](double v) { return Ratio(v, ops); };
  const double mib = 1024.0 * 1024.0;
  const double lookups = t.hooks.lookups;
  std::vector<Metric> m = {
      {"dataflow.tasks", per_op(t.tasks), "count/op"},
      {"dataflow.task_p50_ms", t.task_hist.Snapshot().p50_ms, "ms"},
      {"dataflow.task_busy_ms", per_op(t.task_busy_ms), "ms/op"},
      {"dataflow.compute_ms", per_op(t.compute_ms), "ms/op"},
      {"dataflow.recompute_ms", per_op(t.recompute_ms), "ms/op"},
      {"dataflow.task_retries", per_op(t.task_retries), "count/op"},
      {"dataflow.stage_p50_ms", t.stage_hist.Snapshot().p50_ms, "ms"},
      {"dataflow.job_p50_ms", t.job_hist.Snapshot().p50_ms, "ms"},
      {"cache.lookups", per_op(lookups), "count/op"},
      {"cache.lookup_ms", per_op(t.hooks.lookup_ms), "ms/op"},
      {"cache.hit_ratio", Ratio(t.hooks.hits, lookups), "ratio"},
      {"cache.mem_hit_ratio", Ratio(t.hits_memory, lookups), "ratio"},
      {"cache.misses", per_op(t.misses), "count/op"},
      {"cache.admits", per_op(t.admits), "count/op"},
      {"cache.admit_ms", per_op(t.hooks.admit_ms), "ms/op"},
      {"cache.plan_ms", per_op(t.hooks.plan_ms), "ms/op"},
      {"cache.evict_disk", per_op(t.evict_disk), "count/op"},
      {"cache.evict_discard", per_op(t.evict_discard), "count/op"},
      {"cache.unpersist_ms", per_op(t.hooks.unpersist_ms), "ms/op"},
      {"blaze.profile_ms", per_op(t.profile_ms), "ms/op"},
      {"blaze.ilp_wait_ms", per_op(t.ilp_wait_ms), "ms/op"},
      {"solver.mckp_calls", per_op(t.mckp_calls), "count/op"},
      {"solver.mckp_ms", per_op(t.mckp_ms), "ms/op"},
      {"storage.disk_ms", per_op(t.disk_ms), "ms/op"},
      {"storage.disk_read_mib", per_op(t.disk_read_bytes) / mib, "MiB/op"},
      {"storage.disk_peak_mib", t.disk_peak_bytes / mib, "MiB"},
      {"storage.disk_io_p50_ms", t.disk_io_hist.Snapshot().p50_ms, "ms"},
      {"storage.async_spills", per_op(t.async_spills), "count/op"},
      {"storage.async_spill_ms", per_op(t.async_spill_ms), "ms/op"},
      {"storage.async_fetches", per_op(t.async_fetches), "count/op"},
      {"storage.spill_rejects", per_op(t.spill_rejects), "count/op"},
      {"storage.spill_queue_peak", t.spill_queue_peak, "count"},
      {"serialize.columnar_decodes", per_op(t.columnar_decodes), "count/op"},
      {"serialize.columnar_decode_ms", per_op(t.columnar_decode_ms), "ms/op"},
      {"serialize.columnar_ratio", Ratio(t.columnar_bytes, t.columnar_row_bytes), "ratio"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
  out->insert(out->end(), m.begin(), m.end());
}

// Self time per layer, per op, for the layers this benchmark records spans
// in (absent layers print 0), plus the span count.
void AddSelfTimeMetrics(const std::vector<Span>& spans, double ops, std::vector<Metric>* out) {
  std::map<std::string, double> self = SelfMsByLayer(spans);
  for (const char* layer : {"dataflow", "blaze", "cache", "client", "net", "jobserver"}) {
    out->push_back({std::string(layer) + ".self_ms", Ratio(self[layer], ops), "ms/op"});
  }
  out->push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
}

// ---------------------------------------------------------------------------
// pr-blaze / pr-memdisk

struct PrReference {
  double rank_sum = 0.0;
  uint32_t num_vertices = 0;
};

WorkloadParams PrParams(const Options& o, uint64_t input) {
  WorkloadParams p = PageRankWorkload().DefaultParams();
  p.scale = o.scale;
  p.seed = 1000 * o.seed + input;
  return p;
}

EngineConfig BaseConfig() {
  EngineConfig config;
  config.num_executors = kExecutors;
  config.threads_per_executor = kThreadsPerExecutor;
  return config;
}

PrReference RunPrReference(const Options& o, uint64_t input) {
  EngineConfig config = BaseConfig();
  config.memory_capacity_per_executor = GiB(1);  // no cache pressure: nothing is evicted
  EngineContext engine(config);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemOnly));
  const PageRankResult r = RunPageRank(engine, PrParams(o, input));
  return {r.rank_sum, r.num_vertices};
}

struct AppOutcome {
  double act_ms = 0.0;
  double disk_write_mib = 0.0;
  std::vector<double> job_ms;  // engine jobs, profiling jobs excluded
  bool correct = false;
};

// One PageRank application in a fresh engine, timed from driver start to the
// checked result (Blaze's profiling phase included: users pay it every run).
AppOutcome RunPrApp(const Options& o, uint64_t input, const PrReference& ref, uint64_t request,
                    SpanLog* log, LayerTotals* totals) {
  const bool blaze = o.workload == "pr-blaze";
  if (o.trace) {
    // Return the previous application's freed heap to the OS, so the traced
    // peak_rss_mib follows the largest application rather than the
    // allocator's retention across all of them. Both halves of a traced run
    // do it, so the tracing overhead compares like with like.
    malloc_trim(0);
  }
  EngineConfig config = BaseConfig();
  config.memory_capacity_per_executor =
      static_cast<uint64_t>(static_cast<double>(kPrCapacityPerExecutor) * o.scale);
  config.disk_throughput_bytes_per_sec = kPrDiskThroughput;
  EngineContext engine(config);
  const WorkloadParams params = PrParams(o, input);
  TracingCoordinator* tracer = nullptr;
  JobClock* clock = nullptr;

  AppOutcome outcome;
  Stopwatch act;
  {
    ScopedSpan app(log, "dataflow.application", {0, request}, /*make_current=*/true);
    std::unique_ptr<CacheCoordinator> coordinator;
    if (blaze) {
      // RunWithBlaze, spelled out so the profiling phase can be timed.
      auto blaze_coordinator = std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full());
      const WorkloadParams profiling_params = params.ForProfiling();
      ProfilingResult profiling;
      {
        ScopedSpan extract(log, "blaze.extract_dependencies", tl_context);
        profiling = ExtractDependencies(
            [profiling_params](EngineContext& e) { RunPageRank(e, profiling_params); },
            engine.num_executors());
      }
      blaze_coordinator->SeedProfile(profiling.profile);
      engine.metrics().RecordProfiling(profiling.elapsed_ms);
      coordinator = std::move(blaze_coordinator);
    } else {
      coordinator = std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                        EvictionMode::kMemAndDisk);
    }
    if (log != nullptr) {
      auto forwarding = std::make_unique<TracingCoordinator>(std::move(coordinator), log);
      tracer = forwarding.get();
      coordinator = std::move(forwarding);
    }
    auto timed = std::make_unique<JobClock>(std::move(coordinator));
    clock = timed.get();
    engine.SetCoordinator(std::move(timed));
    // The profiling engine publishes into the same process-wide registry;
    // this application's registry slice starts here.
    MetricsRegistry::Global().Reset();
    const PageRankResult result = RunPageRank(engine, params);
    outcome.correct = result.num_vertices == ref.num_vertices &&
                      AlmostEqualUlps(result.rank_sum, ref.rank_sum);
  }
  outcome.act_ms = act.ElapsedMillis();
  const RunMetricsSnapshot snap = engine.metrics().Snapshot();
  outcome.disk_write_mib = static_cast<double>(snap.disk_bytes_written_total) / (1024.0 * 1024.0);
  outcome.job_ms = clock->TakeJobMs();
  if (totals != nullptr) {
    totals->AddRun(snap, RunMetricsSnapshot{});
    totals->AddRegistry();
    if (tracer != nullptr) {
      totals->hooks.Add(tracer->Counts());
    }
  }
  return outcome;
}

struct PrPhase {
  std::vector<double> act_ms;
  std::vector<double> disk_write_mib;
  std::vector<double> job_ms;  // engine jobs of correct applications
  double wall_s = 0.0;
  int attempted = 0;
  int failed = 0;
  LayerTotals totals;
};

// Whole passes over the inputs, so every input weighs the same: at least
// one, and another only if it is expected to end within `seconds`.
void RunPrPhase(const Options& o, const std::vector<PrReference>& refs, double seconds,
                SpanLog* log, uint64_t* next_request, PrPhase* phase) {
  Stopwatch wall;
  double pass_s = 0.0;
  do {
    Stopwatch pass;
    for (uint64_t input = 0; input < refs.size(); ++input) {
      const AppOutcome app =
          RunPrApp(o, input, refs[input], (*next_request)++, log, &phase->totals);
      ++phase->attempted;
      if (!app.correct) {
        ++phase->failed;
        continue;
      }
      phase->act_ms.push_back(app.act_ms);
      phase->disk_write_mib.push_back(app.disk_write_mib);
      phase->job_ms.insert(phase->job_ms.end(), app.job_ms.begin(), app.job_ms.end());
    }
    pass_s = pass.ElapsedSeconds();
  } while (wall.ElapsedSeconds() + pass_s <= seconds);
  phase->wall_s = wall.ElapsedSeconds();
}

int MeasurePr(const Options& o) {
  std::vector<PrReference> refs;
  for (const auto& [rank_sum, vertices] : o.refs) {
    refs.push_back({o.corrupt_reference ? rank_sum * (1.0 + 1e-9) : rank_sum, vertices});
  }
  uint64_t next_request = 1;
  // Set-up: one untimed application per round warms the process (allocator,
  // page cache, code paths); run.py adds each round's reference runs.
  std::vector<double> setup_rounds_s;
  int attempted = 0;
  int failed = 0;
  for (int r = 0; r < o.setup_rounds; ++r) {
    Stopwatch round;
    const uint64_t input = static_cast<uint64_t>(r) % refs.size();
    const AppOutcome warm = RunPrApp(o, input, refs[input], next_request++, nullptr, nullptr);
    setup_rounds_s.push_back(round.ElapsedSeconds());
    ++attempted;
    failed += warm.correct ? 0 : 1;
  }

  std::vector<Metric> metrics;
  std::string info;
  if (!o.trace) {
    PrPhase phase;
    RunPrPhase(o, refs, o.seconds, nullptr, &next_request, &phase);
    attempted += phase.attempted;
    failed += phase.failed;
    metrics = {
        {"act_ms", Median(phase.act_ms), "ms"},
        {"disk_write_mib", Median(phase.disk_write_mib), "MiB"},
        {"job_p50_ms", Median(phase.job_ms), "ms"},
        {"job_p90_ms", Percentile(phase.job_ms, 0.90), "ms"},
        {"jobs_per_s", Ratio(static_cast<double>(phase.job_ms.size()), phase.wall_s), "1/s"},
    };
    info = "act_ms and disk_write_mib: median of " + std::to_string(phase.act_ms.size()) +
           " applications on " + std::to_string(refs.size()) +
           " inputs; job_p50_ms/job_p90_ms: " + std::to_string(phase.job_ms.size()) +
           " engine jobs";
  } else {
    // Half the time untraced, half traced: the difference is the overhead.
    PrPhase plain;
    RunPrPhase(o, refs, o.seconds / 2, nullptr, &next_request, &plain);
    SpanLog log;
    PrPhase traced;
    RunPrPhase(o, refs, o.seconds / 2, &log, &next_request, &traced);
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;
    const std::vector<Span> spans = log.Take();
    const double ops = static_cast<double>(traced.attempted);
    AddLayerMetrics(traced.totals, ops, &metrics);
    AddSelfTimeMetrics(spans, ops, &metrics);
    metrics.push_back({"client.job_p99_ms", Percentile(traced.job_ms, 0.99), "ms"});
    metrics.push_back(
        {"trace.overhead_act_ms", Median(traced.act_ms) - Median(plain.act_ms), "ms"});
    metrics.push_back(
        {"trace.overhead_job_p50_ms", Median(traced.job_ms) - Median(plain.job_ms), "ms"});
    if (!o.trace_out.empty() && !WriteSpans(spans, o.trace_out)) {
      Fail("cannot write spans to " + o.trace_out);
    }
    // PageRank makes no RPCs and has no tenants.
    for (const char* name : {"net.submit_rtt_p50_ms", "net.status_rtt_p50_ms",
                             "net.wire_ms_per_job", "jobserver.server_p50_ms"}) {
      metrics.push_back({name, 0.0, "ms"});
    }
    for (const char* name : {"net.status_calls_per_job", "net.rpc_failures", "tenant.rejects"}) {
      metrics.push_back({name, 0.0, "count"});
    }
    info = "per-layer values per application over " + std::to_string(traced.attempted) +
           " traced applications";
  }
  PrintResult(attempted, failed, setup_rounds_s, metrics, info);
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve-rpc

using Row = std::pair<uint32_t, uint64_t>;

// The generated inputs and their known answers: a scan job returns the
// dataset's row count, a shuffle job its distinct-key count.
struct ServeData {
  std::vector<std::vector<Row>> rows;
  std::vector<uint64_t> expect_scan;
  std::vector<uint64_t> expect_keys;
};

ServeData MakeServeData(const Options& o) {
  ServeData data;
  Rng rng(o.seed * 0x9E3779B97F4A7C15ULL + 0x5E12EULL);
  const auto n =
      std::max<size_t>(64, static_cast<size_t>(static_cast<double>(kServeRows) * o.scale));
  for (int d = 0; d < kServeDatasets; ++d) {
    std::vector<Row> rows;
    rows.reserve(n);
    std::vector<bool> seen(kServeKeySpace, false);
    uint64_t distinct = 0;
    for (size_t i = 0; i < n; ++i) {
      const auto key = static_cast<uint32_t>(rng.NextU64(kServeKeySpace));
      distinct += seen[key] ? 0 : 1;
      seen[key] = true;
      rows.emplace_back(key, rng.NextU64());
    }
    data.rows.push_back(std::move(rows));
    data.expect_scan.push_back(n);
    data.expect_keys.push_back(distinct);
  }
  if (o.corrupt_reference) {
    ++data.expect_scan[0];
    ++data.expect_keys[0];
  }
  return data;
}

std::string JobName(bool shuffle, int dataset) {
  return (shuffle ? "shuffle." : "scan.") + std::to_string(dataset);
}

struct JobSamples {
  std::vector<double> job_ms;
  std::vector<double> app_ms;
  std::vector<double> server_ms;
  std::vector<double> wire_ms;
  std::vector<double> submit_rtt_ms;
  std::vector<double> status_rtt_ms;
  double status_calls = 0;
  int attempted = 0;
  int failed = 0;
  int rpc_failures = 0;

  void MergeFrom(const JobSamples& o) {
    for (auto [dst, src] : {std::pair{&job_ms, &o.job_ms}, {&app_ms, &o.app_ms},
                            {&server_ms, &o.server_ms}, {&wire_ms, &o.wire_ms},
                            {&submit_rtt_ms, &o.submit_rtt_ms},
                            {&status_rtt_ms, &o.status_rtt_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    status_calls += o.status_calls;
    attempted += o.attempted;
    failed += o.failed;
    rpc_failures += o.rpc_failures;
  }
};

// One engine in multi-tenant mode behind a BlazeJobServer on loopback, with
// the cached dataset pool loaded and warm. Members are destroyed in reverse
// order: the server stops before the datasets and the engine go away.
class ServeBench {
 public:
  ServeBench(const ServeData& data, SpanLog* log) : data_(data), log_(log) {
    EngineConfig config = BaseConfig();
    uint64_t pool_bytes = 0;
    for (const auto& rows : data.rows) {
      pool_bytes += rows.size() * sizeof(Row);
    }
    config.memory_capacity_per_executor = pool_bytes * 6 / 10 / kExecutors;
    config.disk_throughput_bytes_per_sec = kServeDiskThroughput;
    config.shuffle_retention_jobs = 4;
    config.multi_tenant = true;
    for (const char* name : {"a", "b"}) {
      TenantSpec spec;
      spec.name = name;               // equal shares
      spec.max_in_flight_jobs = 2;    // the admission gate runs; two clients never exceed it
      config.tenants.push_back(std::move(spec));
    }
    engine_ = std::make_unique<EngineContext>(config);
    std::unique_ptr<CacheCoordinator> lru = std::make_unique<PolicyCoordinator>(
        engine_.get(), MakePolicy("lru"), EvictionMode::kMemAndDisk);
    if (log_ != nullptr) {
      auto forwarding = std::make_unique<TracingCoordinator>(std::move(lru), log_);
      tracer_ = forwarding.get();
      lru = std::move(forwarding);
    }
    engine_->SetCoordinator(std::move(lru));
    for (int d = 0; d < kServeDatasets; ++d) {
      auto ds = Parallelize<Row>(engine_.get(), "perf.pool" + std::to_string(d), data.rows[d],
                                 kServePartitions);
      ds->Cache();
      pool_.push_back(std::move(ds));
    }
    // Load the least popular dataset first, so the popular ones are the most
    // recently used when memory fills and the cold ones go to disk.
    for (int d = kServeDatasets - 1; d >= 0; --d) {
      pool_[d]->Count();
    }
    server_ = std::make_unique<BlazeJobServer>(engine_.get(), /*port=*/0);
    for (int d = 0; d < kServeDatasets; ++d) {
      server_->RegisterWorkload(JobName(false, d),
                                [this, d](EngineContext& engine, TenantId tenant, int tag,
                                          std::string* reject) {
                                  return Scan(engine, tenant, d, tag, reject);
                                });
      server_->RegisterWorkload(JobName(true, d),
                                [this, d](EngineContext& engine, TenantId tenant, int tag,
                                          std::string* reject) {
                                  return Shuffle(engine, tenant, d, tag, reject);
                                });
    }
    std::string error;
    if (!server_->Start(&error)) {
      Fail("job server failed to start: " + error);
    }
  }
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  EngineContext& engine() { return *engine_; }
  HookCounts hook_counts() const { return tracer_ != nullptr ? tracer_->Counts() : HookCounts{}; }

  uint64_t TenantRejects() const {
    uint64_t total = 0;
    const TenantRegistry* tenants = engine_->tenants();
    for (TenantId t = 0; t < tenants->num_tenants(); ++t) {
      total += tenants->Stats(t).jobs_rejected;
    }
    return total;
  }

  // Closed loop: `kClients` threads, two per tenant, each running pipelines
  // of kJobsPerApplication jobs. A client starts a pipeline only while
  // `keep_going(pipelines it finished)` holds.
  JobSamples RunClients(uint64_t seed, const std::function<bool(int)>& keep_going) {
    std::vector<JobSamples> per_client(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([this, c, seed, &keep_going, &per_client] {
        ClientLoop(c, seed, keep_going, &per_client[c]);
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    JobSamples all;
    for (const JobSamples& s : per_client) {
      all.MergeFrom(s);
    }
    return all;
  }

 private:
  // Detail a server-side job reports; the client checks it against the
  // known count of the job's dataset. The engine job is a dataflow span of
  // its own, so engine time is not counted as the job server's.
  std::string CountAs(EngineContext& engine, TenantId tenant,
                      const std::shared_ptr<RddBase>& target, std::string* reject) {
    std::string reason;
    std::vector<std::any> results;
    {
      ScopedSpan span(log_, "dataflow.run_job", tl_context, /*make_current=*/true);
      results = engine.RunJobAs(
          tenant, target, [](const BlockPtr& block) -> std::any { return block->NumRows(); },
          /*raw_blocks=*/true, &reason);
    }
    if (results.empty() && !reason.empty()) {
      *reject = reason;
      return {};
    }
    uint64_t rows = 0;
    for (const std::any& r : results) {
      rows += std::any_cast<size_t>(r);
    }
    return "rows=" + std::to_string(rows);
  }

  // The submit request's `iterations` field carries the client's request
  // tag, so the server-side span joins the client's trace.
  std::string Scan(EngineContext& engine, TenantId tenant, int d, int tag, std::string* reject) {
    ScopedSpan span(log_, "jobserver.workload", ContextForTag(tag), /*make_current=*/true);
    auto mapped = pool_[d]->Map(
        [](const Row& row) { return row.first ^ static_cast<uint32_t>(row.second); },
        "perf.scan");
    return CountAs(engine, tenant, mapped, reject);
  }

  // Shuffle jobs cache their aggregate, as an annotating user would, and it
  // is never read again. Each admission pushes LRU victims to disk, which is
  // what keeps cold data cycling through the disk tier (the engine does not
  // promote disk hits back to memory). The aggregates stay referenced until
  // teardown.
  std::string Shuffle(EngineContext& engine, TenantId tenant, int d, int tag,
                      std::string* reject) {
    ScopedSpan span(log_, "jobserver.workload", ContextForTag(tag), /*make_current=*/true);
    auto reduced = ReduceByKey<uint32_t, uint64_t>(
        pool_[d], [](const uint64_t& a, const uint64_t& b) { return a + b; }, kServePartitions,
        "perf.reduce");
    reduced->Cache();
    {
      std::lock_guard<std::mutex> lock(aggregates_mu_);
      aggregates_.push_back(reduced);
    }
    return CountAs(engine, tenant, reduced, reject);
  }

  SpanContext ContextForTag(int tag) {
    if (log_ == nullptr) {
      return {};
    }
    std::lock_guard<std::mutex> lock(tags_mu_);
    const auto it = job_spans_.find(tag);
    return it == job_spans_.end() ? SpanContext{0, static_cast<uint64_t>(tag)} : it->second;
  }

  void ClientLoop(int c, uint64_t seed, const std::function<bool(int)>& keep_going,
                  JobSamples* out) {
    BlazeServiceClient client(server_->port());
    const std::string tenant = c % 2 == 0 ? "a" : "b";
    Rng rng(seed * 0xD1B54A32D192ED03ULL + static_cast<uint64_t>(c) + 1);
    for (int pipelines = 0; keep_going(pipelines); ++pipelines) {
      Stopwatch app;
      bool app_ok = true;
      for (int j = 0; j < kJobsPerApplication; ++j) {
        const auto d = static_cast<int>(rng.NextPowerLaw(kServeDatasets, kZipfAlpha));
        const bool shuffle = rng.NextDouble() < kShuffleFrac;
        app_ok &= RunJob(client, tenant, d, shuffle, out);
      }
      if (app_ok) {
        out->app_ms.push_back(app.ElapsedMillis());
      }
    }
  }

  // One job from Submit until Status reports a terminal state. Untraced runs
  // wait with WaitDone; traced runs poll Status themselves, at WaitDone's
  // interval, to time each call.
  bool RunJob(BlazeServiceClient& client, const std::string& tenant, int d, bool shuffle,
              JobSamples* out) {
    const int tag = next_tag_.fetch_add(1, std::memory_order_relaxed);
    ++out->attempted;
    ScopedSpan job_span(log_, "client.job", {0, static_cast<uint64_t>(tag)});
    if (log_ != nullptr) {
      std::lock_guard<std::mutex> lock(tags_mu_);
      job_spans_[tag] = job_span.context();
    }
    Stopwatch job;
    int64_t id = 0;
    std::string error;
    bool submitted = false;
    {
      ScopedSpan rpc(log_, "net.submit", job_span.context());
      Stopwatch rtt;
      submitted = client.Submit(tenant, JobName(shuffle, d), tag, &id, &error);
      if (log_ != nullptr) {
        out->submit_rtt_ms.push_back(rtt.ElapsedMillis());
      }
    }
    net::JobStatusRespMsg status;
    bool finished = false;
    if (submitted && log_ == nullptr) {
      finished = client.WaitDone(id, &status, /*timeout_ms=*/30000, &error);
    } else if (submitted) {
      for (;;) {
        bool ok = false;
        {
          ScopedSpan rpc(log_, "net.status", job_span.context());
          Stopwatch rtt;
          ok = client.Status(id, &status, &error);
          out->status_rtt_ms.push_back(rtt.ElapsedMillis());
        }
        out->status_calls += 1;
        if (!ok || (status.known && status.state != "queued" && status.state != "running")) {
          finished = ok;
          break;
        }
        if (job.ElapsedMillis() > 30000) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(kStatusPollMs));
      }
    }
    const double latency_ms = job.ElapsedMillis();
    if (!submitted || !finished) {
      ++out->rpc_failures;
      ++out->failed;
      std::fprintf(stderr, "blaze_perf: job %d: %s\n", tag, error.c_str());
      return false;
    }
    const uint64_t expect = shuffle ? data_.expect_keys[d] : data_.expect_scan[d];
    if (status.state != "done" || status.detail != "rows=" + std::to_string(expect)) {
      ++out->failed;
      std::fprintf(stderr, "blaze_perf: job %d (%s): state=%s detail='%s', want rows=%llu\n",
                   tag, JobName(shuffle, d).c_str(), status.state.c_str(),
                   status.detail.c_str(), static_cast<unsigned long long>(expect));
      return false;
    }
    out->job_ms.push_back(latency_ms);
    out->server_ms.push_back(status.elapsed_ms);
    out->wire_ms.push_back(latency_ms - status.elapsed_ms);
    return true;
  }

  const ServeData& data_;
  SpanLog* log_;
  TracingCoordinator* tracer_ = nullptr;
  std::unique_ptr<EngineContext> engine_;
  std::vector<RddPtr<Row>> pool_;
  std::mutex aggregates_mu_;
  std::vector<std::shared_ptr<RddBase>> aggregates_;
  std::mutex tags_mu_;
  std::unordered_map<int, SpanContext> job_spans_;
  std::atomic<int> next_tag_{1};
  std::unique_ptr<BlazeJobServer> server_;
};

// Builds the server and pool, then runs one untimed batch: one pipeline per
// client.
std::unique_ptr<ServeBench> SetUpServe(const ServeData& data, uint64_t seed, SpanLog* log,
                                       int* attempted, int* failed) {
  auto bench = std::make_unique<ServeBench>(data, log);
  const JobSamples warm = bench->RunClients(seed, [](int done) { return done < 1; });
  *attempted += warm.attempted;
  *failed += warm.failed;
  return bench;
}

struct ServePhase {
  JobSamples samples;
  double wall_s = 0.0;
  double ops = 0.0;  // jobs attempted
  LayerTotals totals;
  double tenant_rejects = 0.0;
};

ServePhase RunServePhase(ServeBench& bench, uint64_t seed, double seconds) {
  ServePhase phase;
  MetricsRegistry::Global().Reset();
  const RunMetricsSnapshot before = bench.engine().metrics().Snapshot();
  const HookCounts hooks_before = bench.hook_counts();
  const uint64_t rejects_before = bench.TenantRejects();
  Stopwatch wall;
  phase.samples = bench.RunClients(seed, [&wall, seconds](int) {
    return wall.ElapsedSeconds() < seconds;
  });
  phase.wall_s = wall.ElapsedSeconds();
  phase.totals.AddRun(bench.engine().metrics().Snapshot(), before);
  phase.totals.AddRegistry();
  phase.totals.hooks = bench.hook_counts();
  phase.totals.hooks.Add(hooks_before, -1.0);
  phase.tenant_rejects = static_cast<double>(bench.TenantRejects() - rejects_before);
  phase.ops = static_cast<double>(phase.samples.attempted);
  return phase;
}

int MeasureServe(const Options& o) {
  const ServeData data = MakeServeData(o);
  // The client streams depend on the seed only, so the set-up batch and the
  // measured phase replay different draws of the same distribution.
  const uint64_t warm_seed = o.seed * 2 + 1;
  const uint64_t run_seed = o.seed * 2 + 2;
  int attempted = 0;
  int failed = 0;
  std::vector<Metric> metrics;
  std::vector<double> setup_rounds_s;
  std::string info;
  if (!o.trace) {
    std::unique_ptr<ServeBench> bench;
    for (int r = 0; r < o.setup_rounds; ++r) {
      bench.reset();
      Stopwatch round;
      bench = SetUpServe(data, warm_seed, nullptr, &attempted, &failed);
      setup_rounds_s.push_back(round.ElapsedSeconds());
    }
    ServePhase phase = RunServePhase(*bench, run_seed, o.seconds);
    bench.reset();
    attempted += phase.samples.attempted;
    failed += phase.samples.failed;
    const JobSamples& s = phase.samples;
    const double apps = static_cast<double>(s.app_ms.size());
    metrics = {
        {"act_ms", Median(s.app_ms), "ms"},
        {"disk_write_mib", Ratio(phase.totals.disk_write_bytes, apps) / (1024.0 * 1024.0), "MiB"},
        {"job_p50_ms", Median(s.job_ms), "ms"},
        {"job_p90_ms", Percentile(s.job_ms, 0.90), "ms"},
        {"jobs_per_s", Ratio(static_cast<double>(s.job_ms.size()), phase.wall_s), "1/s"},
    };
    info = "act_ms: median of " + std::to_string(s.app_ms.size()) + " pipelines of " +
           std::to_string(kJobsPerApplication) + " jobs; job_p50_ms/job_p90_ms: " +
           std::to_string(s.job_ms.size()) + " jobs";
  } else {
    ServePhase plain;
    {
      auto bench = SetUpServe(data, warm_seed, nullptr, &attempted, &failed);
      plain = RunServePhase(*bench, run_seed, o.seconds / 2);
    }
    SpanLog log;
    ServePhase traced;
    {
      auto bench = SetUpServe(data, warm_seed, &log, &attempted, &failed);
      log.Take();  // set-up spans
      traced = RunServePhase(*bench, run_seed, o.seconds / 2);
    }
    attempted += plain.samples.attempted + traced.samples.attempted;
    failed += plain.samples.failed + traced.samples.failed;
    const std::vector<Span> spans = log.Take();
    const JobSamples& s = traced.samples;
    AddLayerMetrics(traced.totals, traced.ops, &metrics);
    AddSelfTimeMetrics(spans, traced.ops, &metrics);
    const std::vector<Metric> net = {
        {"net.submit_rtt_p50_ms", Median(s.submit_rtt_ms), "ms"},
        {"net.status_rtt_p50_ms", Median(s.status_rtt_ms), "ms"},
        {"net.status_calls_per_job", Ratio(s.status_calls, traced.ops), "count"},
        {"net.wire_ms_per_job", Median(s.wire_ms), "ms"},
        {"net.rpc_failures", static_cast<double>(s.rpc_failures), "count"},
        {"jobserver.server_p50_ms", Median(s.server_ms), "ms"},
        {"tenant.rejects", traced.tenant_rejects, "count"},
        {"client.job_p99_ms", Percentile(s.job_ms, 0.99), "ms"},
        {"trace.overhead_act_ms", Median(s.app_ms) - Median(plain.samples.app_ms), "ms"},
        {"trace.overhead_job_p50_ms", Median(s.job_ms) - Median(plain.samples.job_ms), "ms"},
    };
    metrics.insert(metrics.end(), net.begin(), net.end());
    if (!o.trace_out.empty() && !WriteSpans(spans, o.trace_out)) {
      Fail("cannot write spans to " + o.trace_out);
    }
    info = "per-layer values per job over " + std::to_string(s.attempted) + " traced jobs";
  }
  PrintResult(attempted, failed, setup_rounds_s, metrics, info);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace blaze::perf

int main(int argc, char** argv) {
  using namespace blaze::perf;
  const Options o = ParseOptions(argc, argv);
  if (o.mode == "reference") {
    if (o.workload == "serve-rpc") {
      Fail("serve-rpc computes its reference from the generated datasets");
    }
    for (const uint64_t input : o.inputs) {
      const PrReference ref = RunPrReference(o, input);
      std::printf("{\"input\":%llu,\"rank_sum\":%.17g,\"num_vertices\":%u}\n",
                  static_cast<unsigned long long>(input), ref.rank_sum, ref.num_vertices);
    }
    return 0;
  }
  return o.workload == "serve-rpc" ? MeasureServe(o) : MeasurePr(o);
}
