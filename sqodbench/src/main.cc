// sqod_bench --workload serve|load|churn --seed N --seconds S --trace 0|1
//
// --trace 0: the wire run; prints the end-to-end metrics.
// --trace 1: a shorter wire run for the service/net ledger rows, then the
//            traced in-process replay; prints the per-layer metrics.
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// answer disagrees with the oracle or any op fails, 2 on bad arguments.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace sqodbench {
namespace {

// Set-ups per wire run; setup_s is their median.
constexpr int kSetups = 9;

// The harness runs on this many CPUs: the lowest-numbered ones it may use.
// Every op hands off between threads (client, poll thread, worker), and on
// a VM shared with other tenants waking an idle vCPU waits on the host
// scheduler. Spread over 4 vCPUs, serve's throughput moved by 25% between
// quiet and busy periods of the host; on 2 it stayed within 5%.
constexpr int kCpus = 2;

void PinToCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) <= kCpus) {
    return;
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < kCpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++n;
    }
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (args->workload == "serve" || args->workload == "load" ||
          args->workload == "churn") &&
         args->seconds > 0 && args->seconds <= 600 &&
         (args->trace == 0 || args->trace == 1);
}

// Nearest-rank percentile of latencies in ms.
double PercentileMs(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1e6;
}

// Latencies of reads (queries) or writes (delta batches) that completed in
// [from_ns, to_ns) of the closed-loop clock.
std::vector<int64_t> Latencies(const WireRun& run, bool writes,
                               int64_t from_ns = 0,
                               int64_t to_ns = INT64_MAX) {
  std::vector<int64_t> out;
  for (const WireRun::Sample& s : run.samples) {
    if (s.write == writes && s.end_ns >= from_ns && s.end_ns < to_ns) {
      out.push_back(s.latency_ns);
    }
  }
  return out;
}

// Throughput and latency percentiles are medians over kWindows equal
// slices of the closed-loop time, so a burst of noise from other tenants of
// the host moves one slice rather than the run. Each slice holds well over
// 1,000 queries, so at least 10 lie beyond its p99.
constexpr int kWindows = 10;

std::vector<Metric> EndToEnd(const WireRun& run) {
  const int64_t total_ns = static_cast<int64_t>(run.window_s * 1e9);
  std::vector<double> ops_per_s, p50, p99;
  for (int w = 0; w < kWindows; ++w) {
    const int64_t from = total_ns * w / kWindows;
    const int64_t to = total_ns * (w + 1) / kWindows;
    const std::vector<int64_t> reads = Latencies(run, false, from, to);
    const size_t writes = Latencies(run, true, from, to).size();
    ops_per_s.push_back(static_cast<double>(reads.size() + writes) /
                        (static_cast<double>(to - from) * 1e-9));
    p50.push_back(PercentileMs(reads, 50));
    p99.push_back(PercentileMs(reads, 99));
  }
  for (const auto& [name, values] :
       {std::make_pair("ops_per_s", &ops_per_s), std::make_pair("p50_ms", &p50),
        std::make_pair("p99_ms", &p99)}) {
    std::printf("# windows %s:", name);
    for (double v : *values) std::printf(" %.4g", v);
    std::printf("\n");
  }
  const double ops = static_cast<double>(run.samples.size());
  return {
      {"setup_s", Median(run.setup_s), "s"},
      {"ops_per_s", Median(ops_per_s), "1/s"},
      {"lat_p50_ms", Median(p50), "ms"},
      {"lat_p99_ms", Median(p99), "ms"},
      {"cpu_ms_per_op", ops > 0 ? run.cpu_s * 1e3 / ops : 0, "ms"},
      {"peak_rss_mb", run.peak_rss_mb >= 0 ? run.peak_rss_mb : PeakRssMb(),
       "MB"},
  };
}

// Lines printed for people, outside the result JSON: write latency on churn
// and failed_frac always.
void PrintDiagnostics(const WireRun& run) {
  const std::vector<int64_t> writes = Latencies(run, true);
  std::printf("# sizes: %s\n", run.sizes.c_str());
  std::printf("# ops: %zu reads, %zu writes in %.3f s (%d windows); %zu "
              "set-ups\n",
              run.samples.size() - writes.size(), writes.size(), run.window_s,
              kWindows, run.setup_s.size());
  if (!writes.empty()) {
    std::printf("write_lat_p50_ms %.6f ms\n", PercentileMs(writes, 50));
    std::printf("write_lat_p99_ms %.6f ms\n", PercentileMs(writes, 99));
  }
}

// The service and net ledger rows, from the wire run's replies.
std::vector<Metric> WireLedger(const WireRun& run) {
  double queue = 0, server = 0, overhead = 0;
  for (const WireRun::Sample& s : run.samples) {
    queue += static_cast<double>(s.queue_ns);
    server += static_cast<double>(s.server_ns);
    overhead += static_cast<double>(s.latency_ns - s.queue_ns - s.server_ns);
  }
  const double n = std::max<double>(1, static_cast<double>(run.samples.size()));
  return {
      {"service.queue_wait_us", queue / n / 1e3, "us"},
      {"service.server_us", server / n / 1e3, "us"},
      {"net.overhead_us", overhead / n / 1e3, "us"},
  };
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("failed_frac %s fraction\n",
              Number(attempted > 0 ? static_cast<double>(failed) /
                                         static_cast<double>(attempted)
                                   : 0)
                  .c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void ReportErrors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::fprintf(stderr, "sqod_bench: %s\n", e.c_str());
  }
}

}  // namespace
}  // namespace sqodbench

int main(int argc, char** argv) {
  using namespace sqodbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sqod_bench --workload serve|load|churn --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  PinToCpus();
  std::printf("# sqod_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::vector<Metric> metrics;
  int64_t attempted = 0, failed = 0;
  if (args.trace == 0) {
    const WireRun run =
        RunWire(args.workload, args.seed, args.seconds, kSetups);
    PrintDiagnostics(run);
    ReportErrors(run.errors);
    metrics = EndToEnd(run);
    attempted = run.attempted;
    failed = run.failed;
  } else {
    const WireRun run = RunWire(args.workload, args.seed, args.seconds / 2, 1);
    PrintDiagnostics(run);
    ReportErrors(run.errors);
    const ReplayRun replay =
        RunReplay(args.workload, args.seed, args.seconds / 2);
    ReportErrors(replay.errors);
    metrics = replay.metrics;
    for (Metric& m : WireLedger(run)) metrics.push_back(std::move(m));
    std::sort(metrics.begin(), metrics.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
    attempted = run.attempted + replay.attempted;
    failed = run.failed + replay.failed;
  }
  const bool correct = failed == 0 && attempted > 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
