// The sqod benchmark harness: a wire run (the real Server on loopback,
// driven by closed-loop Client threads) for end-to-end metrics, and a
// single-threaded traced replay of the same seeded ops for per-layer
// metrics. See sqodbench/README.md for the workloads and metric map.

#ifndef SQODBENCH_BENCH_H_
#define SQODBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/eval/tuple.h"
#include "workloads.h"

namespace sqodbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Outcome of one wire run.
struct WireRun {
  struct Sample {
    int64_t latency_ns = 0;  // client send -> decoded reply
    int64_t queue_ns = 0;    // server-reported queue wait
    int64_t server_ns = 0;   // server-reported prepare+execute (or
                             // materialize+maintain for a delta batch)
    bool write = false;      // an ApplyDelta batch (churn writer)
    int64_t end_ns = 0;      // completion, on the closed-loop clock
  };
  std::vector<double> setup_s;  // one entry per set-up
  std::vector<Sample> samples;  // completed ops
  int64_t attempted = 0;
  int64_t failed = 0;   // transport errors, error statuses, wrong answers
  // Time the closed loops ran. `load` runs one loop per server; the loops
  // are laid end to end on one closed-loop clock.
  double window_s = 0;
  double cpu_s = 0;     // process user+sys during the closed loops
  // Peak RSS at a fixed point of the run; < 0 = read it when the run ends.
  double peak_rss_mb = -1;
  std::string sizes;
  std::vector<std::string> errors;  // the first few failure messages
};

// Sets up `workload` `setups` times (keeping the last), then runs its
// closed loop for `seconds`.
WireRun RunWire(const std::string& workload, uint64_t seed, double seconds,
                int setups);

// Per-layer metrics from the traced in-process replay, which runs for about
// `seconds`. `attempted`/`failed` count the replayed ops and oracle
// mismatches.
struct ReplayRun {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};
ReplayRun RunReplay(const std::string& workload, uint64_t seed,
                    double seconds);

// True when `tuples` (sorted binary integer tuples) equal the oracle's.
bool SameAnswers(const std::vector<sqod::Tuple>& tuples,
                 const Answers& expected);

int64_t CpuNs();  // process-wide user+sys (getrusage RUSAGE_SELF)
double PeakRssMb();  // process high-water RSS so far
double Median(std::vector<double> v);

}  // namespace sqodbench

#endif  // SQODBENCH_BENCH_H_
