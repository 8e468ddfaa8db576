// The wire run: the real sqod Server in this process on a loopback port
// (2 request workers, serial evaluation), driven by closed-loop Client
// threads, one per connection. A client sends its next op only after the
// previous reply is decoded, so a slower server receives less load.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/trace.h"

namespace sqodbench {
namespace {

using sqod::Client;
using sqod::ClientOptions;
using sqod::QueryParams;
using sqod::Response;
using sqod::Result;
using sqod::Server;
using sqod::ServerOptions;

constexpr int kRequestWorkers = 2;
// load: the service keeps every session it parses, so the server is
// replaced after this many ops, and peak RSS is read once kLoadRssOps ops
// have completed. The optimizer also interns every fresh variable name it
// makes in a process-wide table that is never freed, so RSS keeps growing
// with ops served; reading it after a fixed op count keeps peak_rss_mb a
// measure of what a fixed amount of work retains, not of throughput.
constexpr int64_t kLoadOpsPerServer = 400;
constexpr int64_t kLoadRssOps = 2000;
constexpr size_t kMaxErrors = 5;

// A server plus its client connections. Clients close before the server
// stops, so no reply is abandoned.
struct Fixture {
  std::unique_ptr<Server> server;
  std::vector<Client> clients;

  Fixture() = default;
  Fixture(Fixture&&) = default;
  Fixture& operator=(Fixture&&) = default;
  ~Fixture() { Stop(); }

  void Stop() {
    for (Client& client : clients) {
      if (client.connected()) client.Close();
    }
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
  }
};

Result<Fixture> StartFixture(int connections) {
  ServerOptions options;
  options.service.threads = kRequestWorkers;
  options.service.eval_threads = 1;
  Fixture fixture;
  fixture.server = std::make_unique<Server>(std::move(options));
  sqod::Status started = fixture.server->Start();
  if (!started.ok()) return started;
  ClientOptions client_options;
  client_options.port = fixture.server->port();
  for (int i = 0; i < connections; ++i) {
    Result<Client> client = Client::Connect(client_options);
    if (!client.ok()) return client.status();
    fixture.clients.push_back(std::move(client).value());
  }
  return fixture;
}

// What one op did; the loop records a sample for kOk and kWrong. kIdle:
// no op was sent this time round; kDone: this connection has no more ops.
enum class Outcome { kOk, kWrong, kTransport, kIdle, kDone };

// op(connection, client, sample, error) runs one op.
using OpFn = std::function<Outcome(int, Client&, WireRun::Sample*,
                                   std::string*)>;

class Recorder {
 public:
  explicit Recorder(WireRun* run) : run_(run) {}

  void Fail(std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    ++run_->failed;
    if (run_->errors.size() < kMaxErrors) {
      run_->errors.push_back(std::move(message));
    }
  }

  void Merge(int64_t attempted, std::vector<WireRun::Sample>* samples) {
    std::lock_guard<std::mutex> lock(mu_);
    run_->attempted += attempted;
    run_->samples.insert(run_->samples.end(), samples->begin(),
                         samples->end());
  }

 private:
  std::mutex mu_;
  WireRun* run_;
};

// Runs one closed-loop client thread per connection until `seconds` pass
// (seconds < 0: until every op fn reports kDone), and adds the window and
// process CPU time to `run`.
void ClosedLoop(std::vector<Client>& clients, double seconds, const OpFn& op,
                WireRun* run) {
  Recorder recorder(run);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const int64_t cpu0 = CpuNs();
  const int64_t t0 = sqod::NowNs();
  const int64_t clock0 = static_cast<int64_t>(run->window_s * 1e9);
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<WireRun::Sample> samples;
      int64_t attempted = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        WireRun::Sample sample;
        std::string error;
        const Outcome outcome =
            op(static_cast<int>(c), clients[c], &sample, &error);
        if (outcome == Outcome::kDone) break;
        if (outcome == Outcome::kIdle) continue;
        ++attempted;
        if (outcome != Outcome::kOk) recorder.Fail(std::move(error));
        if (outcome == Outcome::kTransport) break;
        sample.end_ns = clock0 + sqod::NowNs() - t0;
        samples.push_back(sample);
      }
      recorder.Merge(attempted, &samples);
    });
  }
  if (seconds >= 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (std::thread& t : threads) t.join();
  run->window_s += static_cast<double>(sqod::NowNs() - t0) * 1e-9;
  run->cpu_s += static_cast<double>(CpuNs() - cpu0) * 1e-9;
}

std::string Describe(const sqod::Status& status) {
  return std::string(sqod::StatusCodeName(status.code())) + ": " +
         status.message();
}

// Sends one query and checks its reply against the oracle `expected`
// (or, when `churn` is set, against the views' base/forward answers by
// snapshot version parity).
Outcome TimedQuery(Client& client, const QueryParams& params,
                   const Answers* expected, const ChurnView* churn,
                   WireRun::Sample* sample, std::string* error) {
  const int64_t t0 = sqod::NowNs();
  Result<Response> reply = client.Query(params);
  sample->latency_ns = sqod::NowNs() - t0;
  if (!reply.ok()) {
    *error = "transport: " + Describe(reply.status());
    return Outcome::kTransport;
  }
  const Response& response = reply.value();
  sample->queue_ns = response.queue_wait_ns;
  sample->server_ns = response.prepare_ns + response.execute_ns;
  if (!response.status.ok()) {
    *error = "query: " + Describe(response.status);
    return Outcome::kWrong;
  }
  if (churn != nullptr) {
    expected = response.snapshot_version % 2 == 0 ? &churn->base
                                                   : &churn->forward;
  }
  if (!SameAnswers(response.answers, *expected)) {
    *error = "answers differ from the oracle (" +
             std::to_string(response.answers.size()) + " vs " +
             std::to_string(expected->size()) + ")";
    return Outcome::kWrong;
  }
  return Outcome::kOk;
}

// Loads the named units and runs one checked warm query per unit, so the
// plan cache, the shared EDB snapshot and (materialized) the views are
// built before timing starts.
bool WarmUp(Fixture& fixture, const std::vector<std::string>& names,
            const std::vector<const std::string*>& sources,
            const std::vector<const Answers*>& answers, bool materialized,
            WireRun* run) {
  Client& client = fixture.clients[0];
  for (size_t i = 0; i < names.size(); ++i) {
    Result<Response> loaded = client.LoadProgram(names[i], *sources[i]);
    if (!loaded.ok() || !loaded.value().status.ok()) {
      run->errors.push_back("load_program " + names[i] + " failed: " +
                            Describe(loaded.ok() ? loaded.value().status
                                                 : loaded.status()));
      return false;
    }
    QueryParams params;
    if (materialized) {
      params.session = names[i];
      params.materialized = true;
    } else {
      params.source = *sources[i];
    }
    WireRun::Sample sample;
    std::string error;
    if (TimedQuery(client, params, answers[i], nullptr, &sample, &error) !=
        Outcome::kOk) {
      run->errors.push_back("warm-up " + names[i] + ": " + error);
      return false;
    }
  }
  return true;
}

// Starts a fixture and times it as one set-up; `warm` finishes the set-up.
Result<Fixture> TimedSetup(int connections,
                           const std::function<bool(Fixture&)>& warm,
                           WireRun* run) {
  const int64_t t0 = sqod::NowNs();
  Result<Fixture> fixture = StartFixture(connections);
  if (!fixture.ok()) return fixture.status();
  if (!warm(fixture.value())) return sqod::Status::Internal("set-up failed");
  run->setup_s.push_back(static_cast<double>(sqod::NowNs() - t0) * 1e-9);
  return fixture;
}

// Sets up `setups` times, stopping each fixture but the last.
Result<Fixture> RepeatedSetup(int setups, int connections,
                              const std::function<bool(Fixture&)>& warm,
                              WireRun* run) {
  Result<Fixture> fixture = TimedSetup(connections, warm, run);
  for (int i = 1; i < setups && fixture.ok(); ++i) {
    fixture.value().Stop();
    fixture = TimedSetup(connections, warm, run);
  }
  return fixture;
}

void FailSetup(const sqod::Status& status, WireRun* run) {
  run->attempted += 1;
  run->failed += 1;
  if (run->errors.size() < kMaxErrors) {
    run->errors.push_back("set-up: " + Describe(status));
  }
}

// serve: 3 connections of warm queries over the three serve units. Each
// query carries its unit's source; the service keys sessions by source
// text, so it lands on the session LoadProgram warmed. (Queries that
// address a session by name are answered from its materialized view in this
// server, which would skip evaluation.)
void RunServe(uint64_t seed, double seconds, int setups, WireRun* run) {
  const ServeInputs in = MakeServeInputs(seed);
  run->sizes = DescribeServe(in);
  std::vector<const std::string*> sources;
  std::vector<const Answers*> answers;
  for (const Unit& unit : in.units) {
    sources.push_back(&unit.source);
    answers.push_back(&unit.answers);
  }
  auto warm = [&](Fixture& f) {
    return WarmUp(f, in.names, sources, answers, false, run);
  };
  Result<Fixture> fixture = RepeatedSetup(setups, 3, warm, run);
  if (!fixture.ok()) return FailSetup(fixture.status(), run);
  std::atomic<uint64_t> next{0};
  ClosedLoop(fixture.value().clients, seconds,
             [&](int, Client& client, WireRun::Sample* sample,
                 std::string* error) {
               const Unit& unit = in.units[static_cast<size_t>(
                   ServeOpUnit(seed, next.fetch_add(1)))];
               QueryParams params;
               params.source = unit.source;
               return TimedQuery(client, params, &unit.answers, nullptr,
                                 sample, error);
             },
             run);
}

// load: rounds of kLoadOpsPerServer one-shot inline queries over 2
// connections, each round on a fresh server. Units are generated before a
// round starts, outside the timed set-up and loop.
void RunLoad(uint64_t seed, double seconds, int setups, WireRun* run) {
  run->sizes = "units over 12-32 nodes; " +
               std::to_string(kLoadOpsPerServer) + " ops per server";
  uint64_t base = 0;
  while (run->window_s < seconds ||
         static_cast<int>(run->setup_s.size()) < setups) {
    std::vector<Unit> units;
    units.reserve(static_cast<size_t>(kLoadOpsPerServer));
    for (int64_t i = 0; i < kLoadOpsPerServer; ++i) {
      units.push_back(MakeLoadUnit(seed, base + static_cast<uint64_t>(i)));
    }
    Result<Fixture> fixture =
        TimedSetup(2, [](Fixture&) { return true; }, run);
    if (!fixture.ok()) return FailSetup(fixture.status(), run);
    std::atomic<int64_t> next{0};
    ClosedLoop(fixture.value().clients, -1,
               [&](int, Client& client, WireRun::Sample* sample,
                   std::string* error) {
                 const int64_t i = next.fetch_add(1);
                 if (i >= kLoadOpsPerServer) return Outcome::kDone;
                 const Unit& unit = units[static_cast<size_t>(i)];
                 QueryParams params;
                 params.source = unit.source;
                 return TimedQuery(client, params, &unit.answers, nullptr,
                                   sample, error);
               },
               run);
    base += static_cast<uint64_t>(kLoadOpsPerServer);
    if (run->failed > 0) return;
    if (base == static_cast<uint64_t>(kLoadRssOps)) {
      run->peak_rss_mb = PeakRssMb();
    }
    // Return the retired server's memory to the OS, so the next round's
    // peak RSS starts from the same floor.
    fixture.value().Stop();
    malloc_trim(0);
  }
}

// churn: connection 0 streams ApplyDelta batches (forward, then inverse,
// per view); connections 1 and 2 read the views through materialized
// session queries. The writer keeps to kChurnReadsPerWrite reads per batch,
// so the op mix (and with it ops_per_s and cpu_ms_per_op) does not drift
// with scheduling.
void RunChurn(uint64_t seed, double seconds, int setups, WireRun* run) {
  const ChurnInputs in = MakeChurnInputs(seed);
  run->sizes = DescribeChurn(in);
  std::vector<std::string> names;
  std::vector<const std::string*> sources;
  std::vector<const Answers*> answers;
  for (const ChurnView& view : in.views) {
    names.push_back(view.name);
    sources.push_back(&view.source);
    answers.push_back(&view.base);
  }
  auto warm = [&](Fixture& f) {
    return WarmUp(f, names, sources, answers, true, run);
  };
  Result<Fixture> fixture = RepeatedSetup(setups, 3, warm, run);
  if (!fixture.ok()) return FailSetup(fixture.status(), run);
  uint64_t batch = 0;  // writer thread only
  std::mutex reads_mu;
  std::condition_variable reads_cv;
  int64_t reads_done = 0;  // guarded by reads_mu
  std::vector<int64_t> versions(in.views.size(), 0);
  std::atomic<uint64_t> next_read{0};
  ClosedLoop(
      fixture.value().clients, seconds,
      [&](int connection, Client& client, WireRun::Sample* sample,
          std::string* error) {
        if (connection == 0) {
          {
            std::unique_lock<std::mutex> lock(reads_mu);
            const int64_t due =
                kChurnReadsPerWrite * static_cast<int64_t>(batch);
            if (!reads_cv.wait_for(lock, std::chrono::milliseconds(20),
                                   [&] { return reads_done >= due; })) {
              return Outcome::kIdle;
            }
          }
          const uint64_t j = batch++;
          const size_t v = static_cast<size_t>(ChurnWriteView(j));
          const ChurnView& view = in.views[v];
          const bool forward = ChurnWriteForward(j);
          sample->write = true;
          const int64_t t0 = sqod::NowNs();
          Result<sqod::DeltaResponse> reply = client.ApplyDelta(
              view.name, forward ? view.forward_inserts : view.forward_deletes,
              forward ? view.forward_deletes : view.forward_inserts);
          sample->latency_ns = sqod::NowNs() - t0;
          if (!reply.ok()) {
            *error = "transport: " + Describe(reply.status());
            return Outcome::kTransport;
          }
          const sqod::DeltaResponse& response = reply.value();
          sample->queue_ns = response.queue_wait_ns;
          sample->server_ns = response.materialize_ns + response.maintain_ns;
          if (!response.status.ok()) {
            *error = "apply_delta: " + Describe(response.status);
            return Outcome::kWrong;
          }
          if (response.snapshot_version != ++versions[v]) {
            *error = "apply_delta: unexpected snapshot version " +
                     std::to_string(response.snapshot_version);
            return Outcome::kWrong;
          }
          return Outcome::kOk;
        }
        const ChurnView& view = in.views[static_cast<size_t>(
            ChurnReadView(seed, next_read.fetch_add(1)))];
        QueryParams params;
        params.session = view.name;
        params.materialized = true;
        const Outcome outcome =
            TimedQuery(client, params, nullptr, &view, sample, error);
        {
          std::lock_guard<std::mutex> lock(reads_mu);
          ++reads_done;
        }
        reads_cv.notify_one();
        return outcome;
      },
      run);
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t CpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

bool SameAnswers(const std::vector<sqod::Tuple>& tuples,
                 const Answers& expected) {
  if (tuples.size() != expected.size()) return false;
  for (size_t i = 0; i < tuples.size(); ++i) {
    const sqod::Tuple& t = tuples[i];
    if (t.size() != 2 || !t[0].is_int() || !t[1].is_int() ||
        t[0].as_int() != expected[i].first ||
        t[1].as_int() != expected[i].second) {
      return false;
    }
  }
  return true;
}

WireRun RunWire(const std::string& workload, uint64_t seed, double seconds,
                int setups) {
  WireRun run;
  if (workload == "serve") {
    RunServe(seed, seconds, setups, &run);
  } else if (workload == "load") {
    RunLoad(seed, seconds, setups, &run);
  } else {
    RunChurn(seed, seconds, setups, &run);
  }
  return run;
}

}  // namespace sqodbench
