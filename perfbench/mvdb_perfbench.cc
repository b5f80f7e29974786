// Copyright 2026 The MarkoView Authors.
//
// Serve-path benchmark. One run builds the synthetic DBLP MVDB from a seed,
// compiles it and stands up a Server (QueryEngine::Serve), then drives it
// through the public serving API (Server::Submit) and the maintenance API
// (QueryEngine::ApplyDelta(ops, server)), checking every answer. See
// perfbench/README.md for the workloads, the metrics and what each metric
// is expected to move.
//
//   mvdb_perfbench --workload read-10k --seed 1 --seconds 5 --trace 0
//
// Phases, in order (every workload runs all of them, at its own scale):
//   setup    generate + translate + compile + Serve, repeated; the last
//            deployment serves the rest of the run;
//   oracle   untimed: each pooled request through Server::Execute (the
//            bitwise reference) and QueryEngine::Query(kMvIndex) (an
//            independent kernel, compared within 1e-9);
//   serial   one closed-loop client, Submit -> future ready;
//   trace    (--trace 1 only) the serial stream replayed layer by layer in
//            Server::ExecuteBatch's order, one span per call;
//   served   nproc closed-loop clients against the 2-worker server; on
//            write workloads one of them is replaced by an open-loop writer
//            of weight upserts and tombstone deletes;
//   delta    (read workloads) the same writer against an idle server;
//   insert   structural Student inserts, each followed by one read per shape;
//   verify   the maintained index must hash equal to a cold compile over the
//            mutated MVDB, and the pool is re-checked against kMvIndex.
//
// The last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Any failed operation or check makes the exit code 1.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "dblp/dblp.h"
#include "query/analysis.h"
#include "query/eval.h"
#include "serve/plan_cache.h"
#include "serve/server.h"
#include "trace.h"
#include "util/rng.h"
#include "util/scaled_double.h"

namespace mvdb {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Every timed phase yields at least this many samples, so a p90 has at
/// least ten samples beyond it.
constexpr size_t kMinSamples = 100;
constexpr double kOracleTolerance = 1e-9;
/// Workers of the served Server; clients outnumber them so requests queue
/// and batch.
constexpr int kServerWorkers = 2;

struct WorkloadSpec {
  const char* name;
  int authors;
  int setups;                ///< setup repetitions; setup_s is their median
  size_t pool_per_shape;     ///< pooled requests per query shape
  bool writer_with_readers;  ///< weight ops run during the served phase
  size_t writer_ops;         ///< weight ops (at least kMinSamples)
  /// Open-loop writer rate; 0 runs the ops back to back (closed loop).
  double writer_ops_per_s;
  int inserts;               ///< structural inserts, spread over --seconds
};

// Why each workload exists is in README.md. In short: read-1m is the
// paper's full scale (index larger than the L3), read-10k is cache-resident
// so fixed per-request costs dominate, and write-200k puts the writer beside
// the readers. Sample counts are sized so that each run's medians are
// steady across seeds; at 1M every pooled request costs ~0.2 s of oracle
// time and every insert ~4 s, so those counts stay small there. At 10K a
// weight op takes ~0.02 ms, so its idle-server ops run back to back: spaced
// out, they mostly timed how fast an idle vCPU wakes.
constexpr WorkloadSpec kWorkloads[] = {
    {"read-1m", 1000000, 3, 9, false, 100, 100.0, 2},
    {"read-10k", 10000, 15, 50, false, 100, 0.0, 48},
    {"write-200k", 200000, 3, 30, true, 240, 15.0, 16},
};

enum Shape { kStudents = 0, kAdvisor = 1, kAffiliation = 2, kNumShapes = 3 };
constexpr const char* kShapeNames[kNumShapes] = {"students", "advisor",
                                                 "affiliation"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int authors = 0;  ///< overrides the workload's scale (self-test only)
  bool perturb_oracle = false;  ///< self-test: the oracle must trip
  std::string trace_out;        ///< Chrome trace file of the traced replay
};

[[noreturn]] void Fatal(const std::string& msg) {
  std::fprintf(stderr, "mvdb_perfbench: %s\n", msg.c_str());
  std::exit(1);
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) Fatal(std::string(what) + ": " + st.ToString());
}

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

double SecondsSince(Clock::time_point t) { return MsSince(t) / 1e3; }

/// Linear-interpolated quantile, q in [0, 1]. NaN for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// VmRSS / VmHWM of this process, in MB.
double ProcStatusMb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;
    }
  }
  Fatal(std::string("cannot read ") + key + " from /proc/self/status");
}

/// FNV-style mix of one 64-bit word.
void FnvMix(uint64_t v, uint64_t* h) { *h = (*h ^ v) * 1099511628211ULL; }

uint64_t DoubleBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Digest of the generated dataset: every table's rows, weights and
/// variables, in insertion order.
uint64_t HashDatabase(const Database& db) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& name : db.table_names()) {
    const Table* t = db.Find(name);
    for (char c : name) FnvMix(static_cast<uint64_t>(c), &h);
    FnvMix(t->size(), &h);
    for (RowId r = 0; r < t->size(); ++r) {
      for (Value v : t->Row(r)) FnvMix(static_cast<uint64_t>(v), &h);
      if (t->probabilistic()) {
        FnvMix(DoubleBits(t->weight(r)), &h);
        FnvMix(static_cast<uint64_t>(t->var(r)), &h);
      }
    }
  }
  return h;
}

/// Flat topology + block probabilities + P0(NOT W): equal exactly when two
/// indexes would answer every query with the same bits.
uint64_t HashIndex(const MvIndex& index) {
  uint64_t h = 1469598103934665603ULL;
  const FlatObdd& flat = index.flat();
  FnvMix(static_cast<uint64_t>(static_cast<int64_t>(flat.root())), &h);
  FnvMix(flat.size(), &h);
  for (FlatId u = 0; u < static_cast<FlatId>(flat.size()); ++u) {
    FnvMix(static_cast<uint64_t>(static_cast<uint32_t>(flat.level(u))), &h);
    FnvMix(static_cast<uint64_t>(static_cast<uint32_t>(flat.lo(u))), &h);
    FnvMix(static_cast<uint64_t>(static_cast<uint32_t>(flat.hi(u))), &h);
  }
  for (const MvBlock& b : index.blocks()) {
    FnvMix(b.prob.mantissa_bits(), &h);
    FnvMix(static_cast<uint64_t>(b.prob.exponent_word()), &h);
  }
  FnvMix(DoubleBits(index.ProbNotW()), &h);
  return h;
}

// ---------------------------------------------------------------------------
// Answer checks.
// ---------------------------------------------------------------------------

bool SameBits(const std::vector<AnswerProb>& a,
              const std::vector<AnswerProb>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].head != b[i].head || DoubleBits(a[i].prob) != DoubleBits(b[i].prob)) {
      return false;
    }
  }
  return true;
}

bool WithinTolerance(const std::vector<AnswerProb>& a,
                     const std::vector<AnswerProb>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].head != b[i].head || !(std::fabs(a[i].prob - b[i].prob) <= kOracleTolerance)) {
      return false;
    }
  }
  return true;
}

bool InUnitRange(const std::vector<AnswerProb>& a) {
  for (const AnswerProb& x : a) {
    if (!(x.prob >= 0.0 && x.prob <= 1.0)) return false;
  }
  return true;
}

/// Operations attempted and failed in one phase. A failed operation has a
/// non-OK status (shed and deadline misses included) or a wrong answer.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void Record(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
  bool per_layer;
};

class Report {
 public:
  void EndToEnd(const std::string& name, double value, const char* unit,
                size_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples, false});
  }
  void Layer(const std::string& name, double value, const char* unit,
             size_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples, true});
  }

  void AddPhase(const std::string& phase, const Tally& t) {
    phases_.emplace_back(phase, std::make_pair(t.attempted.load(), t.failed.load()));
  }
  void AddCheckFailure(const std::string& what) { check_failures_.push_back(what); }

  /// Prints the human-readable tables, then the result JSON as the last
  /// line. Returns the process exit code.
  int Print(bool trace) const {
    uint64_t attempted = 0, failed = 0;
    std::printf("\n%-12s %10s %8s\n", "phase", "attempted", "failed");
    for (const auto& [phase, af] : phases_) {
      std::printf("%-12s %10llu %8llu\n", phase.c_str(),
                  static_cast<unsigned long long>(af.first),
                  static_cast<unsigned long long>(af.second));
      attempted += af.first;
      failed += af.second;
    }
    std::vector<std::string> failures = check_failures_;
    std::printf("\n%-34s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
    for (const Metric& m : metrics_) {
      std::printf("%-34s %16.6f %-6s %8zu%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.per_layer ? "  (layer)" : "");
      if (m.per_layer == trace && (!std::isfinite(m.value) || m.samples == 0)) {
        failures.push_back("metric " + m.name + " has no finite value");
      }
    }
    for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
    const bool correct = failed == 0 && failures.empty();
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed + failures.size());
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (m.per_layer != trace) continue;
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      json += std::string(first ? "" : ", ") + "\"" + m.name +
              "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> phases_;
  std::vector<std::string> check_failures_;
};

// ---------------------------------------------------------------------------
// Setup: seed -> server ready.
// ---------------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<Mvdb> mvdb;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<Server> server;  // declared last: destroyed first
};

struct SetupTimes {
  double generate_s = 0, translate_s = 0, compile_s = 0, serve_s = 0;
  uint64_t dataset_digest = 0;
  MvIndexBuildStats build;

  double total_s() const { return generate_s + translate_s + compile_s + serve_s; }
};

Deployment SetUp(int authors, uint64_t seed, int threads, SetupTimes* times) {
  Deployment d;
  dblp::DblpConfig cfg;
  cfg.num_authors = authors;
  cfg.include_affiliation = true;
  cfg.seed = seed;
  cfg.num_threads = threads;
  Clock::time_point t = Clock::now();
  auto mvdb = dblp::BuildDblpMvdb(cfg, nullptr);
  Check(mvdb.status(), "generate");
  d.mvdb = std::move(mvdb).value();
  times->generate_s = SecondsSince(t);

  // The digest is not part of setup time.
  times->dataset_digest = HashDatabase(d.mvdb->db());

  t = Clock::now();
  TranslateOptions topts;
  topts.num_threads = threads;
  Check(d.mvdb->Translate(topts), "translate");
  times->translate_s = SecondsSince(t);

  t = Clock::now();
  d.engine = std::make_unique<QueryEngine>(d.mvdb.get());
  CompileOptions copts;
  copts.num_threads = threads;
  Check(d.engine->Compile(copts), "compile");
  times->compile_s = SecondsSince(t);

  t = Clock::now();
  ServeOptions sopts;
  sopts.num_threads = kServerWorkers;
  auto server = d.engine->Serve(sopts);
  Check(server.status(), "serve");
  d.server = std::move(server).value();
  times->serve_s = SecondsSince(t);
  times->build = d.engine->index().build_stats();
  return d;
}

// ---------------------------------------------------------------------------
// Request pool and stream.
// ---------------------------------------------------------------------------

struct PoolEntry {
  Shape shape;
  Value aid;
  Ucq query;
};

/// pool_per_shape requests of each shape. Constants are drawn uniformly from
/// the shape's source table, so lineage start positions cover the whole
/// chain: students-of-advisor takes an advisor from Advisor, advisor-of-
/// student a student from Advisor, affiliation-of-author an author from
/// Affiliation (each therefore has at least one answer).
std::vector<PoolEntry> MakePool(Mvdb* mvdb, size_t per_shape, Rng* rng) {
  const Table* advisor = mvdb->db().Find("Advisor");
  const Table* affiliation = mvdb->db().Find("Affiliation");
  if (advisor == nullptr || affiliation == nullptr || advisor->size() == 0 ||
      affiliation->size() == 0) {
    Fatal("dataset has no Advisor or Affiliation rows");
  }
  std::vector<PoolEntry> pool;
  for (int s = 0; s < kNumShapes; ++s) {
    const Table* src = s == kAffiliation ? affiliation : advisor;
    const size_t col = s == kStudents ? 1 : 0;
    // Stratified: one uniform draw from each of per_shape equal slices of
    // the table, so every seed's pool spans the table (and the chain) alike.
    const double slice = static_cast<double>(src->size()) / static_cast<double>(per_shape);
    for (size_t i = 0; i < per_shape; ++i) {
      const RowId r = static_cast<RowId>(std::min<double>(
          (static_cast<double>(i) + rng->Uniform()) * slice,
          static_cast<double>(src->size() - 1)));
      const Value aid = src->At(r, col);
      const std::string name = dblp::AuthorName(static_cast<int>(aid));
      Ucq q = s == kStudents  ? dblp::StudentsOfAdvisorQuery(mvdb, name)
              : s == kAdvisor ? dblp::AdvisorOfStudentQuery(mvdb, name)
                              : dblp::AffiliationOfAuthorQuery(mvdb, name);
      pool.push_back(PoolEntry{static_cast<Shape>(s), aid, std::move(q)});
    }
  }
  return pool;
}

/// The request stream: seeded permutations of the pool, concatenated, so
/// every window of one pool length holds each shape in equal thirds.
class Stream {
 public:
  Stream(size_t pool_size, Rng* rng) {
    constexpr int kPasses = 16;
    for (int p = 0; p < kPasses; ++p) {
      std::vector<uint32_t> perm(pool_size);
      for (size_t i = 0; i < pool_size; ++i) perm[i] = static_cast<uint32_t>(i);
      for (size_t i = pool_size; i > 1; --i) {
        std::swap(perm[i - 1], perm[rng->Below(i)]);
      }
      order_.insert(order_.end(), perm.begin(), perm.end());
    }
  }
  uint32_t At(size_t i) const { return order_[i % order_.size()]; }
  const std::vector<uint32_t>& order() const { return order_; }

 private:
  std::vector<uint32_t> order_;
};

uint64_t HashStream(const std::vector<PoolEntry>& pool, const Stream& stream) {
  uint64_t h = 1469598103934665603ULL;
  for (const PoolEntry& e : pool) {
    FnvMix(static_cast<uint64_t>(e.shape), &h);
    FnvMix(static_cast<uint64_t>(e.aid), &h);
  }
  for (uint32_t i : stream.order()) FnvMix(i, &h);
  return h;
}

ServeRequest MakeRequest(const PoolEntry& e) {
  ServeRequest req;
  req.query = e.query;
  return req;
}

// ---------------------------------------------------------------------------
// Reads.
// ---------------------------------------------------------------------------

struct ReadSamples {
  std::vector<double> latency_ms, queue_ms, exec_ms;
};

/// One client: Submit -> future ready, timed, until `seconds` have passed
/// and at least kMinSamples requests completed. Answers must equal the
/// serial reference bit for bit.
ReadSamples RunSerial(Server* server, const std::vector<PoolEntry>& pool,
                      const Stream& stream,
                      const std::vector<std::vector<AnswerProb>>& refs,
                      double seconds, Tally* tally) {
  ReadSamples out;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < kMinSamples || SecondsSince(start) < seconds; ++i) {
    const uint32_t e = stream.At(i);
    ServeRequest req = MakeRequest(pool[e]);
    const Clock::time_point t = Clock::now();
    const ServeResult res = server->Submit(std::move(req)).get();
    out.latency_ms.push_back(MsSince(t));
    tally->Record(res.status.ok() && SameBits(res.answers, refs[e]));
  }
  return out;
}

struct WriterSamples {
  std::vector<double> latency_ms;  ///< from due time to return
  std::vector<double> lag_ms;      ///< how late each op started
  std::vector<double> other_ms;    ///< ApplyDelta minus the repair phases
  std::vector<double> replay_ms, reprobe_ms, products_ms;
};

/// Writer: every op goes through QueryEngine::ApplyDelta({op}, server).
/// Open loop when ops_per_s > 0: op k is due at start + k / ops_per_s and
/// its latency counts from the due time, so a stall also delays the ops
/// queued behind it. With ops_per_s == 0 the ops run back to back, each due
/// when the previous one returns: against an idle server a sparse stream
/// would mostly time how fast an idle vCPU wakes.
void RunWriter(QueryEngine* engine, Server* server,
               const std::vector<DeltaOp>& ops, double ops_per_s,
               WriterSamples* out, Tally* tally) {
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < ops.size(); ++k) {
    const Clock::time_point due =
        ops_per_s > 0 ? start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(static_cast<double>(k) / ops_per_s))
                      : Clock::now();
    // Sleep to just short of the due time, then spin: the generator's own
    // wake-up latency would otherwise be charged to every op.
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
    const Clock::time_point begin = Clock::now();
    const Status st = engine->ApplyDelta({ops[k]}, server);
    const Clock::time_point end = Clock::now();
    tally->Record(st.ok());
    const MvIndexRepairStats& rs = engine->index().last_repair_stats();
    const double call_ms = std::chrono::duration<double, std::milli>(end - begin).count();
    const double repair_ms =
        (rs.replay_seconds + rs.reprobe_seconds + rs.products_seconds) * 1e3;
    out->latency_ms.push_back(std::chrono::duration<double, std::milli>(end - due).count());
    out->lag_ms.push_back(std::chrono::duration<double, std::milli>(begin - due).count());
    out->other_ms.push_back(call_ms - repair_ms);
    out->replay_ms.push_back(rs.replay_seconds * 1e3);
    out->reprobe_ms.push_back(rs.reprobe_seconds * 1e3);
    out->products_ms.push_back(rs.products_seconds * 1e3);
  }
}

struct ServedResult {
  ReadSamples reads;
  double seconds = 0;     ///< phase duration
  uint64_t batches = 0;   ///< worker dequeues during the phase
  uint64_t dequeued = 0;  ///< requests those dequeues took
};

/// `readers` closed-loop clients pulling the shared stream, optionally with
/// the open-loop writer beside them. Runs until `seconds` have passed, the
/// readers completed kMinSamples requests, and the writer issued every op.
/// Without a writer answers must equal the reference bit for bit; with one,
/// weights move under the readers, so each answer must be OK and in [0, 1].
ServedResult RunServed(QueryEngine* engine, Server* server,
                       const std::vector<PoolEntry>& pool, const Stream& stream,
                       const std::vector<std::vector<AnswerProb>>& refs,
                       int readers, const std::vector<DeltaOp>* writer_ops,
                       double writer_ops_per_s, double seconds, Tally* tally,
                       WriterSamples* writer_out, Tally* writer_tally) {
  ServedResult out;
  const ServerStats before = server->stats();
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<ReadSamples> per_client(static_cast<size_t>(readers));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      ReadSamples& mine = per_client[static_cast<size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        const uint32_t e = stream.At(next.fetch_add(1));
        ServeRequest req = MakeRequest(pool[e]);
        const Clock::time_point t = Clock::now();
        const ServeResult res = server->Submit(std::move(req)).get();
        mine.latency_ms.push_back(MsSince(t));
        mine.queue_ms.push_back(res.queue_ms);
        mine.exec_ms.push_back(res.exec_ms);
        const bool ok = writer_ops == nullptr
                            ? res.status.ok() && SameBits(res.answers, refs[e])
                            : res.status.ok() && InUnitRange(res.answers);
        tally->Record(ok);
        completed.fetch_add(1);
      }
    });
  }
  if (writer_ops != nullptr) {
    RunWriter(engine, server, *writer_ops, writer_ops_per_s, writer_out,
              writer_tally);
  }
  while (SecondsSince(start) < seconds || completed.load() < kMinSamples) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  out.seconds = SecondsSince(start);
  const ServerStats after = server->stats();
  out.batches = after.batches - before.batches;
  out.dequeued = (after.completed + after.failed + after.deadline_exceeded) -
                 (before.completed + before.failed + before.deadline_exceeded);
  for (const ReadSamples& c : per_client) {
    for (auto [from, to] : {std::pair{&c.latency_ms, &out.reads.latency_ms},
                            std::pair{&c.queue_ms, &out.reads.queue_ms},
                            std::pair{&c.exec_ms, &out.reads.exec_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writes.
// ---------------------------------------------------------------------------

std::vector<Value> RowValues(const Table* t, RowId r) {
  const std::span<const Value> row = t->Row(r);
  return std::vector<Value>(row.begin(), row.end());
}

/// `n` single-tuple weight ops on distinct Student rows that appear in the
/// NOT W chain (a row with no chain node at its level would be a table
/// overwrite, not an index repair): every fifth a tombstone delete, the
/// rest weight upserts. Rows are sampled uniformly, so the repairs spread
/// over the whole chain.
std::vector<DeltaOp> MakeWeightOps(QueryEngine* engine, const Mvdb& mvdb,
                                   size_t n, Rng* rng) {
  const Table* student = mvdb.db().Find("Student");
  const BddManager& mgr = engine->manager();
  const FlatObdd& flat = engine->index().flat();
  std::set<RowId> chosen;
  std::vector<DeltaOp> ops;
  for (size_t tries = 0; ops.size() < n && tries < 10000 * n; ++tries) {
    const RowId r = static_cast<RowId>(rng->Below(student->size()));
    const VarId v = student->var(r);
    if (chosen.count(r) != 0 || !mgr.has_var(v)) continue;
    const auto [begin, end] = flat.NodesAtLevel(mgr.level_of_var(v));
    if (begin == end) continue;
    chosen.insert(r);
    DeltaOp op;
    op.table = "Student";
    op.values = RowValues(student, r);
    if (ops.size() % 5 == 4) {
      op.kind = DeltaOp::Kind::kDelete;
    } else {
      op.kind = DeltaOp::Kind::kUpdateWeight;
      op.weight = 0.5 + 1.5 * rng->Uniform();
    }
    ops.push_back(std::move(op));
  }
  if (ops.size() < n) Fatal("too few Student rows in the NOT W chain");
  return ops;
}

// ---------------------------------------------------------------------------
// Traced replay.
// ---------------------------------------------------------------------------

/// Same clamp as the server's Eq. 5 assembly.
double ClampProb(double p) {
  if (p < 0.0 && p > -1e-9) return 0.0;
  if (p > 1.0 && p < 1.0 + 1e-9) return 1.0;
  return p;
}

constexpr const char* kLayers[] = {"serve.plan", "query.eval", "obdd.synth",
                                   "mvindex.sweep"};

struct TracedRequest {
  Shape shape;
  size_t answers = 0;
  size_t clauses = 0;
  size_t query_nodes = 0;
  size_t start_block = 0;
};

/// Index of the block holding `level` (blocks are level-ordered and
/// variable-disjoint).
size_t BlockOfLevel(const std::vector<MvBlock>& blocks, int32_t level) {
  const auto it = std::partition_point(
      blocks.begin(), blocks.end(),
      [level](const MvBlock& b) { return b.last_level < level; });
  return static_cast<size_t>(it - blocks.begin());
}

/// Replays the first `n` requests of the stream by calling, in the order
/// Server::ExecuteBatch runs them for a batch of one, the public functions
/// each layer exposes: ComputeUcqSignature + PlanCache::GetOrPlan,
/// PlanTemplate::Execute, a fresh BddManager + FromLineageSynthesis, and
/// MvIndex::CCMVIntersectBatchScaled; then the Eq. 5 ratio. One span per
/// call. Every answer must equal Server::Execute's bit for bit.
std::vector<TracedRequest> RunTraced(const Database& db, const MvIndex& index,
                                     const std::vector<PoolEntry>& pool,
                                     const Stream& stream,
                                     const std::vector<std::vector<AnswerProb>>& refs,
                                     size_t n, Tracer* tracer, Tally* tally) {
  PlanCache cache(ServeOptions{}.plan_cache_capacity);
  EvalScratch eval_scratch;
  CcSweepScratch sweep_scratch;
  const std::shared_ptr<const VarOrder> order = index.manager().order();
  const ScaledDouble denom = index.ProbNotWScaled();
  const EvalOptions eopts{};
  std::vector<TracedRequest> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t e = stream.At(i);
    const Ucq& q = pool[e].query;
    const uint32_t rid = static_cast<uint32_t>(i);
    Status st = Status::OK();
    AnswerMap answers;
    std::unique_ptr<BddManager> qmgr;
    std::vector<std::vector<Value>> heads;
    std::vector<CcQuery> roots;
    std::vector<ScaledDouble> nums;
    std::vector<AnswerProb> result;

    const int32_t root = tracer->Begin("request", rid);
    int32_t s = tracer->Begin(kLayers[0], rid);
    const UcqSignature sig = ComputeUcqSignature(q);
    auto tmpl = cache.GetOrPlan(db, q, sig, eopts);
    tracer->End(s);
    if (tmpl.ok()) {
      s = tracer->Begin(kLayers[1], rid);
      st = (*tmpl)->Execute(sig.slots, &eval_scratch, &answers);
      tracer->End(s);
    } else {
      st = tmpl.status();
    }
    if (st.ok()) {
      s = tracer->Begin(kLayers[2], rid);
      qmgr = std::make_unique<BddManager>(order);
      heads.reserve(answers.size());
      roots.reserve(answers.size());
      for (const auto& [head, info] : answers) {
        heads.push_back(head);
        roots.push_back(CcQuery{qmgr.get(), qmgr->FromLineageSynthesis(info.lineage)});
      }
      tracer->End(s);
      s = tracer->Begin(kLayers[3], rid);
      if (!roots.empty()) index.CCMVIntersectBatchScaled(roots, &sweep_scratch, &nums);
      tracer->End(s);
      result.reserve(heads.size());
      for (size_t j = 0; j < heads.size(); ++j) {
        result.push_back(AnswerProb{std::move(heads[j]),
                                    ClampProb((nums[j] / denom).ToDouble())});
      }
    }
    tracer->End(root);

    // Bookkeeping outside every span.
    tally->Record(st.ok() && SameBits(result, refs[e]));
    TracedRequest tr;
    tr.shape = pool[e].shape;
    tr.answers = answers.size();
    for (const auto& [head, info] : answers) tr.clauses += info.lineage.size();
    if (qmgr != nullptr) tr.query_nodes = qmgr->num_created();
    int32_t first_level = INT32_MAX;
    for (const CcQuery& cq : roots) {
      const auto [lo, hi] = qmgr->LevelRange(cq.root);
      if (lo <= hi) first_level = std::min(first_level, lo);
    }
    tr.start_block = first_level == INT32_MAX
                         ? index.blocks().size()
                         : BlockOfLevel(index.blocks(), first_level);
    out.push_back(tr);
  }
  return out;
}

/// Per-layer metrics from the spans, after checking that they nest and that
/// the layers' self times plus trace.other_ms add up to the traced
/// end-to-end time.
void ReportTrace(const Tracer& tracer, const std::vector<TracedRequest>& reqs,
                 double untraced_serial_p50_ms, Report* report) {
  if (!tracer.WellNested()) report->AddCheckFailure("trace spans do not nest");
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = tracer.SelfTimesNs();
  std::map<std::string, std::vector<double>> layer_ms;  // per request
  std::vector<std::vector<double>> eval_by_shape(kNumShapes);
  std::vector<double> sweep_by_request(reqs.size(), std::nan(""));
  std::vector<double> e2e_ms, other_ms;
  double e2e_total_ms = 0, layers_total_ms = 0, other_total_ms = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double self_ms = static_cast<double>(self[i]) / 1e6;
    if (spans[i].parent < 0) {
      const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
      e2e_ms.push_back(dur);
      e2e_total_ms += dur;
      other_ms.push_back(self_ms);
      other_total_ms += self_ms;
    } else {
      layers_total_ms += self_ms;
      layer_ms[spans[i].name].push_back(self_ms);
      if (std::strcmp(spans[i].name, "query.eval") == 0) {
        eval_by_shape[reqs[spans[i].request].shape].push_back(self_ms);
      } else if (std::strcmp(spans[i].name, "mvindex.sweep") == 0) {
        sweep_by_request[spans[i].request] = self_ms;
      }
    }
  }
  // Holds only when every span lies inside its parent and siblings do not
  // overlap: then the spans partition each request's time.
  if (std::fabs(layers_total_ms + other_total_ms - e2e_total_ms) >
      1e-9 * std::max(1.0, e2e_total_ms)) {
    report->AddCheckFailure("layer self times do not add up to the traced end-to-end time");
  }
  std::printf("trace: %zu requests, %zu spans, end-to-end %.3f ms = layers %.3f ms + other %.3f ms\n",
              e2e_ms.size(), spans.size(), e2e_total_ms, layers_total_ms,
              other_total_ms);

  auto layer = [&](const char* name) -> const std::vector<double>& {
    return layer_ms[name];
  };
  report->Layer("serve.plan_ms", Median(layer("serve.plan")), "ms",
                layer("serve.plan").size());
  const std::vector<double>& eval = layer("query.eval");
  report->Layer("query.eval_p50_ms", Median(eval), "ms", eval.size());
  report->Layer("query.eval_p90_ms", Quantile(eval, 0.9), "ms", eval.size());
  for (int s = 0; s < kNumShapes; ++s) {
    report->Layer(std::string("query.eval_p50_ms.") + kShapeNames[s],
                  Median(eval_by_shape[s]), "ms", eval_by_shape[s].size());
  }
  std::vector<double> answers, clauses_per_answer, nodes, start_block;
  for (const TracedRequest& r : reqs) {
    answers.push_back(static_cast<double>(r.answers));
    if (r.answers > 0) {
      clauses_per_answer.push_back(static_cast<double>(r.clauses) /
                                   static_cast<double>(r.answers));
    }
    nodes.push_back(static_cast<double>(r.query_nodes));
    start_block.push_back(static_cast<double>(r.start_block));
  }
  report->Layer("query.answers", Mean(answers), "count", answers.size());
  report->Layer("query.clauses_per_answer", Mean(clauses_per_answer), "count",
                clauses_per_answer.size());
  report->Layer("obdd.synth_ms", Median(layer("obdd.synth")), "ms",
                layer("obdd.synth").size());
  report->Layer("obdd.query_nodes", Mean(nodes), "count", nodes.size());
  const std::vector<double>& sweep = layer("mvindex.sweep");
  report->Layer("mvindex.sweep_p50_ms", Median(sweep), "ms", sweep.size());
  report->Layer("mvindex.sweep_p90_ms", Quantile(sweep, 0.9), "ms", sweep.size());
  report->Layer("mvindex.sweep_start_block", Median(start_block), "count",
                start_block.size());

  // The tenth of requests whose sweep starts earliest in the chain against
  // the tenth that starts latest: a sweep that walks the chain from its head
  // grows this ratio with the chain.
  std::vector<std::pair<size_t, double>> by_start;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (!std::isnan(sweep_by_request[i])) {
      by_start.emplace_back(reqs[i].start_block, sweep_by_request[i]);
    }
  }
  std::sort(by_start.begin(), by_start.end());
  const size_t tenth = std::max<size_t>(1, by_start.size() / 10);
  std::vector<double> early, late;
  for (size_t i = 0; i < tenth && i < by_start.size(); ++i) {
    early.push_back(by_start[i].second);
    late.push_back(by_start[by_start.size() - 1 - i].second);
  }
  report->Layer("mvindex.sweep_late_early_ratio", Median(late) / Median(early),
                "ratio", early.size() + late.size());
  report->Layer("trace.other_ms", Mean(other_ms), "ms", other_ms.size());
  report->Layer("trace.overhead_ms", Median(e2e_ms) - untraced_serial_p50_ms,
                "ms", e2e_ms.size());
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Fatal("unknown workload '" + args.workload + "'");
  const int authors = args.authors > 0 ? args.authors : spec->authors;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Report report;
  std::printf("workload %s: %d authors, seed %llu, %.1f s per phase, trace %d, %d threads\n",
              spec->name, authors, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, nproc);

  // --- setup -------------------------------------------------------------
  Deployment d;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < spec->setups; ++i) {
    // Release the previous deployment, server first, and hand its memory
    // back to the OS, so every setup starts from the same footprint and the
    // peak RSS is one deployment's, not the allocator's leftovers.
    d.server.reset();
    d.engine.reset();
    d.mvdb.reset();
    malloc_trim(0);
    SetupTimes t;
    d = SetUp(authors, args.seed, nproc, &t);
    std::printf("setup %d: %.3f s (generate %.3f, translate %.3f, compile %.3f, serve %.3f)\n",
                i, t.total_s(), t.generate_s, t.translate_s, t.compile_s, t.serve_s);
    setups.push_back(t);
  }
  std::printf("dataset digest %016llx\n",
              static_cast<unsigned long long>(setups[0].dataset_digest));
  for (const SetupTimes& t : setups) {
    if (t.dataset_digest != setups[0].dataset_digest) {
      report.AddCheckFailure("the same seed generated different datasets");
    }
  }
  auto setup_median = [&](auto f) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(f(t));
    return Median(v);
  };
  const size_t n_setups = setups.size();
  report.EndToEnd("setup_s", setup_median([](const SetupTimes& t) { return t.total_s(); }),
                  "s", n_setups);
  report.Layer("dblp.generate_s", setup_median([](const SetupTimes& t) { return t.generate_s; }),
               "s", n_setups);
  report.Layer("core.translate_s", setup_median([](const SetupTimes& t) { return t.translate_s; }),
               "s", n_setups);
  report.Layer("mvindex.build.order_s",
               setup_median([](const SetupTimes& t) { return t.build.order_seconds; }), "s", n_setups);
  report.Layer("mvindex.build.partition_s",
               setup_median([](const SetupTimes& t) { return t.build.partition_seconds; }), "s",
               n_setups);
  report.Layer("mvindex.build.compile_s",
               setup_median([](const SetupTimes& t) { return t.build.compile_seconds; }), "s",
               n_setups);
  report.Layer("mvindex.build.stitch_s",
               setup_median([](const SetupTimes& t) { return t.build.stitch_seconds; }), "s",
               n_setups);
  report.Layer("mvindex.build.import_s",
               setup_median([](const SetupTimes& t) { return t.build.import_seconds; }), "s",
               n_setups);
  const MvIndex& built = d.engine->index();
  report.Layer("mvindex.flat_nodes", static_cast<double>(built.size()), "count", 1);
  report.Layer("mvindex.blocks", static_cast<double>(built.blocks().size()), "count", 1);
  std::printf("index: %zu flat nodes, %zu blocks\n", built.size(), built.blocks().size());

  Mvdb* mvdb = d.mvdb.get();
  QueryEngine* engine = d.engine.get();
  Server* server = d.server.get();

  // --- request pool, stream and writer ops (all from the seed) ------------
  Rng rng(args.seed ^ 0x5eed5eed5eed5eedULL);
  const std::vector<PoolEntry> pool = MakePool(mvdb, spec->pool_per_shape, &rng);
  const Stream stream(pool.size(), &rng);
  const std::vector<DeltaOp> weight_ops =
      MakeWeightOps(engine, *mvdb, std::max(kMinSamples, spec->writer_ops), &rng);
  std::printf("request stream digest %016llx (%zu pooled requests)\n",
              static_cast<unsigned long long>(HashStream(pool, stream)), pool.size());

  // --- oracle (untimed) ---------------------------------------------------
  Tally oracle_tally;
  std::vector<std::vector<AnswerProb>> refs(pool.size());
  for (size_t e = 0; e < pool.size(); ++e) {
    const ServeResult res = server->Execute(MakeRequest(pool[e]));
    auto reference = engine->Query(pool[e].query, Backend::kMvIndex);
    bool ok = res.status.ok() && reference.ok() && !res.answers.empty();
    if (ok) {
      std::vector<AnswerProb> expect = std::move(reference).value();
      if (args.perturb_oracle && e == 0 && !expect.empty()) expect[0].prob += 1e-6;
      ok = WithinTolerance(res.answers, expect) && InUnitRange(res.answers);
    }
    oracle_tally.Record(ok);
    refs[e] = res.answers;
  }
  report.AddPhase("oracle", oracle_tally);

  // --- serial -------------------------------------------------------------
  const double rss_before_mb = ProcStatusMb("VmRSS:");
  Tally serial_tally;
  const ReadSamples serial =
      RunSerial(server, pool, stream, refs, args.seconds, &serial_tally);
  report.AddPhase("serial", serial_tally);
  const double serial_p50 = Median(serial.latency_ms);
  report.EndToEnd("serial_p50_ms", serial_p50, "ms", serial.latency_ms.size());
  report.EndToEnd("serial_p90_ms", Quantile(serial.latency_ms, 0.9), "ms",
                  serial.latency_ms.size());

  // --- traced replay of the serial stream, before any write ---------------
  if (args.trace) {
    Tracer tracer;
    Tally trace_tally;
    const std::vector<TracedRequest> traced =
        RunTraced(mvdb->db(), engine->index(), pool, stream, refs,
                  serial.latency_ms.size(), &tracer, &trace_tally);
    report.AddPhase("trace", trace_tally);
    ReportTrace(tracer, traced, serial_p50, &report);
    if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
      report.AddCheckFailure("cannot write " + args.trace_out);
    }
  }

  // --- served (with the writer beside the readers on write workloads) -----
  Tally served_tally, writer_tally;
  WriterSamples writes;
  const int readers = spec->writer_with_readers ? std::max(1, nproc - 1) : nproc;
  const ServedResult served = RunServed(
      engine, server, pool, stream, refs, readers,
      spec->writer_with_readers ? &weight_ops : nullptr, spec->writer_ops_per_s,
      args.seconds, &served_tally, &writes, &writer_tally);
  report.AddPhase("served", served_tally);
  const double rss_after_mb = ProcStatusMb("VmRSS:");
  const size_t n_served = served.reads.latency_ms.size();
  report.EndToEnd("served_qps", static_cast<double>(n_served) / served.seconds, "1/s",
                  n_served);
  report.EndToEnd("served_p90_ms", Quantile(served.reads.latency_ms, 0.9), "ms", n_served);
  report.Layer("serve.queue_p50_ms", Median(served.reads.queue_ms), "ms", n_served);
  report.Layer("serve.queue_p90_ms", Quantile(served.reads.queue_ms, 0.9), "ms", n_served);
  report.Layer("serve.exec_p50_ms", Median(served.reads.exec_ms), "ms", n_served);
  report.Layer("serve.exec_p90_ms", Quantile(served.reads.exec_ms, 0.9), "ms", n_served);
  report.Layer("serve.batch_mean",
               served.batches == 0 ? std::nan("")
                                   : static_cast<double>(served.dequeued) / served.batches,
               "count", static_cast<size_t>(served.batches));
  report.Layer("serve.max_queue_depth", static_cast<double>(server->stats().max_queue_depth),
               "count", 1);
  report.Layer("serve.rss_growth_mb", rss_after_mb - rss_before_mb, "MB", 1);
  const PlanCacheStats plans = server->plan_cache_stats();
  report.Layer("serve.plan_hit_rate", plans.HitRate(), "ratio",
               static_cast<size_t>(plans.hits + plans.misses));

  // --- delta: the writer alone, on read workloads -----------------------------
  if (!spec->writer_with_readers) {
    RunWriter(engine, server, weight_ops, spec->writer_ops_per_s, &writes, &writer_tally);
  }
  std::printf("writer: %zu ops, latency p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f ms, lag p50 %.3f p90 %.3f ms\n",
              writes.latency_ms.size(), Quantile(writes.latency_ms, 0.1),
              Quantile(writes.latency_ms, 0.25), Median(writes.latency_ms),
              Quantile(writes.latency_ms, 0.75), Quantile(writes.latency_ms, 0.9),
              Median(writes.lag_ms), Quantile(writes.lag_ms, 0.9));
  report.AddPhase("delta", writer_tally);
  const size_t n_writes = writes.latency_ms.size();
  report.EndToEnd("delta_p50_ms", Median(writes.latency_ms), "ms", n_writes);
  report.EndToEnd("delta_p90_ms", Quantile(writes.latency_ms, 0.9), "ms", n_writes);
  report.Layer("core.delta_other_ms", Median(writes.other_ms), "ms", n_writes);
  report.Layer("mvindex.repair.replay_ms", Median(writes.replay_ms), "ms", n_writes);
  report.Layer("mvindex.repair.reprobe_ms", Median(writes.reprobe_ms), "ms", n_writes);
  report.Layer("mvindex.repair.products_ms", Median(writes.products_ms), "ms", n_writes);
  report.Layer("writer.lag_ms", Quantile(writes.lag_ms, 0.9), "ms", n_writes);

  // --- insert -------------------------------------------------------------
  Tally insert_tally;
  std::vector<double> insert_ms;
  const Table* student = mvdb->db().Find("Student");
  Value fresh_aid = 0;
  for (RowId r = 0; r < student->size(); ++r) {
    fresh_aid = std::max(fresh_aid, student->At(r, 0));
  }
  // Inserts are spread evenly over the phase (or run back to back when they
  // take longer), so that one slow stretch of the machine does not set the
  // median.
  const Clock::time_point insert_start = Clock::now();
  for (int i = 0; i < spec->inserts; ++i) {
    std::this_thread::sleep_until(
        insert_start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                           args.seconds * i / spec->inserts)));
    DeltaOp op;
    op.kind = DeltaOp::Kind::kInsert;
    op.table = "Student";
    op.values = {fresh_aid + 1000 + i, 2001};
    op.weight = 0.9;
    const Clock::time_point t = Clock::now();
    const Status st = engine->ApplyDelta({op}, server);
    insert_ms.push_back(MsSince(t));
    insert_tally.Record(st.ok());
    // One read per shape after each insert: the plan cache was invalidated.
    for (int s = 0; s < kNumShapes; ++s) {
      const PoolEntry& e = pool[static_cast<size_t>(s) * spec->pool_per_shape];
      const ServeResult res = server->Submit(MakeRequest(e)).get();
      insert_tally.Record(res.status.ok() && !res.answers.empty() &&
                          InUnitRange(res.answers));
    }
  }
  std::printf("inserts (ms):");
  for (double ms : insert_ms) std::printf(" %.1f", ms);
  std::printf("\n");
  report.AddPhase("insert", insert_tally);
  report.EndToEnd("insert_p50_ms", Median(insert_ms), "ms", insert_ms.size());

  // --- verify: maintained == cold compile; pool against kMvIndex -------------
  Tally verify_tally;
  {
    QueryEngine cold(mvdb);
    CompileOptions copts;
    copts.num_threads = nproc;
    const Clock::time_point t = Clock::now();
    Check(cold.Compile(copts), "cold compile");
    report.Layer("mvindex.rebuild_s", SecondsSince(t), "s", 1);
    verify_tally.Record(HashIndex(engine->index()) == HashIndex(cold.index()));
  }
  for (const PoolEntry& e : pool) {
    const ServeResult res = server->Execute(MakeRequest(e));
    auto reference = engine->Query(e.query, Backend::kMvIndex);
    verify_tally.Record(res.status.ok() && reference.ok() &&
                        WithinTolerance(res.answers, *reference) &&
                        InUnitRange(res.answers));
  }
  report.AddPhase("verify", verify_tally);

  server->Shutdown();
  report.EndToEnd("peak_rss_mb", ProcStatusMb("VmHWM:"), "MB", 1);
  return report.Print(args.trace);
}

void Usage() {
  std::fprintf(stderr,
               "usage: mvdb_perfbench --workload {read-1m|read-10k|write-200k} "
               "--seed N --seconds S --trace {0|1} [--trace-out FILE]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (flag != "--perturb-oracle") {
      if (i + 1 >= argc) Usage();
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") Usage();
    } else if (flag == "--authors") {
      a.authors = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--perturb-oracle") {
      a.perturb_oracle = true;
    } else {
      Usage();
    }
    if (end != nullptr && (*end != '\0' || value.empty())) Usage();
  }
  if (a.workload.empty() || !(a.seconds > 0)) Usage();
  return a;
}

}  // namespace
}  // namespace perfbench
}  // namespace mvdb

int main(int argc, char** argv) {
  return mvdb::perfbench::Run(mvdb::perfbench::ParseArgs(argc, argv));
}
