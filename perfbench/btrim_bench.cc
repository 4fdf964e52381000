// btrim_bench: runs one workload of the end-to-end benchmark and prints its
// metrics. perfbench/run.py builds this program and wraps it in the
// benchmark's command line; perfbench/README.md explains the
// workloads and what each metric is expected to move.
//
//   btrim_bench --workload tpcc_hot|tpcc_ilm|htap|kv_wire --seed N
//               --seconds S --trace 0|1 --data-dir DIR [--trace-out FILE]
//
// The engine is driven only through public calls: tpcc::Run*, Database
// Open/Checkpoint/Recover/ScanTable/ValidateInvariants, and net::Client
// Get/Put/Scan against an in-process net::Server. Per-layer numbers come
// from spans recorded here around those calls and from window deltas of
// the counters the engine registers in its MetricsRegistry.
//
// Output: human-readable lines, then one line `RESULT {json}` holding
// correct/attempted/failed, every metric as {value, unit}, and a note per
// metric with its sample count or ratio base. Exit 0 when every
// correctness check passed, 1 when one failed, 2 on bad arguments.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "engine/database.h"
#include "engine/schema.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metric.h"
#include "tpcc/loader.h"
#include "tpcc/schema.h"
#include "tpcc/txns.h"

using namespace btrim;
using perfbench::LatencySummary;
using perfbench::Ratio;
using perfbench::RegistryWindow;
using perfbench::Span;

namespace {

// ---------------------------------------------------------------------------
// Fixed benchmark parameters (perfbench/README.md gives the reasons).

constexpr int kSetupRounds = 3;          // setup_s is the median of these
// TPC-C terminals, one per warehouse of DefaultScale, each bound to its
// home warehouse as the spec's terminals are. Terminals that share a
// warehouse deadlock on its rows, and each deadlock costs a 50 ms lock
// timeout: throughput then swung 11k-20k tps between identical runs.
constexpr int kTerminals = 2;
// A system abort (lock timeout, Busy) is retried until the unit of work
// succeeds; only one that keeps failing for this long counts as failed.
// Under htap's scans a Delivery can time out on its locks ~100 times in a
// row, so a retry count would turn contention into failures by chance.
constexpr int64_t kGiveUpNs = 30'000'000'000;
constexpr int64_t kWarmChunkTxns = 2000;
constexpr int kWarmMinChunks = 6;
constexpr int kWarmMaxChunks = 15;
constexpr double kWarmLevel = 0.02;      // hit-ratio change counted as flat
constexpr int64_t kTraceSliceNs = 50'000'000;
// htap starts one scan per period. A scan holds shared locks on the
// order_line rows it reads from the heap until it commits, so Delivery
// waits out whole scans; a fixed period keeps that share of the window
// steady instead of letting it follow the scan time.
constexpr int64_t kScanPeriodNs = 2'000'000'000;

// kv_wire connections, one closed-loop client thread each. An open loop
// at a fixed rate timed from due times measured the host's timer wake-ups
// more than the server (see README.md).
constexpr int kKvClients = 2;
constexpr int64_t kKvRows = 200'000;
constexpr size_t kKvValueBytes = 100;
constexpr uint32_t kKvScanLimit = 16;
constexpr double kKvWarmChunkS = 0.25;
constexpr int kKvWarmMinChunks = 6;
constexpr int kKvWarmMaxChunks = 12;

const char* const kTxnNames[5] = {"new_order", "payment", "order_status",
                                  "delivery", "stock_level"};
const char* const kKvOpNames[3] = {"get", "put", "scan"};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return perfbench::QuantileSorted(v, 0.5);
}

obs::MetricLabels Subsystem(const char* name) {
  obs::MetricLabels labels;
  labels.subsystem = name;
  return labels;
}

double RssMib() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Results: metrics, notes, correctness.

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count or ratio base
};

class Results {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_[name] = Metric{value, unit, note};
  }
  void SetRatio(const std::string& name, Ratio r, const std::string& num,
                const std::string& base) {
    char note[256];
    snprintf(note, sizeof(note), "%s=%.0f / %s=%.0f", num.c_str(), r.num,
             base.c_str(), r.base);
    Set(name, r.value(), "ratio", note);
  }
  void SetMedian(const std::string& name, const LatencySummary& s,
                 const std::string& unit) {
    Set(name, s.p50, unit, "n=" + std::to_string(s.count));
  }

  /// A failed check fails the run; every check is always evaluated.
  void Check(bool ok, const std::string& what) {
    printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) correct_ = false;
  }
  bool correct() const { return correct_; }

  int64_t attempted = 0;
  int64_t failed = 0;

  std::string Json() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char buf[64];
      snprintf(buf, sizeof(buf), "%.17g", m.value);
      out += first ? "" : ", ";
      first = false;
      obs::AppendJsonString(&out, name);
      out += ": {\"value\": ";
      out += buf;
      out += ", \"unit\": ";
      obs::AppendJsonString(&out, m.unit);
      out += ", \"note\": ";
      obs::AppendJsonString(&out, m.note);
      out += "}";
    }
    out += "}}";
    return out;
  }

  void PrintTable() const {
    for (const auto& [name, m] : metrics_) {
      printf("metric %-34s %16.6g %-6s %s\n", name.c_str(), m.value,
             m.unit.c_str(), m.note.c_str());
    }
  }

 private:
  std::map<std::string, Metric> metrics_;
  bool correct_ = true;
};

// ---------------------------------------------------------------------------
// Tracing: spans go to per-thread buffers while `g_trace_on` is set. In a
// traced run a slicer flips it every kTraceSliceNs, so traced and untraced
// slices of one window give the tracing overhead on throughput.

std::atomic<bool> g_trace_on{false};
std::atomic<uint64_t> g_next_span_id{1};

uint64_t NewSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

class TraceSlicer {
 public:
  explicit TraceSlicer(bool enabled) : enabled_(enabled) {}
  TraceSlicer(const TraceSlicer&) = delete;
  TraceSlicer& operator=(const TraceSlicer&) = delete;
  ~TraceSlicer() { Stop(); }

  void Start(int64_t end_ns) {
    if (!enabled_) return;
    g_trace_on.store(true);
    thread_ = std::thread([this, end_ns] {
      int64_t slice_start = NowNs();
      bool on = true;
      while (!stop_.load()) {
        const int64_t now = NowNs();
        if (now - slice_start >= kTraceSliceNs || now >= end_ns) {
          (on ? traced_ns_ : untraced_ns_) += now - slice_start;
          slice_start = now;
          if (now >= end_ns) break;
          on = !on;
          g_trace_on.store(on);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      g_trace_on.store(false);
    });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double traced_s() const { return Seconds(traced_ns_); }
  double untraced_s() const { return Seconds(untraced_ns_); }

 private:
  const bool enabled_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  int64_t traced_ns_ = 0;
  int64_t untraced_ns_ = 0;
};

/// Writes spans as JSON lines and adds per-name self-time lines to stdout.
void EmitSpans(const std::vector<Span>& spans, const std::string& path) {
  if (!path.empty()) {
    FILE* f = fopen(path.c_str(), "w");
    if (f != nullptr) {
      for (const Span& s : spans) {
        fprintf(f,
                "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                ", \"trace\": %" PRIu64 ", \"name\": \"%s\", \"start_ns\": "
                "%" PRId64 ", \"end_ns\": %" PRId64 "}\n",
                s.id, s.parent, s.trace, s.name.c_str(), s.start_ns,
                s.end_ns);
      }
      fclose(f);
      printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
    }
  }
  for (auto& [name, st] : perfbench::AggregateSpans(spans)) {
    LatencySummary ls = perfbench::Summarize(st.durations_us);
    printf("span %-28s n=%-8" PRId64 " total=%.3fs self=%.3fs p50=%.1fus\n",
           name.c_str(), st.count, Seconds(st.total_ns), Seconds(st.self_ns),
           ls.p50);
  }
}

// ---------------------------------------------------------------------------
// Monitor: polls gauges the end-to-end metrics need peaks of.

class Monitor {
 public:
  explicit Monitor(const obs::MetricsRegistry* reg) : reg_(reg) {}
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;
  ~Monitor() { Stop(); }

  void Start() {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        Poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      Poll();
    });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  int64_t imrs_peak_bytes = 0;
  int64_t queue_depth_max = 0;
  double rss_peak_mib = 0.0;
  int64_t polls = 0;

 private:
  void Poll() {
    obs::MetricSample m;
    if (reg_->Lookup("imrs_cache.in_use_bytes", Subsystem("imrs"), &m)) {
      imrs_peak_bytes = std::max(imrs_peak_bytes, m.value);
    }
    if (reg_->Lookup("net.queue_depth", Subsystem("net"), &m)) {
      queue_depth_max = std::max(queue_depth_max, m.value);
    }
    rss_peak_mib = std::max(rss_peak_mib, RssMib());
    ++polls;
  }

  const obs::MetricsRegistry* const reg_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Configuration.

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
};

bool IsTpcc(const std::string& w) {
  return w == "tpcc_hot" || w == "tpcc_ilm" || w == "htap";
}

// ---------------------------------------------------------------------------
// TPC-C.

struct TpccDb {
  std::unique_ptr<Database> db;
  tpcc::TpccContext ctx;
  std::vector<int64_t> acked_new_orders;  // per home warehouse (w - 1)
  double open_s = 0.0;
};

DatabaseOptions TpccOptions(const Config& cfg, const std::string& dir) {
  DatabaseOptions o;
  o.lock_timeout_ms = 50;
  if (cfg.workload == "tpcc_hot") {
    // Large enough that ILM never reaches its 70% steady utilization (no
    // pack) and the growing indexes stay cached (~1k evictions against ~7M
    // fixes); 256 MiB and 8192 frames are outgrown within a 15 s window.
    o.imrs_cache_bytes = 1ull << 30;
    o.buffer_cache_frames = 16384;
  } else {
    o.imrs_cache_bytes = 12ull << 20;
    o.buffer_cache_frames = 1024;
  }
  if (cfg.workload == "tpcc_ilm") {
    o.in_memory = false;
    o.data_dir = dir;
    o.durability.policy = DurabilityPolicy::kNoSync;
    o.pack_workers = 2;
  }
  return o;
}

Status OpenTpcc(const DatabaseOptions& options, TpccDb* out) {
  const int64_t t0 = NowNs();
  Result<std::unique_ptr<Database>> opened = Database::Open(options);
  if (!opened.ok()) return opened.status();
  out->open_s = Seconds(NowNs() - t0);
  out->db = std::move(*opened);
  tpcc::Scale scale;  // DefaultScale: 2 warehouses
  Result<tpcc::Tables> tables = tpcc::CreateTables(out->db.get(), scale);
  if (!tables.ok()) return tables.status();
  out->ctx.db = out->db.get();
  out->ctx.tables = *tables;
  out->ctx.scale = scale;
  out->acked_new_orders.assign(static_cast<size_t>(scale.warehouses), 0);
  return Status::OK();
}

/// Outcome of a closed-loop phase.
struct TermStats {
  int64_t business = 0;  // business transactions finished or given up
  int64_t attempts = 0;  // Run* calls, retries included
  int64_t committed = 0;
  int64_t user_aborts = 0;
  int64_t sys_aborts[5] = {0, 0, 0, 0, 0};
  int64_t gave_up = 0;   // business transactions failing for kGiveUpNs
  int64_t done_traced = 0;
  int64_t done_untraced = 0;
  std::vector<double> lat_us;  // committed business transactions
  std::vector<int64_t> done_ns;  // their completion times
  double lat_sum_us = 0.0;
  std::vector<int64_t> new_orders_by_w;
  std::vector<Span> spans;

  void Merge(TermStats&& o) {
    business += o.business;
    attempts += o.attempts;
    committed += o.committed;
    user_aborts += o.user_aborts;
    for (int i = 0; i < 5; ++i) sys_aborts[i] += o.sys_aborts[i];
    gave_up += o.gave_up;
    done_traced += o.done_traced;
    done_untraced += o.done_untraced;
    lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    done_ns.insert(done_ns.end(), o.done_ns.begin(), o.done_ns.end());
    lat_sum_us += o.lat_sum_us;
    if (new_orders_by_w.size() < o.new_orders_by_w.size()) {
      new_orders_by_w.resize(o.new_orders_by_w.size(), 0);
    }
    for (size_t i = 0; i < o.new_orders_by_w.size(); ++i) {
      new_orders_by_w[i] += o.new_orders_by_w[i];
    }
    spans.insert(spans.end(), std::make_move_iterator(o.spans.begin()),
                 std::make_move_iterator(o.spans.end()));
  }
};

tpcc::TxnResult RunType(tpcc::TpccContext* ctx, tpcc::TpccRandom* rnd,
                        int type, int w) {
  switch (type) {
    case 0: return tpcc::RunNewOrder(ctx, rnd, w);
    case 1: return tpcc::RunPayment(ctx, rnd, w);
    case 2: return tpcc::RunOrderStatus(ctx, rnd, w);
    case 3: return tpcc::RunDelivery(ctx, rnd, w);
    default: return tpcc::RunStockLevel(ctx, rnd, w);
  }
}

/// Standard 45/43/4/4/4 mix.
int PickType(tpcc::TpccRandom* rnd) {
  const int dice = static_cast<int>(rnd->Uniform(1, 100));
  if (dice <= 45) return 0;
  if (dice <= 88) return 1;
  if (dice <= 92) return 2;
  if (dice <= 96) return 3;
  return 4;
}

/// Runs `terminals` closed-loop TPC-C terminals, terminal i on home
/// warehouse i % warehouses + 1, until `until_committed`
/// transactions commit (if > 0) or `deadline_ns` passes (if > 0). A system
/// abort is retried with fresh inputs, as a terminal would; latency covers
/// every attempt of one business transaction.
TermStats RunClosedLoop(TpccDb* t, int terminals, uint64_t seed,
                        int64_t until_committed, int64_t deadline_ns,
                        bool trace) {
  std::atomic<int64_t> committed{0};
  std::vector<TermStats> per(static_cast<size_t>(terminals));
  std::vector<std::thread> threads;
  const int warehouses = t->ctx.scale.warehouses;
  for (int i = 0; i < terminals; ++i) {
    threads.emplace_back([&, i] {
      TermStats& st = per[static_cast<size_t>(i)];
      st.new_orders_by_w.assign(static_cast<size_t>(warehouses), 0);
      tpcc::TpccRandom rnd(seed * 1000003 + static_cast<uint64_t>(i));
      const int w = i % warehouses + 1;
      while (true) {
        if (until_committed > 0 && committed.load() >= until_committed) break;
        if (deadline_ns > 0 && NowNs() >= deadline_ns) break;
        const int type = PickType(&rnd);
        const bool traced = trace && g_trace_on.load(std::memory_order_relaxed);
        const uint64_t root = traced ? NewSpanId() : 0;
        const int64_t start = NowNs();
        tpcc::TxnResult r;
        int attempts = 0;
        while (true) {
          const int64_t a0 = traced ? NowNs() : 0;
          r = RunType(&t->ctx, &rnd, type, w);
          ++st.attempts;
          ++attempts;
          if (traced) {
            st.spans.push_back(
                Span{NewSpanId(), root, root, "tpcc.attempt", a0, NowNs()});
          }
          if (r.committed || r.user_abort) break;
          ++st.sys_aborts[type];
          if (NowNs() - start >= kGiveUpNs) break;
        }
        const int64_t end = NowNs();
        ++st.business;
        if (traced) {
          st.spans.push_back(Span{root, 0, root,
                                  std::string("tpcc.") + kTxnNames[type],
                                  start, end});
        }
        if (r.committed) {
          const double us = static_cast<double>(end - start) / 1000.0;
          st.lat_us.push_back(us);
          st.done_ns.push_back(end);
          st.lat_sum_us += us;
          ++st.committed;
          // Throughput per trace mode counts completions in that mode.
          ++(g_trace_on.load(std::memory_order_relaxed) ? st.done_traced
                                                        : st.done_untraced);
          if (type == 0) ++st.new_orders_by_w[static_cast<size_t>(w - 1)];
          committed.fetch_add(1);
        } else if (r.user_abort) {
          ++st.user_aborts;
        } else {
          ++st.gave_up;
          fprintf(stderr, "txn %s gave up after %d attempts: %s\n",
                  kTxnNames[type], attempts, r.status.ToString().c_str());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  TermStats total;
  for (TermStats& st : per) total.Merge(std::move(st));
  for (size_t w = 0; w < total.new_orders_by_w.size(); ++w) {
    t->acked_new_orders[w] += total.new_orders_by_w[w];
  }
  return total;
}

double HitRatio(Database* db, int64_t* imrs_before, int64_t* page_before) {
  DatabaseStats s = db->GetStats();
  const int64_t di = s.imrs_operations - *imrs_before;
  const int64_t dp = s.page_operations - *page_before;
  *imrs_before = s.imrs_operations;
  *page_before = s.page_operations;
  return di + dp > 0 ? static_cast<double>(di) / static_cast<double>(di + dp)
                     : 0.0;
}

/// True once the mean hit ratio of the last three chunks is within
/// kWarmLevel of the mean of the three before them.
bool Levelled(const std::vector<double>& hits, int min_chunks) {
  const size_t n = hits.size();
  if (static_cast<int>(n) < min_chunks || n < 6) return false;
  const double last = (hits[n - 1] + hits[n - 2] + hits[n - 3]) / 3;
  const double before = (hits[n - 4] + hits[n - 5] + hits[n - 6]) / 3;
  return std::fabs(last - before) < kWarmLevel;
}

/// Open + load + warm-up. Warm-up runs in chunks of kWarmChunkTxns
/// committed transactions until the IMRS hit ratio levels off.
Status SetUpTpcc(const Config& cfg, const std::string& dir, int round,
                 TpccDb* t) {
  BTRIM_RETURN_IF_ERROR(OpenTpcc(TpccOptions(cfg, dir), t));
  BTRIM_RETURN_IF_ERROR(
      tpcc::LoadDatabase(t->db.get(), t->ctx.tables, t->ctx.scale, cfg.seed));
  const tpcc::Scale& sc = t->ctx.scale;
  t->ctx.next_history_id = static_cast<int64_t>(sc.warehouses) *
                               sc.districts_per_warehouse *
                               sc.customers_per_district +
                           1;
  t->db->StartBackground();
  int64_t imrs = 0, page = 0;
  HitRatio(t->db.get(), &imrs, &page);
  std::vector<double> hits;
  int64_t warm_txns = 0;
  while (static_cast<int>(hits.size()) < kWarmMaxChunks &&
         !Levelled(hits, kWarmMinChunks)) {
    const uint64_t seed = cfg.seed * 7919 + static_cast<uint64_t>(round) * 131 +
                          hits.size() + 1;
    TermStats st = RunClosedLoop(t, kTerminals, seed, kWarmChunkTxns, 0,
                                 false);
    warm_txns += st.committed;
    if (st.gave_up > 0) return Status::Busy("warm-up transaction gave up");
    hits.push_back(HitRatio(t->db.get(), &imrs, &page));
  }
  printf("setup %d: warm-up %" PRId64 " txns in %zu chunks, hit ratio %.4f\n",
         round, warm_txns, hits.size(), hits.back());
  printf("  hit ratio per chunk:");
  for (double h : hits) printf(" %.3f", h);
  printf("\n");
  return Status::OK();
}

/// Consistency condition 1 for every district (d_next_o_id - 1 =
/// max(o_id), and every o_id below it present), the per-warehouse count of
/// acknowledged NewOrders, and the engine's invariant checker.
void CheckTpcc(TpccDb* t, const std::string& when, Results* res) {
  Database* db = t->db.get();
  const tpcc::Tables& tb = t->ctx.tables;
  const tpcc::Scale& sc = t->ctx.scale;
  bool cond1 = true;
  bool acked = true;
  std::string detail;
  std::unique_ptr<Transaction> txn = db->Begin();
  for (int w = 1; w <= sc.warehouses; ++w) {
    int64_t advanced = 0;
    for (int d = 1; d <= sc.districts_per_warehouse; ++d) {
      std::string drow;
      Status s = db->SelectByKey(txn.get(), tb.district,
                                 tb.district->pk_encoder().KeyForInts({w, d}),
                                 &drow);
      if (!s.ok()) {
        cond1 = false;
        detail = "district read: " + s.ToString();
        continue;
      }
      RecordView dv(&tb.district->schema(), Slice(drow));
      const int64_t next_o_id = dv.GetInt(tpcc::dist::kNextOId);
      advanced += next_o_id - (sc.orders_per_district + 1);
      std::string lower, upper;
      KeyEncoder::AppendInt(&lower, w);
      KeyEncoder::AppendInt(&lower, d);
      KeyEncoder::AppendInt(&upper, w);
      KeyEncoder::AppendInt(&upper, d + 1);
      std::vector<ScanRow> orders;
      s = db->ScanIndex(txn.get(), tb.orders, -1, Slice(lower), Slice(upper),
                        0, &orders);
      int64_t max_o_id = 0;
      for (const ScanRow& r : orders) {
        RecordView ov(&tb.orders->schema(), Slice(r.payload));
        max_o_id = std::max<int64_t>(max_o_id, ov.GetInt(tpcc::ord::kOId));
      }
      if (!s.ok() || max_o_id != next_o_id - 1 ||
          static_cast<int64_t>(orders.size()) != next_o_id - 1) {
        cond1 = false;
        char buf[160];
        snprintf(buf, sizeof(buf),
                 "w%d d%d: d_next_o_id=%" PRId64 " max(o_id)=%" PRId64
                 " orders=%zu",
                 w, d, next_o_id, max_o_id, orders.size());
        detail = buf;
      }
    }
    const int64_t expect = t->acked_new_orders[static_cast<size_t>(w - 1)];
    if (advanced != expect) {
      acked = false;
      detail += " w" + std::to_string(w) + ": " + std::to_string(advanced) +
                " orders present, " + std::to_string(expect) + " acked";
    }
  }
  (void)db->Commit(txn.get());
  res->Check(cond1, when + ": consistency condition 1 in every district " +
                        detail);
  int64_t acked_total = 0;
  for (int64_t n : t->acked_new_orders) acked_total += n;
  res->Check(acked, when + ": every acked NewOrder present (" +
                        std::to_string(acked_total) + " acked)");
  Status v = Status::Busy("");
  for (int i = 0; i < 20 && v.IsBusy(); ++i) v = db->ValidateInvariants();
  res->Check(v.ok(), when + ": ValidateInvariants " + v.ToString());
}

/// The analytic client of `htap`: loops a projected ScanTable sum of
/// ol_amount over order_line, one snapshot transaction per scan.
struct Scanner {
  std::vector<double> lat_ms;  // per scan, retries included
  int64_t scans = 0;
  int64_t attempts = 0;
  int64_t aborts = 0;   // attempts that failed and were retried
  int64_t gave_up = 0;  // scans that kept failing for kGiveUpNs
  Status last_abort;
  int64_t rows_from_imrs = 0;
  int64_t rows_from_heap = 0;
  int64_t rows_last = 0;
  bool monotone = true;  // rows and sum never shrink between scans
  std::vector<Span> spans;

  Status ScanOnce(Database* db, Table* order_line, int64_t* rows,
                  double* sum, HtapScanStats* stats) {
    std::unique_ptr<Transaction> txn = db->Begin();
    HtapScanOptions opt;
    opt.columns = {static_cast<size_t>(tpcc::ol::kAmount)};
    *rows = 0;
    *sum = 0.0;
    Status s = db->ScanTable(
        txn.get(), order_line, opt,
        [&](const HtapRow& row) {
          *sum += row.Double(tpcc::ol::kAmount);
          ++*rows;
          return true;
        },
        stats);
    if (!s.ok()) {
      (void)db->Abort(txn.get());
      return s;
    }
    return db->Commit(txn.get());
  }

  void Run(Database* db, Table* order_line, bool trace,
           const std::atomic<bool>* stop) {
    double sum_last = 0.0;
    while (!stop->load()) {
      const bool traced = trace && g_trace_on.load(std::memory_order_relaxed);
      const int64_t t0 = NowNs();
      const int64_t next_ns = t0 + kScanPeriodNs;
      int64_t rows = 0;
      double sum = 0.0;
      HtapScanStats stats;
      Status s;
      while (true) {
        stats = HtapScanStats{};
        s = ScanOnce(db, order_line, &rows, &sum, &stats);
        ++attempts;
        if (s.ok()) break;
        ++aborts;
        last_abort = s;
        if (NowNs() - t0 >= kGiveUpNs) break;
      }
      const int64_t t1 = NowNs();
      ++scans;
      if (!s.ok()) {
        ++gave_up;
        continue;
      }
      if (traced) {
        const uint64_t id = NewSpanId();
        spans.push_back(Span{id, 0, id, "engine.scan_table", t0, t1});
      }
      lat_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      rows_from_imrs += stats.rows_from_imrs;
      rows_from_heap += stats.rows_from_heap;
      if (rows < rows_last || sum < sum_last * (1 - 1e-9)) monotone = false;
      rows_last = rows;
      sum_last = sum;
      while (!stop->load() && NowNs() < next_ns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
};

/// The mid-window Checkpoint() of tpcc_ilm. A Busy begin barrier (active
/// transactions did not drain) is retried and counted.
struct MidCheckpoint {
  Status status;
  double seconds = 0.0;  // the attempt that succeeded
  int64_t busy_retries = 0;
  std::vector<Span> spans;

  void Run(Database* db, int64_t at_ns, bool trace) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(at_ns)));
    const bool traced = trace && g_trace_on.load();
    const uint64_t root = traced ? NewSpanId() : 0;
    const int64_t c0 = NowNs();
    while (true) {
      const int64_t a0 = NowNs();
      status = db->Checkpoint();
      const int64_t a1 = NowNs();
      if (traced) {
        spans.push_back(Span{NewSpanId(), root, root,
                             "engine.checkpoint.attempt", a0, a1});
      }
      if (!status.IsBusy()) {
        seconds = Seconds(a1 - a0);
        break;
      }
      ++busy_retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (traced) {
      spans.push_back(Span{root, 0, root, "engine.checkpoint", c0, NowNs()});
    }
  }
};

/// Reopens the dropped database in `dir`, re-creates the tables and
/// recovers, timing Open + CreateTables + Recover; then checks that every
/// NewOrder in `acked` came back.
void RecoverAndCheck(const Config& cfg, const std::string& dir,
                     const std::vector<int64_t>& acked, Results* res,
                     std::vector<Span>* spans) {
  const int64_t r0 = NowNs();
  TpccDb r;
  Status s = OpenTpcc(TpccOptions(cfg, dir), &r);
  const int64_t r1 = NowNs();
  if (s.ok()) s = r.db->Recover();
  const int64_t r2 = NowNs();
  res->Check(s.ok(), "tpcc_ilm: recover " + s.ToString());
  if (cfg.trace) {
    const uint64_t root = NewSpanId();
    spans->push_back(
        Span{NewSpanId(), root, root, "engine.open+create", r0, r1});
    spans->push_back(Span{NewSpanId(), root, root, "engine.recover", r1, r2});
    spans->push_back(Span{root, 0, root, "engine.recovery", r0, r2});
  }
  res->Set("recovery_s", Seconds(r2 - r0), "s", "n=1");
  res->Set("engine.recover_s", Seconds(r2 - r1), "s", "n=1");
  if (s.ok()) {
    r.acked_new_orders = acked;
    CheckTpcc(&r, "tpcc_ilm after recovery", res);
  }
}

/// Per-layer counts per unit of work: per business transaction on TPC-C,
/// per request on kv_wire. `busy_us` is the summed latency of those units,
/// the base of the lock-wait share.
void PerUnitMetrics(const RegistryWindow& win, int64_t units,
                    const std::string& unit_name, double busy_us,
                    Results* res) {
  auto per_unit = [&](const char* name, const char* counter,
                      const char* unit) {
    const int64_t n = win.Delta(counter);
    res->Set(name,
             static_cast<double>(n) /
                 static_cast<double>(std::max<int64_t>(units, 1)),
             unit,
             std::string(counter) + "=" + std::to_string(n) + " / " +
                 unit_name + "=" + std::to_string(units));
  };
  res->SetRatio("txn.lock_wait_share",
                Ratio{static_cast<double>(win.SumDelta("locks.wait_us")),
                      busy_us},
                "locks.wait_us", unit_name + "_latency_us");
  per_unit("txn.lock_waits_per_txn", "locks.waits", "count");
  per_unit("index.searches_per_txn", "index.searches", "count");
  per_unit("page.fixes_per_txn", "buffer_cache.fixes", "count");
  per_unit("imrs.gc_versions_freed_per_txn", "gc.versions_freed", "count");
  per_unit("wal.bytes_per_txn", "wal.bytes_appended", "bytes");
  per_unit("wal.records_per_txn", "wal.records_appended", "count");
}

/// Per-layer metrics every workload shares (registry window deltas).
void CommonLayerMetrics(const RegistryWindow& win, Results* res) {
  auto delta = [&](const char* name, const char* counter) {
    res->Set(name, static_cast<double>(win.Delta(counter)), "count");
  };
  auto d = [&](const char* counter) {
    return static_cast<double>(win.Delta(counter));
  };
  delta("txn.lock_timeouts", "locks.timeouts");
  res->SetRatio("txn.fast_grant_ratio",
                Ratio{d("locks.fast_grants"), d("locks.acquisitions")},
                "locks.fast_grants", "locks.acquisitions");
  const double descents = d("index.searches") + d("index.inserts") +
                          d("index.deletes") + d("index.scans");
  res->SetRatio("index.olc_restart_ratio",
                Ratio{d("index.olc_restarts"), descents}, "index.olc_restarts",
                "index.descents");
  res->SetRatio("index.pessimistic_ratio",
                Ratio{d("index.pessimistic_descents"), descents},
                "index.pessimistic_descents", "index.descents");
  delta("index.splits", "index.splits");
  res->SetRatio("page.hit_ratio",
                Ratio{d("buffer_cache.hits"), d("buffer_cache.fixes")},
                "buffer_cache.hits", "buffer_cache.fixes");
  delta("page.evictions", "buffer_cache.evictions");
  delta("page.latch_contention", "buffer_cache.latch_contention");
  res->SetRatio("imrs.hit_ratio",
                Ratio{d("engine.imrs_ops"),
                      d("engine.imrs_ops") + d("engine.page_ops")},
                "engine.imrs_ops", "engine.row_ops");
  res->Set("imrs.gc_pending_end",
           static_cast<double>(win.EndValue("gc.deferred_pending") +
                               win.EndValue("gc.work_pending")),
           "count");
  delta("alloc.failed_allocs", "imrs_cache.failed_allocs");
  delta("ilm.rows_packed", "pack.rows_packed");
  res->Set("ilm.bytes_packed", d("pack.bytes_packed"), "bytes");
  res->SetRatio("ilm.pack_useful_ratio",
                Ratio{d("pack.rows_packed"),
                      d("pack.rows_packed") + d("pack.rows_skipped_hot")},
                "pack.rows_packed", "packed+skipped_hot");
  res->Set("ilm.pack_lock_wait_us",
           static_cast<double>(win.SumDelta("pack.lock_wait_us")), "us");
  res->Set("ilm.partition_pack_us",
           static_cast<double>(win.SumDelta("pack.partition_pack_us")), "us");
  auto mean_us = [&](const char* histogram) {
    const int64_t n = win.Delta(histogram);
    return n > 0 ? static_cast<double>(win.SumDelta(histogram)) /
                       static_cast<double>(n)
                 : 0.0;
  };
  res->Set("wal.commit_us_mean", mean_us("commit.latency_us"), "us",
           "n=" + std::to_string(win.Delta("commit.latency_us")));
  res->Set("pool.queue_wait_us_mean", mean_us("pool.queue_wait_us"), "us",
           "n=" + std::to_string(win.Delta("pool.queue_wait_us")));
  delta("pool.tasks_executed", "pool.tasks_executed");
  res->Set("engine.checkpoint_pause_us",
           static_cast<double>(win.EndValue("checkpoint.last_pause_us")), "us");
}

/// Zeroes for metrics a workload does not exercise, so every run reports
/// the same metric names.
void DefaultMetrics(Results* res) {
  for (const char* name :
       {"recovery_s", "checkpoint_s", "engine.recover_s"}) {
    res->Set(name, 0.0, "s", "not exercised");
  }
  res->Set("scan_p50_ms", 0.0, "ms", "not exercised");
  for (const char* name :
       {"engine.checkpoint_busy_retries", "engine.scan_rows_from_imrs",
        "engine.scan_rows_from_heap", "net.queue_depth_max"}) {
    res->Set(name, 0.0, "count", "not exercised");
  }
  for (const char* name : {"net.get.p50_us", "net.put.p50_us",
                           "net.scan.p50_us", "net.server_us_mean"}) {
    res->Set(name, 0.0, "us", "not exercised");
  }
  res->Set("net.wire_share", 0.0, "ratio", "not exercised");
  res->Set("net.bytes_per_req", 0.0, "bytes", "not exercised");
  res->Set("net.rtt_p99_us", 0.0, "us", "not exercised");
  for (const char* t : kTxnNames) {
    res->Set(std::string("tpcc.") + t + ".p50_us", 0.0, "us",
             "not exercised");
    res->Set(std::string("tpcc.") + t + ".sys_aborts", 0.0, "count",
             "not exercised");
  }
}

/// throughput_tps, latency_p50_us and latency_p99_us. Throughput and p99
/// are interquartile means over the window's 1-second slices, so a stall in
/// a few slices does not swing a run; the whole-window tail is reported
/// beside them. On htap the slices that overlap a scan are the effect
/// measured, not stalls, so its throughput is the plain mean.
void LatencyMetrics(const Config& cfg, const std::vector<double>& lat_us,
                    const std::vector<int64_t>& done_ns, int64_t start_ns,
                    Results* res) {
  const int slices = std::max(1, static_cast<int>(cfg.seconds));
  perfbench::SliceSummary sl =
      perfbench::SummarizeSlices(done_ns, lat_us, start_ns, 1'000'000'000,
                                 slices);
  const std::string n = "n=" + std::to_string(lat_us.size());
  const std::string per_slice = ", interquartile mean of " +
                                std::to_string(sl.slices) + " 1-s slices, >=" +
                                std::to_string(sl.min_slice_samples) +
                                " samples each";
  if (cfg.workload == "htap") {
    double sum = 0.0;
    for (double r : sl.rates) sum += r;
    res->Set("throughput_tps", sum / static_cast<double>(sl.slices), "1/s",
             n + ", mean of " + std::to_string(sl.slices) + " 1-s slices");
  } else {
    res->Set("throughput_tps", sl.rate, "1/s", n + per_slice);
  }
  res->Set("latency_p99_us", sl.p99, "us", n + per_slice);
  printf("slices (tps/p99_us):");
  for (int i = 0; i < sl.slices; ++i) {
    printf(" %.0f/%.0f", sl.rates[static_cast<size_t>(i)],
           sl.p99s[static_cast<size_t>(i)]);
  }
  printf("\n");
  LatencySummary lat = perfbench::Summarize(lat_us);
  std::vector<double> sorted = lat_us;
  std::sort(sorted.begin(), sorted.end());
  printf("latency percentiles (us): p50 %.1f p90 %.1f p99 %.1f p%.5g %.1f\n",
         lat.p50, perfbench::QuantileSorted(sorted, 0.9), lat.p99,
         lat.tail_q * 100, lat.tail);
  res->Set("latency_p50_us", lat.p50, "us", n);
  res->Set("latency_p90_us", perfbench::QuantileSorted(sorted, 0.9), "us", n);
  char note[96];
  snprintf(note, sizeof(note), "p%.5g of the whole window, n=%" PRId64,
           lat.tail_q * 100, lat.count);
  res->Set("bench.latency_tail_us", lat.tail, "us", note);
}

void TraceOverhead(const Config& cfg, int64_t done_traced,
                   int64_t done_untraced, const TraceSlicer& slicer,
                   Results* res) {
  if (!cfg.trace) return;
  const double traced =
      slicer.traced_s() > 0 ? done_traced / slicer.traced_s() : 0.0;
  const double untraced =
      slicer.untraced_s() > 0 ? done_untraced / slicer.untraced_s() : 0.0;
  res->Set("bench.traced_tps", traced, "1/s",
           "n=" + std::to_string(done_traced));
  res->Set("bench.untraced_tps", untraced, "1/s",
           "n=" + std::to_string(done_untraced));
  res->SetRatio("bench.trace_overhead_ratio",
                Ratio{untraced - traced, untraced}, "untraced-traced tps",
                "untraced tps");
}

int RunTpcc(const Config& cfg, Results* res) {
  const bool file_backed = cfg.workload == "tpcc_ilm";
  auto round_dir = [&](int round) {
    return cfg.data_dir + "/db" + std::to_string(round);
  };
  // Setup, kSetupRounds times; the last database is the one measured.
  std::vector<double> setup_s, open_s;
  std::unique_ptr<TpccDb> t;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (t) {
      t->db.reset();
      if (file_backed) std::filesystem::remove_all(round_dir(round - 1));
    }
    t = std::make_unique<TpccDb>();
    if (file_backed) std::filesystem::create_directories(round_dir(round));
    const int64_t t0 = NowNs();
    Status s = SetUpTpcc(cfg, round_dir(round), round, t.get());
    if (!s.ok()) {
      fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      res->Check(false, "setup " + s.ToString());
      return 1;
    }
    setup_s.push_back(Seconds(NowNs() - t0));
    open_s.push_back(t->open_s);
  }
  res->Set("setup_s", Median(setup_s), "s",
           "n=" + std::to_string(setup_s.size()));
  res->Set("engine.open_s", Median(open_s), "s",
           "n=" + std::to_string(open_s.size()));

  // Measured window.
  Database* db = t->db.get();
  RegistryWindow win(db->metrics_registry());
  Monitor mon(db->metrics_registry());
  TraceSlicer slicer(cfg.trace);
  Scanner scanner;
  std::atomic<bool> stop_aux{false};
  MidCheckpoint ckpt;
  std::thread scan_thread, ckpt_thread;

  win.Begin();
  mon.Start();
  const int64_t start = NowNs();
  const int64_t window_ns = static_cast<int64_t>(cfg.seconds * 1e9);
  const int64_t end = start + window_ns;
  slicer.Start(end);
  if (cfg.workload == "htap") {
    scan_thread = std::thread([&] {
      scanner.Run(db, t->ctx.tables.order_line, cfg.trace, &stop_aux);
    });
  }
  if (file_backed) {
    ckpt_thread = std::thread(
        [&] { ckpt.Run(db, start + window_ns / 2, cfg.trace); });
  }
  TermStats st = RunClosedLoop(t.get(), kTerminals, cfg.seed * 31 + 17,
                               0, end, cfg.trace);
  stop_aux.store(true);
  if (scan_thread.joinable()) scan_thread.join();
  if (ckpt_thread.joinable()) ckpt_thread.join();
  slicer.Stop();
  mon.Stop();
  win.End();

  // End-to-end metrics.
  res->attempted = st.business + scanner.scans;
  res->failed = st.gave_up + scanner.gave_up;
  LatencyMetrics(cfg, st.lat_us, st.done_ns, start, res);
  TraceOverhead(cfg, st.done_traced, st.done_untraced, slicer, res);
  res->Set("imrs_peak_mib",
           static_cast<double>(mon.imrs_peak_bytes) / (1024.0 * 1024.0), "MiB",
           "polls=" + std::to_string(mon.polls));
  res->SetRatio("failed_ratio",
                Ratio{static_cast<double>(st.attempts - st.committed -
                                          st.user_aborts + scanner.aborts +
                                          scanner.gave_up),
                      static_cast<double>(st.attempts + scanner.attempts)},
                "sys_aborts+gave_up", "attempts");
  res->Set("bench.user_aborts", static_cast<double>(st.user_aborts), "count",
           "the spec's NewOrder rollbacks, correct outcomes");
  res->Set("bench.rss_peak_mib", mon.rss_peak_mib, "MiB");

  // Per-layer metrics.
  for (int i = 0; i < 5; ++i) {
    res->Set(std::string("tpcc.") + kTxnNames[i] + ".sys_aborts",
             static_cast<double>(st.sys_aborts[i]), "count");
  }
  PerUnitMetrics(win, st.business, "txns", st.lat_sum_us, res);
  CommonLayerMetrics(win, res);
  if (cfg.workload == "htap") {
    LatencySummary scans = perfbench::Summarize(scanner.lat_ms);
    res->SetMedian("scan_p50_ms", scans, "ms");
    res->Set("engine.scan_rows_from_imrs",
             static_cast<double>(scanner.rows_from_imrs), "count");
    res->Set("engine.scan_rows_from_heap",
             static_cast<double>(scanner.rows_from_heap), "count");
    res->Check(scans.count > 0 && scanner.gave_up == 0,
               "htap: " + std::to_string(scans.count) + " scans completed, " +
                   std::to_string(scanner.gave_up) + " gave up, " +
                   std::to_string(scanner.aborts) + " attempts retried (" +
                   scanner.last_abort.ToString() + ")");
    res->Check(scanner.monotone,
               "htap: order_line rows and sum(ol_amount) never shrink");
  }
  if (file_backed) {
    res->Check(ckpt.status.ok(),
               "tpcc_ilm: mid-window checkpoint " + ckpt.status.ToString());
    res->Set("checkpoint_s", ckpt.seconds, "s", "n=1");
    res->Set("engine.checkpoint_busy_retries",
             static_cast<double>(ckpt.busy_retries), "count");
  }
  std::vector<Span> spans = std::move(st.spans);
  if (cfg.trace) {
    const auto by_name = perfbench::AggregateSpans(spans);
    for (const char* type : kTxnNames) {
      auto it = by_name.find(std::string("tpcc.") + type);
      if (it == by_name.end()) continue;
      res->SetMedian(std::string("tpcc.") + type + ".p50_us",
                     perfbench::Summarize(it->second.durations_us), "us");
    }
  }
  spans.insert(spans.end(), scanner.spans.begin(), scanner.spans.end());
  spans.insert(spans.end(), ckpt.spans.begin(), ckpt.spans.end());

  // Correctness on the live database.
  CheckTpcc(t.get(), cfg.workload, res);
  if (cfg.workload == "htap") {
    int64_t rows = 0, index_rows = 0;
    double sum = 0.0;
    HtapScanStats stats;
    Status s = scanner.ScanOnce(db, t->ctx.tables.order_line, &rows, &sum,
                                &stats);
    std::unique_ptr<Transaction> txn = db->Begin();
    std::vector<ScanRow> all;
    Status si = db->ScanIndex(txn.get(), t->ctx.tables.order_line, -1, Slice(),
                              Slice(), 0, &all);
    (void)db->Commit(txn.get());
    index_rows = static_cast<int64_t>(all.size());
    res->Check(s.ok() && si.ok() && rows == index_rows,
               "htap: ScanTable rows " + std::to_string(rows) +
                   " == primary-index rows " + std::to_string(index_rows));
  }

  // tpcc_ilm: drop the database without a checkpoint, then recover it.
  if (file_backed) {
    const std::vector<int64_t> acked = t->acked_new_orders;
    t.reset();
    RecoverAndCheck(cfg, round_dir(kSetupRounds - 1), acked, res, &spans);
  }
  if (cfg.trace) EmitSpans(spans, cfg.trace_out);
  return 0;
}

// ---------------------------------------------------------------------------
// kv_wire.

std::string KvPrefix(int64_t key) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%010" PRId64 ":", key);
  return buf;
}

std::string KvValue(int64_t key, const std::string& tag) {
  std::string v = KvPrefix(key) + tag + ":";
  v.resize(kKvValueBytes, 'x');
  return v;
}

Status LoadKv(Database* db) {
  TableOptions o;
  o.name = "kv";
  o.schema = Schema({Column::Int64("k"), Column::String("v", 128)});
  o.primary_key = {0};
  Result<Table*> table = db->CreateTable(std::move(o));
  if (!table.ok()) return table.status();
  constexpr int64_t kBatch = 256;
  for (int64_t base = 0; base < kKvRows; base += kBatch) {
    std::unique_ptr<Transaction> txn = db->Begin();
    for (int64_t k = base; k < std::min(kKvRows, base + kBatch); ++k) {
      RecordBuilder builder(&(*table)->schema());
      builder.AddInt64(k).AddString(KvValue(k, "init"));
      Status s = db->Insert(txn.get(), *table, builder.Finish());
      if (!s.ok()) {
        (void)db->Abort(txn.get());
        return s;
      }
    }
    BTRIM_RETURN_IF_ERROR(db->Commit(txn.get()));
  }
  return Status::OK();
}

struct KvServer {
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<std::map<int64_t, std::string>> last_put;  // per client
  std::vector<int64_t> put_seq;
  double open_s = 0.0;

  void Shutdown() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    db.reset();
  }
};

/// One closed-loop client's tally for a phase.
struct KvStats {
  int64_t attempted = 0;
  int64_t done = 0;
  int64_t errors = 0;     // error replies (sheds included)
  int64_t transport = 0;  // broken connections
  int64_t bad_data = 0;   // replies that do not match the key asked for
  int64_t done_traced = 0;
  int64_t done_untraced = 0;
  double rtt_sum_us = 0.0;
  std::vector<double> lat_us;    // reply time minus send time
  std::vector<int64_t> done_ns;  // reply times
  std::vector<Span> spans;

  void Merge(KvStats&& o) {
    attempted += o.attempted;
    done += o.done;
    errors += o.errors;
    transport += o.transport;
    bad_data += o.bad_data;
    done_traced += o.done_traced;
    done_untraced += o.done_untraced;
    rtt_sum_us += o.rtt_sum_us;
    lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    done_ns.insert(done_ns.end(), o.done_ns.begin(), o.done_ns.end());
    spans.insert(spans.end(), std::make_move_iterator(o.spans.begin()),
                 std::make_move_iterator(o.spans.end()));
  }
};

/// 80% of keys from the hottest 20% (keys divisible by 5).
int64_t PickKey(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (u(*rng) < 0.8) {
    return static_cast<int64_t>((*rng)() % (kKvRows / 5)) * 5;
  }
  const int64_t cold = static_cast<int64_t>((*rng)() % (kKvRows / 5 * 4));
  return cold / 4 * 5 + cold % 4 + 1;
}

/// Closed loop: one client sends its next request as soon as the reply to
/// the last one arrives, until `end_ns`. Latency is the round trip. Puts
/// go only to keys this client owns (key % kKvClients == id), so the
/// last acknowledged value of each written key is known.
KvStats RunKvClient(KvServer* kv, int id, uint64_t seed, int64_t end_ns,
                    bool trace) {
  KvStats st;
  net::Client* client = kv->clients[static_cast<size_t>(id)].get();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dice(1, 100);
  auto& last_put = kv->last_put[static_cast<size_t>(id)];
  while (NowNs() < end_ns) {
    const int roll = dice(rng);
    const int op = roll <= 90 ? 0 : (roll <= 98 ? 1 : 2);
    int64_t key = PickKey(&rng);
    while (op == 1 && key % kKvClients != id) key = PickKey(&rng);
    std::string value;
    if (op == 1) {
      const int64_t seq = ++kv->put_seq[static_cast<size_t>(id)];
      value = KvValue(key, "c" + std::to_string(id) + ":s" +
                               std::to_string(seq));
    }
    const bool traced = trace && g_trace_on.load(std::memory_order_relaxed);
    const int64_t send = NowNs();
    ++st.attempted;
    Result<net::Response> resp =
        op == 0 ? client->Get("kv", key)
                : (op == 1 ? client->Put("kv", key, value)
                           : client->Scan("kv", key, kKvScanLimit));
    const int64_t recv = NowNs();
    if (!resp.ok()) {
      ++st.transport;
      fprintf(stderr, "kv client %d: %s\n", id,
              resp.status().ToString().c_str());
      break;
    }
    if (!resp->ok()) {
      ++st.errors;
      continue;
    }
    bool good = true;
    if (op == 0) {
      good = resp->value.rfind(KvPrefix(key), 0) == 0;
    } else if (op == 1) {
      last_put[key] = value;
    } else {
      const size_t expect = static_cast<size_t>(
          std::min<int64_t>(kKvScanLimit, kKvRows - key));
      good = resp->rows.size() == expect;
      for (size_t i = 0; good && i < resp->rows.size(); ++i) {
        good = resp->rows[i].key == key + static_cast<int64_t>(i) &&
               resp->rows[i].value.rfind(KvPrefix(resp->rows[i].key), 0) == 0;
      }
    }
    if (!good) ++st.bad_data;
    ++st.done;
    ++(g_trace_on.load(std::memory_order_relaxed) ? st.done_traced
                                                  : st.done_untraced);
    st.lat_us.push_back(static_cast<double>(recv - send) / 1000.0);
    st.done_ns.push_back(recv);
    st.rtt_sum_us += static_cast<double>(recv - send) / 1000.0;
    if (traced) {
      const uint64_t sid = NewSpanId();
      st.spans.push_back(Span{sid, 0, sid,
                              std::string("net.") + kKvOpNames[op], send,
                              recv});
    }
  }
  return st;
}

KvStats RunKvPhase(KvServer* kv, uint64_t seed, int64_t end_ns, bool trace) {
  std::vector<KvStats> per(kKvClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kKvClients; ++i) {
    threads.emplace_back([&, i] {
      per[static_cast<size_t>(i)] =
          RunKvClient(kv, i, seed * 1000003 + static_cast<uint64_t>(i), end_ns,
                      trace);
    });
  }
  for (std::thread& th : threads) th.join();
  KvStats total;
  for (KvStats& st : per) total.Merge(std::move(st));
  return total;
}

Status SetUpKv(const Config& cfg, int round, KvServer* kv) {
  DatabaseOptions o;
  o.imrs_cache_bytes = 64ull << 20;
  o.buffer_cache_frames = 8192;
  o.lock_timeout_ms = 50;
  const int64_t t0 = NowNs();
  Result<std::unique_ptr<Database>> opened = Database::Open(o);
  if (!opened.ok()) return opened.status();
  kv->open_s = Seconds(NowNs() - t0);
  kv->db = std::move(*opened);
  BTRIM_RETURN_IF_ERROR(LoadKv(kv->db.get()));
  kv->db->StartBackground();
  net::ServerOptions so;
  so.port = 0;
  so.worker_lanes = 2;
  Result<std::unique_ptr<net::Server>> started =
      net::Server::Start(kv->db.get(), so);
  if (!started.ok()) return started.status();
  kv->server = std::move(*started);
  for (int i = 0; i < kKvClients; ++i) {
    Result<std::unique_ptr<net::Client>> c =
        net::Client::Connect("127.0.0.1", kv->server->port(), "bench");
    if (!c.ok()) return c.status();
    kv->clients.push_back(std::move(*c));
  }
  kv->last_put.assign(kKvClients, {});
  kv->put_seq.assign(kKvClients, 0);
  int64_t imrs = 0, page = 0;
  HitRatio(kv->db.get(), &imrs, &page);
  std::vector<double> hits;
  while (static_cast<int>(hits.size()) < kKvWarmMaxChunks &&
         !Levelled(hits, kKvWarmMinChunks)) {
    const uint64_t seed = cfg.seed * 7919 + static_cast<uint64_t>(round) * 131 +
                          hits.size() + 1;
    KvStats st = RunKvPhase(kv, seed,
                            NowNs() + static_cast<int64_t>(kKvWarmChunkS * 1e9),
                            false);
    if (st.transport + st.errors + st.bad_data > 0) {
      return Status::IOError("kv warm-up request failed");
    }
    hits.push_back(HitRatio(kv->db.get(), &imrs, &page));
  }
  printf("setup %d: warm-up %zu chunks, hit ratio %.4f\n", round, hits.size(),
         hits.back());
  return Status::OK();
}

int RunKv(const Config& cfg, Results* res) {
  std::vector<double> setup_s, open_s;
  KvServer kv;
  for (int round = 0; round < kSetupRounds; ++round) {
    kv.Shutdown();
    kv = KvServer{};
    const int64_t t0 = NowNs();
    Status s = SetUpKv(cfg, round, &kv);
    if (!s.ok()) {
      fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      res->Check(false, "setup " + s.ToString());
      kv.Shutdown();
      return 1;
    }
    setup_s.push_back(Seconds(NowNs() - t0));
    open_s.push_back(kv.open_s);
  }
  res->Set("setup_s", Median(setup_s), "s",
           "n=" + std::to_string(setup_s.size()));
  res->Set("engine.open_s", Median(open_s), "s",
           "n=" + std::to_string(open_s.size()));

  Database* db = kv.db.get();
  RegistryWindow win(db->metrics_registry());
  Monitor mon(db->metrics_registry());
  TraceSlicer slicer(cfg.trace);
  win.Begin();
  mon.Start();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(cfg.seconds * 1e9);
  slicer.Start(end);
  KvStats st = RunKvPhase(&kv, cfg.seed * 31 + 17, end, cfg.trace);
  slicer.Stop();
  mon.Stop();
  win.End();

  res->attempted = st.attempted;
  res->failed = st.attempted - st.done;
  LatencyMetrics(cfg, st.lat_us, st.done_ns, start, res);
  TraceOverhead(cfg, st.done_traced, st.done_untraced, slicer, res);
  res->Set("imrs_peak_mib",
           static_cast<double>(mon.imrs_peak_bytes) / (1024.0 * 1024.0), "MiB",
           "polls=" + std::to_string(mon.polls));
  res->SetRatio("failed_ratio",
                Ratio{static_cast<double>(st.attempted - st.done),
                      static_cast<double>(st.attempted)},
                "errors+sheds+broken", "requests");
  res->Set("bench.user_aborts", 0.0, "count", "not exercised");
  res->Set("bench.rss_peak_mib", mon.rss_peak_mib, "MiB");
  const LatencySummary rtt = perfbench::Summarize(st.lat_us);
  res->Set("net.rtt_p99_us", rtt.p99, "us", "n=" + std::to_string(rtt.count));

  // Per-layer.
  CommonLayerMetrics(win, res);
  PerUnitMetrics(win, st.done, "requests", st.rtt_sum_us, res);
  const int64_t server_n = win.Delta("net.request_latency_us");
  const double server_mean =
      server_n > 0
          ? static_cast<double>(win.SumDelta("net.request_latency_us")) /
                static_cast<double>(server_n)
          : 0.0;
  res->Set("net.server_us_mean", server_mean, "us",
           "n=" + std::to_string(server_n));
  const double client_mean =
      st.rtt_sum_us / static_cast<double>(std::max<int64_t>(st.done, 1));
  res->SetRatio("net.wire_share", Ratio{client_mean - server_mean, client_mean},
                "client_rtt-server_us", "client_rtt_us");
  res->Set("net.queue_depth_max", static_cast<double>(mon.queue_depth_max),
           "count", "polls=" + std::to_string(mon.polls));
  const int64_t net_reqs = win.Delta("net.requests");
  res->Set("net.bytes_per_req",
           net_reqs > 0 ? static_cast<double>(win.Delta("net.bytes_in") +
                                              win.Delta("net.bytes_out")) /
                              static_cast<double>(net_reqs)
                        : 0.0,
           "bytes", "net.requests=" + std::to_string(net_reqs));
  const auto spans = perfbench::AggregateSpans(st.spans);
  for (const char* op : kKvOpNames) {
    auto it = spans.find(std::string("net.") + op);
    if (it == spans.end()) continue;
    res->SetMedian(std::string("net.") + op + ".p50_us",
                   perfbench::Summarize(it->second.durations_us), "us");
  }

  // Correctness: replies matched their keys, and every written key reads
  // back its last acknowledged value.
  res->Check(st.transport == 0 && st.errors == 0,
             "kv_wire: " + std::to_string(st.errors) + " error replies, " +
                 std::to_string(st.transport) + " broken connections");
  res->Check(st.bad_data == 0, "kv_wire: " + std::to_string(st.bad_data) +
                                   " replies that do not match their key");
  int64_t written = 0, mismatched = 0;
  for (size_t c = 0; c < kv.last_put.size(); ++c) {
    for (const auto& [key, value] : kv.last_put[c]) {
      ++written;
      Result<net::Response> r = kv.clients[c]->Get("kv", key);
      if (!r.ok() || !r->ok() || r->value != value) ++mismatched;
    }
  }
  res->Check(written > 0 && mismatched == 0,
             "kv_wire: last acked value of " + std::to_string(written) +
                 " written keys reads back (" + std::to_string(mismatched) +
                 " mismatched)");
  if (cfg.trace) EmitSpans(st.spans, cfg.trace_out);
  kv.Shutdown();
  return 0;
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (!has_value) return false;
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      cfg->workload = value;
    } else if (flag == "--seed") {
      cfg->seed = strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg->seconds = atof(value);
    } else if (flag == "--trace") {
      cfg->trace = atoi(value) != 0;
    } else if (flag == "--data-dir") {
      cfg->data_dir = value;
    } else if (flag == "--trace-out") {
      cfg->trace_out = value;
    } else {
      return false;
    }
  }
  return (IsTpcc(cfg->workload) || cfg->workload == "kv_wire") &&
         cfg->seconds > 0 && !cfg->data_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    fprintf(stderr,
            "usage: btrim_bench --workload tpcc_hot|tpcc_ilm|htap|kv_wire "
            "--seed N --seconds S --trace 0|1 --data-dir DIR "
            "[--trace-out FILE]\n");
    return 2;
  }
  setvbuf(stdout, nullptr, _IOLBF, 0);
  printf("fingerprint {\"hw_threads\": %u, \"compiler\": \"%s\", "
         "\"build_type\": \"%s\", \"seed\": %" PRIu64
         ", \"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}\n",
         std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
         PERFBENCH_BUILD_TYPE, cfg.seed, cfg.workload.c_str(), cfg.seconds,
         cfg.trace ? 1 : 0);
  Results res;
  DefaultMetrics(&res);
  const int rc = IsTpcc(cfg.workload) ? RunTpcc(cfg, &res) : RunKv(cfg, &res);
  res.PrintTable();
  printf("RESULT %s\n", res.Json().c_str());
  return rc != 0 || !res.correct() ? 1 : 0;
}
