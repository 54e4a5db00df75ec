// Host-time benchmark of the treebench library.
//
// Times calls into the library's public layer functions from outside:
// BuildDerby, RunTreeQuery, RunWorkload, and one probe per layer (catalog,
// storage, cache, objects, index, txn). Single-threaded, one process. Every
// input derives from --seed. Host numbers go to stdout and to the span file
// only; nothing here writes a simulated artifact.
//
//   hostbench --workload tree_cold|session_read|session_update --seed N
//             --seconds S --trace 0|1 [--reference FILE] [--spans-out FILE]
//             [--write-reference FILE]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer metrics. Host times in it are calibrated (see Calibrator).
// README.md describes the workloads and metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
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
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/query/dml.h"
#include "src/query/tree_query.h"
#include "src/storage/page.h"
#include "src/txn/txn_manager.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::hostbench {
namespace {

// The seed whose tree_cold counters are pinned in reference/.
constexpr uint64_t kReferenceSeed = 42;
// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 5;
// Each probe is repeated this many times; its metric is the median.
constexpr int kProbeReps = 5;
// A run makes at least this many timed calls, so that p90 has at least ten
// samples beyond it.
constexpr size_t kMinCalls = 100;
// A session: 4 virtual clients x 10 statements.
constexpr uint32_t kClients = 4;
constexpr uint32_t kStatementsPerClient = 10;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "hostbench: %s\n", what.c_str());
  std::exit(2);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  double size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Non-zero counters of `m`, "name=value" separated by spaces.
std::string Counters(const Metrics& m) {
  std::string out;
  for (const MetricsField& f : MetricsFieldTable()) {
    uint64_t v = m.*f.member;
    if (v == 0) continue;
    if (!out.empty()) out += ' ';
    out += f.name;
    out += '=';
    out += std::to_string(v);
  }
  return out;
}

// ------------------------------------------------------------ calibration

// The speed of a shared machine drifts by tens of percent over tens of
// seconds, and a time measured across such drift says more about the
// neighbours than about the library. The Calibrator is a fixed CPU and
// memory task — a table-driven CRC and a copy over a rotating window of an
// 8 MiB buffer, then random hash-map lookups — that uses none of the
// library's code. The benchmark samples it between calls and reports every
// host time scaled by kReferenceMs / (nearby calibration time): the time the
// call would take on the machine when the task takes kReferenceMs. A change
// to the library changes the calls, not the task, so it shows in full.
class Calibrator {
 public:
  // The task's typical time on a 4-vCPU 2.0 GHz Intel Xeon VM, so that
  // calibrated times read close to raw ones there.
  static constexpr double kReferenceMs = 2.0;

  Calibrator() {
    const double rss0 = CurrentRssMb();
    buf_.resize(kBufBytes);
    copy_.resize(kWindowBytes);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      table_[i] = c;
    }
    for (size_t i = 0; i < buf_.size(); ++i) {
      buf_[i] = static_cast<uint8_t>(SplitMix64(i) >> 56);
    }
    for (uint64_t k = 0; k < kMapKeys; ++k) map_[SplitMix64(k)] = k;
    footprint_mb_ = CurrentRssMb() - rss0;
  }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  // Runs the task once and records its time; returns the sample's index.
  size_t Sample() {
    double t0 = Now();
    const uint8_t* w = buf_.data() + offset_;
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < kWindowBytes; ++i) {
      crc = table_[(crc ^ w[i]) & 0xFF] ^ (crc >> 8);
    }
    std::memcpy(copy_.data(), w, kWindowBytes);
    uint64_t sum = crc + copy_[crc % kWindowBytes];
    for (uint64_t k = 0; k < kLookups; ++k) {
      sum += map_.find(SplitMix64((k * 7919 + offset_) % kMapKeys))->second;
    }
    offset_ = (offset_ + kWindowBytes) % kBufBytes;
    sink_ ^= sum;
    samples_.push_back((Now() - t0) * 1e3);
    return samples_.size() - 1;
  }

  // Scale factor for a time measured among samples [lo, hi).
  double FactorAround(size_t lo, size_t hi) const {
    hi = std::min(hi, samples_.size());
    lo = std::min(lo, hi);
    double ms = Median(std::vector<double>(samples_.begin() + lo,
                                           samples_.begin() + hi));
    return ms > 0 ? kReferenceMs / ms : 1.0;
  }
  // Scale factor for a time measured next to sample i: the median of the
  // samples within kWindow of it.
  double FactorAt(size_t i) const {
    return FactorAround(i > kWindow ? i - kWindow : 0, i + kWindow + 1);
  }
  // Scale factor over the whole run.
  double Factor() const { return FactorAround(0, samples_.size()); }

  double median_ms() const { return Median(samples_); }
  size_t samples() const { return samples_.size(); }
  // Resident memory the task itself holds, left out of peak_rss_mb.
  double footprint_mb() const { return footprint_mb_; }
  // The task's result, printed so that it is not optimized away.
  uint64_t sink() const { return sink_; }

 private:
  static constexpr size_t kBufBytes = 8u << 20;
  static constexpr size_t kWindowBytes = 128u << 10;
  static constexpr uint64_t kMapKeys = 1u << 16;
  static constexpr uint64_t kLookups = 20000;
  static constexpr size_t kWindow = 4;

  std::vector<uint8_t> buf_;
  std::vector<uint8_t> copy_;
  uint32_t table_[256] = {};
  std::unordered_map<uint64_t, uint64_t> map_;
  size_t offset_ = 0;
  uint64_t sink_ = 0;
  double footprint_mb_ = 0;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------- tracing

// One timed call. Its layer is the name up to the first '.' or ' '.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  Metrics delta;
};

// In-memory span recorder; a disabled span costs one branch. Spans nest as
// a stack (the benchmark is single-threaded) and are written out at exit.
class Tracer {
 public:
  Tracer(bool on, uint64_t run_id) : on_(on), run_id_(run_id) {}

  // Opens a span (no-op when tracing is off); returns its id.
  int Open(const std::string& name) {
    if (!on_) return -1;
    const double t0 = Now();
    int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, t0, 0, stack_.empty() ? -1 : stack_.back(), Metrics{}});
    stack_.push_back(id);
    bookkeeping_s_ += Now() - t0;
    return id;
  }
  void Close(int id, const Metrics& delta = Metrics{}) {
    if (id < 0) return;
    const double t0 = Now();
    spans_[id].end = t0;
    spans_[id].delta = delta;
    stack_.pop_back();
    bookkeeping_s_ += Now() - t0;
  }
  // Seconds spent recording spans, and since the tracer was made.
  double bookkeeping_s() const { return bookkeeping_s_; }
  double age_s() const { return Now() - born_; }

  // Per layer: its spans' time minus the time their direct children cover.
  std::map<std::string, double> SelfSeconds() const {
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      double d = s.end - s.start;
      self[Layer(s.name)] += d;
      if (s.parent >= 0) self[Layer(spans_[s.parent].name)] -= d;
    }
    return self;
  }

  // One JSON object per line; times are raw host seconds.
  void WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) Die("cannot write " + path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"run\": %llu, \"id\": %zu, \"parent\": %d, "
                   "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"counts\": {",
                   static_cast<unsigned long long>(run_id_), i, s.parent,
                   s.name.c_str(), s.start, s.end);
      const char* sep = "";
      for (const MetricsField& fld : MetricsFieldTable()) {
        uint64_t v = s.delta.*fld.member;
        if (v == 0) continue;
        std::fprintf(f, "%s\"%s\": %llu", sep, fld.name,
                     static_cast<unsigned long long>(v));
        sep = ", ";
      }
      std::fprintf(f, "}}\n");
    }
    std::fclose(f);
  }

 private:
  static std::string Layer(const std::string& name) {
    return name.substr(0, name.find_first_of(". "));
  }

  bool on_;
  uint64_t run_id_;
  double born_ = Now();
  double bookkeeping_s_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// A span around a scope; the caller may attach a Metrics delta.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const std::string& name)
      : t_(t), id_(t->Open(name)) {}
  ~ScopedSpan() { t_->Close(id_, delta_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_delta(const Metrics& m) { delta_ = m; }

 private:
  Tracer* t_;
  int id_;
  Metrics delta_;
};

// ----------------------------------------------------------- run context

// Ops, failures and output checks of one run. An op that returns an error
// is a failed op; a failed output check also fails its ops and clears
// `correct`.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  // first failures, for stderr

  void Note(const std::string& s) {
    if (notes.size() < 20) notes.push_back(s);
  }
  // A check on the outputs of `ops` ops already counted as attempted.
  void Check(bool ok, uint64_t ops, const std::string& what) {
    if (ok) return;
    correct = false;
    failed += ops;
    Note("check failed: " + what);
  }
};

// What every stage of a run shares.
struct Run {
  Run(bool trace, uint64_t run_id) : tracer(trace, run_id) {}
  Tracer tracer;
  Tally tally;
  Calibrator cal;
};

using MetricList =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void Put(MetricList* m, const std::string& name, double value,
         const std::string& unit) {
  m->push_back({name, {value, unit}});
}

void PrintResult(const Tally& tally, const MetricList& metrics) {
  for (const auto& [name, vu] : metrics) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const std::string& n : tally.notes) {
    std::fprintf(stderr, "hostbench: %s\n", n.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, vu] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("}}\n");
}

// ------------------------------------------------------------- databases

struct DbSpec {
  const char* label;
  uint64_t providers;
  uint32_t avg_children;
  ClusteringStrategy clustering;
  uint32_t scale;
};

// tree_cold: the paper's Fig. 11/12/13 databases at scale 32. The first and
// last hold the same logical data.
constexpr DbSpec kTreeDbs[] = {
    {"class_2000x1000", 2000, 1000, ClusteringStrategy::kClassClustered, 32},
    {"class_1e6x3", 1000000, 3, ClusteringStrategy::kClassClustered, 32},
    {"comp_2000x1000", 2000, 1000, ClusteringStrategy::kComposition, 32},
};
// session_*: one class-clustered 2,000 x 1,000 database at scale 16.
constexpr DbSpec kSessionDbs[] = {
    {"class_2000x1000", 2000, 1000, ClusteringStrategy::kClassClustered, 16},
};

using Dbs = std::vector<std::unique_ptr<DerbyDb>>;

// Builds every database of a workload; returns the raw host seconds.
double BuildDbs(const DbSpec* specs, size_t n, uint64_t derby_seed,
                Tracer* tracer, Dbs* out) {
  out->clear();  // free the previous set-up before building the next
  double t0 = Now();
  for (size_t i = 0; i < n; ++i) {
    DerbyConfig cfg;
    cfg.providers = specs[i].providers;
    cfg.avg_children = specs[i].avg_children;
    cfg.clustering = specs[i].clustering;
    cfg.scale = specs[i].scale;
    cfg.seed = derby_seed;
    ScopedSpan span(tracer,
                    std::string("benchdb.BuildDerby ") + specs[i].label);
    auto built = BuildDerby(cfg);
    if (!built.ok()) Die("BuildDerby: " + built.status().ToString());
    span.set_delta(built.value()->db->sim().metrics());
    out->push_back(std::move(built).value());
  }
  return Now() - t0;
}

// Builds the workload's databases kSetupReps times, keeping the last set.
// Returns the median set-up seconds, calibrated by one sample after each
// build (each sample follows library work, as in the timed phase).
double SetUp(const DbSpec* specs, size_t n, uint64_t derby_seed, Run* run,
             Dbs* dbs) {
  ScopedSpan span(&run->tracer, "bench.setup");
  std::vector<double> reps;
  const size_t first = run->cal.samples();
  for (int r = 0; r < kSetupReps; ++r) {
    reps.push_back(BuildDbs(specs, n, derby_seed, &run->tracer, dbs));
    run->cal.Sample();
  }
  return Median(reps) * run->cal.FactorAround(first, run->cal.samples());
}

// ------------------------------------------------------------- workloads

// The timed phase of a workload.
struct Timed {
  std::vector<double> raw_ms;   // one per timed call, as measured
  std::vector<double> call_ms;  // the same, calibrated
  std::vector<int> cell;        // tree_cold: the call's grid cell
  uint64_t ok_ops = 0;          // successful ops
  Metrics counts;               // summed Metrics deltas of the timed calls

  // Records one call, then takes the calibration sample that follows it.
  void Add(double ms, Calibrator* cal) {
    raw_ms.push_back(ms);
    cal_index_.push_back(cal->Sample());
  }
  // Scales every call by the calibration samples around it.
  void Calibrate(const Calibrator& cal) {
    call_ms.resize(raw_ms.size());
    for (size_t i = 0; i < raw_ms.size(); ++i) {
      call_ms[i] = raw_ms[i] * cal.FactorAt(cal_index_[i]);
    }
  }
  // Calibrated seconds spent in the timed calls.
  double Seconds() const {
    double s = 0;
    for (double ms : call_ms) s += ms / 1e3;
    return s;
  }

 private:
  std::vector<size_t> cal_index_;
};

constexpr double kSels[4][2] = {{10, 10}, {10, 90}, {90, 10}, {90, 90}};
constexpr TreeJoinAlgo kAlgos[4] = {TreeJoinAlgo::kNL, TreeJoinAlgo::kNOJOIN,
                                    TreeJoinAlgo::kPHJ, TreeJoinAlgo::kCHJ};
// Grid cell c: DB c / 16, selectivity pair (c / 4) % 4, algorithm c % 4.
constexpr int kCells = 3 * 4 * 4;

std::string CellKey(int cell) {
  const int sel = (cell / 4) % 4;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %g/%g %s", kTreeDbs[cell / 16].label,
                kSels[sel][0], kSels[sel][1],
                std::string(AlgoName(kAlgos[cell % 4])).c_str());
  return buf;
}

// Reference lines "<cell key> | result_count=N <counters>" of the reference
// seed's first pass.
std::map<std::string, std::string> ReadReference(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read reference " + path);
  std::map<std::string, std::string> ref;
  std::string line;
  while (std::getline(in, line)) {
    size_t bar = line.find(" | ");
    if (bar != std::string::npos) {
      ref[line.substr(0, bar)] = line.substr(bar + 3);
    }
  }
  return ref;
}

// tree_cold: cold RunTreeQuery over the 3 DBs x 4 selectivity pairs x 4
// algorithms grid, in whole passes until `seconds` passed and at least
// kMinCalls calls were made.
Timed RunTreeCold(Dbs& dbs, double seconds, Run* run,
                  const std::map<std::string, std::string>* reference,
                  const std::string& write_reference) {
  Tally* tally = &run->tally;
  std::vector<TreeQuerySpec> specs;  // per (DB, selectivity pair)
  for (auto& d : dbs) {
    for (const auto& sel : kSels) {
      specs.push_back(DerbyTreeQuery(*d, sel[0], sel[1]));
    }
  }
  std::vector<std::string> first_sig(kCells);
  std::vector<uint64_t> first_count(kCells, 0);
  std::vector<bool> first_ok(kCells, false);
  // A reference or cross-cell check that fails, fails every call of a cell.
  std::vector<bool> cell_bad(kCells, false);

  Timed out;
  std::vector<bool> bad;  // per call: returned an error or failed a check
  const double t0 = Now();
  int pass = 0;
  for (;; ++pass) {
    for (int c = 0; c < kCells; ++c) {
      const TreeJoinAlgo algo = kAlgos[c % 4];
      int span = run->tracer.Open("query.RunTreeQuery " +
                                  std::string(AlgoName(algo)));
      double c0 = Now();
      auto result = RunTreeQuery(dbs[c / 16]->db.get(), specs[c / 4], algo);
      double ms = (Now() - c0) * 1e3;
      run->tracer.Close(span, result.ok() ? result->metrics : Metrics{});

      ++tally->attempted;
      out.Add(ms, &run->cal);
      out.cell.push_back(c);
      bad.push_back(true);
      const std::string key = CellKey(c);
      if (!result.ok()) {
        tally->Note(key + ": " + result.status().ToString());
        continue;
      }
      out.counts += result->metrics;
      const std::string sig = "result_count=" +
                              std::to_string(result->result_count) + " " +
                              Counters(result->metrics);
      bool ok = true;
      if (pass == 0) {
        first_sig[c] = sig;
        first_count[c] = result->result_count;
        first_ok[c] = true;
        if (reference != nullptr) {
          auto it = reference->find(key);
          cell_bad[c] = it == reference->end() || it->second != sig;
          ok = !cell_bad[c];
          if (!ok) tally->Note(key + ": counters differ from the reference");
        }
      } else if (first_ok[c]) {
        // Cold runs are deterministic: every pass repeats the first.
        ok = sig == first_sig[c];
        if (!ok) tally->Note(key + ": counters differ from the first pass");
      }
      bad.back() = !ok;
      if (!ok) tally->correct = false;
    }
    if (pass == 0 && !write_reference.empty()) {
      FILE* f = std::fopen(write_reference.c_str(), "w");
      if (f == nullptr) Die("cannot write " + write_reference);
      for (int c = 0; c < kCells; ++c) {
        std::fprintf(f, "%s | %s\n", CellKey(c).c_str(), first_sig[c].c_str());
      }
      std::fclose(f);
    }
    if (Now() - t0 >= seconds && out.raw_ms.size() >= kMinCalls) break;
  }

  // The four algorithms agree on each (DB, selectivity) cell, and the class-
  // and composition-clustered 2,000 x 1,000 DBs agree with each other. A
  // disagreement fails every call of the cells involved.
  for (int g = 0; g < kCells / 4; ++g) {
    std::set<uint64_t> counts;
    for (int c = g * 4; c < g * 4 + 4; ++c) {
      if (first_ok[c]) counts.insert(first_count[c]);
    }
    if (counts.size() <= 1) continue;
    tally->Check(false, 0, "algorithms disagree on " + CellKey(g * 4));
    for (int c = g * 4; c < g * 4 + 4; ++c) cell_bad[c] = true;
  }
  for (int c = 0; c < 16; ++c) {
    if (!first_ok[c] || !first_ok[32 + c] ||
        first_count[c] == first_count[32 + c]) {
      continue;
    }
    tally->Check(false, 0, "class and composition DBs disagree on " + CellKey(c));
    cell_bad[c] = cell_bad[32 + c] = true;
  }
  for (size_t i = 0; i < bad.size(); ++i) {
    if (bad[i] || cell_bad[out.cell[i]]) {
      ++tally->failed;
    } else {
      ++out.ok_ops;
    }
  }
  out.Calibrate(run->cal);
  return out;
}

WorkloadSpec SessionSpec(double update_ratio, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_clients = kClients;
  spec.queries_per_client = kStatementsPerClient;
  spec.zipf_theta = 0.6;
  spec.tree_query_fraction = 0.2;
  spec.selection_pct = 2;
  spec.update_ratio = update_ratio;
  spec.cold_start = false;
  spec.seed = seed;
  return spec;
}

uint64_t SessionSeed(uint64_t seed, uint64_t i) {
  return SplitMix64(seed ^ (i + 1));
}

// One RunWorkload session; counts its statements. A session whose
// RunWorkload returns an error loses all of them. Returns raw ms.
double RunSession(DerbyDb* db, const WorkloadSpec& spec, Run* run,
                  Metrics* counts, uint64_t* ok_ops) {
  const uint64_t statements =
      static_cast<uint64_t>(spec.num_clients) * spec.queries_per_client;
  int span = run->tracer.Open("workload.RunWorkload");
  double c0 = Now();
  auto report = RunWorkload(db, spec);
  double ms = (Now() - c0) * 1e3;
  run->tracer.Close(span, report.ok() ? report->totals : Metrics{});
  Tally* tally = &run->tally;
  tally->attempted += statements;
  if (!report.ok()) {
    tally->failed += statements;
    tally->Note("RunWorkload: " + report.status().ToString());
    return ms;
  }
  *counts += report->totals;
  *ok_ops += report->total_queries;
  tally->failed += report->failed_queries;
  tally->Check(report->total_queries + report->failed_queries == statements,
               0, "a session report does not account for every statement");
  return ms;
}

// Raw pages of `db` whose stored image fails VerifyPageChecksum.
uint64_t StalePages(Database* db) {
  const DiskManager& disk = db->disk();
  uint64_t bad = 0;
  for (uint16_t f = 0; f < disk.file_count(); ++f) {
    for (uint32_t pg = 0; pg < disk.NumPages(f); ++pg) {
      auto raw = disk.RawPage(f, pg);
      if (!raw.ok() || !VerifyPageChecksum(*raw)) ++bad;
    }
  }
  return bad;
}

// The known defect (README.md): BuildDerby leaves pages dirty in the cache
// whose stored images carry stale checksums, and a warm RunWorkload that
// fills one of them loses the statement. The census measures it as a user
// meets it, straight after BuildDerby: the stale pages, then the first
// kCensusSessions sessions of the timed phase. Its statements are not ops
// of the run; the timed phase runs on the flushed DB.
constexpr uint64_t kCensusSessions = 20;

struct Census {
  uint64_t stale_pages = 0;
  uint64_t statements = 0;
  uint64_t failed = 0;
};

Census TakeCensus(DerbyDb* db, double update_ratio, uint64_t seed, Run* run) {
  ScopedSpan span(&run->tracer, "bench.census");
  Census c;
  c.stale_pages = StalePages(db->db.get());
  for (uint64_t i = 0; i < kCensusSessions; ++i) {
    const WorkloadSpec spec = SessionSpec(update_ratio, SessionSeed(seed, i));
    const uint64_t statements =
        static_cast<uint64_t>(spec.num_clients) * spec.queries_per_client;
    auto report = RunWorkload(db, spec);
    c.statements += statements;
    c.failed += report.ok() ? report->failed_queries : statements;
  }
  return c;
}

// session_*: back-to-back RunWorkload sessions on one DB, until `seconds`
// passed and at least kMinCalls were made.
Timed RunSessions(DerbyDb* db, double update_ratio, uint64_t seed,
                  double seconds, Run* run) {
  Timed out;
  const double t0 = Now();
  for (uint64_t i = 0;; ++i) {
    double ms = RunSession(db, SessionSpec(update_ratio, SessionSeed(seed, i)),
                           run, &out.counts, &out.ok_ops);
    out.Add(ms, &run->cal);
    if (Now() - t0 >= seconds && out.raw_ms.size() >= kMinCalls) break;
  }
  out.Calibrate(run->cal);
  return out;
}

// ---------------------------------------------------------------- probes

// Per-layer probe times, each the raw median over kProbeReps repetitions.
struct Probes {
  double cold_restart_ms = 0;
  double verify_us_per_page = 0;
  double cold_fill_us_per_page = 0;
  double get_unref_us = 0;
  double range_scan_us_per_entry = 0;
  double execute_dml_ms = 0;
};

// One probe repetition is one op; a failed self-check fails it.
void ProbeOp(Tally* tally, bool ok, const std::string& what) {
  ++tally->attempted;
  tally->Check(ok, 1, what);
}

uint16_t PatientsFile(Database* db) {
  auto file = db->disk().FindFile("patients");
  if (!file.ok()) Die("no patients file");
  return *file;
}

// catalog, storage and cache: ColdRestart on the warmed DB, then
// VerifyPageChecksum over every page of the flushed image, then a cold
// GetPage fill of every Patients page (which warms the DB again).
void ProbeRestartVerifyFill(Database* db, Run* run, Probes* p) {
  std::vector<double> restart_ms, verify_us, fill_us;
  const uint16_t patients = PatientsFile(db);
  uint64_t all_pages = 0;
  for (uint16_t f = 0; f < db->disk().file_count(); ++f) {
    all_pages += db->disk().NumPages(f);
  }
  for (int r = 0; r < kProbeReps; ++r) {
    {
      ScopedSpan span(&run->tracer, "catalog.ColdRestart");
      double t0 = Now();
      Status st = db->ColdRestart();
      restart_ms.push_back((Now() - t0) * 1e3);
      ProbeOp(&run->tally, st.ok(), "ColdRestart: " + st.ToString());
    }
    {
      ScopedSpan span(&run->tracer, "storage.VerifyPageChecksum");
      double t0 = Now();
      const uint64_t bad = StalePages(db);
      verify_us.push_back((Now() - t0) * 1e6 /
                          static_cast<double>(all_pages));
      ProbeOp(&run->tally, bad == 0,
              std::to_string(bad) +
                  " pages fail their checksum after ColdRestart");
    }
    {
      ScopedSpan span(&run->tracer, "cache.GetPage");
      Status st;
      {
        ScopedSpan restart(&run->tracer, "catalog.ColdRestart");
        st = db->ColdRestart();
      }
      Metrics m0 = db->sim().metrics();
      const uint32_t pages = db->disk().NumPages(patients);
      uint32_t bad = 0;
      double t0 = Now();
      for (uint32_t pg = 0; pg < pages; ++pg) {
        if (!db->cache().GetPage(patients, pg).ok()) ++bad;
      }
      fill_us.push_back((Now() - t0) * 1e6 / static_cast<double>(pages));
      span.set_delta(db->sim().metrics().Diff(m0));
      ProbeOp(&run->tally, st.ok() && bad == 0,
              std::to_string(bad) + " cold GetPage fills failed");
    }
  }
  p->cold_restart_ms = Median(restart_ms);
  p->verify_us_per_page = Median(verify_us);
  p->cold_fill_us_per_page = Median(fill_us);
}

// objects: ObjectStore::Get + Unref over every Patients rid with its pages
// warm. The rids go in chunks whose pages fill half the client cache; each
// chunk is walked once untimed to warm it, then once timed.
void ProbeObjects(Database* db, Run* run, Probes* p) {
  auto col = db->GetCollection("Patients");
  if (!col.ok()) Die("no Patients collection");
  std::vector<Rid> rids;
  for (auto it = (*col)->Scan(); it.Valid(); it.Next()) {
    rids.push_back(it.rid());
  }
  if (rids.empty()) Die("empty Patients collection");
  const uint64_t pages = std::max<uint32_t>(1, db->disk().NumPages(PatientsFile(db)));
  const size_t chunk = std::max<size_t>(
      1, rids.size() * (db->cache().config().client_pages() / 2) / pages);
  std::vector<double> us;
  for (int r = 0; r < kProbeReps; ++r) {
    ScopedSpan span(&run->tracer, "objects.GetUnref");
    Metrics m0 = db->sim().metrics();
    uint64_t bad = 0;
    double timed = 0;
    for (size_t lo = 0; lo < rids.size(); lo += chunk) {
      const size_t hi = std::min(rids.size(), lo + chunk);
      for (int pass = 0; pass < 2; ++pass) {
        double t0 = Now();
        for (size_t i = lo; i < hi; ++i) {
          auto h = db->store().Get(rids[i]);
          if (h.ok()) {
            db->store().Unref(*h);
          } else {
            ++bad;
          }
        }
        if (pass == 1) timed += Now() - t0;
      }
    }
    us.push_back(timed * 1e6 / static_cast<double>(rids.size()));
    span.set_delta(db->sim().metrics().Diff(m0));
    ProbeOp(&run->tally, bad == 0,
            std::to_string(bad) + " ObjectStore::Get calls failed");
  }
  p->get_unref_us = Median(us);
}

// index: a full range scan of idx_mrn, warm; its entry count must equal
// BTreeIndex::CountEntries.
void ProbeIndex(Database* db, Run* run, Probes* p) {
  IndexInfo* idx = db->FindIndexByName("idx_mrn");
  if (idx == nullptr) Die("no idx_mrn index");
  auto expected = idx->tree->CountEntries();  // also warms the leaves
  std::vector<double> us;
  for (int r = 0; r < kProbeReps; ++r) {
    ScopedSpan span(&run->tracer, "index.RangeScan");
    Metrics m0 = db->sim().metrics();
    uint64_t entries = 0;
    double t0 = Now();
    auto it = idx->tree->Scan(INT64_MIN, INT64_MAX);
    for (; it.Valid(); it.Next()) ++entries;
    us.push_back((Now() - t0) * 1e6 /
                 static_cast<double>(std::max<uint64_t>(1, entries)));
    span.set_delta(db->sim().metrics().Diff(m0));
    ProbeOp(&run->tally,
            it.status().ok() && expected.ok() && entries == *expected &&
                entries > 0,
            "idx_mrn range scan saw " + std::to_string(entries) + " entries");
  }
  p->range_scan_us_per_entry = Median(us);
}

// txn: the sessions' update statement on a 2% mrn window, through
// ExecuteDml under a TxnManager; each must match rows and commit.
void ProbeTxn(DerbyDb* derby, uint64_t seed, Run* run, Probes* p) {
  Database* db = derby->db.get();
  TxnManager txns(db);
  txns.Install();
  const int64_t width = std::max<int64_t>(1, derby->MrnCutoff(2));
  const uint64_t windows = std::max<uint64_t>(
      1, derby->meta.num_patients / static_cast<uint64_t>(width));
  std::vector<double> ms;
  for (int r = 0; r < kProbeReps; ++r) {
    const uint64_t draw = SplitMix64(seed + 1000 + r);
    const int64_t lo = static_cast<int64_t>(draw % windows) * width;
    char stmt[160];
    std::snprintf(stmt, sizeof(stmt),
                  "update Patients set random_integer = %d "
                  "where mrn >= %lld and mrn < %lld",
                  static_cast<int>((draw >> 40) % 1000000),
                  static_cast<long long>(lo),
                  static_cast<long long>(lo + width));
    ScopedSpan span(&run->tracer, "txn.ExecuteDml");
    Metrics m0 = db->sim().metrics();
    double t0 = Now();
    auto ran = ExecuteDml(db, &txns, stmt);
    ms.push_back((Now() - t0) * 1e3);
    span.set_delta(db->sim().metrics().Diff(m0));
    ProbeOp(&run->tally, ran.ok() && ran->matched > 0,
            std::string("ExecuteDml: ") +
                (ran.ok() ? "matched no rows" : ran.status().ToString()));
  }
  txns.Uninstall();
  p->execute_dml_ms = Median(ms);
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = kReferenceSeed;
  double seconds = 20;
  bool trace = false;
  std::string reference;
  std::string spans_out;
  std::string write_reference;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--reference") {
      a.reference = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else if (k == "--write-reference") {
      a.write_reference = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.workload != "tree_cold" && a.workload != "session_read" &&
      a.workload != "session_update") {
    Die("--workload must be tree_cold, session_read or session_update");
  }
  return a;
}

double PerOp(uint64_t count, uint64_t ops) {
  return static_cast<double>(count) /
         static_cast<double>(std::max<uint64_t>(1, ops));
}

double HitRatio(uint64_t hits, uint64_t misses) {
  return PerOp(hits, hits + misses);
}

// query, for session_*: one cold pass over the selectivity x algorithm grid
// on the session DB. Returns each algorithm's median raw ms.
std::vector<double> ProbeQuery(DerbyDb* derby, Run* run) {
  std::vector<double> ms[4];
  for (const auto& sel : kSels) {
    TreeQuerySpec spec = DerbyTreeQuery(*derby, sel[0], sel[1]);
    std::set<uint64_t> counts;
    for (int a = 0; a < 4; ++a) {
      ScopedSpan call(&run->tracer, "query.RunTreeQuery " +
                                        std::string(AlgoName(kAlgos[a])));
      double c0 = Now();
      auto result = RunTreeQuery(derby->db.get(), spec, kAlgos[a]);
      ms[a].push_back((Now() - c0) * 1e3);
      ProbeOp(&run->tally, result.ok(),
              "RunTreeQuery: " + result.status().ToString());
      if (result.ok()) {
        call.set_delta(result->metrics);
        counts.insert(result->result_count);
      }
    }
    run->tally.Check(counts.size() == 1, 4,
                     "algorithms disagree in the query probe");
  }
  std::vector<double> medians;
  for (const auto& v : ms) medians.push_back(Median(v));
  return medians;
}

// workload, for tree_cold: sessions of session_read's shape on the first
// DB, which the cold queries left flushed. Returns their raw ms.
std::vector<double> ProbeSessions(DerbyDb* derby, uint64_t seed, Run* run) {
  std::vector<double> ms;
  Metrics counts;
  uint64_t ok_ops = 0;
  for (int r = 0; r < 2 * kProbeReps; ++r) {
    const uint64_t failed = run->tally.failed;
    ms.push_back(RunSession(derby, SessionSpec(0, SessionSeed(seed, r)), run,
                            &counts, &ok_ops));
    run->tally.Check(run->tally.failed == failed, 0,
                     "a probe session lost statements on a flushed DB");
  }
  return ms;
}

void PrintDbSizes(const DbSpec* specs, const Dbs& dbs) {
  for (size_t i = 0; i < dbs.size(); ++i) {
    Database* db = dbs[i]->db.get();
    uint64_t pages = 0;
    for (uint16_t f = 0; f < db->disk().file_count(); ++f) {
      pages += db->disk().NumPages(f);
    }
    std::printf("  %s: %llu pages; client cache %u pages, server cache %u\n",
                specs[i].label, static_cast<unsigned long long>(pages),
                db->cache().config().client_pages(),
                db->cache().config().server_pages());
  }
}

// The traced run's probes and per-layer metrics. Probe times are
// calibrated by the whole run's factor; timed-phase calls already are,
// each by the samples around it.
MetricList PerLayer(Dbs& dbs, bool tree, uint64_t seed, const Timed& t,
                    const Census& census, double build_s, uint64_t ops,
                    Run* run) {
  DerbyDb* primary = dbs[0].get();
  Probes probes;
  std::vector<double> algo_raw_ms, session_raw_ms;
  {
    ScopedSpan span(&run->tracer, "bench.probes");
    ProbeRestartVerifyFill(primary->db.get(), run, &probes);
    ProbeObjects(primary->db.get(), run, &probes);
    ProbeIndex(primary->db.get(), run, &probes);
    if (tree) {
      session_raw_ms = ProbeSessions(primary, seed, run);
    } else {
      algo_raw_ms = ProbeQuery(primary, run);
    }
    ProbeTxn(primary, seed, run, &probes);
  }
  const double f = run->cal.Factor();

  double algo_ms[4];
  for (int a = 0; a < 4; ++a) {
    std::vector<double> v;
    for (size_t i = 0; tree && i < t.call_ms.size(); ++i) {
      if (t.cell[i] % 4 == a) v.push_back(t.call_ms[i]);
    }
    algo_ms[a] = tree ? Median(v) : f * algo_raw_ms[a];
  }
  std::vector<double> session_ms;  // calibrated
  if (tree) {
    for (double ms : session_raw_ms) session_ms.push_back(f * ms);
  } else {
    session_ms = t.call_ms;
  }
  double session_total_ms = 0;
  for (double ms : session_ms) session_total_ms += ms;
  const double statements = static_cast<double>(
      std::max<size_t>(1, session_ms.size() * kClients * kStatementsPerClient));

  MetricList metrics;
  const Metrics& m = t.counts;
  Put(&metrics, "benchdb.build_s", build_s, "s");
  Put(&metrics, "catalog.cold_restart_ms", f * probes.cold_restart_ms, "ms");
  Put(&metrics, "storage.verify_us_per_page", f * probes.verify_us_per_page,
      "us");
  Put(&metrics, "storage.stale_pages_after_build",
      static_cast<double>(census.stale_pages), "count");
  Put(&metrics, "storage.disk_reads_per_op", PerOp(m.disk_reads, ops), "count");
  Put(&metrics, "storage.disk_writes_per_op", PerOp(m.disk_writes, ops),
      "count");
  Put(&metrics, "cache.cold_fill_us_per_page",
      f * probes.cold_fill_us_per_page, "us");
  Put(&metrics, "cache.client_hit_ratio",
      HitRatio(m.client_cache_hits, m.client_cache_misses), "ratio");
  Put(&metrics, "cache.server_hit_ratio",
      HitRatio(m.server_cache_hits, m.server_cache_misses), "ratio");
  Put(&metrics, "cache.rpcs_per_op", PerOp(m.rpc_count, ops), "count");
  Put(&metrics, "objects.get_unref_us", f * probes.get_unref_us, "us");
  Put(&metrics, "objects.handle_gets_per_op", PerOp(m.handle_gets, ops),
      "count");
  Put(&metrics, "objects.handle_lookups_per_op", PerOp(m.handle_lookups, ops),
      "count");
  Put(&metrics, "index.range_scan_us_per_entry",
      f * probes.range_scan_us_per_entry, "us");
  Put(&metrics, "index.comparisons_per_op", PerOp(m.comparisons, ops),
      "count");
  static constexpr const char* kAlgoMetric[4] = {
      "query.nl_ms_p50", "query.nojoin_ms_p50", "query.phj_ms_p50",
      "query.chj_ms_p50"};
  for (int a = 0; a < 4; ++a) Put(&metrics, kAlgoMetric[a], algo_ms[a], "ms");
  Put(&metrics, "query.hash_ops_per_op",
      PerOp(m.hash_inserts + m.hash_probes, ops), "count");
  Put(&metrics, "query.swap_ios_per_op", PerOp(m.swap_ios, ops), "count");
  Put(&metrics, "workload.session_ms_p50", Median(session_ms), "ms");
  Put(&metrics, "workload.host_us_per_sim_op",
      session_total_ms * 1e3 / statements, "us");
  Put(&metrics, "workload.census_error_rate",
      PerOp(census.failed, census.statements), "ratio");
  Put(&metrics, "txn.execute_dml_ms", f * probes.execute_dml_ms, "ms");
  Put(&metrics, "txn.lock_acquisitions_per_op",
      PerOp(m.lock_acquisitions, ops), "count");
  Put(&metrics, "txn.undo_bytes_per_op", PerOp(m.undo_bytes, ops), "bytes");
  Put(&metrics, "txn.redo_bytes_per_op", PerOp(m.redo_bytes, ops), "bytes");
  Put(&metrics, "txn.dirty_page_writebacks_per_op",
      PerOp(m.dirty_page_writebacks, ops), "count");
  Put(&metrics, "trace.overhead_pct",
      100.0 * run->tracer.bookkeeping_s() / run->tracer.age_s(), "%");
  for (const auto& [layer, s] : run->tracer.SelfSeconds()) {
    Put(&metrics, "self_s." + layer, f * s, "s");
  }
  return metrics;
}

// The end-to-end metrics, each name prefixed by `prefix`.
MetricList EndToEnd(const std::string& prefix, double setup_s, const Timed& t,
                    const Run& run) {
  MetricList metrics;
  Put(&metrics, prefix + "setup_s", setup_s, "s");
  Put(&metrics, prefix + "ops_per_s",
      static_cast<double>(t.ok_ops) / t.Seconds(), "1/s");
  Put(&metrics, prefix + "call_ms_p50", Percentile(t.call_ms, 0.5), "ms");
  Put(&metrics, prefix + "call_ms_p90", Percentile(t.call_ms, 0.9), "ms");
  Put(&metrics, prefix + "peak_rss_mb",
      PeakRssMb() - run.cal.footprint_mb(), "MB");
  return metrics;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const bool tree = args.workload == "tree_cold";
  Run run(args.trace,
          SplitMix64(args.seed ^ std::hash<std::string>{}(args.workload)));

  std::map<std::string, std::string> reference;
  const bool check_reference = tree && args.seed == kReferenceSeed &&
                               args.write_reference.empty();
  if (check_reference) {
    if (args.reference.empty()) Die("--reference is required at seed 42");
    reference = ReadReference(args.reference);
  }

  const DbSpec* specs = tree ? kTreeDbs : kSessionDbs;
  const size_t num_dbs = tree ? std::size(kTreeDbs) : std::size(kSessionDbs);
  const double update_ratio = args.workload == "session_update" ? 0.3 : 0;
  Dbs dbs;
  const double setup_s = SetUp(specs, num_dbs, args.seed, &run, &dbs);
  PrintDbSizes(specs, dbs);

  const Census census =
      TakeCensus(dbs[0].get(), update_ratio, args.seed, &run);
  std::printf(
      "  known defect, straight after BuildDerby: %llu pages fail "
      "VerifyPageChecksum; %llu of %llu census statements failed\n",
      static_cast<unsigned long long>(census.stale_pages),
      static_cast<unsigned long long>(census.failed),
      static_cast<unsigned long long>(census.statements));
  if (!tree) {
    // Every tree_cold call restarts cold, which flushes; sessions run warm,
    // so their DB is flushed here and must then verify in full.
    Database* db = dbs[0]->db.get();
    Status st = db->cache().FlushAll();
    run.tally.Check(st.ok(), 0, "FlushAll: " + st.ToString());
    const uint64_t stale = StalePages(db);
    run.tally.Check(stale == 0, 0,
                    std::to_string(stale) + " pages stale after FlushAll");
  }

  const Timed t =
      tree ? RunTreeCold(dbs, args.seconds, &run,
                         check_reference ? &reference : nullptr,
                         args.write_reference)
           : RunSessions(dbs[0].get(), update_ratio, args.seed, args.seconds,
                         &run);
  const uint64_t ops = run.tally.attempted;
  const double p50 = Percentile(t.call_ms, 0.5);
  const double p90 = Percentile(t.call_ms, 0.9);
  std::printf(
      "hostbench %s seed=%llu: %zu calls, %llu ops, %llu failed "
      "(error_rate %.6f)\n"
      "  call ms p50 %.3f p90 %.3f calibrated, %.3f %.3f raw (n=%zu); "
      "calibration task median %.4f ms over %zu samples (checksum %llx)\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      t.call_ms.size(), static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(run.tally.failed),
      PerOp(run.tally.failed, ops), p50, p90, Percentile(t.raw_ms, 0.5),
      Percentile(t.raw_ms, 0.9), t.call_ms.size(), run.cal.median_ms(),
      run.cal.samples(), static_cast<unsigned long long>(run.cal.sink()));

  if (!args.trace) {
    PrintResult(run.tally, EndToEnd("", setup_s, t, run));
    return 0;
  }
  // The traced run's own end-to-end metrics, set against the untraced
  // run's, give the tracing overhead (run.py --workload all --trace 1).
  const MetricList traced = EndToEnd("traced.", setup_s, t, run);
  MetricList metrics = PerLayer(dbs, tree, args.seed, t, census,
                                setup_s / static_cast<double>(num_dbs), ops,
                                &run);
  metrics.insert(metrics.end(), traced.begin(), traced.end());
  if (!args.spans_out.empty()) run.tracer.WriteJsonl(args.spans_out);
  PrintResult(run.tally, metrics);
  return 0;
}

}  // namespace
}  // namespace treebench::hostbench

int main(int argc, char** argv) {
  return treebench::hostbench::Main(argc, argv);
}
