// pipebench: the spec→verdict benchmark.
//
// Drives the product path — spec text → ltl::parse → ltl::to_nba →
// buchi::safety_closure (the paper's lcl) → determinize → minimal
// good-prefix DFA → MonitorFleet link → sessions → ingest → verdicts —
// through the libraries' public functions, on one of two workloads:
//
//   compile  every spec of corpus/compile.tsv once per pass, into one fleet;
//            the memo caches are emptied before each pass, so they only miss.
//   serve    steady MonitorFleet::ingest of pregenerated bursty traffic over
//            10^6 zipf-assigned sessions of corpus/serve.tsv's 8 programs.
//
// The calling thread is the only load generator and every loop is closed.
// The library runs at its default pool (one thread per core). Every output
// is checked against an oracle that does not share the path under test: a
// program's state count against the checked-in table, and sampled session
// verdicts against the closure NBA run directly on the session's prefix.
//
// Usage: pipebench --workload W --seed N --seconds S --trace 0|1
//                  --data DIR [--trace-out FILE] [--inject-fault KIND]
// The last stdout line is the JSON result; the report goes to stderr.
// --trace 1 alternates untraced and traced passes over the same calls (on
// compile, the stages compile_ltl composes, called one by one): the traced
// ones record a span around each call and give the per-layer metrics; the
// pair gives trace.overhead_pct.
// --inject-fault {verdict, dfa-states, cache-hit} corrupts one observation,
// for the benchmark's own tests: the run must then report a failure.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "buchi/nba.hpp"
#include "buchi/safety.hpp"
#include "core/memo_cache.hpp"
#include "core/metrics.hpp"
#include "core/thread_pool.hpp"
#include "corpus.hpp"
#include "finite/dfa.hpp"
#include "ltl/formula.hpp"
#include "ltl/translate.hpp"
#include "monitor/fleet.hpp"
#include "monitor/traffic.hpp"
#include "trace.hpp"

namespace pipebench {
namespace {

namespace core = slat::core;
using slat::buchi::DetSafety;
using slat::buchi::Nba;
using slat::finite::Dfa;
using slat::monitor::Event;
using slat::monitor::MonitorFleet;
using slat::monitor::MonitorId;
using slat::monitor::SessionId;
using slat::monitor::TrafficConfig;
using slat::words::Sym;

// Workload sizes. Every pass has at least 100 operations, so its p90 has
// at least 10 samples beyond it. serve: 10^6 sessions are 8 MB of session
// slabs, more than the 2 MB per-core L2; a pass is 128 batches of 2^14
// events, about two events per session.
constexpr double kSetupOccasionMs = 10;
constexpr double kSetupEveryMs = 2000;
constexpr std::uint32_t kServeSessions = 1'000'000;
constexpr int kServeBatches = 128;
constexpr std::size_t kServeBatchEvents = std::size_t{1} << 14;
constexpr int kTrafficLetters = 16;
constexpr int kSampledEvents = 1024;
/// A spec may take at most this share of its compile pass.
constexpr double kMaxSpecShare = 0.1;

// ---------------------------------------------------------------------------
// Options, statistics, failure accounting

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
  std::string fault;  // "", "verdict", "dfa-states" or "cache-hit"
};

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::runtime_error("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (key == "--data") {
      opt.data_dir = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else if (key == "--inject-fault") {
      if (value != "verdict" && value != "dfa-states" && value != "cache-hit") {
        throw std::runtime_error("unknown fault " + value);
      }
      opt.fault = value;
    } else {
      throw std::runtime_error("unknown option " + key);
    }
  }
  if (opt.workload != "compile" && opt.workload != "serve") {
    throw std::runtime_error("--workload must be compile or serve");
  }
  if (!have_seed || !(opt.seconds > 0) || opt.data_dir.empty()) {
    throw std::runtime_error("--seed, --seconds > 0 and --data are required");
  }
  return opt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Operations attempted and failed; every check is one attempted operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
};

/// One independent generator per purpose, all derived from the run's seed.
std::mt19937 stream(std::uint64_t seed, std::uint32_t purpose) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    purpose};
  return std::mt19937(seq);
}

/// setup_s is sampled across the whole run, not only at its start: the
/// host holds a fast or slow state for a second or so at a time, and one
/// burst of repetitions at process start measures whichever state the
/// process landed in. So the setup runs at the start and again every
/// kSetupEveryMs of the timed loop, rebuilding the same state from the
/// same seed. An occasion repeats it for at least kSetupOccasionMs (once,
/// if it takes longer) and keeps the median repetition; setup_s is the
/// median occasion, in s.
class SetupClock {
 public:
  template <typename Fn>
  void occasion(Fn&& setup) {
    std::vector<double> ms;
    const std::int64_t start = now_ns();
    while (ms.empty() || ms_since(start) < kSetupOccasionMs) {
      const std::int64_t t0 = now_ns();
      setup();
      ms.push_back(ms_since(t0));
    }
    occasions_ms_.push_back(median(ms));
    last_ = now_ns();
  }

  bool due() const { return ms_since(last_) >= kSetupEveryMs; }
  double seconds() const { return median(occasions_ms_) / 1e3; }

 private:
  std::vector<double> occasions_ms_;
  std::int64_t last_ = 0;
};

// ---------------------------------------------------------------------------
// Compiling a spec into the fleet

/// Per-layer values of one traced pass, by metric name.
using Layers = std::map<std::string, double>;

/// The product call: spec text → linked program.
std::optional<MonitorId> compile_product(MonitorFleet& fleet, const Spec& spec) {
  slat::ltl::LtlArena arena(spec.alphabet);
  const auto f = arena.parse(spec.formula);
  if (!f) return std::nullopt;
  return fleet.compile_ltl(arena, *f);
}

/// Rows a good-prefix DFA adds to the fleet table (a DFA without a
/// rejecting state gets an extra, unreachable sink row).
int program_rows(const Dfa& dfa) {
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (!dfa.is_accepting(q)) return dfa.num_states();
  }
  return dfa.num_states() + 1;
}

/// The stages compile_ltl composes, called one by one inside spans. Adds
/// each stage's output size to `layers`; `width` is the widest alphabet
/// linked so far, so a link that widens the fleet's rows is told apart.
std::optional<MonitorId> compile_stages(MonitorFleet& fleet, const Spec& spec, Tracer& tr,
                                        std::int64_t request, Layers& layers, int& width,
                                        std::optional<Dfa>& keep) {
  slat::ltl::LtlArena arena(spec.alphabet);
  std::optional<slat::ltl::FormulaId> f;
  {
    Scope s(tr, "ltl.parse", request);
    f = arena.parse(spec.formula);
  }
  if (!f) return std::nullopt;
  const Nba nba = [&] {
    Scope s(tr, "ltl.to_nba", request);
    return slat::ltl::to_nba(arena, *f);
  }();
  const Nba closure = [&] {
    Scope s(tr, "buchi.closure", request);
    return slat::buchi::safety_closure(nba);
  }();
  const DetSafety det = [&] {
    Scope s(tr, "buchi.determinize", request);
    return DetSafety::determinize(closure);
  }();
  Dfa dfa = [&] {
    Scope s(tr, "finite.minimize", request);
    return slat::finite::good_prefix_dfa(det);
  }();
  const bool widen = dfa.alphabet().size() > width;
  const MonitorId id = [&] {
    Scope s(tr, widen ? "monitor.link.widen" : "monitor.link", request);
    return fleet.compile(dfa);
  }();
  width = std::max(width, dfa.alphabet().size());
  layers["ltl.nba_states"] += nba.num_states();
  layers["buchi.closure_states"] += closure.num_states();
  layers["buchi.det_states"] += det.num_states();
  layers["finite.dfa_states"] += dfa.num_states();
  layers["monitor.rows"] += program_rows(dfa);
  layers["monitor.widen_links"] += widen ? 1 : 0;
  keep = std::move(dfa);
  return id;
}

/// States of a linked program, counted through the fleet's public session
/// API: breadth-first over words, one fresh session per word replayed.
int linked_states(MonitorFleet& fleet, MonitorId m, int sigma) {
  std::set<std::uint32_t> seen;
  std::vector<std::vector<Sym>> frontier{{}};
  const auto reach = [&](const std::vector<Sym>& word) {
    const SessionId s = fleet.open_session(m);
    for (const Sym a : word) fleet.step(s, a);
    return fleet.session_state(s);
  };
  seen.insert(reach({}));
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    for (Sym a = 0; a < sigma; ++a) {
      std::vector<Sym> word = frontier[i];
      word.push_back(a);
      if (seen.insert(reach(word)).second) frontier.push_back(std::move(word));
    }
  }
  return static_cast<int>(seen.size());
}

void check_linked(MonitorFleet& fleet, const std::optional<MonitorId>& id, const Spec& spec,
                  Tally& tally) {
  tally.check(id.has_value(), spec.name + ": does not parse");
  if (!id) return;
  const int states = linked_states(fleet, *id, spec.alphabet.size());
  tally.check(states == spec.expected_dfa_states,
              spec.name + ": linked program has " + std::to_string(states) +
                  " states, expected " + std::to_string(spec.expected_dfa_states));
}

/// The traced stage-by-stage compile must yield the program compile_ltl
/// links: compares it with compile_nba's composition, state by state.
void check_same_program(const Spec& spec, const Dfa& staged, Tally& tally) {
  slat::ltl::LtlArena arena(spec.alphabet);
  const Dfa product = slat::finite::good_prefix_dfa(
      DetSafety::from_nba(slat::ltl::to_nba(arena, arena.parse(spec.formula).value())));
  bool same = product.num_states() == staged.num_states() &&
              product.initial() == staged.initial() &&
              program_rows(product) == program_rows(staged);
  for (int q = 0; same && q < product.num_states(); ++q) {
    same = product.is_accepting(q) == staged.is_accepting(q);
    for (Sym a = 0; same && a < product.alphabet().size(); ++a) {
      same = product.step(q, a) == staged.step(q, a);
    }
  }
  tally.check(same, spec.name + ": stage-by-stage program differs from compile_ltl's");
}

// ---------------------------------------------------------------------------
// Memo-cache counters and trace spans → per-layer values

struct CacheReading {
  double hits = 0;
  double misses = 0;
  double miss_ms = 0;
  std::map<std::string, double> misses_by_cache;  // cache.<name>.misses
};

/// Reads every cache.* counter and miss timer of core::metrics().
CacheReading read_caches() {
  CacheReading out;
  std::istringstream text(core::metrics().dump_text());
  for (std::string line; std::getline(text, line);) {
    const std::size_t eq = line.find(" = ");
    if (line.rfind("cache.", 0) != 0 || eq == std::string::npos) continue;
    const std::string name = line.substr(0, eq);
    const double value = std::stod(line.substr(eq + 3));
    const auto ends_with = [&](const std::string& suffix) {
      return name.size() > suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    if (ends_with(".hits")) {
      out.hits += value;
    } else if (ends_with(".misses")) {
      out.misses += value;
      out.misses_by_cache[name] = value;
    } else if (ends_with(".miss_compute")) {
      out.miss_ms += value / 1e6;
    }
  }
  return out;
}

/// The compile pass's memo-cache cost: every lookup misses (the pass
/// checks that no cache hits), so misses and their compute time are it.
void add_cache_layers(const CacheReading& c, Layers& layers) {
  layers["core.cache_misses"] = c.misses;
  layers["core.cache_miss_ms"] = c.miss_ms;
  for (const char* cache : {"ltl.to_nba", "buchi.safety_closure", "buchi.determinize"}) {
    const std::string name = std::string("cache.") + cache + ".misses";
    const auto it = c.misses_by_cache.find(name);
    layers[name] = it == c.misses_by_cache.end() ? 0 : it->second;
  }
}

/// Adds the self time of every layer span recorded since `from`; the
/// benchmark's own root spans ("bench.*") are not a layer.
void add_span_layers(const Tracer& tr, std::size_t from, Layers& layers) {
  for (const auto& [name, ms] : tr.self_ms(from, tr.size())) {
    if (name.rfind("bench.", 0) == 0) continue;
    if (name == "monitor.link.widen") {
      layers["monitor.link_ms"] += ms;
      layers["monitor.widen_link_ms"] += ms;
    } else {
      layers[name + "_ms"] += ms;
    }
  }
}

/// Per-metric median over traced passes (a metric absent from a pass is 0).
Layers median_layers(const std::vector<Layers>& passes) {
  std::set<std::string> names;
  for (const Layers& p : passes) {
    for (const auto& [name, value] : p) names.insert(name);
  }
  Layers out;
  for (const std::string& name : names) {
    std::vector<double> values;
    for (const Layers& p : passes) {
      const auto it = p.find(name);
      values.push_back(it == p.end() ? 0 : it->second);
    }
    out[name] = median(values);
  }
  return out;
}

/// Traced against untraced passes of the same calls, median pass time.
double overhead_pct(const std::vector<double>& traced_ms, const std::vector<double>& plain_ms) {
  return 100.0 * (median(traced_ms) / median(plain_ms) - 1.0);
}

/// End-to-end figures of the untraced passes. Every pass repeats the same
/// operations (spec i of the corpus, or batch b of the replay), so each
/// operation has one latency sample per pass, and its cost is its
/// fastest-decile sample (10th percentile, nearest rank). On a shared VM
/// the passes of one run switch between uncontended and contended states
/// for seconds at a time and the share of each moves from run to run; an
/// operation's fastest decile tracks its uncontended cost, where a
/// per-pass statistic moves with the share.
struct PassFigures {
  std::vector<std::vector<double>> op_ms;  // op_ms[i]: operation i's latency per pass
  double units_per_pass = 0;               // specs or events a pass handles

  void add(double units, const std::vector<double>& ms) {
    op_ms.resize(ms.size());
    for (std::size_t i = 0; i < ms.size(); ++i) op_ms[i].push_back(ms[i]);
    units_per_pass = units;
  }

  std::vector<double> costs() const {
    std::vector<double> out;
    for (const std::vector<double>& samples : op_ms) out.push_back(percentile(samples, 0.1));
    return out;
  }

  /// The run-wide p99 is reported but not gated: on a shared host, tails
  /// beyond the p90 move with the time other tenants take from the vCPUs.
  void report(const char* op) const {
    std::vector<double> all;
    for (const std::vector<double>& samples : op_ms) all.insert(all.end(), samples.begin(), samples.end());
    std::fprintf(stderr, "  %zu untraced passes of %zu %s; run-wide p99 %.4g ms over %zu samples\n",
                 op_ms.empty() ? 0 : op_ms.front().size(), op_ms.size(), op,
                 percentile(all, 0.99), all.size());
  }

  /// ops_per_s is units per pass ÷ the summed operation costs.
  std::vector<std::pair<std::string, double>> e2e(double setup_s) const {
    const std::vector<double> cost = costs();
    const double pass_ms = std::accumulate(cost.begin(), cost.end(), 0.0);
    return {{"setup_s", setup_s},
            {"ops_per_s", units_per_pass / (pass_ms / 1e3)},
            {"op_ms_geomean", geomean(cost)},
            {"op_ms_p90", percentile(cost, 0.9)}};
  }
};

// ---------------------------------------------------------------------------
// Verdict oracle

/// Decides a session's verdict from lcl(L) directly: the prefix is good iff
/// every event is inside the program's alphabet (an out-of-alphabet event
/// latches) and the closure NBA has a run on it. No determinization,
/// minimization or fleet is involved. Closures are built with the memo
/// caches off, so the oracle neither reuses nor warms what it checks.
class Oracle {
 public:
  bool good(const Spec& spec, const std::vector<Sym>& prefix) {
    auto it = closures_.find(spec.name);
    if (it == closures_.end()) {
      const core::CacheEnabledScope off(false);
      slat::ltl::LtlArena arena(spec.alphabet);
      const auto f = arena.parse(spec.formula);
      if (!f) throw std::runtime_error(spec.name + ": does not parse");
      it = closures_.emplace(spec.name, slat::buchi::safety_closure(slat::ltl::to_nba(arena, *f)))
               .first;
    }
    const Nba& closure = it->second;
    if (closure.is_trivially_dead()) return false;  // lcl(L) empty: born violated
    for (const Sym a : prefix) {
      if (a < 0 || a >= spec.alphabet.size()) return false;
    }
    return closure.has_run_on_prefix(prefix);
  }

 private:
  std::map<std::string, Nba> closures_;
};

struct Sample {
  SessionId session;
  bool expect_violated;
};

/// Picks the sessions of kSampledEvents random events (so most samples
/// have a non-empty prefix), collects each one's events in batch order and
/// asks the oracle for its verdict. `spec_of` maps a session to its spec.
template <typename SpecOf>
std::vector<Sample> sample_sessions(const std::vector<std::vector<Event>>& batches,
                                    SpecOf&& spec_of, Oracle& oracle, std::mt19937 rng) {
  std::unordered_map<SessionId, std::vector<Sym>> prefixes;
  std::uniform_int_distribution<std::size_t> pick_batch(0, batches.size() - 1);
  for (int i = 0; i < kSampledEvents; ++i) {
    const std::vector<Event>& batch = batches[pick_batch(rng)];
    std::uniform_int_distribution<std::size_t> pick_event(0, batch.size() - 1);
    prefixes[batch[pick_event(rng)].session];
  }
  for (const std::vector<Event>& batch : batches) {
    for (const Event& e : batch) {
      const auto it = prefixes.find(e.session);
      if (it != prefixes.end()) it->second.push_back(e.sym);
    }
  }
  std::vector<Sample> samples;
  for (const auto& [session, prefix] : prefixes) {
    samples.push_back(Sample{session, !oracle.good(spec_of(session), prefix)});
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.session < b.session; });
  return samples;
}

void check_verdicts(const MonitorFleet& fleet, const std::vector<Sample>& samples, bool corrupt,
                    int pass, Tally& tally) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    bool violated = fleet.session_violated(samples[i].session);
    if (corrupt && i == 0) violated = !violated;
    tally.check(violated == samples[i].expect_violated,
                "pass " + std::to_string(pass) + ": session " +
                    std::to_string(samples[i].session) + " verdict disagrees with lcl oracle");
  }
}

/// violated_share is deterministic: every pass must reproduce the first.
void check_share(double share, std::optional<double>& first, int pass, Tally& tally) {
  if (!first) first = share;
  tally.check(share == *first, "pass " + std::to_string(pass) + ": violated share " +
                                   std::to_string(share) + " differs from pass 0");
}

// ---------------------------------------------------------------------------
// Workloads

struct Result {
  std::vector<std::pair<std::string, double>> e2e;  // setup_s … op_ms_p90
  Layers layers;
};

bool keep_going(int pass, int min_passes, std::int64_t loop_start, const Options& opt) {
  return pass < min_passes || ms_since(loop_start) / 1e3 < opt.seconds;
}

Result run_compile(const Options& opt, Tally& tally, Tracer& tr) {
  std::vector<Spec> specs;
  std::vector<std::size_t> order;
  // Setup is the library's first pass over the corpus: every spec text is
  // parsed once (a spec that does not parse fails in every timed pass).
  const auto setup = [&] {
    specs = load_specs(opt.data_dir + "/compile.tsv");
    if (opt.fault == "dfa-states") specs.front().expected_dfa_states += 1;
    for (const Spec& spec : specs) {
      slat::ltl::LtlArena arena(spec.alphabet);
      static_cast<void>(arena.parse(spec.formula));
    }
    order.resize(specs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::mt19937 rng = stream(opt.seed, 1);
    std::shuffle(order.begin(), order.end(), rng);
  };
  SetupClock setup_clock;
  setup_clock.occasion(setup);

  // The traced run calls the stages on every pass; only the odd passes
  // record spans, so the even ones time the same calls without them.
  Tracer off(false);
  PassFigures figures;
  std::vector<double> plain_pass_ms, traced_pass_ms;
  std::vector<std::vector<double>> spec_ms(specs.size());
  std::vector<Layers> traced_layers;
  const std::int64_t loop_start = now_ns();
  for (int pass = 0; keep_going(pass, tr.enabled() ? 4 : 3, loop_start, opt); ++pass) {
    if (setup_clock.due()) setup_clock.occasion(setup);
    const bool traced = tr.enabled() && pass % 2 == 1;
    Tracer& pass_tr = traced ? tr : off;
    core::clear_all_caches();
    core::metrics().reset_all();
    MonitorFleet fleet;
    int width = 0;
    Layers layers;
    std::vector<std::optional<MonitorId>> ids(specs.size());
    std::vector<std::optional<Dfa>> staged(specs.size());
    std::vector<double> ms(specs.size());
    const std::size_t span_from = tr.size();
    const std::int64_t pass_start = now_ns();
    for (const std::size_t i : order) {
      const std::int64_t t0 = now_ns();
      if (tr.enabled()) {
        Scope root(pass_tr, "bench.spec", static_cast<std::int64_t>(i));
        ids[i] = compile_stages(fleet, specs[i], pass_tr, static_cast<std::int64_t>(i), layers,
                                width, staged[i]);
      } else {
        ids[i] = compile_product(fleet, specs[i]);
      }
      ms[i] = ms_since(t0);
    }
    const double pass_ms = ms_since(pass_start);
    if (opt.fault == "cache-hit" && pass == 0) compile_product(fleet, specs[order.front()]);

    const CacheReading caches = read_caches();
    tally.check(caches.hits == 0, "compile pass " + std::to_string(pass) + ": " +
                                      std::to_string(caches.hits) + " memo-cache hits");
    for (std::size_t i = 0; i < specs.size(); ++i) check_linked(fleet, ids[i], specs[i], tally);
    if (traced) {
      add_span_layers(tr, span_from, layers);
      add_cache_layers(caches, layers);
      traced_layers.push_back(layers);
      traced_pass_ms.push_back(pass_ms);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (staged[i]) check_same_program(specs[i], *staged[i], tally);
      }
    } else {
      plain_pass_ms.push_back(pass_ms);
      figures.add(static_cast<double>(specs.size()), ms);
      for (std::size_t i = 0; i < specs.size(); ++i) spec_ms[i].push_back(ms[i]);
    }
  }

  // The cost guard: no spec may set the pass.
  const double pass_median = median(plain_pass_ms);
  std::size_t heaviest = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double share = median(spec_ms[i]) / pass_median;
    if (share > median(spec_ms[heaviest]) / pass_median) heaviest = i;
    tally.check(share <= kMaxSpecShare, specs[i].name + " takes " + std::to_string(share * 100) +
                                            "% of the compile pass");
  }
  std::fprintf(stderr,
               "compile: %zu specs, median pass %.1f ms, heaviest %s at %.1f%% of a pass\n",
               specs.size(), pass_median, specs[heaviest].name.c_str(),
               100 * median(spec_ms[heaviest]) / pass_median);
  figures.report("specs");

  Result r;
  r.e2e = figures.e2e(setup_clock.seconds());
  if (tr.enabled()) {
    r.layers = median_layers(traced_layers);
    r.layers["trace.overhead_pct"] = overhead_pct(traced_pass_ms, plain_pass_ms);
  }
  return r;
}

Result run_serve(const Options& opt, Tally& tally, Tracer& tr) {
  std::vector<Spec> specs;
  std::unique_ptr<MonitorFleet> fleet;
  std::vector<MonitorId> assignment;
  std::vector<std::vector<Event>> batches;
  std::vector<double> open_ms;
  const TrafficConfig cfg{.num_sessions = kServeSessions,
                          .num_monitors = 8,
                          .zipf_exponent = 1.1,
                          .alphabet_size = kTrafficLetters,
                          .mean_burst = 8.0,
                          .common_sym_bias = 0.9,
                          .garbage_rate = 0.001};
  // Every repetition builds the same fleet, sessions and batches (the
  // previous ones are freed first, untimed), so sampled sessions and the
  // violated share stay valid across rebuilds.
  const auto setup = [&] {
    core::clear_all_caches();  // each repetition compiles from scratch
    specs = load_specs(opt.data_dir + "/serve.tsv");
    if (specs.size() != cfg.num_monitors) throw std::runtime_error("serve.tsv needs 8 specs");
    if (opt.fault == "dfa-states") specs.front().expected_dfa_states += 1;
    fleet = std::make_unique<MonitorFleet>();
    for (const Spec& spec : specs) {
      if (!compile_product(*fleet, spec)) throw std::runtime_error(spec.name + ": does not parse");
    }
    std::mt19937 assign_rng = stream(opt.seed, 2);
    assignment = slat::monitor::zipf_monitor_assignment(cfg, assign_rng);
    const std::int64_t t0 = now_ns();
    for (const MonitorId m : assignment) fleet->open_session(m);
    open_ms.push_back(ms_since(t0));
    std::mt19937 traffic_rng = stream(opt.seed, 3);
    for (int b = 0; b < kServeBatches; ++b) {
      batches.push_back(slat::monitor::make_batch(cfg, kServeBatchEvents, traffic_rng));
    }
  };
  SetupClock setup_clock;
  const auto rebuild = [&] {
    fleet.reset();  // the previous state is freed outside the timed setup
    batches.clear();
    setup_clock.occasion([&] {
      fleet.reset();  // a no-op unless the occasion repeats the setup
      batches.clear();
      setup();
    });
    // The state probe's sessions come after every served one and get no traffic.
    for (MonitorId m = 0; m < specs.size(); ++m) check_linked(*fleet, m, specs[m], tally);
  };
  rebuild();

  Oracle oracle;
  const std::vector<Sample> samples = sample_sessions(
      batches, [&](SessionId s) -> const Spec& { return specs[assignment[s]]; }, oracle,
      stream(opt.seed, 4));
  std::size_t events_per_pass = 0;
  for (const auto& b : batches) events_per_pass += b.size();

  PassFigures figures;
  std::vector<double> plain_pass_ms, traced_pass_ms;
  std::vector<Layers> traced_layers;
  std::optional<double> first_share;
  const std::int64_t loop_start = now_ns();
  for (int pass = 0; keep_going(pass, tr.enabled() ? 4 : 3, loop_start, opt); ++pass) {
    if (setup_clock.due()) rebuild();
    const bool traced = tr.enabled() && pass % 2 == 1;
    fleet->reset_sessions();
    core::metrics().reset_all();
    const std::size_t span_from = tr.size();
    std::vector<double> ms(batches.size());
    const std::int64_t pass_start = now_ns();
    if (traced) {
      Scope root(tr, "bench.pass", pass);
      for (std::size_t b = 0; b < batches.size(); ++b) {
        Scope s(tr, "monitor.ingest", static_cast<std::int64_t>(b));
        fleet->ingest(batches[b]);
      }
    } else {
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const std::int64_t t0 = now_ns();
        fleet->ingest(batches[b]);
        ms[b] = ms_since(t0);
      }
    }
    const double pass_ms = ms_since(pass_start);

    const double share =
        static_cast<double>(fleet->count_violated()) / static_cast<double>(fleet->num_sessions());
    check_share(share, first_share, pass, tally);
    check_verdicts(*fleet, samples, opt.fault == "verdict" && pass == 0, pass, tally);
    if (traced) {
      Layers layers;
      add_span_layers(tr, span_from, layers);
      layers["monitor.events"] = static_cast<double>(events_per_pass);
      layers["monitor.violated_share"] = share;
      traced_layers.push_back(layers);
      traced_pass_ms.push_back(pass_ms);
    } else {
      plain_pass_ms.push_back(pass_ms);
      figures.add(static_cast<double>(events_per_pass), ms);
    }
  }
  std::fprintf(stderr,
               "serve: %zu sessions, %zu sampled verdicts, %zu events a pass, violated share "
               "%.4f\n",
               fleet->num_sessions(), samples.size(), events_per_pass, first_share.value_or(0));
  figures.report("batches");

  Result r;
  r.e2e = figures.e2e(setup_clock.seconds());
  if (tr.enabled()) {
    r.layers = median_layers(traced_layers);
    r.layers["monitor.open_ms"] = median(open_ms);
    r.layers["trace.overhead_pct"] = overhead_pct(traced_pass_ms, plain_pass_ms);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {{"setup_s", "s"},
                                   {"ops_per_s", "1/s"},
                                   {"op_ms_geomean", "ms"},
                                   {"op_ms_p90", "ms"},
                                   {"peak_rss_mb", "MB"}};

constexpr MetricDef kPerLayer[] = {
    {"ltl.parse_ms", "ms"},
    {"ltl.to_nba_ms", "ms"},
    {"ltl.nba_states", "count"},
    {"buchi.closure_ms", "ms"},
    {"buchi.closure_states", "count"},
    {"buchi.determinize_ms", "ms"},
    {"buchi.det_states", "count"},
    {"finite.minimize_ms", "ms"},
    {"finite.dfa_states", "count"},
    {"monitor.link_ms", "ms"},
    {"monitor.rows", "count"},
    {"monitor.widen_links", "count"},
    {"monitor.widen_link_ms", "ms"},
    {"monitor.open_ms", "ms"},
    {"monitor.ingest_ms", "ms"},
    {"monitor.events", "count"},
    {"monitor.violated_share", "ratio"},
    {"core.cache_misses", "count"},
    {"core.cache_miss_ms", "ms"},
    {"cache.ltl.to_nba.misses", "count"},
    {"cache.buchi.safety_closure.misses", "count"},
    {"cache.buchi.determinize.misses", "count"},
    {"core.threads", "count"},
    {"trace.overhead_pct", "%"},
};

void print_result(const Tally& tally, const std::map<std::string, double>& values,
                  bool per_layer) {
  std::string metrics;
  const auto emit = [&](const MetricDef& m) {
    const auto it = values.find(m.name);
    const double value = it == values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += buf;
    std::fprintf(stderr, "  %-36s %16.6g %s\n", m.name, value, m.unit);
  };
  if (per_layer) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.c_str());
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  using namespace pipebench;
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 2;
  }
  Tally tally;
  Tracer tracer(opt.trace);
  Result result;
  try {
    result = opt.workload == "compile" ? run_compile(opt, tally, tracer)
                                       : run_serve(opt, tally, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
  std::map<std::string, double> values(result.e2e.begin(), result.e2e.end());
  values["peak_rss_mb"] = peak_rss_mb();
  for (const auto& [name, value] : result.layers) values[name] = value;
  values["core.threads"] = core::ThreadPool::global().num_threads();
  std::fprintf(stderr, "%s seed %llu: %llu operations, %llu failed\n", opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(tally.attempted),
               static_cast<unsigned long long>(tally.failed));
  print_result(tally, values, opt.trace);
  if (opt.trace && !opt.trace_out.empty() && !tracer.write_csv(opt.trace_out)) {
    std::fprintf(stderr, "pipebench: cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  return tally.failed == 0 ? 0 : 1;
}
