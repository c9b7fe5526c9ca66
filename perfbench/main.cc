/**
 * @file
 * perfbench: the end-to-end benchmark binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE] [--work DIR]
 *
 * Times set-up (five times, median), then attempts whole rounds of
 * the workload until S seconds have passed, checking every answer
 * against references computed apart from the code under test. The last
 * line of stdout is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. Untraced runs report the end-to-end metrics; traced runs
 * report the per-layer metrics, taken from spans recorded on every
 * other round so the untraced rounds between them give the tracing
 * overhead.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "analyze/analyze.hh"
#include "bench.hh"
#include "compile/backend.hh"
#include "lint/lint.hh"
#include "obs/json.hh"

namespace perfbench
{

const char *
backendName(int backend)
{
    return backend == Bytecode ? "bytecode" : "interp";
}

hwdbg::sim::BackendFactory
backendFactory(int backend)
{
    return backend == Bytecode ? hwdbg::compile::makeBytecodeBackend()
                               : hwdbg::sim::BackendFactory{};
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

std::vector<std::string>
staticVerdict(Run &run, const hwdbg::hdl::Module &elaborated,
              const std::string &label)
{
    // A clone keeps the caller's copy pristine across rounds.
    auto mod = hwdbg::hdl::cloneModule(elaborated);
    tracer().beginGroup(label + ":static");
    std::vector<std::string> rules;
    auto t0 = Clock::now();
    {
        Scope span("lint.run");
        for (const auto &diag : hwdbg::lint::runLint(*mod))
            rules.push_back("lint:" + diag.rule);
    }
    {
        Scope span("analyze.run");
        for (const auto &diag : hwdbg::analyze::runAnalyze(*mod))
            rules.push_back("analyze:" + diag.rule);
    }
    run.staticVerdict(msSince(t0));
    return rules;
}

// ---- Tracer ------------------------------------------------------------

static int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

void
Tracer::beginGroup(const std::string &label)
{
    if (on_)
        groups_.push_back(label);
}

uint32_t
Tracer::intern(const char *name)
{
    auto [it, fresh] = nameIds_.emplace(name, uint32_t(names_.size()));
    if (fresh)
        names_.push_back(name);
    return it->second;
}

int32_t
Tracer::open(const char *name)
{
    if (!on_)
        return -1;
    int32_t id = int32_t(spans_.size());
    uint32_t group = groups_.empty() ? 0 : uint32_t(groups_.size() - 1);
    spans_.push_back(Span{intern(name), top_, group, nowNs(), 0});
    top_ = id;
    return id;
}

void
Tracer::close(int32_t span)
{
    if (span < 0)
        return;
    spans_[span].endNs = nowNs();
    top_ = spans_[span].parent;
}

void
Tracer::count(const char *name, double value)
{
    if (on_)
        counters_[name] += value;
}

std::map<std::string, Tracer::LayerTotals>
Tracer::layerTotals() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = double(spans_[i].endNs - spans_[i].startNs);
    for (const auto &span : spans_)
        if (span.parent >= 0)
            self[span.parent] -= double(span.endNs - span.startNs);
    std::map<std::string, LayerTotals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
        auto &layer = totals[names_[spans_[i].name]];
        layer.selfNs += self[i];
        ++layer.calls;
    }
    return totals;
}

void
Tracer::sample(const char *name, double value)
{
    if (on_)
        samples_[name].push_back(value);
}

double
Tracer::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

const std::vector<double> &
Tracer::samples(const std::string &name) const
{
    static const std::vector<double> none;
    auto it = samples_.find(name);
    return it == samples_.end() ? none : it->second;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"format\":\"perfbench-spans\",\"names\":[";
    for (size_t i = 0; i < names_.size(); ++i)
        out << (i ? "," : "") << '"' << hwdbg::obs::jsonEscape(names_[i])
            << '"';
    out << "],\"groups\":[";
    for (size_t i = 0; i < groups_.size(); ++i)
        out << (i ? "," : "") << '"'
            << hwdbg::obs::jsonEscape(groups_[i]) << '"';
    out << "],\n\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << '[' << s.name << ',' << s.parent << ','
            << s.group << ',' << s.startNs << ',' << s.endNs << ']';
    }
    out << "]}\n";
    return bool(out);
}

// ---- Run ledger --------------------------------------------------------

void
Run::answer(int backend, const std::string &design, double ms,
            double cycles)
{
    answerMs[backend].push_back(ms);
    pace[backend][design].cycles += cycles;
    pace[backend][design].seconds += ms / 1e3;
    answerSumMs[traced] += ms;
    ++answerCount[traced];
    ++attempted;
}

void
Run::staticVerdict(double ms)
{
    staticMs.push_back(ms);
    ++attempted;
}

void
Run::failedOp(const std::string &why)
{
    ++attempted;
    ++failed;
    if (round == 0)
        std::fprintf(stderr, "perfbench: failed operation: %s\n",
                     why.c_str());
}

void
Run::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    if (complaints_++ < 20)
        std::fprintf(stderr, "perfbench: CHECK FAILED (round %llu): %s\n",
                     static_cast<unsigned long long>(round),
                     what.c_str());
}

// ---- Per-layer metrics -------------------------------------------------

namespace
{

/**
 * How each per-layer metric is derived from the traced rounds:
 *   SelfUs    mean self time of span `num`, µs per call
 *   PerRound  counter `num` per traced round
 *   Ratio     counter `num` (or the self ns of span `num` when it starts
 *             with "span:") divided by counter `den`
 *   P99       99th percentile of the samples `num`
 */
struct LayerMetric
{
    enum Kind { SelfUs, PerRound, Ratio, P99 };
    const char *name;
    const char *unit;
    Kind kind;
    const char *num;
    const char *den;
};

const LayerMetric kLayerMetrics[] = {
    {"hdl.preprocess_us", "us", LayerMetric::SelfUs, "hdl.preprocess", ""},
    {"hdl.parse_us", "us", LayerMetric::SelfUs, "hdl.parse", ""},
    {"hdl.print_us", "us", LayerMetric::SelfUs, "hdl.print", ""},
    {"elab.elaborate_us", "us", LayerMetric::SelfUs, "elab.elaborate", ""},
    {"core.instrument_us", "us", LayerMetric::SelfUs, "core.instrument", ""},
    {"core.generated_lines", "count", LayerMetric::PerRound,
     "core.generated_lines", ""},
    {"core.losscheck_us", "us", LayerMetric::SelfUs, "core.losscheck", ""},
    {"sim.build_us", "us", LayerMetric::SelfUs, "sim.build", ""},
    {"compile.lower_us", "us", LayerMetric::SelfUs, "compile.lower", ""},
    {"interp.bugbase.workload_us", "us", LayerMetric::SelfUs,
     "interp.bugbase.workload", ""},
    {"bytecode.bugbase.workload_us", "us", LayerMetric::SelfUs,
     "bytecode.bugbase.workload", ""},
    {"interp.sim.eval_ns_per_cycle", "ns", LayerMetric::Ratio,
     "span:interp.sim.eval", "interp.sim.eval_cycles"},
    {"bytecode.sim.eval_ns_per_cycle", "ns", LayerMetric::Ratio,
     "span:bytecode.sim.eval", "bytecode.sim.eval_cycles"},
    {"sim.cycles", "count", LayerMetric::PerRound, "sim.cycles", ""},
    {"interp.sim.log_drain_us", "us", LayerMetric::SelfUs,
     "interp.sim.log_drain", ""},
    {"bytecode.sim.log_drain_us", "us", LayerMetric::SelfUs,
     "bytecode.sim.log_drain", ""},
    {"sim.log_lines", "count", LayerMetric::PerRound, "sim.log_lines", ""},
    {"synth.estimate_us", "us", LayerMetric::SelfUs, "synth.estimate", ""},
    {"lint.run_us", "us", LayerMetric::SelfUs, "lint.run", ""},
    {"analyze.run_us", "us", LayerMetric::SelfUs, "analyze.run", ""},
    {"serve.open_cold_us", "us", LayerMetric::SelfUs, "serve.open_cold", ""},
    {"serve.open_warm_us", "us", LayerMetric::SelfUs, "serve.open_warm", ""},
    {"interp.debug.travel_us", "us", LayerMetric::SelfUs,
     "interp.debug.travel", ""},
    {"bytecode.debug.travel_us", "us", LayerMetric::SelfUs,
     "bytecode.debug.travel", ""},
    {"interp.debug.step_us", "us", LayerMetric::SelfUs, "interp.debug.step",
     ""},
    {"bytecode.debug.step_us", "us", LayerMetric::SelfUs,
     "bytecode.debug.step", ""},
    {"debug.inspect_us", "us", LayerMetric::SelfUs, "debug.inspect", ""},
    {"debug.travel_steps", "count", LayerMetric::Ratio, "debug.travel_steps",
     "debug.travels"},
    {"debug.goto_us.p99", "us", LayerMetric::P99, "debug.goto_us", ""},
    {"debug.goto_steps.p99", "count", LayerMetric::P99, "debug.goto_steps",
     ""},
    {"debug.checkpoint_bytes", "B", LayerMetric::Ratio,
     "debug.checkpoint_bytes", "debug.sessions"},
    {"serve.snapstore.unique", "count", LayerMetric::PerRound,
     "serve.snapstore.unique", ""},
    {"serve.snapstore.interned", "count", LayerMetric::PerRound,
     "serve.snapstore.interned", ""},
    {"serve.cache.builds", "count", LayerMetric::PerRound,
     "serve.cache.builds", ""},
    {"serve.cache.hits", "count", LayerMetric::PerRound, "serve.cache.hits",
     ""},
    {"trace.record_us", "us", LayerMetric::SelfUs, "trace.record", ""},
    {"cover.query_us", "us", LayerMetric::SelfUs, "cover.query", ""},
    {"fuzz.generate_us", "us", LayerMetric::SelfUs, "fuzz.generate", ""},
    {"fuzz.roundtrip_us", "us", LayerMetric::SelfUs, "fuzz.roundtrip", ""},
    {"fuzz.differential_us", "us", LayerMetric::SelfUs, "fuzz.differential",
     ""},
    {"fuzz.lint_us", "us", LayerMetric::SelfUs, "fuzz.lint", ""},
    {"fuzz.instrument_us", "us", LayerMetric::SelfUs, "fuzz.instrument", ""},
    {"fuzz.order_us", "us", LayerMetric::SelfUs, "fuzz.order", ""},
    {"fuzz.xbackend_us", "us", LayerMetric::SelfUs, "fuzz.xbackend", ""},
    {"fuzz.xtrace_us", "us", LayerMetric::SelfUs, "fuzz.xtrace", ""},
};

std::vector<Metric>
layerMetrics(const Run &run, uint64_t tracedRounds)
{
    auto totals = tracer().layerTotals();
    auto spanNs = [&](const std::string &name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfNs;
    };
    std::vector<Metric> out;
    for (const auto &m : kLayerMetrics) {
        double value = 0;
        switch (m.kind) {
          case LayerMetric::SelfUs: {
            auto it = totals.find(m.num);
            if (it != totals.end() && it->second.calls)
                value = it->second.selfNs / 1e3 / double(it->second.calls);
            break;
          }
          case LayerMetric::PerRound:
            value = tracedRounds
                        ? tracer().counter(m.num) / double(tracedRounds)
                        : 0;
            break;
          case LayerMetric::Ratio: {
            std::string num = m.num;
            double top = num.rfind("span:", 0) == 0
                             ? spanNs(num.substr(5))
                             : tracer().counter(num);
            double den = tracer().counter(m.den);
            value = den > 0 ? top / den : 0;
            break;
          }
          case LayerMetric::P99:
            value = quantile(tracer().samples(m.num), 0.99);
            break;
        }
        out.push_back({m.name, value, m.unit});
    }
    // Traced rounds alternate with untraced ones over the same kind of
    // work; their mean answer times give the cost of the spans.
    double traced = run.answerCount[1]
                        ? run.answerSumMs[1] / double(run.answerCount[1])
                        : 0;
    double plain = run.answerCount[0]
                       ? run.answerSumMs[0] / double(run.answerCount[0])
                       : 0;
    out.push_back({"perfbench.trace_overhead_pct",
                   plain > 0 ? (traced / plain - 1) * 100 : 0, "%"});
    return out;
}

/**
 * Cycles simulated per host second on @p backend, in thousands: per
 * design, its cycles over the time of its answers, then the geomean
 * over designs, so every design weighs the same.
 */
double
kcyclesPerS(const Run &run, int backend)
{
    double logSum = 0;
    size_t designs = 0;
    for (const auto &[design, pace] : run.pace[backend]) {
        if (pace.cycles <= 0 || pace.seconds <= 0)
            continue;
        logSum += std::log(pace.cycles / pace.seconds / 1e3);
        ++designs;
    }
    return designs ? std::exp(logSum / double(designs)) : 0;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Set-up repeats per run; set-up time is their median. */
constexpr int kSetups = 5;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "testbed-e2e|corpus-long|debug-travel|fuzz-campaign "
                 "--seed N --seconds S --trace 0|1 [--spans FILE] "
                 "[--work DIR]\n",
                 msg);
    return 2;
}

} // namespace
} // namespace perfbench

using namespace perfbench;

int
main(int argc, char **argv)
{
    std::string workload, spansPath;
    std::string workDir = ".bench_build/perfbench-work";
    uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                return usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(seconds > 0))
                return usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            trace = value == "1";
        } else if (arg == "--spans") {
            spansPath = value;
        } else if (arg == "--work") {
            workDir = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (workload.empty() || seconds < 0 || trace < 0)
        return usage("--workload, --seconds and --trace are required");

    std::unique_ptr<Workload> w;
    if (workload == "testbed-e2e")
        w = makeTestbedWorkload();
    else if (workload == "corpus-long")
        w = makeCorpusWorkload(seed);
    else if (workload == "debug-travel")
        w = makeDebugWorkload(seed, workDir);
    else if (workload == "fuzz-campaign")
        w = makeFuzzWorkload();
    else
        return usage(("unknown workload " + workload).c_str());

    Run run;
    run.seed = seed;
    uint64_t rounds = 0, tracedRounds = 0;
    std::vector<double> setupMs;
    try {
        for (int i = 0; i < kSetups; ++i) {
            auto t0 = Clock::now();
            w->setup();
            setupMs.push_back(msSince(t0));
        }
        auto start = Clock::now();
        do {
            run.traced = trace && rounds % 2 == 0;
            run.round = rounds;
            run.inputRound = trace ? rounds / 2 : rounds;
            tracer().setEnabled(run.traced);
            w->round(run);
            tracer().setEnabled(false);
            tracedRounds += run.traced;
            ++rounds;
        } while (msSince(start) < seconds * 1e3);
        w->finish(run);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(),
                     e.what());
        return 1;
    }

    std::vector<Metric> metrics;
    if (trace) {
        metrics = layerMetrics(run, tracedRounds);
    } else {
        metrics = {
            {"setup_s", quantile(setupMs, 0.5) / 1e3, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"interp.answer_ms.p50", quantile(run.answerMs[Interp], 0.5),
             "ms"},
            {"interp.answer_ms.p95", quantile(run.answerMs[Interp], 0.95),
             "ms"},
            {"bytecode.answer_ms.p50", quantile(run.answerMs[Bytecode], 0.5),
             "ms"},
            {"bytecode.answer_ms.p95",
             quantile(run.answerMs[Bytecode], 0.95), "ms"},
            {"static.verdict_ms.p50", quantile(run.staticMs, 0.5), "ms"},
            {"interp.kcycles_per_s", kcyclesPerS(run, Interp), "kcycles/s"},
            {"bytecode.kcycles_per_s", kcyclesPerS(run, Bytecode),
             "kcycles/s"},
            {"cmd_us.p50", quantile(run.cmdUs, 0.5), "us"},
            {"cmd_us.p99", quantile(run.cmdUs, 0.99), "us"},
        };
    }

    std::printf("perfbench %s seed=%llu trace=%d: %llu rounds, %zu+%zu "
                "answers, %zu commands, %zu static verdicts\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                trace, static_cast<unsigned long long>(rounds),
                run.answerMs[Interp].size(), run.answerMs[Bytecode].size(),
                run.cmdUs.size(), run.staticMs.size());
    // The figures only one workload has are printed with the untraced
    // metrics but not serialised: the result object holds the metrics
    // every workload reports.
    std::vector<Metric> printed = trace ? std::vector<Metric>{} : run.figures;
    printed.insert(printed.end(), metrics.begin(), metrics.end());
    for (const auto &m : printed)
        std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (trace && !spansPath.empty() && !tracer().write(spansPath))
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     spansPath.c_str());

    std::string json = "{\"correct\": ";
    json += run.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(run.attempted);
    json += ", \"failed\": " + std::to_string(run.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
