/**
 * @file
 * Shared harness of the end-to-end benchmark: the in-memory span
 * tracer, the per-run answer ledger, and the workload interface.
 *
 * Every workload is a stream of "answers": one unit of user-visible
 * work taken from its input (Verilog text or a debugger request) to a
 * checked result, on one simulation backend. Rounds repeat the same
 * operations, so a run always attempts whole rounds and the share of
 * failed operations is the same in every run.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hdl/ast.hh"
#include "sim/backend.hh"
#include "sim/eval.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** The two execution backends every workload answers on. */
enum Backend : int { Interp = 0, Bytecode = 1 };
constexpr int kBackends = 2;
const char *backendName(int backend);
/** Empty factory for the interpreter, the bytecode factory otherwise. */
hwdbg::sim::BackendFactory backendFactory(int backend);

/** splitmix64: every seeded input stream of the benchmark. */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t next()
    {
        uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    uint64_t below(uint64_t n) { return n ? next() % n : 0; }
    /** A seeded permutation of 0..n-1. */
    std::vector<size_t> order(size_t n)
    {
        std::vector<size_t> items(n);
        for (size_t i = 0; i < n; ++i)
            items[i] = i;
        for (size_t i = n; i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
        return items;
    }
};

/**
 * Spans recorded around each call into a layer: name, start, end,
 * parent span and the id of the answer (bug variant, design, seed or
 * command) they belong to. They stay in memory until the run ends.
 * While disabled, opening a span costs one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        uint32_t name;
        int32_t parent;
        uint32_t group;
        int64_t startNs;
        int64_t endNs;
    };
    struct LayerTotals
    {
        double selfNs = 0;
        uint64_t calls = 0;
    };

    void setEnabled(bool on) { on_ = on; }

    /** Start a new answer group; spans opened from now on carry it. */
    void beginGroup(const std::string &label);

    int32_t open(const char *name);
    void close(int32_t span);
    /** Add @p value to counter @p name (recorded while enabled). */
    void count(const char *name, double value);
    /** Keep @p value as one sample of @p name (recorded while enabled). */
    void sample(const char *name, double value);

    /** Self time (duration minus child spans) summed per span name. */
    std::map<std::string, LayerTotals> layerTotals() const;
    double counter(const std::string &name) const;
    const std::vector<double> &samples(const std::string &name) const;
    /** Write every span as JSON; false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    uint32_t intern(const char *name);

    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::map<std::string, uint32_t> nameIds_;
    std::vector<std::string> groups_;
    int32_t top_ = -1;
    std::map<std::string, double> counters_;
    std::map<std::string, std::vector<double>> samples_;
};

Tracer &tracer();

/** RAII span around one call into a layer. */
class Scope
{
  public:
    explicit Scope(const char *name) : span_(tracer().open(name)) {}
    ~Scope() { tracer().close(span_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int32_t span_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one run measures and checks. */
struct Run
{
    uint64_t seed = 0;
    uint64_t round = 0;
    /**
     * Index of the round's inputs. Traced runs repeat each round's
     * inputs once with spans on and once without, so the two halves
     * differ only by the tracing.
     */
    uint64_t inputRound = 0;
    /** Spans are on for this round (traced runs alternate rounds). */
    bool traced = false;

    /** Seeded stream for this round's choices (order, scripts). */
    Rng roundRng(uint64_t salt) const
    {
        return Rng(seed * 0x9E3779B97F4A7C15ULL ^ salt ^
                   (inputRound + 1) * 0xD1B54A32D192ED03ULL);
    }

    /** Answer latencies per backend, ms. */
    std::vector<double> answerMs[kBackends];
    /** Cycles simulated and seconds spent, per design and backend. */
    struct Pace
    {
        double cycles = 0;
        double seconds = 0;
    };
    std::map<std::string, Pace> pace[kBackends];
    /** Latencies of user commands, µs, both backends. */
    std::vector<double> cmdUs;
    std::vector<double> staticMs;
    /** Answer time and count, split by traced rounds. */
    double answerSumMs[2] = {0, 0};
    uint64_t answerCount[2] = {0, 0};

    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    /** Figures only this workload has, set by Workload::finish. */
    std::vector<Metric> figures;

    /**
     * One answer on @p backend for @p design: @p ms from its input to
     * its checked result, in which @p cycles cycles were simulated
     * (or, for a debugger session, travelled).
     */
    void answer(int backend, const std::string &design, double ms,
                double cycles);
    /** One user command, request to result (not an operation count). */
    void command(double us) { cmdUs.push_back(us); }
    void staticVerdict(double ms);
    /** An operation that failed (counted, not a wrong answer). */
    void failedOp(const std::string &why);
    /** A wrong answer: the run is not correct. */
    void check(bool ok, const std::string &what);

  private:
    int complaints_ = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the inputs and references; repeated to time set-up. */
    virtual void setup() = 0;
    /** Attempt one whole round of the workload's operations. */
    virtual void round(Run &run) = 0;
    /** After the last round: run-level checks and figures. */
    virtual void finish(Run &) {}
};

std::unique_ptr<Workload> makeTestbedWorkload();
std::unique_ptr<Workload> makeCorpusWorkload(uint64_t seed);
std::unique_ptr<Workload> makeDebugWorkload(uint64_t seed,
                                            const std::string &workDir);
std::unique_ptr<Workload> makeFuzzWorkload();

/**
 * The static verdict of one elaborated design: lint::runLint and
 * analyze::runAnalyze on a clone, timed into @p run. Returns the rules
 * that fired as "lint:<rule>" and "analyze:<rule>", in report order.
 */
std::vector<std::string> staticVerdict(Run &run,
                                       const hwdbg::hdl::Module &elaborated,
                                       const std::string &label);

/** Two $display logs are line-for-line equal. */
inline bool
sameLog(const std::vector<hwdbg::sim::EvalContext::LogLine> &a,
        const std::vector<hwdbg::sim::EvalContext::LogLine> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].cycle != b[i].cycle || a[i].text != b[i].text)
            return false;
    return true;
}

/** Linear-interpolated quantile of @p values (copied and sorted). */
double quantile(std::vector<double> values, double q);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
