/**
 * @file
 * corpus-long: fuzz-generated designs with every template on, each run
 * for thousands of cycles of seeded stimulus on both backends, from
 * Verilog text to a drained $display log.
 *
 * Per-cycle evaluation and log formatting dominate here, the opposite
 * of testbed-e2e. The corpus always keeps designs whose %d prints
 * values wider than 64 bits: rendering those runs a full-width divide
 * per digit, a real drain cost.
 *
 * References: the other backend's final state and log, the big-int
 * reference evaluator fuzz::RefEval on the same stimulus (designs
 * without primitive instances), and the first round's answers.
 */

#include <sstream>

#include "bench.hh"
#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "fuzz/refeval.hh"
#include "hdl/parser.hh"
#include "hdl/preproc.hh"
#include "hdl/printer.hh"
#include "sim/design.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using namespace hwdbg;

namespace
{

/**
 * The corpus: generator seeds under the generator's default options
 * (every template enabled). Seeds 1-12 span two orders of magnitude of
 * per-cycle cost. The other four print values wider than 64 bits with
 * %d, so that a quarter of the designs carry the cost of formatting
 * them, which is most of their bytecode answer: 23 and 57 are the first
 * two such seeds, 111 and 304 the next whose answers take 0.1-0.3 s.
 * Seeds 91, 103 and 364 take seconds per thousand lines and would swamp
 * a round. The pool is fixed so that runs with different --seed values
 * do the same kind of work; --seed draws the stimulus and the order.
 * One round is about 3 s.
 */
constexpr uint64_t kPool[] = {1, 2,  3,  4,  5,  6,   7,  8,
                              9, 10, 11, 12, 23, 57, 111, 304};
constexpr size_t kWideInPool = 4;
constexpr uint32_t kCycles = 1000;

struct Design
{
    uint64_t genSeed = 0;
    uint64_t stimSeed = 0;
    std::string text;
    std::string top;
    std::vector<fuzz::StimulusPort> inputs;
    bool hasRst = false;
    bool wide = false;
    hdl::ModulePtr elaborated;
};

struct FinalState
{
    std::vector<Bits> values;
    std::vector<std::vector<Bits>> arrays;
    uint64_t cycle = 0;
    bool finished = false;
    std::vector<sim::EvalContext::LogLine> log;

    bool operator==(const FinalState &o) const
    {
        return values == o.values && arrays == o.arrays &&
               cycle == o.cycle && finished == o.finished &&
               sameLog(log, o.log);
    }
};

/**
 * Seeded stimulus shared by the simulator and the reference: reset for
 * two cycles, then fresh random data on every input each cycle.
 */
template <typename Target>
void
drive(Target &target, const Design &d, uint32_t cycles,
      uint64_t *evaluated)
{
    Rng rng(d.stimSeed);
    uint32_t t = 0;
    for (; t < cycles && !target.finished(); ++t) {
        if (d.hasRst)
            target.poke("rst", Bits(1, t < 2 ? 1 : 0));
        for (const auto &port : d.inputs)
            target.poke(port.name, Bits(port.width, rng.next()));
        target.poke("clk", Bits(1, 0));
        target.eval();
        target.poke("clk", Bits(1, 1));
        target.eval();
    }
    *evaluated = t;
}

/** True when a $display of @p flat formats a >64-bit value with %d. */
bool
printsWideDecimal(const hdl::ModulePtr &flat)
{
    sim::LoweredDesign lowered(hdl::cloneModule(*flat));
    std::istringstream text(hdl::printModule(lowered.module()));
    std::string line;
    while (std::getline(text, line)) {
        size_t at = line.find("$display(\"");
        if (at == std::string::npos)
            continue;
        size_t open = at + 10, close = line.find('"', open);
        if (close == std::string::npos)
            continue;
        std::string format = line.substr(open, close - open);
        std::vector<std::string> args;
        std::string rest = line.substr(close + 1);
        std::string cur;
        for (char c : rest) {
            if (c == ',' || c == ')') {
                if (!cur.empty())
                    args.push_back(cur);
                cur.clear();
            } else if (c != ' ') {
                cur += c;
            }
        }
        size_t arg = 0;
        for (size_t p = format.find('%'); p != std::string::npos;
             p = format.find('%', p + 1)) {
            std::string spec = format.substr(p + 1, 2);
            bool decimal = spec[0] == 'd' || spec == "0d";
            if (arg < args.size() && decimal) {
                int id = lowered.signalId(args[arg]);
                if (id >= 0 && lowered.info(id).width > 64)
                    return true;
            }
            ++arg;
        }
    }
    return false;
}

class CorpusWorkload : public Workload
{
  public:
    explicit CorpusWorkload(uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        designs_.clear();
        Rng stimulus(seed_ * 0x9E3779B97F4A7C15ULL + 0xC0FFEEULL);
        for (uint64_t genSeed : kPool) {
            Design d;
            d.genSeed = genSeed;
            d.stimSeed = stimulus.next();
            auto gd = fuzz::generateDesign(genSeed);
            d.text = hdl::printDesign(gd.design);
            d.top = gd.top;
            d.inputs = gd.inputs;
            d.hasRst = gd.hasRst;
            d.elaborated = elab::elaborate(gd.design, gd.top).mod;
            d.wide = printsWideDecimal(d.elaborated);
            designs_.push_back(std::move(d));
        }
        reference_.assign(designs_.size(), FinalState{});
        staticRef_.assign(designs_.size(), {});
    }

    void round(Run &run) override
    {
        Rng rng = run.roundRng(0xC0C0ULL);
        std::vector<size_t> order = rng.order(designs_.size());
        for (size_t idx : order) {
            const Design &d = designs_[idx];
            std::string label = csprintf("seed%llu",
                                         (unsigned long long)d.genSeed);
            FinalState out[kBackends];
            int first = int(rng.below(2));
            for (int k = 0; k < kBackends; ++k) {
                int b = first ^ k;
                tracer().beginGroup(label + ":" + backendName(b));
                auto t0 = Clock::now();
                out[b] = answer(d, b);
                double ms = msSince(t0);
                run.answer(b, label, ms, double(out[b].cycle));
                run.command(ms * 1e3);
            }
            run.check(out[Interp] == out[Bytecode],
                      label + ": interpreter and bytecode disagree");
            if (run.round == 0) {
                reference_[idx] = out[Interp];
                checkAgainstRefEval(run, d, out[Interp], label);
            } else {
                run.check(reference_[idx] == out[Interp],
                          label + ": answer changed between rounds");
            }

            auto verdict = staticVerdict(run, *d.elaborated, label);
            if (run.round == 0)
                staticRef_[idx] = verdict;
            else
                run.check(staticRef_[idx] == verdict,
                          label + ": static verdict changed between rounds");
        }
    }

    void finish(Run &run) override
    {
        size_t wide = 0;
        for (const auto &d : designs_)
            wide += d.wide;
        run.check(wide == kWideInPool,
                  "corpus lost its wide-%d designs");
    }

  private:
    FinalState answer(const Design &d, int backend)
    {
        static const char *const kEval[] = {"interp.sim.eval",
                                            "bytecode.sim.eval"};
        static const char *const kEvalCycles[] = {
            "interp.sim.eval_cycles", "bytecode.sim.eval_cycles"};
        static const char *const kDrain[] = {"interp.sim.log_drain",
                                             "bytecode.sim.log_drain"};
        Scope answerSpan("corpus.answer");
        std::string text;
        {
            Scope span("hdl.preprocess");
            text = hdl::preprocess(d.text, {}, "corpus.v");
        }
        hdl::Design design;
        {
            Scope span("hdl.parse");
            design = hdl::parse(text, "corpus.v");
        }
        hdl::ModulePtr flat;
        {
            Scope span("elab.elaborate");
            flat = elab::elaborate(design, d.top).mod;
        }
        std::unique_ptr<sim::Simulator> sim;
        {
            Scope span("sim.build");
            sim = std::make_unique<sim::Simulator>(flat);
        }
        if (backend == Bytecode) {
            Scope span("compile.lower");
            sim->setBackend(backendFactory(backend));
        }
        uint64_t evaluated = 0;
        {
            Scope span(kEval[backend]);
            drive(*sim, d, kCycles, &evaluated);
        }
        tracer().count(kEvalCycles[backend], double(evaluated));
        FinalState out;
        {
            Scope span(kDrain[backend]);
            out.log = sim->log();
        }
        tracer().count("sim.cycles", double(sim->cycle()));
        tracer().count("sim.log_lines", double(out.log.size()));
        out.values = sim->context().values;
        out.arrays = sim->context().arrays;
        out.cycle = sim->cycle();
        out.finished = sim->finished();
        return out;
    }

    void checkAgainstRefEval(Run &run, const Design &d,
                             const FinalState &got,
                             const std::string &label)
    {
        // Elaborated from the same text as the answers, so signal ids
        // line up with the simulator's.
        hdl::Design design =
            hdl::parse(hdl::preprocess(d.text, {}, "corpus.v"), "corpus.v");
        hdl::ModulePtr flat = elab::elaborate(design, d.top).mod;
        sim::LoweredDesign lowered(hdl::cloneModule(*flat));
        if (!lowered.prims().empty())
            return; // RefEval models no primitive instances
        fuzz::RefEval ref(flat);
        uint64_t evaluated = 0;
        drive(ref, d, kCycles, &evaluated);
        bool same = ref.cycle() == got.cycle &&
                    ref.finished() == got.finished &&
                    ref.log().size() == got.log.size();
        for (size_t i = 0; same && i < ref.log().size(); ++i)
            same = ref.log()[i].cycle == got.log[i].cycle &&
                   ref.log()[i].text == got.log[i].text;
        for (size_t id = 0; same && id < lowered.numSignals(); ++id) {
            const auto &info = lowered.info(int(id));
            if (info.arraySize == 0)
                same = ref.peek(info.name) == got.values[id];
        }
        run.check(same, label + ": final state differs from RefEval");
    }

    uint64_t seed_;
    std::vector<Design> designs_;
    std::vector<FinalState> reference_;
    std::vector<std::vector<std::string>> staticRef_;
};

} // namespace

std::unique_ptr<Workload>
makeCorpusWorkload(uint64_t seed)
{
    return std::make_unique<CorpusWorkload>(seed);
}

} // namespace perfbench
