/**
 * @file
 * testbed-e2e: the paper's push-button flow over the 20 testbed bugs,
 * buggy and fixed, on both backends.
 *
 * One answer takes a variant from Verilog text to its verdict:
 * preprocess, parse, elaborate, the bug's monitors, LossCheck (two-phase
 * flow, data-loss bugs), SignalCat, print, re-parse, re-elaborate,
 * simulator build, backend install, the trigger workload, the log drain
 * and the synth overhead estimate. A static verdict (lint + analyze)
 * runs on each elaborated variant apart from the answers.
 *
 * References, computed apart from the code under test: the Table 2
 * symptom matrix and the §6.3 LossCheck outcome (both data in the
 * testbed catalogue), the floors bench/lint_effectiveness and
 * bench/analyze_effectiveness enforce, the other backend's answer, and
 * the first round's answers.
 */

#include <set>

#include "bench.hh"
#include "bugbase/designs.hh"
#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "common/logging.hh"
#include "core/dep_monitor.hh"
#include "core/fsm_monitor.hh"
#include "core/losscheck.hh"
#include "core/signalcat.hh"
#include "core/stats_monitor.hh"
#include "hdl/parser.hh"
#include "hdl/preproc.hh"
#include "hdl/printer.hh"
#include "sim/simulator.hh"
#include "synth/resources.hh"

namespace perfbench
{

using namespace hwdbg;

namespace
{

using LogLines = std::vector<sim::EvalContext::LogLine>;

struct Variant
{
    const bugs::TestbedBug *bug = nullptr;
    bool buggy = true;
    std::map<std::string, std::string> defines;
    std::string file;
    /** Elaborated once at set-up: the static verdict's input. */
    hdl::ModulePtr elaborated;
};

/** Everything an answer produces that a check looks at. */
struct Outcome
{
    bugs::WorkloadResult result;
    LogLines log;
    std::vector<Bits> values;
    std::vector<std::vector<Bits>> arrays;
    uint64_t cycle = 0;
    std::set<std::string> lossReported;
    double overheadRegs = 0;
    double overheadLogic = 0;
    double overheadBram = 0;
    /** Cycles simulated by every deployment of the answer. */
    uint64_t simulated = 0;
};

bool
sameOutcome(const Outcome &a, const Outcome &b)
{
    return a.result.observed == b.result.observed &&
           a.result.passed == b.result.passed &&
           a.result.inputsAccepted == b.result.inputsAccepted &&
           a.result.outputsProduced == b.result.outputsProduced &&
           a.result.detail == b.result.detail && sameLog(a.log, b.log) &&
           a.values == b.values && a.arrays == b.arrays &&
           a.cycle == b.cycle && a.lossReported == b.lossReported &&
           a.overheadRegs == b.overheadRegs &&
           a.overheadLogic == b.overheadLogic &&
           a.overheadBram == b.overheadBram;
}

const char *const kWorkloadSpan[] = {"interp.bugbase.workload",
                                     "bytecode.bugbase.workload"};
const char *const kDrainSpan[] = {"interp.sim.log_drain",
                                  "bytecode.sim.log_drain"};

/** FSM, Statistics and Dependency monitors configured for the bug. */
hdl::ModulePtr
applyMonitors(const bugs::TestbedBug &bug, hdl::ModulePtr mod, int *lines)
{
    if (bug.monitors.fsm) {
        auto res = core::applyFsmMonitor(*mod);
        *lines += res.generatedLines;
        mod = res.module;
    }
    if (!bug.monitors.statEvents.empty()) {
        core::StatsMonitorOptions opts;
        for (const auto &[name, signal] : bug.monitors.statEvents)
            opts.events.push_back(
                core::StatsEvent{name, hdl::parseExprText(signal)});
        auto res = core::applyStatsMonitor(*mod, opts);
        *lines += res.generatedLines;
        mod = res.module;
    }
    if (!bug.monitors.depVariable.empty()) {
        core::DepMonitorOptions opts;
        opts.variable = bug.monitors.depVariable;
        opts.cycles = bug.monitors.depCycles;
        auto res = core::applyDepMonitor(*mod, opts);
        *lines += res.generatedLines;
        mod = res.module;
    }
    return mod;
}

class TestbedWorkload : public Workload
{
  public:
    void setup() override
    {
        variants_.clear();
        for (const auto &bug : bugs::testbedBugs()) {
            for (bool buggy : {true, false}) {
                Variant v;
                v.bug = &bug;
                v.buggy = buggy;
                if (buggy)
                    v.defines[bug.bugDefine] = "";
                v.file = bug.designName + ".v";
                hdl::Design design = hdl::parseWithDefines(
                    bugs::designSource(bug.designName), v.defines, v.file);
                v.elaborated =
                    elab::elaborate(design, bug.designName).mod;
                variants_.push_back(std::move(v));
            }
        }
        reference_.assign(variants_.size(), Outcome{});
        staticRef_.assign(variants_.size(), {});
    }

    void round(Run &run) override
    {
        Rng rng = run.roundRng(0x7E57BEDULL);
        std::vector<size_t> order = rng.order(variants_.size());

        // Per-round tallies behind the paper-level checks.
        int localized[kBackends] = {0, 0}, extras[kBackends] = {0, 0};
        bool d11Hidden[kBackends] = {false, false};
        std::map<std::string, std::set<std::string>> lint[2], analyze[2];

        for (size_t idx : order) {
            const Variant &v = variants_[idx];
            const bugs::TestbedBug &bug = *v.bug;
            std::string label = bug.id + (v.buggy ? ":buggy" : ":fixed");
            Outcome out[kBackends];
            int first = int(rng.below(2));
            for (int k = 0; k < kBackends; ++k) {
                int b = first ^ k;
                tracer().beginGroup(label + ":" + backendName(b));
                auto t0 = Clock::now();
                out[b] = answer(v, b);
                double ms = msSince(t0);
                run.answer(b, label, ms, double(out[b].simulated));
                run.command(ms * 1e3);
            }

            for (int b = 0; b < kBackends; ++b) {
                const Outcome &o = out[b];
                std::string who = label + " on " + backendName(b);
                if (v.buggy)
                    run.check(!o.result.passed &&
                                  o.result.observed == bug.symptoms,
                              who + ": symptoms differ from Table 2");
                else
                    run.check(o.result.passed,
                              who + ": fixed variant fails its workload");
                if (bug.lossCheck && v.buggy) {
                    if (bug.expectedLossSite.empty()) {
                        d11Hidden[b] = o.lossReported.empty();
                    } else if (o.lossReported.count(bug.expectedLossSite)) {
                        ++localized[b];
                        extras[b] += int(o.lossReported.size()) - 1;
                    }
                }
            }
            run.check(sameOutcome(out[Interp], out[Bytecode]),
                      label + ": interpreter and bytecode disagree");
            if (run.round == 0)
                reference_[idx] = out[Interp];
            else
                run.check(sameOutcome(reference_[idx], out[Interp]),
                          label + ": answer changed between rounds");

            auto verdict = staticVerdict(run, *v.elaborated, label);
            for (const auto &rule : verdict) {
                bool fromLint = rule.rfind("lint:", 0) == 0;
                (fromLint ? lint : analyze)[v.buggy][bug.id].insert(rule);
            }
            if (run.round == 0)
                staticRef_[idx] = verdict;
            else
                run.check(staticRef_[idx] == verdict,
                          label + ": static verdict changed between rounds");
        }

        for (int b = 0; b < kBackends; ++b)
            run.check(localized[b] == 6 && extras[b] == 1 && d11Hidden[b],
                      csprintf("LossCheck on %s: %d/7 localized, %d false "
                               "positive(s), D11 %s (expected 6, 1, "
                               "hidden)",
                               backendName(b), localized[b], extras[b],
                               d11Hidden[b] ? "hidden" : "reported"));
        int lintFound = 0, anaFound = 0, lintFixedOnly = 0,
            anaFixedOnly = 0;
        for (const auto &bug : bugs::testbedBugs()) {
            auto tally = [&](auto &rules, int *found, int *fixedOnly) {
                const auto &buggy = rules[1][bug.id];
                const auto &fixed = rules[0][bug.id];
                bool detected = false;
                for (const auto &r : buggy)
                    detected |= !fixed.count(r);
                for (const auto &r : fixed)
                    *fixedOnly += !buggy.count(r);
                *found += detected;
            };
            tally(lint, &lintFound, &lintFixedOnly);
            tally(analyze, &anaFound, &anaFixedOnly);
        }
        run.check(lintFound >= 5 && lintFixedOnly == 0,
                  csprintf("lint detects %d/20 buggy-only (floor 5), %d "
                           "fixed-only rule(s)",
                           lintFound, lintFixedOnly));
        run.check(anaFound >= 4 && anaFixedOnly == 0,
                  csprintf("analyze detects %d/20 buggy-only (floor 4), "
                           "%d fixed-only rule(s)",
                           anaFound, anaFixedOnly));
    }

  private:
    Outcome answer(const Variant &v, int backend)
    {
        const bugs::TestbedBug &bug = *v.bug;
        Scope answerSpan("testbed.answer");
        std::string text;
        {
            Scope span("hdl.preprocess");
            text = hdl::preprocess(bugs::designSource(bug.designName),
                                   v.defines, v.file);
        }
        hdl::Design design;
        {
            Scope span("hdl.parse");
            design = hdl::parse(text, v.file);
        }
        hdl::ModulePtr base;
        {
            Scope span("elab.elaborate");
            base = elab::elaborate(design, bug.designName).mod;
        }
        int lines = 0;
        hdl::ModulePtr monitored;
        {
            Scope span("core.instrument");
            monitored = applyMonitors(bug, base, &lines);
        }

        Outcome out;
        hdl::ModulePtr deployed;
        // One deployment: SignalCat, the round trip through the code
        // generator, a fresh simulator on the chosen backend, a
        // workload and the reconstructed log.
        auto deploy = [&](hdl::ModulePtr mod, bool groundTruth) {
            core::SignalCatResult cat;
            {
                Scope span("core.instrument");
                cat = core::applySignalCat(*mod);
            }
            std::string printed;
            {
                Scope span("hdl.print");
                printed = hdl::printModule(*cat.module);
            }
            hdl::Design round;
            {
                Scope span("hdl.parse");
                round = hdl::parse(printed, v.file);
            }
            hdl::ModulePtr flat;
            {
                Scope span("elab.elaborate");
                flat = elab::elaborate(round, round.modules[0]->name).mod;
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
            bugs::WorkloadResult result;
            {
                Scope span(kWorkloadSpan[backend]);
                if (groundTruth)
                    bugs::driveGroundTruth(bug, *sim);
                else
                    result = bugs::runWorkload(bug, *sim);
            }
            LogLines log;
            {
                Scope span(kDrainSpan[backend]);
                auto *rec = dynamic_cast<sim::SignalRecorder *>(
                    sim->primitive(cat.plan.recorderInstance));
                if (rec)
                    log = core::reconstructLog(*rec, cat.plan);
                const auto &plain = sim->log();
                log.insert(log.end(), plain.begin(), plain.end());
            }
            tracer().count("sim.cycles", double(sim->cycle()));
            out.simulated += sim->cycle();
            tracer().count("sim.log_lines", double(log.size()));
            if (!groundTruth) {
                lines += cat.generatedLines;
                out.result = result;
                out.log = log;
                out.values = sim->context().values;
                out.arrays = sim->context().arrays;
                out.cycle = sim->cycle();
                deployed = cat.module;
            }
            return log;
        };

        if (bug.lossCheck) {
            Scope span("core.losscheck");
            auto report = core::runLossCheck(
                *monitored, *bug.lossCheck,
                [&](hdl::ModulePtr m) { return deploy(m, true); },
                [&](hdl::ModulePtr m) { return deploy(m, false); });
            out.lossReported = report.reported;
            lines += report.generatedLines;
        } else {
            deploy(monitored, false);
        }
        tracer().count("core.generated_lines", double(lines));

        {
            Scope span("synth.estimate");
            auto over = synth::estimateResources(*deployed)
                            .overheadVs(synth::estimateResources(*base));
            out.overheadRegs = double(over.registers);
            out.overheadLogic = double(over.logic);
            out.overheadBram = over.bramBits;
        }
        return out;
    }

    std::vector<Variant> variants_;
    std::vector<Outcome> reference_;
    std::vector<std::vector<std::string>> staticRef_;
};

} // namespace

std::unique_ptr<Workload>
makeTestbedWorkload()
{
    return std::make_unique<TestbedWorkload>();
}

} // namespace perfbench
