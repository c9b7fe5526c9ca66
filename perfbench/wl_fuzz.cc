/**
 * @file
 * fuzz-campaign: a single-threaded seeded campaign over small generated
 * designs with all seven oracles.
 *
 * The only workload where the fuzz layer (generator, RefEval, oracles)
 * does most of the work; it also lowers hundreds of tiny designs where
 * testbed-e2e lowers medium ones. One answer is one seed through every
 * oracle, with the campaign's simulators on the answer's backend (the
 * xbackend and xtrace oracles always run both); one user command is one
 * oracle on one seed, as `hwdbg fuzz --oracle` runs it.
 *
 * Reference: the oracles themselves, each an independent model or a
 * metamorphic relation; a correct program shows zero failures.
 */

#include "bench.hh"
#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracles.hh"

namespace perfbench
{

using namespace hwdbg;

namespace
{

/**
 * The campaign: seeds 1-24 under the default options, each seed's
 * stimulus seeded by the seed itself, as the `hwdbg fuzz` runner does.
 * Per-design cost through the oracles is heavy-tailed (seeds 91 and
 * 103 take about two seconds, most take 10-40 ms), so a window of seeds
 * drawn per run made the median move by a fifth from one run to the
 * next, and fresh stimulus every round still moved it by a tenth. The
 * campaign is fixed instead; --seed draws the order of the seeds and
 * which backend answers each first.
 */
constexpr uint64_t kWindow = 24;
/** Stimulus cycles per oracle: the campaign default of `hwdbg fuzz`. */
constexpr uint32_t kCycles = 24;

class FuzzWorkload : public Workload
{
  public:
    /**
     * Campaign set-up: the generator's designs for the window, and two
     * warm-up seeds through every oracle on both backends so lazily
     * built tables (lint rules, analyze passes, IP models) are not
     * charged to the first answers.
     */
    void setup() override
    {
        std::vector<fuzz::Failure> failures;
        for (uint64_t s : {1, 2})
            for (int b = 0; b < kBackends; ++b)
                runSeed(s, s, b, &failures, nullptr);
    }

    void round(Run &run) override
    {
        Rng rng = run.roundRng(0xF022ULL);
        for (size_t index : rng.order(kWindow)) {
            uint64_t design = index + 1;
            int first = int(rng.below(2));
            fuzz::GeneratedDesign gd;
            for (int k = 0; k < kBackends; ++k) {
                int b = first ^ k;
                std::string name = csprintf(
                    "seed%llu", (unsigned long long)design);
                std::string label = name + ":" + backendName(b);
                tracer().beginGroup(label);
                std::vector<fuzz::Failure> failures;
                auto t0 = Clock::now();
                gd = runSeed(design, design, b, &failures, &run);
                run.answer(b, name, msSince(t0), double(kCycles));
                for (const auto &f : failures)
                    run.check(false, label + ": oracle " +
                                         fuzz::oracleName(f.oracle) + ": " +
                                         f.detail);
            }

            staticVerdict(run, *elab::elaborate(gd.design, gd.top).mod,
                          csprintf("seed%llu", (unsigned long long)design));
        }
    }

    void finish(Run &run) override
    {
        // Each seed is answered once per backend.
        double seconds = (run.answerSumMs[0] + run.answerSumMs[1]) / 1e3;
        double seeds = double(run.answerMs[Interp].size());
        run.figures.push_back({"seeds_per_s", seeds / seconds, "seeds/s"});
    }

  private:
    /** One seed through every oracle; each oracle is one command. */
    fuzz::GeneratedDesign runSeed(uint64_t design, uint64_t s, int backend,
                                  std::vector<fuzz::Failure> *failures,
                                  Run *run)
    {
        Scope answerSpan("fuzz.answer");
        fuzz::GeneratedDesign gd;
        {
            Scope span("fuzz.generate");
            gd = fuzz::generateDesign(design);
        }
        auto factory = backendFactory(backend);
        auto oracle = [&](const char *span, fuzz::Oracle which,
                          auto &&call) {
            Scope scope(span);
            auto t0 = Clock::now();
            try {
                if (auto f = call())
                    failures->push_back(*f);
            } catch (const std::exception &e) {
                failures->push_back(fuzz::Failure{which, e.what()});
            }
            if (run)
                run->command(msSince(t0) * 1e3);
        };
        using fuzz::Oracle;
        oracle("fuzz.roundtrip", Oracle::Roundtrip,
               [&] { return fuzz::runRoundtrip(gd); });
        oracle("fuzz.differential", Oracle::Differential, [&] {
            return fuzz::runDifferential(gd, s, kCycles, factory);
        });
        oracle("fuzz.lint", Oracle::Lint,
               [&] { return fuzz::runLintMeta(gd, s); });
        oracle("fuzz.instrument", Oracle::Instrument, [&] {
            return fuzz::runInstrument(gd, s, kCycles, factory);
        });
        oracle("fuzz.order", Oracle::Order, [&] {
            return fuzz::runOrder(gd, s, kCycles, nullptr, factory);
        });
        oracle("fuzz.xbackend", Oracle::Xbackend,
               [&] { return fuzz::runXbackend(gd, s, kCycles); });
        oracle("fuzz.xtrace", Oracle::Xtrace,
               [&] { return fuzz::runXtrace(gd, s, kCycles); });
        return gd;
    }
};

} // namespace

std::unique_ptr<Workload>
makeFuzzWorkload()
{
    return std::make_unique<FuzzWorkload>();
}

} // namespace perfbench
