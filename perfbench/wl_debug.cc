/**
 * @file
 * debug-travel: one closed-loop client of an in-process serve::Server.
 *
 * The client hands one request line to the server's JSON-lines channel
 * and waits for the response line before it sends the next, so a slow
 * server receives less load. Every round builds a fresh server, then on
 * each design and backend opens a session cold (the design cache
 * builds) and again warm (it hits), and sends a seeded script of moves
 * (step, goto-cycle both ways, reverse-step, run), breakpoint edits
 * (break, watch, delete), inspection (print, backtrace, events, log),
 * capture (record start/stop) and coverage queries. Each move is
 * followed by a `print` of a fixed signal set, which the client checks
 * against a straight-line replay of the same tape prefix in a fresh
 * simulator. Time travel therefore runs as many restores and short
 * replays; checkpoint saves, snapshot interning and recording sit
 * beside the reads.
 *
 * One answer is one scripted session, from its open to its close: the
 * server's time for the open, the script and the close, without the
 * check prints. Each script command is also one user command.
 *
 * Two operations fail today because of faults in the program, and the
 * client attempts each once per backend in every round, counting it as
 * failed until the program is mended:
 *  - `goto-cycle 18446744073709551617` wraps to 1 and returns ok,
 *    where `budget=` rejects the same text;
 *  - `open debug bug=ID stimulus=FILE` replays the bug's own tape and
 *    silently ignores the file.
 */

#include <filesystem>
#include <fstream>
#include <functional>
#include <streambuf>

#include "bench.hh"
#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "common/logging.hh"
#include "elab/elaborate.hh"
#include "fuzz/generator.hh"
#include "hdl/parser.hh"
#include "hdl/printer.hh"
#include "obs/jsoncheck.hh"
#include "serve/server.hh"
#include "serve/stats.hh"
#include "sim/eval.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using namespace hwdbg;

namespace
{

/**
 * Testbed bugs opened by bug id; D1 also takes the stimulus= probe.
 * D3, D4 and D7 are the bugs of the recorded sessions the script
 * follows. Eight bugs to two generated designs put the slowest fifth of
 * sessions, where answer_ms.p95 sits, on the generated designs' long
 * tapes, with about 200 sessions per backend in a 20 s run.
 */
const char *const kBugs[] = {"D1", "D3", "D4", "D7", "D11", "C1", "C3", "S1"};
/** Generator seeds (default options) opened from files with long
 *  seeded stimulus; both print $display lines for `log`. */
const uint64_t kGenerated[] = {10, 12};
constexpr uint32_t kGeneratedCycles = 2000;
/** Script commands per session; each move is followed by a check. */
constexpr int kCommands = 22;
/** 2^64 + 1: must be rejected, as `budget=` rejects it. */
const char *const kOverflowCycle = "18446744073709551617";

struct Target
{
    std::string label;
    /** `open debug ...` arguments after the kind and before backend=. */
    std::string openArgs;
    /** Signals the check print concatenates. */
    std::string probe;
    std::vector<std::string> signals;
    std::string reg;
    sim::StimulusTape tape;
    /** Hex of the probe after each tape prefix, index = position. */
    std::vector<std::string> trajectory;
    uint64_t lastCycle = 0;
    hdl::ModulePtr elaborated;
};

/** The server's input: each refill asks the client for a request. */
class RequestBuf : public std::streambuf
{
  public:
    explicit RequestBuf(std::function<bool(std::string &)> next)
        : next_(std::move(next))
    {
    }

  protected:
    int_type underflow() override
    {
        if (!next_(line_))
            return traits_type::eof();
        line_ += '\n';
        setg(line_.data(), line_.data(), line_.data() + line_.size());
        return traits_type::to_int_type(line_[0]);
    }

  private:
    std::function<bool(std::string &)> next_;
    std::string line_;
};

/** The server's output: a response is complete at its newline. */
class ReplyBuf : public std::streambuf
{
  public:
    std::string line;
    bool complete = false;
    Clock::time_point at;

  protected:
    int_type overflow(int_type c) override
    {
        if (c != traits_type::eof())
            put(char(c));
        return c;
    }
    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            put(s[i]);
        return n;
    }

  private:
    void put(char c)
    {
        if (complete) {
            line.clear();
            complete = false;
        }
        if (c == '\n') {
            at = Clock::now();
            complete = true;
        } else {
            line += c;
        }
    }
};

std::string
stripSession(const std::string &line)
{
    // Routed responses begin {"session":N, — ids differ per backend.
    size_t comma = line.find(',');
    return comma == std::string::npos ? line : "{" + line.substr(comma + 1);
}

class DebugWorkload : public Workload
{
  public:
    DebugWorkload(uint64_t seed, std::string workDir)
        : seed_(seed), dir_(std::move(workDir))
    {
    }
    ~DebugWorkload() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    void setup() override
    {
        std::filesystem::create_directories(dir_);
        targets_.clear();
        for (const char *id : kBugs)
            targets_.push_back(bugTarget(bugs::bugById(id)));
        Rng stimulus(seed_ * 0x9E3779B97F4A7C15ULL + 0xDEB06ULL);
        for (uint64_t genSeed : kGenerated)
            targets_.push_back(generatedTarget(genSeed, stimulus.next()));
        foreignPath_ = dir_ + "/foreign.stim";
        writeText(foreignPath_, "-\n-\n-\n-\n");
        staticRef_.assign(targets_.size(), {});
    }

    void round(Run &run) override;

    void finish(Run &run) override
    {
        run.figures.push_back(
            {"open_cold_ms.p50", quantile(openMs_[0], 0.5), "ms"});
        run.figures.push_back(
            {"open_warm_ms.p50", quantile(openMs_[1], 0.5), "ms"});
    }

  private:
    static void writeText(const std::string &path, const std::string &text)
    {
        std::ofstream out(path);
        out << text;
        if (!out)
            fatal("perfbench: cannot write %s", path.c_str());
    }

    /** Probe signals: up to three outputs, and a register to trace. */
    static void pickSignals(Target &t, const sim::Simulator &sim)
    {
        const auto &design = sim.design();
        for (size_t id = 0; id < design.numSignals(); ++id) {
            const auto &info = design.info(int(id));
            if (info.arraySize)
                continue;
            if (info.dir == hdl::PortDir::Output && t.signals.size() < 3)
                t.signals.push_back(info.name);
            if (info.isReg && t.reg.empty())
                t.reg = info.name;
        }
        t.probe = "{";
        for (size_t i = 0; i < t.signals.size(); ++i)
            t.probe += (i ? "," : "") + t.signals[i];
        t.probe += "}";
    }

    /** Straight-line replay of the whole tape, probing every prefix. */
    static void replay(Target &t, hdl::ModulePtr flat)
    {
        sim::Simulator sim(flat);
        pickSignals(t, sim);
        hdl::ExprPtr probe = hdl::parseExprText(t.probe);
        sim.design().annotateExpr(probe);
        t.trajectory.clear();
        t.trajectory.push_back(
            sim::evalExpr(probe, sim.context()).toVerilog());
        for (const auto &step : t.tape.steps) {
            sim.applyStep(step);
            t.trajectory.push_back(
                sim::evalExpr(probe, sim.context()).toVerilog());
        }
        t.lastCycle = sim.cycle();
    }

    Target bugTarget(const bugs::TestbedBug &bug)
    {
        Target t;
        t.label = bug.id;
        t.openArgs = "bug=" + bug.id;
        t.elaborated = bugs::buildDesign(bug, true).mod;
        {
            sim::Simulator recorder(hdl::cloneModule(*t.elaborated));
            recorder.recordStimulus(&t.tape);
            bugs::runWorkload(bug, recorder);
            recorder.recordStimulus(nullptr);
        }
        replay(t, hdl::cloneModule(*t.elaborated));
        return t;
    }

    Target generatedTarget(uint64_t genSeed, uint64_t stimSeed)
    {
        Target t;
        t.label = csprintf("gen%llu", (unsigned long long)genSeed);
        auto gd = fuzz::generateDesign(genSeed);
        std::string text = hdl::printDesign(gd.design);
        std::string vpath = dir_ + "/" + t.label + ".v";
        std::string spath = dir_ + "/" + t.label + ".stim";
        writeText(vpath, text);
        // Two steps per cycle: data (and reset) with clk low, then the
        // rising edge, exactly as the stimulus file replays them.
        Rng rng(stimSeed);
        std::string stim;
        for (uint32_t c = 0; c < kGeneratedCycles; ++c) {
            sim::StimulusStep low, high;
            if (gd.hasRst)
                low.pokes.emplace_back("rst", Bits(1, c < 2 ? 1 : 0));
            for (const auto &port : gd.inputs)
                low.pokes.emplace_back(port.name,
                                       Bits(port.width, rng.next()));
            low.pokes.emplace_back("clk", Bits(1, 0));
            high.pokes.emplace_back("clk", Bits(1, 1));
            for (const auto *step : {&low, &high}) {
                std::string line;
                for (const auto &[name, value] : step->pokes)
                    line += (line.empty() ? "" : " ") + name + "=" +
                            value.toVerilog();
                stim += line + "\n";
                t.tape.steps.push_back(*step);
            }
        }
        writeText(spath, stim);
        t.openArgs = "file=" + vpath + " top=" + gd.top + " stimulus=" +
                     spath;
        hdl::Design design = hdl::parse(text, vpath);
        t.elaborated = elab::elaborate(design, gd.top).mod;
        replay(t, hdl::cloneModule(*t.elaborated));
        return t;
    }

    uint64_t seed_;
    std::string dir_;
    std::string foreignPath_;
    std::vector<Target> targets_;
    std::vector<std::vector<std::string>> staticRef_;
    /** Open latencies of scripted sessions, cold and warm. */
    std::vector<double> openMs_[2];
};

/**
 * One round's client: a plan of sessions, each a list of requests
 * produced one at a time from the replies seen so far.
 */
class Client
{
  public:
    struct SessionPlan
    {
        const Target *target = nullptr;
        size_t targetIndex = 0;
        int backend = Interp;
        bool warm = false;
        /** Probe the goto-cycle overflow right after opening. */
        bool overflowProbe = false;
        /** The stimulus= probe instead of a scripted session. */
        bool stimulusProbe = false;
        uint64_t scriptSeed = 0;
    };

    Client(serve::Server &server, Run &run, std::vector<SessionPlan> plan,
           const std::string &foreignPath, std::vector<double> *openMs)
        : server_(server), run_(run), plan_(std::move(plan)),
          foreign_(foreignPath), openMs_(openMs)
    {
    }

    /** Scrubbed routed replies per (target, warm, backend). */
    std::map<std::tuple<size_t, bool, int>, std::vector<std::string>>
        transcripts;

    /** Called by the channel for each request; false ends it. */
    bool next(const ReplyBuf &reply, std::string &request)
    {
        if (awaiting_) {
            handleReply(reply);
            awaiting_ = false;
        }
        if (!produce(request))
            return false;
        awaiting_ = true;
        sentAt_ = Clock::now();
        span_ = tracer().open(spanName_);
        return true;
    }

  private:
    enum class Stage
    {
        Open,
        Overflow,
        Script,
        Close,
        Done
    };
    /** What the request awaiting its reply was. */
    enum class Kind
    {
        Open,
        Overflow,
        Command,
        Check,
        Close
    };

    const SessionPlan &cur() const { return plan_[planIdx_]; }

    debug::Engine *engine()
    {
        auto sess = server_.sessions().find(sid_);
        return sess ? sess->engine.get() : nullptr;
    }

    bool produce(std::string &request)
    {
        while (planIdx_ < plan_.size()) {
            const SessionPlan &p = cur();
            const char *backend = backendName(p.backend);
            switch (stage_) {
              case Stage::Open:
                kind_ = Kind::Open;
                spanName_ = p.warm ? "serve.open_warm" : "serve.open_cold";
                if (p.stimulusProbe)
                    request = std::string("open debug bug=D1 stimulus=") +
                              foreign_ + " backend=" + backend;
                else
                    request = "open debug " + p.target->openArgs +
                              " backend=" + backend;
                rng_ = Rng(p.scriptSeed);
                slot_ = 0;
                checkPending_ = false;
                cycle_ = 0;
                sessionMs_ = 0;
                sessionCycles_ = 0;
                stage_ = p.stimulusProbe   ? Stage::Close
                         : p.overflowProbe ? Stage::Overflow
                                           : Stage::Script;
                tracer().beginGroup(p.target->label + ":" + backend +
                                    (p.warm ? ":warm" : ":cold"));
                return true;
              case Stage::Overflow:
                kind_ = Kind::Overflow;
                spanName_ = travelSpan();
                request = "@" + std::to_string(sid_) + " goto-cycle " +
                          kOverflowCycle;
                stage_ = Stage::Script;
                return true;
              case Stage::Script: // the script, a check after each move
                if (checkPending_) {
                    checkPending_ = false;
                    kind_ = Kind::Check;
                    spanName_ = "debug.inspect";
                    request = "@" + std::to_string(sid_) + " print " +
                              p.target->probe;
                    return true;
                }
                if (slot_ == kCommands) {
                    stage_ = Stage::Close;
                    continue;
                }
                kind_ = Kind::Command;
                request = "@" + std::to_string(sid_) + " " +
                          scriptCommand(*p.target);
                ++slot_;
                return true;
              case Stage::Close:
                if (sid_ <= 0) {
                    // The probe open was refused (the fault is mended):
                    // nothing to close, keep the operation count.
                    kind_ = Kind::Close;
                    spanName_ = "serve.close";
                    request = "health";
                    stage_ = Stage::Done;
                    return true;
                }
                if (auto *eng = engine()) {
                    tracer().count("debug.checkpoint_bytes",
                                   double(eng->checkpoints().totalBytes()));
                    tracer().count("debug.sessions", 1);
                }
                kind_ = Kind::Close;
                spanName_ = "serve.close";
                request = "close " + std::to_string(sid_);
                stage_ = Stage::Done;
                return true;
              case Stage::Done:
                ++planIdx_;
                stage_ = Stage::Open;
                sid_ = 0;
                continue;
            }
        }
        return false;
    }

    const char *travelSpan() const
    {
        return cur().backend == Bytecode ? "bytecode.debug.travel"
                                         : "interp.debug.travel";
    }

    /**
     * The session's next command. The script follows the sessions
     * recorded in tests/debug/scripts (d3, d4, d7): set a breakpoint,
     * run to it, backtrace, travel a few cycles back, print, move on,
     * list events, clear the breakpoint. It adds what they leave out:
     * `watch`, `log`, `record` and `cover`, and, after a run to the end
     * of the tape, a bisection of the explored tape towards its start,
     * as when every probe still shows the fault: `goto-cycle` to the
     * middle of the window, `print`, and `goto-cycle` back to the end,
     * as d3 goes back and runs on to its stop again. The bisection is
     * an assumption, not a recorded session: its returns are the long
     * forward travels inside the explored tape, and they set the
     * goto-cycle tail.
     */
    std::string scriptCommand(const Target &t)
    {
        move_ = travel_ = goto_ = setsBreak_ = false;
        const std::string &sig = t.signals[rng_.below(t.signals.size())];
        auto travel = [&](std::string cmd) {
            spanName_ = travelSpan();
            move_ = travel_ = true;
            goto_ = cmd.rfind("goto-cycle", 0) == 0;
            return cmd;
        };
        auto gotoCycle = [&](uint64_t cycle) {
            return travel("goto-cycle " + std::to_string(cycle));
        };
        spanName_ = "debug.inspect";
        switch (slot_) {
          case 0:
          case 20:
            spanName_ = "trace.record";
            return slot_ == 0 ? "record start" : "record stop";
          case 1:
            spanName_ = "debug.edit";
            setsBreak_ = true;
            return rng_.below(2) ? "watch " + sig : "break " + sig + " == 0";
          case 2:
            return travel("run");
          case 3:
            return t.reg.empty() ? "print " + sig
                                 : "backtrace " + t.reg + " 3";
          case 4: { // a few cycles back, as the recorded sessions do
            uint64_t back = 1 + rng_.below(16);
            if (rng_.below(2))
                return travel("reverse-step " + std::to_string(back));
            return gotoCycle(cycle_ > back ? cycle_ - back : 0);
          }
          case 5:
          case 12:
          case 15:
          case 18:
            return "print " + sig;
          case 6:
            if (rng_.below(2))
                return travel("run");
            spanName_ = cur().backend == Bytecode ? "bytecode.debug.step"
                                                  : "interp.debug.step";
            move_ = true;
            return "step";
          case 7:
            return "events";
          case 8:
            spanName_ = "debug.edit";
            return "delete " + std::to_string(breakId_);
          case 9: // no breakpoint left: to the end of the tape
            return travel("run");
          case 10:
            end_ = cycle_;
            return "log 10";
          case 11: // the middle of [0, end), then of [0, end/2), ...
          case 14:
          case 17:
            return gotoCycle(end_ >> ((slot_ - 11) / 3 + 1));
          case 21:
            spanName_ = "cover.query";
            return "cover";
          default: // slots 13, 16, 19: back to the end
            return gotoCycle(end_);
        }
    }

    void handleReply(const ReplyBuf &reply)
    {
        tracer().close(span_);
        double us = std::chrono::duration<double, std::micro>(reply.at -
                                                              sentAt_)
                        .count();
        std::string error;
        auto json = obs::parseJson(reply.line, &error);
        const obs::JsonValue *ok = json ? json->get("ok") : nullptr;
        bool okFlag = ok && ok->boolean;
        const obs::JsonValue *payload = json ? json->get("payload")
                                             : nullptr;
        const SessionPlan &p = cur();
        std::string who = p.target->label + " on " + backendName(p.backend);

        if (kind_ == Kind::Open) {
            const obs::JsonValue *sess =
                payload ? payload->get("session") : nullptr;
            const obs::JsonValue *steps =
                payload ? payload->get("steps") : nullptr;
            const obs::JsonValue *cache =
                payload ? payload->get("cache") : nullptr;
            sid_ = okFlag && sess ? int64_t(sess->number) : 0;
            if (p.stimulusProbe) {
                // The file has 4 steps; a session replaying anything
                // else ignored stimulus=.
                if (okFlag && steps && steps->number != 4)
                    run_.failedOp("open debug bug=D1 stimulus=FILE ignores "
                                  "the file");
                else
                    ++run_.attempted;
                return;
            }
            ++run_.attempted;
            run_.check(okFlag, who + ": open failed: " + reply.line);
            run_.check(steps && uint64_t(steps->number) ==
                                    p.target->tape.steps.size(),
                       who + ": session tape differs from the reference");
            run_.check(cache && cache->text == (p.warm ? "hit" : "miss"),
                       who + ": expected a " +
                           (p.warm ? "warm" : "cold") + " open");
            sessionMs_ = us / 1e3;
            openMs_[p.warm].push_back(us / 1e3);
            positionBefore_ = 0;
            replayedBefore_ = 0;
            return;
        }
        if (kind_ == Kind::Close) {
            run_.check(okFlag, who + ": close failed: " + reply.line);
            // A scripted session is one answer: the server's time for
            // its open, commands and close (check prints left out).
            if (p.stimulusProbe)
                ++run_.attempted;
            else
                run_.answer(p.backend, p.target->label,
                            sessionMs_ + us / 1e3, double(sessionCycles_));
            return;
        }

        transcripts[{p.targetIndex, p.warm, p.backend}].push_back(
            stripSession(serve::scrubServeTimings(reply.line)));
        const obs::JsonValue *state = json ? json->get("state") : nullptr;
        const obs::JsonValue *step = state ? state->get("step") : nullptr;
        const obs::JsonValue *cyc = state ? state->get("cycle") : nullptr;
        uint64_t pos = step ? uint64_t(step->number) : 0;
        uint64_t cycle = cyc ? uint64_t(cyc->number) : 0;

        if (kind_ == Kind::Overflow) {
            if (okFlag)
                run_.failedOp("goto-cycle 18446744073709551617 wraps and "
                              "returns ok");
            else
                ++run_.attempted;
        } else if (kind_ == Kind::Check) {
            // The probe must read what a straight-line replay of the
            // same tape prefix reads.
            ++run_.attempted;
            const obs::JsonValue *hex = payload ? payload->get("hex")
                                                : nullptr;
            const auto &traj = p.target->trajectory;
            run_.check(hex && pos < traj.size() && hex->text == traj[pos],
                       who + csprintf(": state at step %llu differs from a "
                                      "straight-line replay",
                                      (unsigned long long)pos));
        } else {
            ++run_.attempted;
            run_.check(okFlag, who + ": command failed: " + reply.line);
            run_.command(us);
            sessionMs_ += us / 1e3;
            const obs::JsonValue *id = payload ? payload->get("id")
                                               : nullptr;
            if (setsBreak_ && id)
                breakId_ = uint64_t(id->number);
            if (move_) {
                sessionCycles_ += cycle > cycle_ ? cycle - cycle_
                                                 : cycle_ - cycle;
                checkPending_ = true;
            }
            if (travel_) {
                if (auto *eng = engine()) {
                    // A restore replays from a checkpoint to the target;
                    // otherwise the travel stepped forward. (A restore
                    // that lands on a checkpoint replays nothing and is
                    // counted as its forward distance.)
                    double replayed =
                        double(eng->replayedSteps() - replayedBefore_);
                    double steps =
                        replayed > 0         ? replayed
                        : pos > positionBefore_ ? double(pos - positionBefore_)
                                                : 0;
                    tracer().count("debug.travel_steps", steps);
                    tracer().count("debug.travels", 1);
                    if (goto_) {
                        tracer().sample("debug.goto_us", us);
                        tracer().sample("debug.goto_steps", steps);
                    }
                }
            }
        }
        cycle_ = cycle;
        positionBefore_ = pos;
        if (auto *eng = engine())
            replayedBefore_ = eng->replayedSteps();
    }

  private:
    serve::Server &server_;
    Run &run_;
    std::vector<SessionPlan> plan_;
    std::string foreign_;
    std::vector<double> *openMs_;

    size_t planIdx_ = 0;
    Stage stage_ = Stage::Open;
    int slot_ = 0;
    int64_t sid_ = 0;
    Kind kind_ = Kind::Open;
    bool awaiting_ = false;
    bool move_ = false;
    bool travel_ = false;
    bool goto_ = false;
    bool setsBreak_ = false;
    bool checkPending_ = false;
    uint64_t breakId_ = 0;
    uint64_t cycle_ = 0;
    uint64_t end_ = 0;
    double sessionMs_ = 0;
    uint64_t sessionCycles_ = 0;
    Rng rng_{0};
    Clock::time_point sentAt_;
    int32_t span_ = -1;
    const char *spanName_ = "";
    uint64_t positionBefore_ = 0;
    uint64_t replayedBefore_ = 0;
};

void
DebugWorkload::round(Run &run)
{
    // Same scripts on both backends so their transcripts must match;
    // the order of targets is seeded.
    Rng rng = run.roundRng(0x7A7E1ULL);
    std::vector<Client::SessionPlan> plan;
    for (size_t idx : rng.order(targets_.size())) {
        uint64_t cold = rng.next(), warm = rng.next();
        for (int b = 0; b < kBackends; ++b) {
            Client::SessionPlan p;
            p.target = &targets_[idx];
            p.targetIndex = idx;
            p.backend = b;
            p.scriptSeed = cold;
            p.overflowProbe = targets_[idx].label == "D1";
            plan.push_back(p);
            p.warm = true;
            p.scriptSeed = warm;
            p.overflowProbe = false;
            plan.push_back(p);
            if (targets_[idx].label == "D1") {
                p.stimulusProbe = true;
                plan.push_back(p);
            }
        }
    }

    serve::Server server;
    Client client(server, run, plan, foreignPath_, openMs_);
    ReplyBuf replies;
    RequestBuf requests(
        [&](std::string &line) { return client.next(replies, line); });
    std::istream in(&requests);
    std::ostream out(&replies);
    server.runChannel(in, out);

    for (size_t i = 0; i < targets_.size(); ++i)
        for (bool warm : {false, true})
            run.check(client.transcripts[{i, warm, Interp}] ==
                          client.transcripts[{i, warm, Bytecode}],
                      targets_[i].label + (warm ? " warm" : " cold") +
                          ": interpreter and bytecode transcripts differ");

    auto cache = server.cache().stats();
    auto snaps = server.snapshots().stats();
    tracer().count("serve.cache.builds", double(cache.builds));
    tracer().count("serve.cache.hits", double(cache.hits));
    tracer().count("serve.snapstore.unique", double(snaps.stored));
    tracer().count("serve.snapstore.interned",
                   double(snaps.stored + snaps.dedupHits));

    // The static verdict of each design the client debugged.
    for (size_t i = 0; i < targets_.size(); ++i) {
        auto verdict =
            staticVerdict(run, *targets_[i].elaborated, targets_[i].label);
        if (run.round == 0)
            staticRef_[i] = verdict;
        else
            run.check(staticRef_[i] == verdict,
                      targets_[i].label +
                          ": static verdict changed between rounds");
    }
}

} // namespace

std::unique_ptr<Workload>
makeDebugWorkload(uint64_t seed, const std::string &workDir)
{
    return std::make_unique<DebugWorkload>(seed, workDir);
}

} // namespace perfbench
