#include "debug/handler.hh"

#include <chrono>
#include <fstream>

#include "common/logging.hh"
#include "cover/snapshot.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "trace/json.hh"
#include "trace/vcd.hh"

namespace hwdbg::debug
{

namespace
{

using CmdResult = ProtocolHandler::Result;

struct CmdHelp
{
    const char *name;
    const char *usage;
    const char *summary;
};

const CmdHelp kCommands[] = {
    {"run", "run", "run until a breakpoint, $finish, or the tape ends"},
    {"step", "step [n]", "advance n clock cycles (default 1)"},
    {"run-until", "run-until <expr>",
     "run until the Verilog expression becomes true"},
    {"break",
     "break <expr> | break event <key> | "
     "break at <file>:<line> [if <expr>]",
     "breakpoint on an expression edge, a fsm:/dep:/loss: event, or a "
     "source line"},
    {"watch", "watch <expr>", "stop whenever the expression changes value"},
    {"delete", "delete <id>", "remove a breakpoint"},
    {"enable", "enable <id>", "re-arm a disabled breakpoint"},
    {"disable", "disable <id>", "keep a breakpoint but stop firing it"},
    {"info", "info breakpoints | info checkpoints",
     "list breakpoints / checkpoint + replay statistics"},
    {"print", "print <expr>",
     "evaluate an expression against current state"},
    {"backtrace", "backtrace <reg> [k]",
     "k-cycle dependency chain of a register with current values"},
    {"reverse-step", "reverse-step [n]",
     "travel n cycles backwards (default 1)"},
    {"goto-cycle", "goto-cycle <n>", "travel to an absolute cycle"},
    {"events", "events", "paper-tool events observed up to this point"},
    {"cover", "cover",
     "live coverage totals and goals newly covered since last check"},
    {"record",
     "record start [signals=G] [trigger=E] [budget=N] [pre=P] | "
     "record stop | record status | record dump <file> [vcd=F]",
     "trigger-armed signal recording over the live session"},
    {"log", "log [n]", "last n $display lines (default 10)"},
    {"help", "help [command]", "this list / one command's usage"},
    {"quit", "quit", "end the session"},
};

std::string
joinArgs(const std::vector<std::string> &args, size_t from)
{
    std::string out;
    for (size_t i = from; i < args.size(); ++i) {
        if (i > from)
            out += " ";
        out += args[i];
    }
    return out;
}

std::string
eventJson(const DebugEvent &ev)
{
    return JsonObject()
        .field("key", ev.key)
        .field("cycle", ev.cycle)
        .field("detail", ev.detail)
        .str();
}

std::string
eventHuman(const DebugEvent &ev)
{
    return csprintf("  event %s %s (cycle %llu)", ev.key.c_str(),
                    ev.detail.c_str(),
                    static_cast<unsigned long long>(ev.cycle));
}

CmdResult
renderStop(Engine &engine, const Engine::StopInfo &stop)
{
    CmdResult res;

    JsonObject payload;
    payload.field("stop", std::string(stopReasonName(stop.reason)));
    std::vector<std::string> bps;
    for (int id : stop.breakpoints)
        bps.push_back(std::to_string(id));
    payload.raw("breakpoints", jsonArray(bps));
    std::vector<std::string> evs;
    for (const auto &ev : stop.events)
        evs.push_back(eventJson(ev));
    payload.raw("events", jsonArray(evs));
    res.payloadJson = payload.str();

    auto cyc = static_cast<unsigned long long>(engine.cycle());
    switch (stop.reason) {
      case Engine::StopReason::None:
        res.humanLines.push_back(csprintf("cycle %llu", cyc));
        break;
      case Engine::StopReason::Breakpoint:
        for (int id : stop.breakpoints) {
            const Breakpoint *bp = engine.breakpoints().find(id);
            res.humanLines.push_back(csprintf(
                "breakpoint %d: %s %s, cycle %llu", id,
                bp ? breakpointKindName(bp->kind) : "?",
                bp ? bp->spec.c_str() : "?", cyc));
        }
        break;
      case Engine::StopReason::UntilTrue:
        res.humanLines.push_back(
            csprintf("condition true at cycle %llu", cyc));
        break;
      case Engine::StopReason::EndOfTape:
        res.humanLines.push_back(
            csprintf("end of recorded stimulus at cycle %llu", cyc));
        break;
      case Engine::StopReason::Finished:
        res.humanLines.push_back(csprintf("$finish at cycle %llu", cyc));
        break;
    }
    for (const auto &ev : stop.events)
        res.humanLines.push_back(eventHuman(ev));
    return res;
}

CmdResult
cmdBreakAt(Engine &engine, const Request &req)
{
    CmdResult res;
    const char *usage = "usage: break at <file>:<line> [if <expr>]";
    if (req.args.size() < 2) {
        res.ok = false;
        res.error = usage;
        return res;
    }
    const std::string &loc = req.args[1];
    size_t colon = loc.rfind(':');
    uint64_t line = 0;
    if (colon == std::string::npos || colon == 0 ||
        !parseU64(loc.substr(colon + 1), &line) || line == 0) {
        res.ok = false;
        res.error = usage;
        return res;
    }
    std::string cond;
    if (req.args.size() > 2) {
        if (req.args[2] != "if" || req.args.size() < 4) {
            res.ok = false;
            res.error = usage;
            return res;
        }
        cond = joinArgs(req.args, 3);
    }
    int id = engine.addLineBreakpoint(loc.substr(0, colon),
                                      uint32_t(line), cond);
    const Breakpoint *bp = engine.breakpoints().find(id);
    res.payloadJson = JsonObject()
                          .field("id", int64_t(id))
                          .field("kind", std::string("line"))
                          .field("spec", bp->spec)
                          .field("stmts", uint64_t(bp->stmtIds.size()))
                          .str();
    res.humanLines.push_back(csprintf("breakpoint %d: at %s (%zu "
                                      "statement%s)",
                                      id, bp->spec.c_str(),
                                      bp->stmtIds.size(),
                                      bp->stmtIds.size() == 1 ? "" : "s"));
    return res;
}

CmdResult
cmdBreakOrWatch(Engine &engine, const Request &req)
{
    CmdResult res;
    if (req.cmd == "break" && !req.args.empty() &&
        req.args[0] == "event") {
        if (req.args.size() != 2) {
            res.ok = false;
            res.error = "usage: break event <key> (e.g. fsm:ctrl_state)";
            return res;
        }
        int id = engine.breakpoints().add(Breakpoint::Kind::Event,
                                          req.args[1], nullptr,
                                          engine.sim().context());
        res.payloadJson = JsonObject()
                              .field("id", int64_t(id))
                              .field("kind", std::string("event"))
                              .field("spec", req.args[1])
                              .str();
        res.humanLines.push_back(csprintf("breakpoint %d: event %s", id,
                                          req.args[1].c_str()));
        return res;
    }
    if (req.cmd == "break" && !req.args.empty() && req.args[0] == "at")
        return cmdBreakAt(engine, req);

    std::string expr_text = joinArgs(req.args, 0);
    if (expr_text.empty()) {
        res.ok = false;
        res.error = "usage: " + req.cmd + " <expr>";
        return res;
    }
    bool watch = req.cmd == "watch";
    hdl::ExprPtr expr = engine.parseExpr(expr_text);
    int id = engine.breakpoints().add(watch ? Breakpoint::Kind::Watch
                                            : Breakpoint::Kind::Expr,
                                      expr_text, expr,
                                      engine.sim().context());
    res.payloadJson = JsonObject()
                          .field("id", int64_t(id))
                          .field("kind", std::string(watch ? "watch"
                                                           : "break"))
                          .field("spec", expr_text)
                          .str();
    res.humanLines.push_back(csprintf("%s %d: %s",
                                      watch ? "watchpoint" : "breakpoint",
                                      id, expr_text.c_str()));
    return res;
}

CmdResult
cmdInfo(Engine &engine, const Request &req)
{
    CmdResult res;
    std::string topic = req.args.empty() ? "" : req.args[0];
    if (topic == "breakpoints") {
        std::vector<std::string> rows;
        for (const auto &bp : engine.breakpoints().all()) {
            rows.push_back(JsonObject()
                               .field("id", int64_t(bp.id))
                               .field("kind", std::string(
                                                  breakpointKindName(
                                                      bp.kind)))
                               .field("spec", bp.spec)
                               .field("enabled", bp.enabled)
                               .field("hits", bp.hits)
                               .str());
            res.humanLines.push_back(csprintf(
                "%d\t%s\t%s\t%s\thits %llu", bp.id,
                breakpointKindName(bp.kind), bp.spec.c_str(),
                bp.enabled ? "enabled" : "disabled",
                static_cast<unsigned long long>(bp.hits)));
        }
        if (res.humanLines.empty())
            res.humanLines.push_back("no breakpoints");
        res.payloadJson =
            JsonObject().raw("breakpoints", jsonArray(rows)).str();
        return res;
    }
    if (topic == "checkpoints") {
        const auto &ring = engine.checkpoints();
        res.payloadJson =
            JsonObject()
                .field("count", uint64_t(ring.count()))
                .field("bytes", uint64_t(ring.totalBytes()))
                .field("interval", ring.interval())
                .field("replayed_steps", engine.replayedSteps())
                .str();
        res.humanLines.push_back(csprintf(
            "%zu periodic checkpoints (+1 pinned), %zu bytes, "
            "interval %llu steps, %llu steps replayed",
            ring.count(), ring.totalBytes(),
            static_cast<unsigned long long>(ring.interval()),
            static_cast<unsigned long long>(engine.replayedSteps())));
        return res;
    }
    res.ok = false;
    res.error = "usage: info breakpoints | info checkpoints";
    return res;
}

CmdResult
cmdRecord(Engine &engine, const Request &req)
{
    CmdResult res;
    std::string sub = req.args.empty() ? "" : req.args[0];

    if (sub == "start") {
        trace::TraceConfig cfg;
        for (size_t i = 1; i < req.args.size(); ++i) {
            const std::string &arg = req.args[i];
            size_t eq = arg.find('=');
            std::string key =
                eq == std::string::npos ? arg : arg.substr(0, eq);
            std::string value =
                eq == std::string::npos ? "" : arg.substr(eq + 1);
            bool bad = false;
            if (key == "signals") {
                for (size_t pos = 0; pos < value.size();) {
                    size_t comma = value.find(',', pos);
                    if (comma == std::string::npos)
                        comma = value.size();
                    if (comma > pos)
                        cfg.signals.push_back(
                            value.substr(pos, comma - pos));
                    pos = comma + 1;
                }
            } else if (key == "trigger") {
                cfg.trigger = value;
            } else if (key == "budget") {
                bad = !parseU64(value, &cfg.budgetBytes);
            } else if (key == "pre") {
                uint64_t pct = 0;
                bad = !parseU64(value, &pct) || pct > 100;
                cfg.prePct = static_cast<uint32_t>(pct);
            } else {
                bad = true;
            }
            if (bad) {
                res.ok = false;
                res.error = "usage: record start [signals=G1,G2] "
                            "[trigger=EXPR] [budget=BYTES] [pre=PCT]";
                return res;
            }
        }
        engine.recordStart(cfg);
        const trace::TraceRecorder &rec = *engine.recorder();
        res.payloadJson =
            JsonObject()
                .field("signals", uint64_t(rec.signals().size()))
                .field("row_bytes", rec.rowBytes())
                .field("depth", rec.depth())
                .field("armed", !cfg.trigger.empty())
                .str();
        res.humanLines.push_back(csprintf(
            "recording %zu signals (%llu bytes/row, depth %llu%s)",
            rec.signals().size(),
            static_cast<unsigned long long>(rec.rowBytes()),
            static_cast<unsigned long long>(rec.depth()),
            cfg.trigger.empty() ? "" : ", trigger armed"));
        return res;
    }

    if (sub == "stop") {
        engine.recordStop();
        const trace::TraceRecorder &rec = *engine.recorder();
        res.payloadJson =
            JsonObject()
                .field("samples", rec.samples())
                .field("drops", rec.drops())
                .field("trigger_fires", rec.triggerFires())
                .str();
        res.humanLines.push_back(csprintf(
            "recording stopped: %llu change rows, %llu dropped",
            static_cast<unsigned long long>(rec.samples()),
            static_cast<unsigned long long>(rec.drops())));
        return res;
    }

    if (sub == "status") {
        const trace::TraceRecorder *rec = engine.recorder();
        if (!rec) {
            res.payloadJson =
                JsonObject().field("recording", false).str();
            res.humanLines.push_back("not recording");
            return res;
        }
        res.payloadJson =
            JsonObject()
                .field("recording", engine.recording())
                .field("signals", uint64_t(rec->signals().size()))
                .field("depth", rec->depth())
                .field("samples", rec->samples())
                .field("drops", rec->drops())
                .field("triggered", rec->triggered())
                .field("trigger_fires", rec->triggerFires())
                .str();
        res.humanLines.push_back(csprintf(
            "%s: %llu change rows, %llu dropped, %s",
            engine.recording() ? "recording" : "stopped",
            static_cast<unsigned long long>(rec->samples()),
            static_cast<unsigned long long>(rec->drops()),
            rec->triggered() ? "trigger fired" : "trigger not fired"));
        return res;
    }

    if (sub == "dump") {
        if (req.args.size() < 2) {
            res.ok = false;
            res.error = "usage: record dump <file> [vcd=FILE]";
            return res;
        }
        trace::TraceDump dump = engine.recordDump();
        const std::string &path = req.args[1];
        std::ofstream file(path);
        if (!file) {
            res.ok = false;
            res.error = "cannot write '" + path + "'";
            return res;
        }
        file << trace::toJson(dump);
        std::string vcdPath;
        for (size_t i = 2; i < req.args.size(); ++i)
            if (req.args[i].rfind("vcd=", 0) == 0)
                vcdPath = req.args[i].substr(4);
        if (!vcdPath.empty()) {
            std::ofstream vcdFile(vcdPath);
            if (!vcdFile) {
                res.ok = false;
                res.error = "cannot write '" + vcdPath + "'";
                return res;
            }
            vcdFile << trace::renderVcd(dump);
        }
        res.payloadJson = JsonObject()
                              .field("rows", uint64_t(dump.rows.size()))
                              .field("samples", dump.samples)
                              .field("drops", dump.drops)
                              .field("fired", dump.fired)
                              .str();
        res.humanLines.push_back(csprintf(
            "wrote %zu rows to %s%s%s", dump.rows.size(), path.c_str(),
            vcdPath.empty() ? "" : " and ", vcdPath.c_str()));
        return res;
    }

    res.ok = false;
    res.error =
        "usage: record start|stop|status|dump <file> (try 'help "
        "record')";
    return res;
}

CmdResult
cmdHelp(const Request &req)
{
    CmdResult res;
    if (!req.args.empty()) {
        for (const auto &cmd : kCommands) {
            if (req.args[0] == cmd.name) {
                res.payloadJson =
                    JsonObject()
                        .field("name", std::string(cmd.name))
                        .field("usage", std::string(cmd.usage))
                        .field("summary", std::string(cmd.summary))
                        .str();
                res.humanLines.push_back(csprintf("%s -- %s", cmd.usage,
                                                  cmd.summary));
                return res;
            }
        }
        res.ok = false;
        res.error = "unknown command '" + req.args[0] + "'";
        return res;
    }
    std::vector<std::string> rows;
    for (const auto &cmd : kCommands) {
        rows.push_back(JsonObject()
                           .field("name", std::string(cmd.name))
                           .field("usage", std::string(cmd.usage))
                           .field("summary", std::string(cmd.summary))
                           .str());
        res.humanLines.push_back(
            csprintf("  %-28s %s", cmd.usage, cmd.summary));
    }
    res.payloadJson = JsonObject().raw("commands", jsonArray(rows)).str();
    return res;
}

CmdResult
dispatch(Engine &engine, const Request &req)
{
    CmdResult res;

    if (req.cmd == "run")
        return renderStop(engine, engine.run());

    if (req.cmd == "step") {
        uint64_t n = 1;
        if (!req.args.empty() && !parseU64(req.args[0], &n)) {
            res.ok = false;
            res.error = "usage: step [n]";
            return res;
        }
        return renderStop(engine, engine.stepCycles(n));
    }

    if (req.cmd == "run-until") {
        std::string expr = joinArgs(req.args, 0);
        if (expr.empty()) {
            res.ok = false;
            res.error = "usage: run-until <expr>";
            return res;
        }
        return renderStop(engine, engine.runUntil(expr));
    }

    if (req.cmd == "break" || req.cmd == "watch")
        return cmdBreakOrWatch(engine, req);

    if (req.cmd == "delete" || req.cmd == "enable" ||
        req.cmd == "disable") {
        uint64_t id = 0;
        if (req.args.size() != 1 || !parseU64(req.args[0], &id)) {
            res.ok = false;
            res.error = "usage: " + req.cmd + " <id>";
            return res;
        }
        bool found = req.cmd == "delete"
                         ? engine.breakpoints().remove(int(id))
                         : engine.breakpoints().setEnabled(
                               int(id), req.cmd == "enable");
        if (!found) {
            res.ok = false;
            res.error = csprintf("no breakpoint %llu",
                                 static_cast<unsigned long long>(id));
            return res;
        }
        res.payloadJson =
            JsonObject().field("id", int64_t(id)).str();
        res.humanLines.push_back(csprintf(
            "breakpoint %llu %sd", static_cast<unsigned long long>(id),
            req.cmd.c_str()));
        return res;
    }

    if (req.cmd == "info")
        return cmdInfo(engine, req);

    if (req.cmd == "print") {
        std::string expr = joinArgs(req.args, 0);
        if (expr.empty()) {
            res.ok = false;
            res.error = "usage: print <expr>";
            return res;
        }
        Bits value = engine.evalNow(expr);
        res.payloadJson = JsonObject()
                              .field("expr", expr)
                              .field("width", uint64_t(value.width()))
                              .field("hex", value.toVerilog())
                              .field("dec", value.toDecString())
                              .str();
        res.humanLines.push_back(csprintf("%s = %s (%s)", expr.c_str(),
                                          value.toVerilog().c_str(),
                                          value.toDecString().c_str()));
        return res;
    }

    if (req.cmd == "backtrace") {
        if (req.args.empty()) {
            res.ok = false;
            res.error = "usage: backtrace <reg> [k]";
            return res;
        }
        uint64_t k = 4;
        if (req.args.size() > 1 && !parseU64(req.args[1], &k)) {
            res.ok = false;
            res.error = "usage: backtrace <reg> [k]";
            return res;
        }
        auto chain = engine.backtrace(req.args[0], int(k));
        std::vector<std::string> rows;
        for (const auto &entry : chain) {
            rows.push_back(JsonObject()
                               .field("reg", entry.reg)
                               .field("distance",
                                      int64_t(entry.distance))
                               .field("value", entry.value.toVerilog())
                               .str());
            res.humanLines.push_back(csprintf(
                "  [-%d] %s = %s", entry.distance, entry.reg.c_str(),
                entry.value.toVerilog().c_str()));
        }
        if (res.humanLines.empty())
            res.humanLines.push_back("no dependencies in range");
        res.payloadJson = JsonObject()
                              .field("reg", req.args[0])
                              .field("cycles", k)
                              .raw("chain", jsonArray(rows))
                              .str();
        return res;
    }

    if (req.cmd == "reverse-step") {
        uint64_t n = 1;
        if (!req.args.empty() && !parseU64(req.args[0], &n)) {
            res.ok = false;
            res.error = "usage: reverse-step [n]";
            return res;
        }
        return renderStop(engine, engine.reverseStep(n));
    }

    if (req.cmd == "goto-cycle") {
        uint64_t target = 0;
        if (req.args.size() != 1 || !parseU64(req.args[0], &target)) {
            res.ok = false;
            res.error = "usage: goto-cycle <n>";
            return res;
        }
        return renderStop(engine, engine.gotoCycle(target));
    }

    if (req.cmd == "events") {
        std::vector<std::string> rows;
        for (const auto &ev : engine.allEvents()) {
            rows.push_back(eventJson(ev));
            res.humanLines.push_back(eventHuman(ev));
        }
        if (res.humanLines.empty())
            res.humanLines.push_back("no events");
        res.payloadJson =
            JsonObject().raw("events", jsonArray(rows)).str();
        return res;
    }

    if (req.cmd == "cover") {
        auto summary = engine.coverageSummary();
        const auto &t = summary.totals;
        res.payloadJson =
            JsonObject()
                .field("statements_hit", t.stmtHit)
                .field("statements", t.stmtTotal)
                .field("branches_taken", t.armTaken)
                .field("branches", t.armTotal)
                .field("toggles_hit", t.toggleHit)
                .field("toggles", t.toggleTotal)
                .field("fsm_states_hit", t.fsmStateHit)
                .field("fsm_states", t.fsmStateTotal)
                .field("fsm_arcs_hit", t.fsmTransHit)
                .field("fsm_arcs", t.fsmTransTotal)
                .field("covered", t.covered())
                .field("total", t.total())
                .field("pct", cover::coverPct(t.covered(), t.total()))
                .field("new", summary.newlyCovered)
                .str();
        res.humanLines.push_back(csprintf(
            "coverage: %s%% (%llu/%llu goals), +%llu since last check",
            cover::coverPct(t.covered(), t.total()).c_str(),
            static_cast<unsigned long long>(t.covered()),
            static_cast<unsigned long long>(t.total()),
            static_cast<unsigned long long>(summary.newlyCovered)));
        res.humanLines.push_back(csprintf(
            "  statements %llu/%llu  branches %llu/%llu  toggles "
            "%llu/%llu",
            static_cast<unsigned long long>(t.stmtHit),
            static_cast<unsigned long long>(t.stmtTotal),
            static_cast<unsigned long long>(t.armTaken),
            static_cast<unsigned long long>(t.armTotal),
            static_cast<unsigned long long>(t.toggleHit),
            static_cast<unsigned long long>(t.toggleTotal)));
        if (t.fsmStateTotal)
            res.humanLines.push_back(csprintf(
                "  fsm states %llu/%llu  arcs %llu/%llu",
                static_cast<unsigned long long>(t.fsmStateHit),
                static_cast<unsigned long long>(t.fsmStateTotal),
                static_cast<unsigned long long>(t.fsmTransHit),
                static_cast<unsigned long long>(t.fsmTransTotal)));
        return res;
    }

    if (req.cmd == "record")
        return cmdRecord(engine, req);

    if (req.cmd == "log") {
        uint64_t n = 10;
        if (!req.args.empty() && !parseU64(req.args[0], &n)) {
            res.ok = false;
            res.error = "usage: log [n]";
            return res;
        }
        std::vector<std::string> rows;
        for (const auto &line : engine.recentLog(n)) {
            rows.push_back(JsonObject()
                               .field("cycle", line.cycle)
                               .field("text", line.text)
                               .str());
            res.humanLines.push_back(csprintf(
                "  [%llu] %s",
                static_cast<unsigned long long>(line.cycle),
                line.text.c_str()));
        }
        if (res.humanLines.empty())
            res.humanLines.push_back("log is empty");
        res.payloadJson =
            JsonObject().raw("lines", jsonArray(rows)).str();
        return res;
    }

    if (req.cmd == "help")
        return cmdHelp(req);

    if (req.cmd == "quit") {
        res.quit = true;
        return res;
    }

    res.ok = false;
    res.error = "unknown command '" + req.cmd + "' (try 'help')";
    return res;
}

} // namespace

std::string
ProtocolHandler::helloJson() const
{
    const auto &design = engine_.sim().design();
    return JsonObject()
        .field("proto", std::string("hwdbg-debug"))
        .field("version", int64_t(1))
        .field("design", design.module().name)
        .field("steps", engine_.tapeSize())
        .field("signals", uint64_t(design.numSignals()))
        .raw("build", obs::buildInfoJson())
        .str();
}

ProtocolHandler::Result
ProtocolHandler::handle(const Request &req)
{
    auto t0 = std::chrono::steady_clock::now();
    Result res;
    if (!req.error.empty()) {
        res.ok = false;
        res.error = req.error;
    } else {
        obs::ObsSpan span("debug.cmd:" + req.cmd, track_);
        try {
            res = dispatch(engine_, req);
        } catch (const HdlError &err) {
            res = Result();
            res.ok = false;
            res.error = err.what();
        }
    }
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    HWDBG_STAT_HIST("debug.cmd_latency_us", uint64_t(us));
    HWDBG_STAT_INC("debug.session.cmds", 1);
    if (!res.ok)
        HWDBG_STAT_INC("debug.session.errors", 1);
    return res;
}

void
ProtocolHandler::responseFields(const Request &req, const Result &res,
                                JsonObject &resp) const
{
    if (req.hasId)
        resp.field("id", req.id);
    else
        resp.raw("id", "null");
    resp.field("ok", res.ok);
    if (!res.ok)
        resp.field("error", res.error);
    resp.field("cmd", req.cmd.empty() ? std::string("?") : req.cmd);
    if (!res.payloadJson.empty())
        resp.raw("payload", res.payloadJson);
    resp.raw("state",
             JsonObject()
                 .field("cycle", engine_.cycle())
                 .field("step", engine_.position())
                 .field("finished", engine_.finished())
                 .field("end", engine_.atEnd())
                 .str());
}

} // namespace hwdbg::debug
