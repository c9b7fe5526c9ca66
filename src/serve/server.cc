#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <streambuf>
#include <thread>
#include <vector>

#include "analyze/analyze.hh"
#include "bugbase/testbed.hh"
#include "bugbase/workloads.hh"
#include "common/logging.hh"
#include "compile/backend.hh"
#include "cover/run.hh"
#include "cover/snapshot.hh"
#include "debug/protocol.hh"
#include "elab/elaborate.hh"
#include "hdl/parser.hh"
#include "lint/lint.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/stats.hh"
#include "trace/json.hh"
#include "trace/run.hh"
#include "trace/vcd.hh"

namespace hwdbg::serve
{

namespace
{

/** Minimal iostream plumbing over a connected socket fd. */
class FdBuf : public std::streambuf
{
  public:
    explicit FdBuf(int fd) : fd_(fd)
    {
        setg(ibuf_, ibuf_, ibuf_);
        setp(obuf_, obuf_ + sizeof(obuf_));
    }

  protected:
    int_type underflow() override
    {
        ssize_t n = ::read(fd_, ibuf_, sizeof(ibuf_));
        if (n <= 0)
            return traits_type::eof();
        setg(ibuf_, ibuf_, ibuf_ + n);
        return traits_type::to_int_type(ibuf_[0]);
    }

    int_type overflow(int_type ch) override
    {
        if (sync() != 0)
            return traits_type::eof();
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            obuf_[0] = traits_type::to_char_type(ch);
            pbump(1);
        }
        return traits_type::not_eof(ch);
    }

    int sync() override
    {
        const char *p = pbase();
        size_t len = static_cast<size_t>(pptr() - pbase());
        while (len) {
            ssize_t n = ::write(fd_, p, len);
            if (n <= 0)
                return -1;
            p += n;
            len -= static_cast<size_t>(n);
        }
        setp(obuf_, obuf_ + sizeof(obuf_));
        return 0;
    }

  private:
    int fd_;
    char ibuf_[4096];
    char obuf_[4096];
};

std::string
readFileOrFatal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

void
writeFileOrFatal(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << text;
}

uint64_t
parseU64(const std::string &text, const char *what)
{
    uint64_t v = 0;
    if (!debug::parseU64(text, &v))
        fatal("%s: bad number '%s'", what, text.c_str());
    return v;
}

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

sim::BackendFactory
backendByName(const std::string &name)
{
    if (name == "interp")
        return {};
    if (name == "bytecode")
        return compile::makeBytecodeBackend();
    fatal("unknown backend '%s' (expected interp or bytecode)",
          name.c_str());
    return {};
}

/** key=value / bare-flag argument list for `open`. */
struct OpenArgs
{
    std::map<std::string, std::string> kv;
    std::set<std::string> flags;

    std::string opt(const std::string &key,
                    const std::string &dflt = "") const
    {
        auto it = kv.find(key);
        return it == kv.end() ? dflt : it->second;
    }
    bool flag(const std::string &name) const
    {
        return flags.count(name) != 0;
    }
};

OpenArgs
parseOpenArgs(const std::vector<std::string> &args)
{
    OpenArgs out;
    for (size_t i = 1; i < args.size(); ++i) {
        auto eq = args[i].find('=');
        if (eq == std::string::npos)
            out.flags.insert(args[i]);
        else
            out.kv[args[i].substr(0, eq)] = args[i].substr(eq + 1);
    }
    return out;
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(opts),
      reqlog_(opts.reqlogCapacity, opts.slowCapacity),
      start_(std::chrono::steady_clock::now())
{
    reqlog_.setEnabled(opts_.telemetry);
    reqlog_.setSlowThresholdUs(opts_.slowThresholdUs);
    if (!opts_.reqlogPath.empty()) {
        spill_ = std::make_unique<std::ofstream>(opts_.reqlogPath,
                                                 std::ios::binary);
        if (!*spill_)
            fatal("serve: cannot write request log '%s'",
                  opts_.reqlogPath.c_str());
        reqlog_.setSpill(spill_.get());
    }
}

Server::~Server()
{
    reqlog_.setSpill(nullptr);
}

uint64_t
Server::uptimeUs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
}

std::string
Server::helloJson() const
{
    debug::JsonObject hello;
    hello.field("proto", std::string("hwdbg-serve"));
    hello.field("version", static_cast<int64_t>(1));
    hello.raw("build", obs::buildInfoJson());
    return hello.str();
}

std::string
Server::openSession(const std::vector<std::string> &args)
{
    if (args.empty())
        fatal("usage: open <debug|cover|trace|analyze> bug=ID|file=PATH "
              "[key=value...]");
    const std::string &kind = args[0];
    if (kind != "debug" && kind != "cover" && kind != "trace" &&
        kind != "analyze")
        fatal("unknown session kind '%s' "
              "(expected debug, cover, trace, or analyze)",
              kind.c_str());

    OpenArgs oa = parseOpenArgs(args);
    std::string bugId = oa.opt("bug");
    std::string file = oa.opt("file");
    std::string stimulus = oa.opt("stimulus");
    std::string backendName = oa.opt("backend", "interp");
    bool buggy = !oa.flag("fixed");
    if (bugId.empty() == file.empty())
        fatal("open needs exactly one of bug=ID or file=PATH");
    if (!bugId.empty() && !stimulus.empty())
        fatal("stimulus= applies to file= designs; bug=%s runs its "
              "own workload",
              bugId.c_str());
    if (bugId.empty() && stimulus.empty() && kind != "analyze")
        fatal("%s sessions on file= designs need stimulus=FILE",
              kind.c_str());
    // Validate eagerly so a bad name fails before a cache slot exists.
    sim::BackendFactory backend = backendByName(backendName);

    std::string key;
    DesignCache::Builder builder;
    if (!bugId.empty()) {
        key = "bug:" + bugId + (buggy ? ":buggy" : ":fixed") + ":" +
              backendName;
        builder = [bugId, buggy]() {
            const auto &bug = bugs::bugById(bugId);
            auto elaborated = bugs::buildDesign(bug, buggy);
            debug::InstrumentConfig icfg;
            icfg.fsm = bug.monitors.fsm;
            icfg.depVariable = bug.monitors.depVariable;
            icfg.depCycles = bug.monitors.depCycles;
            icfg.lossCheck = bug.lossCheck;
            icfg.constants = elaborated.constants;
            auto instr = debug::instrumentForDebug(*elaborated.mod, icfg);
            auto tape = std::make_shared<sim::StimulusTape>();
            {
                // Recording is a full simulation run; caching it is
                // most of what makes the second attach cheap.
                sim::Simulator recorder(instr.module);
                recorder.recordStimulus(tape.get());
                bugs::runWorkload(bug, recorder);
                recorder.recordStimulus(nullptr);
            }
            CachedDesign built;
            built.name = instr.module->name;
            built.module = instr.module;
            built.base = elaborated.mod;
            built.tape = tape;
            built.constants = elaborated.constants;
            return built;
        };
    } else {
        std::string top = oa.opt("top");
        key = "file:" + file + ":top:" + top + ":stim:" + stimulus +
              ":" + backendName;
        builder = [file, top, stimulus]() {
            hdl::Design design =
                hdl::parseWithDefines(readFileOrFatal(file), {}, file);
            if (design.modules.empty())
                fatal("'%s' contains no modules", file.c_str());
            std::string topName =
                top.empty() ? design.modules.back()->name : top;
            auto elaborated = elab::elaborate(design, topName);
            debug::InstrumentConfig icfg;
            icfg.constants = elaborated.constants;
            auto instr = debug::instrumentForDebug(*elaborated.mod, icfg);
            auto tape = std::make_shared<sim::StimulusTape>();
            if (!stimulus.empty())
                *tape = debug::loadStimulusFile(stimulus);
            CachedDesign built;
            built.name = instr.module->name;
            built.module = instr.module;
            built.base = elaborated.mod;
            built.tape = tape;
            built.constants = elaborated.constants;
            return built;
        };
    }

    DesignCache::Attach attach = cache_.getOrBuild(key, builder);
    const auto &design = attach.design;
    std::string label = bugId.empty() ? file : bugId;

    auto sess = registry_.create(kind);
    sess->design = design;
    sess->cacheHit = attach.hit;
    sess->designName = design->name;
    sess->openedUs = uptimeUs();
    // One named Perfetto track per session, minted lazily so an
    // untraced long-lived server never grows the track registry.
    if (obs::traceEnabled())
        sess->track = obs::traceRegisterTrack(
            "serve.session." + std::to_string(sess->id) + ":" + kind +
            ":" + label);
    obs::ObsSpan attachSpan("serve.attach:" + kind + ":" + label,
                            sess->track);

    debug::JsonObject payload;
    payload.field("session", sess->id);
    payload.field("kind", kind);
    payload.field("design", design->name);
    payload.field("cache",
                  std::string(attach.hit ? "hit" : "miss"));

    try {
        if (kind == "debug") {
            debug::EngineOptions eopts;
            eopts.checkpointInterval = opts_.checkpointInterval;
            eopts.checkpointCapacity = opts_.checkpointCapacity;
            eopts.constants = design->constants;
            eopts.backend = backend;
            eopts.snapshots = &snapshots_;
            sess->engine = std::make_unique<debug::Engine>(
                hdl::cloneModule(*design->module), design->tape, eopts);
            sess->handler = std::make_unique<debug::ProtocolHandler>(
                *sess->engine);
            sess->handler->setTraceTrack(sess->track);
            payload.field("steps",
                          static_cast<uint64_t>(sess->engine->tapeSize()));
            payload.field(
                "signals",
                static_cast<uint64_t>(
                    sess->engine->sim().design().numSignals()));
        } else if (kind == "cover") {
            auto snap = cover::coverWithTape(
                hdl::cloneModule(*design->module), label, *design->tape,
                backend);
            auto totals = snap.totals();
            if (!oa.opt("out").empty())
                writeFileOrFatal(oa.opt("out"), cover::toJson(snap));
            debug::JsonObject summary;
            summary.field("covered", totals.covered());
            summary.field("total", totals.total());
            sess->summaryJson = summary.str();
            payload.field("covered", totals.covered());
            payload.field("total", totals.total());
        } else if (kind == "trace") {
            trace::TraceConfig cfg;
            cfg.signals = splitCsv(oa.opt("signals"));
            cfg.trigger = oa.opt("trigger");
            if (!oa.opt("budget").empty())
                cfg.budgetBytes =
                    parseU64(oa.opt("budget"), "budget=");
            auto dump = trace::traceWithTape(
                hdl::cloneModule(*design->module), label, *design->tape,
                cfg, backend);
            if (!oa.opt("out").empty())
                writeFileOrFatal(oa.opt("out"), trace::toJson(dump));
            if (!oa.opt("vcd").empty())
                writeFileOrFatal(oa.opt("vcd"), trace::renderVcd(dump));
            debug::JsonObject summary;
            summary.field("rows",
                          static_cast<uint64_t>(dump.rows.size()));
            summary.field("samples", dump.samples);
            summary.field("drops", dump.drops);
            summary.field("fired", dump.fired);
            sess->summaryJson = summary.str();
            payload.field("rows",
                          static_cast<uint64_t>(dump.rows.size()));
            payload.field("samples", dump.samples);
            payload.field("drops", dump.drops);
            payload.field("fired", dump.fired);
        } else { // analyze
            analyze::AnalyzeOptions aopts;
            for (const auto &pass : splitCsv(oa.opt("passes")))
                aopts.passes.insert(pass);
            auto base = hdl::cloneModule(*design->base);
            auto diags = analyze::runAnalyze(*base, aopts);
            std::vector<std::string> ran;
            for (const auto &pass : analyze::analyzePasses())
                if (aopts.passes.empty() || aopts.passes.count(pass.id))
                    ran.push_back(pass.id);
            if (!oa.opt("out").empty())
                writeFileOrFatal(oa.opt("out"),
                                 analyze::renderAnalyzeJson(ran, diags));
            debug::JsonObject summary;
            summary.field("passes",
                          static_cast<uint64_t>(ran.size()));
            summary.field("diagnostics",
                          static_cast<uint64_t>(diags.size()));
            summary.field("errors", lint::hasErrors(diags));
            sess->summaryJson = summary.str();
            payload.field("passes",
                          static_cast<uint64_t>(ran.size()));
            payload.field("diagnostics",
                          static_cast<uint64_t>(diags.size()));
            payload.field("errors", lint::hasErrors(diags));
        }
    } catch (const HdlError &) {
        // Failed opens must not leave a half-built session listed.
        registry_.close(sess->id);
        throw;
    }

    return payload.str();
}

std::string
Server::statsJson()
{
    auto cache = cache_.stats();
    auto snaps = snapshots_.stats();

    debug::JsonObject server;
    server.field("sessions", static_cast<uint64_t>(registry_.count()));
    server.field("opened", registry_.opened());
    server.field("channels", channels_.load(std::memory_order_relaxed));
    server.field("channels_active",
                 channelsActive_.load(std::memory_order_relaxed));
    server.field("requests", reqlog_.requests());
    server.field("errors", reqlog_.errors());
    server.field("slow", reqlog_.slowCount());
    server.field("slow_threshold_us", reqlog_.slowThresholdUs());
    server.field("dispatched", registry_.dispatched());
    server.field("retired_cmds", registry_.retiredCmds());
    server.field("uptime_us", uptimeUs());

    debug::JsonObject cacheBody;
    cacheBody.field("entries", static_cast<uint64_t>(cache_.size()));
    cacheBody.field("hits", cache.hits);
    cacheBody.field("misses", cache.misses);
    cacheBody.field("builds", cache.builds);
    cacheBody.field("build_us", cache.buildMicros);

    debug::JsonObject snapBody;
    snapBody.field("stored", snaps.stored);
    snapBody.field("stored_bytes", snaps.storedBytes);
    snapBody.field("dedup_hits", snaps.dedupHits);
    snapBody.field("dedup_bytes", snaps.dedupBytes);
    uint64_t interned = snaps.stored + snaps.dedupHits;
    snapBody.field("dedup_ratio_pct",
                   interned ? snaps.dedupHits * 100 / interned
                            : uint64_t{0});

    std::vector<std::string> cmdRows;
    for (const auto &snap : reqlog_.commands()) {
        debug::JsonObject row;
        row.field("cmd", snap.cmd);
        row.field("count", snap.count);
        row.field("errors", snap.errors);
        row.field("p50_us", snap.p50Us);
        row.field("p95_us", snap.p95Us);
        row.field("p99_us", snap.p99Us);
        row.field("max_us", snap.maxUs);
        cmdRows.push_back(row.str());
    }

    uint64_t now = uptimeUs();
    std::vector<std::string> sessRows;
    for (const auto &sess : registry_.list()) {
        debug::JsonObject row;
        row.field("session", sess->id);
        row.field("kind", sess->kind);
        row.field("design", sess->designName);
        row.field("cache",
                  std::string(sess->cacheHit ? "hit" : "miss"));
        row.field("cmds", sess->cmds.load(std::memory_order_relaxed));
        row.field("errors", sess->errs.load(std::memory_order_relaxed));
        if (sess->engine) {
            std::lock_guard<std::mutex> lock(sess->mu);
            row.field("cycle", sess->engine->sim().cycle());
        }
        row.field("uptime_us",
                  now > sess->openedUs ? now - sess->openedUs
                                       : uint64_t{0});
        sessRows.push_back(row.str());
    }

    debug::JsonObject doc;
    doc.field("format", std::string("hwdbg-serve-stats"));
    doc.field("version", static_cast<int64_t>(1));
    doc.raw("build", obs::buildInfoJson());
    doc.raw("server", server.str());
    doc.raw("cache", cacheBody.str());
    doc.raw("snapshots", snapBody.str());
    doc.raw("commands", debug::jsonArray(cmdRows));
    doc.raw("sessions", debug::jsonArray(sessRows));
    return doc.str();
}

std::string
Server::serverCommand(const debug::Request &req, bool *failed,
                      bool *quitChannel)
{
    bool ok = true;
    std::string error;
    std::string payload;

    obs::ObsSpan span("serve.cmd:" + req.cmd);
    try {
        if (req.cmd == "open") {
            payload = openSession(req.args);
        } else if (req.cmd == "close") {
            if (req.args.size() != 1)
                fatal("usage: close <session-id>");
            int64_t sid = static_cast<int64_t>(
                parseU64(req.args[0], "close"));
            if (!registry_.close(sid))
                fatal("no session %lld",
                      static_cast<long long>(sid));
            debug::JsonObject body;
            body.field("session", sid);
            payload = body.str();
        } else if (req.cmd == "sessions") {
            std::vector<std::string> rows;
            for (const auto &sess : registry_.list()) {
                debug::JsonObject row;
                row.field("session", sess->id);
                row.field("kind", sess->kind);
                row.field("design",
                          sess->design ? sess->design->name
                                       : std::string());
                row.field("cache",
                          std::string(sess->cacheHit ? "hit"
                                                     : "miss"));
                if (sess->engine) {
                    std::lock_guard<std::mutex> lock(sess->mu);
                    row.field("cycle", sess->engine->sim().cycle());
                } else if (!sess->summaryJson.empty()) {
                    row.raw("result", sess->summaryJson);
                }
                rows.push_back(row.str());
            }
            debug::JsonObject body;
            body.field("count",
                       static_cast<uint64_t>(rows.size()));
            body.raw("sessions", debug::jsonArray(rows));
            payload = body.str();
        } else if (req.cmd == "stats") {
            std::string doc = statsJson();
            // `stats out=FILE` also lands the document on disk (the CI
            // smoke uploads it as an artifact).
            for (const auto &arg : req.args) {
                if (arg.rfind("out=", 0) == 0 && arg.size() > 4)
                    writeFileOrFatal(arg.substr(4), doc + "\n");
                else
                    fatal("stats: unknown argument '%s' "
                          "(expected out=FILE)",
                          arg.c_str());
            }
            payload = doc;
        } else if (req.cmd == "health") {
            debug::JsonObject body;
            body.field("status", std::string("ok"));
            body.field("sessions",
                       static_cast<uint64_t>(registry_.count()));
            body.field("channels_active",
                       channelsActive_.load(std::memory_order_relaxed));
            body.field("requests", reqlog_.requests());
            body.field("errors", reqlog_.errors());
            body.field("uptime_us", uptimeUs());
            payload = body.str();
        } else if (req.cmd == "slow") {
            std::vector<std::string> rows;
            for (const auto &event : reqlog_.slow())
                rows.push_back(obs::RequestLog::eventJson(event));
            debug::JsonObject body;
            body.field("threshold_us", reqlog_.slowThresholdUs());
            body.field("count", static_cast<uint64_t>(rows.size()));
            body.raw("requests", debug::jsonArray(rows));
            payload = body.str();
        } else if (req.cmd == "help") {
            static const char *cmds[] = {
                "open", "close", "sessions", "stats", "health",
                "slow", "help",  "quit",     "shutdown",
            };
            std::vector<std::string> rows;
            for (const char *cmd : cmds)
                rows.push_back("\"" + std::string(cmd) + "\"");
            debug::JsonObject body;
            body.raw("commands", debug::jsonArray(rows));
            payload = body.str();
        } else if (req.cmd == "quit") {
            *quitChannel = true;
        } else if (req.cmd == "shutdown") {
            shutdown();
            *quitChannel = true;
        } else {
            fatal("unknown server command '%s' (try help, or route "
                  "with \"session\":N / @N)",
                  req.cmd.c_str());
        }
    } catch (const HdlError &e) {
        ok = false;
        error = e.what();
    }

    HWDBG_STAT_INC("serve.cmds", 1);
    if (!ok) {
        HWDBG_STAT_INC("serve.errors", 1);
        *failed = true;
    }

    debug::JsonObject resp;
    resp.field("session", static_cast<int64_t>(0));
    if (req.hasId)
        resp.field("id", req.id);
    else
        resp.raw("id", "null");
    resp.field("ok", ok);
    if (!ok)
        resp.field("error", error);
    resp.field("cmd", req.cmd);
    if (!payload.empty())
        resp.raw("payload", payload);
    return resp.str();
}

std::string
Server::routedCommand(const debug::Request &req, bool *failed)
{
    auto sess = registry_.find(req.session);
    std::string error;
    if (!sess)
        error = csprintf("no session %lld",
                         static_cast<long long>(req.session));
    else if (!sess->handler)
        error = csprintf("session %lld (%s) is not interactive",
                         static_cast<long long>(req.session),
                         sess->kind.c_str());
    if (!error.empty()) {
        HWDBG_STAT_INC("serve.cmds", 1);
        HWDBG_STAT_INC("serve.errors", 1);
        *failed = true;
        debug::JsonObject resp;
        resp.field("session", req.session);
        if (req.hasId)
            resp.field("id", req.id);
        else
            resp.raw("id", "null");
        resp.field("ok", false);
        resp.field("error", error);
        resp.field("cmd", req.cmd.empty() ? std::string("?") : req.cmd);
        return resp.str();
    }

    std::lock_guard<std::mutex> lock(sess->mu);
    debug::ProtocolHandler::Result res = sess->handler->handle(req);
    if (!res.ok)
        *failed = true;
    registry_.noteDispatch(*sess, res.ok);
    debug::JsonObject resp;
    resp.field("session", sess->id);
    sess->handler->responseFields(req, res, resp);
    // A routed `quit` retires the session, not the channel. Dispatch
    // accounting above runs first so close() folds the quit into the
    // retired totals.
    if (res.quit)
        registry_.close(sess->id);
    return resp.str();
}

std::string
Server::handleLine(const debug::Request &req, bool *failed,
                   bool *quitChannel)
{
    // One RequestEvent per line, recorded after the response is
    // rendered: a `stats` request therefore never sees itself, which
    // keeps the first stats document of a scripted run deterministic.
    obs::RequestEvent event;
    event.id = reqlog_.nextRequestId();
    event.session = req.hasSession ? static_cast<uint64_t>(req.session)
                                   : uint64_t{0};
    event.cmd = req.cmd.empty() ? std::string("?") : req.cmd;
    auto t0 = std::chrono::steady_clock::now();

    std::string resp;
    bool lineFailed = false;
    if (!req.error.empty()) {
        HWDBG_STAT_INC("serve.cmds", 1);
        HWDBG_STAT_INC("serve.errors", 1);
        lineFailed = true;
        debug::JsonObject err;
        err.field("session",
                  req.hasSession ? req.session
                                 : static_cast<int64_t>(0));
        if (req.hasId)
            err.field("id", req.id);
        else
            err.raw("id", "null");
        err.field("ok", false);
        err.field("error", req.error);
        err.field("cmd", event.cmd);
        resp = err.str();
    } else if (req.hasSession && req.session != 0) {
        resp = routedCommand(req, &lineFailed);
    } else {
        resp = serverCommand(req, &lineFailed, quitChannel);
    }

    event.ok = !lineFailed;
    event.latencyUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    reqlog_.record(event);
    HWDBG_STAT_HIST("serve.request_latency_us", event.latencyUs);
    if (lineFailed)
        *failed = true;
    return resp;
}

int
Server::runChannel(std::istream &in, std::ostream &out)
{
    HWDBG_STAT_INC("serve.channels", 1);
    channels_.fetch_add(1, std::memory_order_relaxed);
    uint64_t active =
        channelsActive_.fetch_add(1, std::memory_order_relaxed) + 1;
    HWDBG_STAT_MAX("serve.channels.peak", active);
    struct ActiveGuard
    {
        std::atomic<uint64_t> &active;
        ~ActiveGuard() { active.fetch_sub(1, std::memory_order_relaxed); }
    } guard{channelsActive_};
    out << helloJson() << "\n" << std::flush;
    int failures = 0;
    std::string line;
    while (std::getline(in, line)) {
        debug::Request req = debug::parseRequestLine(line);
        if (req.cmd.empty() && req.error.empty())
            continue; // blank/comment: scripts stay commentable
        bool failed = false;
        bool quitChannel = false;
        std::string resp = handleLine(req, &failed, &quitChannel);
        if (failed)
            ++failures;
        out << resp << "\n" << std::flush;
        if (quitChannel)
            break;
    }
    return failures;
}

uint16_t
Server::listenTcp(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("serve: socket: %s", std::strerror(errno));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        int err = errno;
        ::close(fd);
        fatal("serve: bind 127.0.0.1:%u: %s", unsigned(port),
              std::strerror(err));
    }
    if (::listen(fd, 64) < 0) {
        int err = errno;
        ::close(fd);
        fatal("serve: listen: %s", std::strerror(err));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    listenFd_.store(fd);
    return ntohs(addr.sin_port);
}

int
Server::acceptLoop()
{
    int fd = listenFd_.load();
    if (fd < 0)
        fatal("serve: acceptLoop without listenTcp");

    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    while (!stopping_.load()) {
        int cfd = ::accept(fd, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR && !stopping_.load())
                continue;
            break;
        }
        uint64_t conn = workers.size() + 1;
        workers.emplace_back([this, cfd, conn, &failures] {
            if (obs::traceEnabled())
                obs::setTraceThreadName("serve.conn-" +
                                        std::to_string(conn));
            FdBuf buf(cfd);
            std::istream in(&buf);
            std::ostream out(&buf);
            failures += runChannel(in, out);
            out.flush();
            ::close(cfd);
        });
    }
    for (auto &worker : workers)
        worker.join();
    listenFd_.store(-1);
    ::close(fd);
    return failures.load();
}

int
Server::serveTcp(uint16_t port, uint16_t *boundPort)
{
    uint16_t bound = listenTcp(port);
    if (boundPort)
        *boundPort = bound;
    return acceptLoop();
}

void
Server::shutdown()
{
    stopping_.store(true);
    int fd = listenFd_.load();
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
}

int
runClient(uint16_t port, std::istream &script, std::ostream &out)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("connect: socket: %s", std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        int err = errno;
        ::close(fd);
        fatal("connect 127.0.0.1:%u: %s", unsigned(port),
              std::strerror(err));
    }

    FdBuf buf(fd);
    std::istream rin(&buf);
    std::ostream rout(&buf);

    int failures = 0;
    std::string line;
    if (!std::getline(rin, line)) {
        ::close(fd);
        fatal("connect: server closed before hello");
    }
    out << line << "\n";

    // Lockstep: one request line, one response line. Blank/comment
    // lines draw no response, mirroring the server's skip rule. An
    // `@_` prefix routes to the session this client most recently
    // opened, so one static script serves any number of concurrent
    // clients whose ids differ.
    int64_t lastSession = -1;
    while (std::getline(script, line)) {
        if (lastSession >= 0 && line.rfind("@_", 0) == 0)
            line = "@" + std::to_string(lastSession) + line.substr(2);
        debug::Request req = debug::parseRequestLine(line);
        if (req.cmd.empty() && req.error.empty())
            continue;
        rout << line << "\n" << std::flush;
        std::string resp;
        if (!std::getline(rin, resp))
            break;
        out << resp << "\n";
        if (resp.find("\"ok\":false") != std::string::npos)
            ++failures;
        std::string perr;
        if (auto root = obs::parseJson(resp, &perr)) {
            const auto *payload = root->get("payload");
            if (payload && payload->get("session") &&
                payload->get("session")->isNumber())
                lastSession = static_cast<int64_t>(
                    payload->get("session")->number);
        }
        if (!req.hasSession &&
            (req.cmd == "quit" || req.cmd == "shutdown"))
            break;
    }
    ::close(fd);
    return failures;
}

std::string
checkServeTranscript(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    bool sawHello = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            return csprintf("line %d: empty line", lineno);
        std::string error;
        obs::JsonPtr root = obs::parseJson(line, &error);
        if (!root)
            return csprintf("line %d: %s", lineno, error.c_str());
        if (!root->isObject())
            return csprintf("line %d: not a JSON object", lineno);
        const auto &m = root->members;
        if (!sawHello) {
            if (m.size() < 2 || m[0].first != "proto" ||
                !m[0].second->isString() ||
                m[0].second->text != "hwdbg-serve")
                return csprintf(
                    "line %d: first line must be the hwdbg-serve hello",
                    lineno);
            if (m[1].first != "version" || !m[1].second->isNumber())
                return csprintf("line %d: hello must carry a version",
                                lineno);
            if (m.size() < 3 || m[2].first != "build" ||
                !m[2].second->isObject())
                return csprintf(
                    "line %d: hello must carry build provenance",
                    lineno);
            sawHello = true;
            continue;
        }
        if (m.empty() || m[0].first != "session" ||
            !m[0].second->isNumber())
            return csprintf(
                "line %d: first field must be a numeric \"session\"",
                lineno);
        std::string err =
            debug::checkResponseMembers(*root, 1,
                                        /*stateOptional=*/true);
        if (!err.empty())
            return csprintf("line %d: %s", lineno, err.c_str());
    }
    if (!sawHello)
        return "transcript is empty";
    return "";
}

} // namespace hwdbg::serve
