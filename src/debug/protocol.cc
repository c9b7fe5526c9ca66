#include "debug/protocol.hh"

#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/jsoncheck.hh"

namespace hwdbg::debug
{

using obs::jsonEscape;

void
JsonObject::key(const std::string &k)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"';
    body_ += jsonEscape(k);
    body_ += "\":";
}

JsonObject &
JsonObject::field(const std::string &k, const std::string &value)
{
    key(k);
    body_ += '"';
    body_ += jsonEscape(value);
    body_ += '"';
    return *this;
}

JsonObject &
JsonObject::field(const std::string &k, int64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::field(const std::string &k, uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::field(const std::string &k, bool value)
{
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

JsonObject &
JsonObject::raw(const std::string &k, const std::string &json)
{
    key(k);
    body_ += json;
    return *this;
}

std::string
jsonArray(const std::vector<std::string> &elems)
{
    std::string out = "[";
    for (size_t i = 0; i < elems.size(); ++i) {
        if (i)
            out += ",";
        out += elems[i];
    }
    return out + "]";
}

bool
parseU64(const std::string &text, uint64_t *out)
{
    if (text.empty())
        return false;
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        uint64_t digit = uint64_t(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    *out = value;
    return true;
}

Request
parseRequestLine(const std::string &line)
{
    Request req;

    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return req; // empty; caller skips empty cmd

    if (line[first] == '{') {
        std::string error;
        obs::JsonPtr root = obs::parseJson(line, &error);
        if (!root || !root->isObject()) {
            req.error = "bad JSON request: " + error;
            return req;
        }
        if (const auto *id = root->get("id"); id && id->isNumber()) {
            req.hasId = true;
            req.id = static_cast<int64_t>(id->number);
        }
        if (const auto *sess = root->get("session");
            sess && sess->isNumber()) {
            req.hasSession = true;
            req.session = static_cast<int64_t>(sess->number);
        }
        const auto *cmd = root->get("cmd");
        if (!cmd || !cmd->isString()) {
            req.error = "request is missing a string \"cmd\"";
            return req;
        }
        req.cmd = cmd->text;
        if (const auto *args = root->get("args")) {
            if (!args->isArray()) {
                req.error = "\"args\" must be an array of strings";
                return req;
            }
            for (const auto &elem : args->elems) {
                if (!elem->isString()) {
                    req.error = "\"args\" must be an array of strings";
                    return req;
                }
                // Multi-word argument strings normalize to the same
                // token stream a bare command line produces.
                std::istringstream toks(elem->text);
                std::string tok;
                while (toks >> tok)
                    req.args.push_back(tok);
            }
        }
        return req;
    }

    if (line[first] == '#')
        return req; // comment line

    std::istringstream toks(line);
    toks >> req.cmd;
    // Bare-text session routing: "@2 step 5" targets session 2.
    if (req.cmd.size() > 1 && req.cmd[0] == '@') {
        bool digits = true;
        for (size_t i = 1; i < req.cmd.size(); ++i)
            digits = digits && req.cmd[i] >= '0' && req.cmd[i] <= '9';
        if (!digits) {
            req.error = "bad session prefix '" + req.cmd + "'";
            req.cmd.clear();
            return req;
        }
        req.hasSession = true;
        req.session = std::stoll(req.cmd.substr(1));
        req.cmd.clear();
        toks >> req.cmd;
        if (req.cmd.empty()) {
            req.error = "session prefix without a command";
            return req;
        }
    }
    std::string tok;
    while (toks >> tok)
        req.args.push_back(tok);
    return req;
}

namespace
{

std::string
checkStateObject(const obs::JsonValue &state)
{
    if (state.kind != obs::JsonValue::Kind::Object)
        return "\"state\" is not an object";
    static const char *keys[] = {"cycle", "step", "finished", "end"};
    if (state.members.size() != 4)
        return "\"state\" must have exactly cycle/step/finished/end";
    for (size_t i = 0; i < 4; ++i) {
        if (state.members[i].first != keys[i])
            return csprintf("state field %zu must be \"%s\"", i, keys[i]);
        const auto &val = *state.members[i].second;
        bool wantBool = i >= 2;
        if (wantBool && val.kind != obs::JsonValue::Kind::Bool)
            return csprintf("state.%s must be a boolean", keys[i]);
        if (!wantBool && !val.isNumber())
            return csprintf("state.%s must be a number", keys[i]);
    }
    return "";
}

} // namespace

std::string
checkResponseMembers(const obs::JsonValue &obj, size_t from,
                     bool stateOptional)
{
    const auto &m = obj.members;
    size_t i = from;
    auto has = [&](const char *k) {
        return i < m.size() && m[i].first == k;
    };

    if (!has("id"))
        return "first field must be \"id\"";
    if (!m[i].second->isNumber() &&
        m[i].second->kind != obs::JsonValue::Kind::Null)
        return "\"id\" must be a number or null";
    ++i;

    if (!has("ok"))
        return "second field must be \"ok\"";
    if (m[i].second->kind != obs::JsonValue::Kind::Bool)
        return "\"ok\" must be a boolean";
    bool ok = m[i].second->boolean;
    ++i;

    if (has("error")) {
        if (ok)
            return "\"error\" is only allowed when ok is false";
        if (!m[i].second->isString())
            return "\"error\" must be a string";
        ++i;
    } else if (!ok) {
        return "failed responses must carry \"error\"";
    }

    if (!has("cmd"))
        return "expected \"cmd\" after ok/error";
    if (!m[i].second->isString())
        return "\"cmd\" must be a string";
    ++i;

    if (has("payload")) {
        if (m[i].second->kind != obs::JsonValue::Kind::Object)
            return "\"payload\" must be an object";
        ++i;
    }

    if (has("state")) {
        std::string err = checkStateObject(*m[i].second);
        if (!err.empty())
            return err;
        ++i;
    } else if (!stateOptional) {
        return "expected \"state\" as the final field";
    }

    if (i != m.size())
        return "unexpected field \"" + m[i].first + "\" after state";
    return "";
}

std::string
checkDebugTranscript(const std::string &text)
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
        if (root->kind != obs::JsonValue::Kind::Object)
            return csprintf("line %d: not a JSON object", lineno);
        if (!sawHello) {
            const auto &m = root->members;
            if (m.size() < 2 || m[0].first != "proto" ||
                !m[0].second->isString() ||
                m[0].second->text != "hwdbg-debug")
                return csprintf(
                    "line %d: first line must be the hwdbg-debug hello",
                    lineno);
            if (m[1].first != "version" || !m[1].second->isNumber())
                return csprintf("line %d: hello must carry a version",
                                lineno);
            sawHello = true;
            continue;
        }
        std::string err =
            checkResponseMembers(*root, 0, /*stateOptional=*/false);
        if (!err.empty())
            return csprintf("line %d: %s", lineno, err.c_str());
    }
    if (!sawHello)
        return "transcript is empty";
    return "";
}

} // namespace hwdbg::debug
