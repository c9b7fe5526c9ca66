/**
 * @file
 * The hwdbg debug machine protocol: JSON-lines request/response.
 *
 * Machine mode (`hwdbg debug --machine`) speaks one JSON object per
 * line, synchronously: every request line yields exactly one response
 * line, in order. The first output line is the hello object; no output
 * is produced unprompted after it, so a transcript is a deterministic
 * function of the session script (the golden-diff property
 * tests/cli_debug.cmake relies on).
 *
 *   hello     {"proto":"hwdbg-debug","version":1,"design":...,
 *              "steps":N,"signals":N}
 *   response  {"id":<n|null>,"ok":true,["error":...,]"cmd":...,
 *              ["payload":{...},]
 *              "state":{"cycle":N,"step":N,"finished":b,"end":b}}
 *
 * Field order is fixed exactly as above; checkDebugTranscript()
 * enforces it (the obscheck-style schema validation for this format).
 * Requests are either JSON objects {"id":1,"cmd":"break",
 * "args":["state == 3"]} or bare REPL command lines ("break state ==
 * 3") — both forms normalize to the same Request, so the same script
 * file drives human and machine sessions.
 */

#ifndef HWDBG_DEBUG_PROTOCOL_HH
#define HWDBG_DEBUG_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hwdbg::obs
{
struct JsonValue;
}

namespace hwdbg::debug
{

/** A normalized request: a command word plus argument tokens. */
struct Request
{
    bool hasId = false;
    int64_t id = 0;
    /** Serve-mode session routing: JSON `"session":N` or a bare-text
     *  `@N ` prefix. Absent (hasSession false) in plain debug mode and
     *  for serve's own server-level commands. */
    bool hasSession = false;
    int64_t session = 0;
    std::string cmd;
    std::vector<std::string> args;
    /** Non-empty when the line could not be parsed. */
    std::string error;
};

/** Parse one input line (JSON object or bare command text). */
Request parseRequestLine(const std::string &line);

/**
 * Parse a decimal argument: one or more digits and nothing else, no
 * larger than 2^64-1. False on anything else, overflow included.
 */
bool parseU64(const std::string &text, uint64_t *out);

/**
 * Ordered JSON object writer: fields appear exactly in call order,
 * which is what gives machine transcripts their byte determinism.
 */
class JsonObject
{
  public:
    JsonObject &field(const std::string &key, const std::string &value);
    JsonObject &field(const std::string &key, int64_t value);
    JsonObject &field(const std::string &key, uint64_t value);
    JsonObject &field(const std::string &key, bool value);
    /** Pre-rendered JSON (nested object/array/null). */
    JsonObject &raw(const std::string &key, const std::string &json);

    std::string str() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &k);
    std::string body_;
};

/** Render a JSON array from pre-rendered element strings. */
std::string jsonArray(const std::vector<std::string> &elems);

/**
 * Validate a machine-mode transcript: hello line first, then response
 * objects with the exact field order and state shape documented above.
 * Returns "" when valid, else "line N: reason".
 */
std::string checkDebugTranscript(const std::string &text);

/**
 * Validate response members of a parsed JSON object starting at member
 * index @p from: id/ok/[error]/cmd/[payload]/state in exactly that
 * order. With @p stateOptional the trailing state object may be absent
 * (serve's server-level responses); when present it is still fully
 * validated. Returns "" when valid, else a reason. Serve prepends a
 * "session" member and validates the rest with from = 1.
 */
std::string checkResponseMembers(const obs::JsonValue &obj, size_t from,
                                 bool stateOptional);

} // namespace hwdbg::debug

#endif // HWDBG_DEBUG_PROTOCOL_HH
