/**
 * @file
 * Minimal JSON support. Writing: Writer, a streaming emitter that is
 * the one place in the simulator that spells JSON syntax (commas,
 * quoting, escaping, numbers, null for non-finite doubles); every
 * exporter (stats records, accounting, lint and marking reports,
 * self-check outcomes, report tables, trace events) goes through it.
 * Reading: a small recursive-descent parser into a plain Value tree for
 * the aggregation side (dmp report). The parser accepts RFC 8259
 * (\uXXXX escapes decode to UTF-8; surrogate pairs are not combined)
 * and reports malformed input with a byte offset instead of throwing.
 */

#ifndef DMP_COMMON_JSON_HH
#define DMP_COMMON_JSON_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmp::json
{

/** One parsed JSON value; a tagged tree owned by the root. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<Value> array;
    /** Insertion-ordered members (duplicate keys keep the first). */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; nullptr when absent or not an object. */
    const Value *get(std::string_view key) const;

    /** Nested counter-style lookup: get(a) then ->get(b). */
    const Value *get(std::string_view a, std::string_view b) const;

    /** A whole number in [0, 2^64) (parsed as a double: exact to 2^53). */
    bool isU64() const;

    /** Number as u64: 0 below 0 or for a non-number, 2^64-1 from 2^64. */
    std::uint64_t asU64() const;

    /** Number value (0 when not a number). */
    double asDouble() const { return isNumber() ? number : 0.0; }
};

/**
 * Escape `s` for the inside of a JSON string literal: quote, backslash,
 * newline and tab by name, every other byte below 0x20 as \u00XX, and
 * everything else unchanged.
 */
std::string escape(std::string_view s);

/**
 * Streaming JSON emitter, the only code that spells JSON syntax. It
 * places every comma, escapes keys and strings, prints integers
 * exactly and doubles as "%.<digits>g" (non-finite ones as null), and
 * adds no whitespace but newline(). Calls chain:
 *
 *     w.beginObject().field("n", 3).key("xs").beginArray()
 *         .value(1.5).null().endArray().endObject();
 *     // {"n":3,"xs":[1.5,null]}
 *
 * take() hands out the text so far and keeps the open containers
 * open, so a long document can stream.
 */
class Writer
{
  public:
    /** @param digits significant digits of a double by default */
    explicit Writer(int digits = 6) : digits(digits) {}

    Writer &beginObject() { return open('{', '}'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('[', ']'); }
    Writer &endArray() { return close(']'); }
    /** Member name; the next call writes its value. */
    Writer &key(std::string_view k);
    Writer &value(std::string_view s) { return literal('"' + escape(s) + '"'); }
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return literal(b ? "true" : "false"); }
    Writer &value(double v) { return value(v, digits); }
    /** A double at `digits` significant digits instead of the default. */
    Writer &value(double v, int digits);
    Writer &null() { return literal("null"); }
    template <std::integral T>
    Writer &
    value(T v)
    {
        char buf[24];
        return literal({buf, std::to_chars(buf, buf + 24, v).ptr});
    }
    template <typename T>
    Writer &
    field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }
    /** Splice `json`, one already-rendered value, in as the next value. */
    Writer &raw(std::string_view json) { return literal(json); }
    /** Start the next element or closing bracket on a new line. */
    Writer &
    newline()
    {
        pendingNewline = true;
        return *this;
    }

    const std::string &str() const { return out; }
    std::string take() { return std::exchange(out, {}); }

  private:
    Writer &open(char bracket, char closer);
    Writer &close(char closer);
    /** Write `text` as the next element, after any comma or newline. */
    Writer &literal(std::string_view text);

    int digits;
    std::string out;
    std::vector<char> closers; ///< of the open containers, innermost last
    bool empty = true;         ///< innermost container has no element yet
    bool afterKey = false;
    bool pendingNewline = false;
};

/**
 * Parse one JSON document.
 * @return true on success; on failure `err` holds "offset N: reason".
 */
bool parse(std::string_view text, Value &out, std::string &err);

} // namespace dmp::json

#endif // DMP_COMMON_JSON_HH
