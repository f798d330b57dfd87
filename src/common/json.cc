#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace dmp::json
{

const Value *
Value::get(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

const Value *
Value::get(std::string_view a, std::string_view b) const
{
    const Value *v = get(a);
    return v ? v->get(b) : nullptr;
}

bool
Value::isU64() const
{
    return isNumber() && number >= 0 && number < 0x1p64 &&
           number == std::floor(number);
}

std::uint64_t
Value::asU64() const
{
    if (!isNumber() || !(number >= 0))
        return 0;
    // Converting a double at or past 2^64 to an integer is undefined.
    return number < 0x1p64 ? std::uint64_t(number) : ~std::uint64_t(0);
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

Writer &
Writer::literal(std::string_view text)
{
    if (!afterKey && !closers.empty() && !std::exchange(empty, false))
        out += ',';
    if (!afterKey && std::exchange(pendingNewline, false))
        out += '\n';
    afterKey = false;
    out += text;
    return *this;
}

Writer &
Writer::open(char bracket, char closer)
{
    literal({&bracket, 1});
    closers.push_back(closer);
    empty = true;
    return *this;
}

Writer &
Writer::close(char closer)
{
    dmp_assert(!closers.empty() && closers.back() == closer && !afterKey,
               "json::Writer: unbalanced '", closer, "'");
    if (std::exchange(pendingNewline, false))
        out += '\n';
    out += closer;
    closers.pop_back();
    empty = false; // the closed container was an element of its parent
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    dmp_assert(!closers.empty() && closers.back() == '}' && !afterKey,
               "json::Writer: key \"", k, "\" outside an object");
    value(k);
    out += ':';
    afterKey = true;
    return *this;
}

Writer &
Writer::value(double v, int digits)
{
    if (!std::isfinite(v))
        return null(); // JSON has no NaN or Inf
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    return literal(buf);
}

namespace
{

/** Recursive-descent parser over one in-memory document. */
class Parser
{
  public:
    Parser(std::string_view text, std::string &err_)
        : s(text), err(err_)
    {
    }

    bool
    document(Value &out)
    {
        skipWs();
        if (!value(out, 0))
            return false;
        skipWs();
        if (pos != s.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const char *reason)
    {
        err = "offset " + std::to_string(pos) + ": " + reason;
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    literal(const char *word, std::size_t n)
    {
        if (s.compare(pos, n, word) != 0)
            return fail("bad literal");
        pos += n;
        return true;
    }

    bool
    value(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos >= s.size())
            return fail("unexpected end of input");
        switch (s[pos]) {
          case '{':
            return objectValue(out, depth);
          case '[':
            return arrayValue(out, depth);
          case '"':
            out.kind = Value::Kind::String;
            return stringValue(out.string);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
          case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
          case 'n':
            out.kind = Value::Kind::Null;
            return literal("null", 4);
          default:
            return numberValue(out);
        }
    }

    bool
    stringValue(std::string &out)
    {
        ++pos; // opening quote
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos];
            if (c == '\\') {
                if (pos + 1 >= s.size())
                    return fail("unterminated escape");
                char e = s[pos + 1];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/':
                    out += e;
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'u':
                    if (!unicodeEscape(out))
                        return false;
                    continue;
                  default:
                    return fail("unsupported escape");
                }
                pos += 2;
            } else {
                out += c;
                ++pos;
            }
        }
        if (pos >= s.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    /** \uXXXX at pos: append the code point as UTF-8. */
    bool
    unicodeEscape(std::string &out)
    {
        if (pos + 6 > s.size())
            return fail("truncated \\u escape");
        for (std::size_t i = pos + 2; i < pos + 6; ++i)
            if (!std::isxdigit(static_cast<unsigned char>(s[i])))
                return fail("bad \\u escape");
        const unsigned long cp = std::strtoul(
            std::string(s.substr(pos + 2, 4)).c_str(), nullptr, 16);
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xc0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3f));
        } else {
            out += char(0xe0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3f));
            out += char(0x80 | (cp & 0x3f));
        }
        pos += 6;
        return true;
    }

    bool
    numberValue(Value &out)
    {
        std::size_t start = pos;
        if (pos < s.size() && (s[pos] == '-' || s[pos] == '+'))
            ++pos;
        bool digits = false;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-')) {
            if (std::isdigit(static_cast<unsigned char>(s[pos])))
                digits = true;
            ++pos;
        }
        if (!digits) {
            pos = start;
            return fail("expected a value");
        }
        out.kind = Value::Kind::Number;
        out.number = std::strtod(std::string(s.substr(start, pos - start))
                                     .c_str(),
                                 nullptr);
        return true;
    }

    bool
    arrayValue(Value &out, int depth)
    {
        out.kind = Value::Kind::Array;
        ++pos; // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            Value elem;
            if (!value(elem, depth + 1))
                return false;
            out.array.push_back(std::move(elem));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated array");
            if (s[pos] == ',') {
                ++pos;
                skipWs();
                continue;
            }
            if (s[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    objectValue(Value &out, int depth)
    {
        out.kind = Value::Kind::Object;
        ++pos; // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (pos >= s.size() || s[pos] != '"')
                return fail("expected a string key");
            std::string key;
            if (!stringValue(key))
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':' after key");
            ++pos;
            skipWs();
            Value member;
            if (!value(member, depth + 1))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated object");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    std::string_view s;
    std::string &err;
    std::size_t pos = 0;
};

} // namespace

bool
parse(std::string_view text, Value &out, std::string &err)
{
    out = Value{};
    err.clear();
    return Parser(text, err).document(out);
}

} // namespace dmp::json
