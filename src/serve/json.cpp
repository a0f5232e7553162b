#include "serve/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "robust/status.h"

namespace mlpart::serve {

namespace {

using robust::Error;
using robust::StatusCode;

[[noreturn]] void malformed(const std::string& message) {
    throw Error(StatusCode::kParseError, "json: " + message);
}

struct Parser {
    const char* p;
    const char* end;

    void skipWs() {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
    }
    [[nodiscard]] bool atEnd() {
        skipWs();
        return p >= end;
    }
    char peek() {
        skipWs();
        if (p >= end) malformed("unexpected end of input");
        return *p;
    }
    void expect(char c) {
        if (peek() != c) malformed(std::string("expected '") + c + "', got '" + *p + "'");
        ++p;
    }

    // Appends a UTF-8 encoding of `cp` (for \uXXXX escapes).
    static void appendUtf8(std::string& s, unsigned cp) {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    std::string parseString() {
        expect('"');
        std::string s;
        while (true) {
            if (p >= end) malformed("unterminated string");
            const char c = *p++;
            if (c == '"') return s;
            if (static_cast<unsigned char>(c) < 0x20) malformed("raw control byte in string");
            if (c != '\\') {
                s += c;
                continue;
            }
            if (p >= end) malformed("dangling escape at end of string");
            const char e = *p++;
            switch (e) {
                case '"': s += '"'; break;
                case '\\': s += '\\'; break;
                case '/': s += '/'; break;
                case 'b': s += '\b'; break;
                case 'f': s += '\f'; break;
                case 'n': s += '\n'; break;
                case 'r': s += '\r'; break;
                case 't': s += '\t'; break;
                case 'u': {
                    if (end - p < 4) malformed("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = *p++;
                        cp <<= 4;
                        if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
                        else malformed("bad hex digit in \\u escape");
                    }
                    appendUtf8(s, cp);
                    break;
                }
                default: malformed(std::string("unknown escape '\\") + e + "'");
            }
        }
    }

    JsonValue parseValue() {
        const char c = peek();
        JsonValue v;
        if (c == '"') {
            v.kind = JsonValue::Kind::kString;
            v.str = parseString();
            return v;
        }
        if (c == '{' || c == '[')
            malformed("nested containers are not part of the flat job schema");
        if (c == 't' || c == 'f') {
            const std::string word(c == 't' ? "true" : "false");
            if (static_cast<std::size_t>(end - p) < word.size() ||
                std::string(p, word.size()) != word)
                malformed("bad literal");
            p += word.size();
            v.kind = JsonValue::Kind::kBool;
            v.boolean = c == 't';
            return v;
        }
        if (c == 'n') {
            if (end - p < 4 || std::string(p, 4) != "null") malformed("bad literal");
            p += 4;
            v.kind = JsonValue::Kind::kNull;
            return v;
        }
        // Number: delegate syntax to strtod but forbid leading junk.
        if (c != '-' && (c < '0' || c > '9')) malformed(std::string("unexpected '") + c + "'");
        char* numEnd = nullptr;
        const double d = std::strtod(p, &numEnd);
        if (numEnd == p || !std::isfinite(d)) malformed("malformed number");
        p = numEnd;
        v.kind = JsonValue::Kind::kNumber;
        v.num = d;
        return v;
    }
};

} // namespace

JsonObject parseJsonObject(const std::string& text) {
    Parser in{text.data(), text.data() + text.size()};
    in.expect('{');
    JsonObject obj;
    if (in.peek() != '}') {
        while (true) {
            const std::string key = in.parseString();
            in.expect(':');
            if (!obj.emplace(key, in.parseValue()).second)
                malformed("duplicate key \"" + key + "\"");
            const char c = in.peek();
            if (c == ',') {
                ++in.p;
                continue;
            }
            break;
        }
    }
    in.expect('}');
    if (!in.atEnd()) malformed("trailing garbage after object");
    return obj;
}

std::string jsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
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

void JsonWriter::key(const std::string& k) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += jsonEscape(k);
    body_ += "\":";
}

JsonWriter& JsonWriter::field(const std::string& k, const std::string& value) {
    key(k);
    body_ += '"';
    body_ += jsonEscape(value);
    body_ += '"';
    return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, const char* value) {
    return field(k, std::string(value));
}

JsonWriter& JsonWriter::field(const std::string& k, double value) {
    key(k);
    // Shortest text that parses back to the same bits: 0.1, not
    // 0.10000000000000001.
    char buf[64];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
    body_.append(buf, r.ptr);
    return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, std::int64_t value) {
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, bool value) {
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

JsonWriter& JsonWriter::raw(const std::string& k, const std::string& rawJson) {
    key(k);
    body_ += rawJson;
    return *this;
}

namespace {

const JsonValue* find(const JsonObject& o, const std::string& k) {
    const auto it = o.find(k);
    return it == o.end() || it->second.kind == JsonValue::Kind::kNull ? nullptr : &it->second;
}

[[noreturn]] void wrongType(const std::string& key, const char* want) {
    malformed("field \"" + key + "\" must be a " + want);
}

} // namespace

std::string getString(const JsonObject& o, const std::string& key, const std::string& def) {
    const JsonValue* v = find(o, key);
    if (v == nullptr) return def;
    if (v->kind != JsonValue::Kind::kString) wrongType(key, "string");
    return v->str;
}

double getNumber(const JsonObject& o, const std::string& key, double def) {
    const JsonValue* v = find(o, key);
    if (v == nullptr) return def;
    if (v->kind != JsonValue::Kind::kNumber) wrongType(key, "number");
    return v->num;
}

std::int64_t getInt(const JsonObject& o, const std::string& key, std::int64_t def) {
    const JsonValue* v = find(o, key);
    if (v == nullptr) return def;
    if (v->kind != JsonValue::Kind::kNumber) wrongType(key, "number");
    const double d = v->num;
    if (d != static_cast<double>(static_cast<std::int64_t>(d)))
        malformed("field \"" + key + "\" must be an integer");
    return static_cast<std::int64_t>(d);
}

bool getBool(const JsonObject& o, const std::string& key, bool def) {
    const JsonValue* v = find(o, key);
    if (v == nullptr) return def;
    if (v->kind != JsonValue::Kind::kBool) wrongType(key, "bool");
    return v->boolean;
}

} // namespace mlpart::serve
