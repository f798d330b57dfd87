/**
 * @file
 * Unit tests for the minimal JSON writer and reader (common/json.hh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/json.hh"
#include "../testutil.hh"

namespace dmp::json
{
namespace
{

Value
parseOk(const std::string &text)
{
    Value v;
    std::string err;
    EXPECT_TRUE(parse(text, v, err)) << text << "\n" << err;
    return v;
}

std::string
parseErr(const std::string &text)
{
    Value v;
    std::string err;
    EXPECT_FALSE(parse(text, v, err)) << text;
    return err;
}

TEST(Json, Scalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").boolean);
    EXPECT_FALSE(parseOk("false").boolean);
    EXPECT_DOUBLE_EQ(parseOk("42").number, 42.0);
    EXPECT_DOUBLE_EQ(parseOk("-3.5").number, -3.5);
    EXPECT_DOUBLE_EQ(parseOk("1e3").number, 1000.0);
    EXPECT_EQ(parseOk("\"hi\"").string, "hi");
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(parseOk("\"a\\\"b\"").string, "a\"b");
    EXPECT_EQ(parseOk("\"a\\\\b\"").string, "a\\b");
    EXPECT_EQ(parseOk("\"a\\nb\\tc\"").string, "a\nb\tc");
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(parseOk("\"a\\u0001b\"").string, std::string("a\x01" "b"));
    EXPECT_EQ(parseOk("\"\\u00e9\"").string, "\xc3\xa9");
    EXPECT_EQ(parseOk("\"\\u20AC\"").string, "\xe2\x82\xac");
    EXPECT_NE(parseErr("\"\\u00\"").find("offset"), std::string::npos);
    EXPECT_NE(parseErr("\"\\u00zz\"").find("offset"), std::string::npos);
}

TEST(Json, EscapeRoundTripsEveryByte)
{
    std::string all;
    for (int c = 1; c < 256; ++c)
        all += char(c);
    std::string quoted = "\"";
    quoted += escape(all);
    quoted += '"';
    EXPECT_EQ(parseOk(quoted).string, all);
    // Names without control bytes keep their old spelling.
    EXPECT_EQ(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(escape(std::string("\t\x01\x1f")), "\\t\\u0001\\u001f");
}

TEST(Json, ArraysAndNesting)
{
    Value v = parseOk("[1, [2, 3], {\"k\": 4}]");
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.array.size(), 3u);
    EXPECT_DOUBLE_EQ(v.array[0].number, 1.0);
    ASSERT_TRUE(v.array[1].isArray());
    EXPECT_DOUBLE_EQ(v.array[1].array[1].number, 3.0);
    EXPECT_EQ(v.array[2].get("k")->asU64(), 4u);
    EXPECT_TRUE(parseOk("[]").array.empty());
    EXPECT_TRUE(parseOk("{}").object.empty());
}

TEST(Json, ObjectLookup)
{
    Value v = parseOk("{\"a\": 1, \"b\": {\"c\": 2}}");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.get("a")->asU64(), 1u);
    EXPECT_EQ(v.get("b", "c")->asU64(), 2u);
    EXPECT_EQ(v.get("missing"), nullptr);
    EXPECT_EQ(v.get("a", "nested"), nullptr); // "a" is not an object
}

TEST(Json, ObjectKeepsInsertionOrder)
{
    Value v = parseOk("{\"z\": 1, \"a\": 2, \"m\": 3}");
    ASSERT_EQ(v.object.size(), 3u);
    EXPECT_EQ(v.object[0].first, "z");
    EXPECT_EQ(v.object[1].first, "a");
    EXPECT_EQ(v.object[2].first, "m");
}

TEST(Json, AsU64Conversions)
{
    EXPECT_EQ(parseOk("7").asU64(), 7u);
    EXPECT_EQ(parseOk("-7").asU64(), 0u);     // negative clamps to 0
    EXPECT_EQ(parseOk("\"7\"").asU64(), 0u);  // not a number
    EXPECT_DOUBLE_EQ(parseOk("\"x\"").asDouble(), 0.0);
    // Past 2^64 a cast would be undefined; asU64 saturates instead.
    EXPECT_EQ(parseOk("1e30").asU64(), ~std::uint64_t(0));
    EXPECT_EQ(parseOk("18446744073709551616").asU64(), ~std::uint64_t(0));
    EXPECT_EQ(parseOk("1e999").asU64(), ~std::uint64_t(0));
    EXPECT_EQ(parseOk("2.5").asU64(), 2u);
}

TEST(Json, IsU64AcceptsOnlyWholeNumbersBelow2To64)
{
    EXPECT_TRUE(parseOk("0").isU64());
    EXPECT_TRUE(parseOk("9007199254740992").isU64()); // 2^53
    EXPECT_FALSE(parseOk("18446744073709551616").isU64()); // 2^64
    EXPECT_FALSE(parseOk("1e30").isU64());
    EXPECT_FALSE(parseOk("-3").isU64());
    EXPECT_FALSE(parseOk("2.5").isU64());
    EXPECT_FALSE(parseOk("\"3\"").isU64());
    EXPECT_FALSE(parseOk("null").isU64());
}

TEST(Json, ErrorsCarryOffset)
{
    EXPECT_NE(parseErr("{\"a\": }").find("offset"), std::string::npos);
    EXPECT_NE(parseErr("[1, 2").find("offset"), std::string::npos);
    EXPECT_NE(parseErr("").find("offset"), std::string::npos);
    EXPECT_NE(parseErr("{\"a\": 1} trailing").find("offset"),
              std::string::npos);
    EXPECT_NE(parseErr("\"unterminated").find("offset"),
              std::string::npos);
}

TEST(Json, DepthLimitRejectsDeepNesting)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_FALSE(parseErr(deep).empty());
    // A document inside the limit still parses.
    std::string ok(30, '[');
    ok += std::string(30, ']');
    parseOk(ok);
}

TEST(Json, ParsesAStatsStyleRecord)
{
    Value v = parseOk(
        "{\"schema\":1,\"label\":\"base\",\"ipc\":0.424,"
        "\"counters\":{\"pipeline_flushes\":539},"
        "\"accounting\":{\"buckets\":{\"idle\":0},"
        "\"branches\":[{\"pc\":\"0x1300\",\"net_cycles\":-1.5}]}}");
    EXPECT_EQ(v.get("schema")->asU64(), 1u);
    EXPECT_EQ(v.get("counters", "pipeline_flushes")->asU64(), 539u);
    const Value *branches = v.get("accounting", "branches");
    ASSERT_NE(branches, nullptr);
    EXPECT_EQ(branches->array[0].get("pc")->string, "0x1300");
    EXPECT_DOUBLE_EQ(branches->array[0].get("net_cycles")->asDouble(),
                     -1.5);
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/** The writer's text, which must also parse. */
std::string
written(const Writer &w)
{
    parseOk(w.str());
    return w.str();
}

TEST(JsonWriter, EmptyContainers)
{
    Writer w;
    w.beginArray().beginObject().endObject().beginArray().endArray();
    w.endArray();
    EXPECT_EQ(written(w), "[{},[]]");
}

TEST(JsonWriter, NestedContainersPlaceEveryComma)
{
    Writer w;
    w.beginObject()
        .field("a", 1)
        .key("b")
        .beginArray()
        .value(2)
        .beginObject()
        .field("c", true)
        .field("d", false)
        .endObject()
        .beginArray()
        .endArray()
        .null()
        .endArray()
        .field("e", "x")
        .endObject();
    EXPECT_EQ(written(w),
              "{\"a\":1,\"b\":[2,{\"c\":true,\"d\":false},[],null],"
              "\"e\":\"x\"}");
}

TEST(JsonWriter, EscapesKeysAndValues)
{
    const std::string &name = test::kJsonName;
    Writer w;
    w.beginObject().field(name, name).endObject();
    const std::string esc = escape(name);
    EXPECT_EQ(w.str(), "{\"" + esc + "\":\"" + esc + "\"}");
    Value v = parseOk(written(w));
    ASSERT_EQ(v.object.size(), 1u);
    EXPECT_EQ(v.object[0].first, name);
    EXPECT_EQ(v.object[0].second.string, name);
}

TEST(JsonWriter, IntegersPrintExactly)
{
    Writer w;
    w.beginArray()
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(std::numeric_limits<std::int64_t>::min())
        .value(std::uint8_t(7))
        .value(-3)
        .endArray();
    EXPECT_EQ(written(w),
              "[18446744073709551615,-9223372036854775808,7,-3]");
}

TEST(JsonWriter, DoublesUseTheWritersDigits)
{
    Writer six;
    six.beginArray().value(1.0 / 3).value(2.0).value(1e20).value(-0.25);
    six.value(1.0 / 3, 12).endArray();
    EXPECT_EQ(written(six),
              "[0.333333,2,1e+20,-0.25,0.333333333333]");

    Writer twelve(12);
    twelve.beginArray().value(1.0 / 3).value(1.47234749585).endArray();
    EXPECT_EQ(written(twelve), "[0.333333333333,1.47234749585]");
}

TEST(JsonWriter, NonFiniteDoublesAreNull)
{
    Writer w;
    w.beginObject()
        .field("nan", std::nan(""))
        .field("inf", std::numeric_limits<double>::infinity())
        .field("ninf", -std::numeric_limits<double>::infinity())
        .endObject();
    EXPECT_EQ(written(w), "{\"nan\":null,\"inf\":null,\"ninf\":null}");
}

TEST(JsonWriter, NewlineGoesAfterTheCommaAndBeforeTheBracket)
{
    Writer w;
    w.beginObject().key("targets").beginArray();
    for (int i = 0; i < 3; ++i)
        w.newline().value(i);
    w.newline().endArray().field("n", 3).endObject();
    EXPECT_EQ(written(w), "{\"targets\":[\n0,\n1,\n2\n],\"n\":3}");
}

TEST(JsonWriter, RawSplicesOneValue)
{
    Writer w;
    w.beginArray().raw("{\"k\":[1]}").value(2).endArray();
    EXPECT_EQ(written(w), "[{\"k\":[1]},2]");
}

TEST(JsonWriter, TakeStreamsWithoutLosingNesting)
{
    Writer w;
    w.beginArray().value(1);
    std::string text = w.take();
    EXPECT_EQ(text, "[1");
    EXPECT_TRUE(w.str().empty());
    w.value(2).endArray();
    text += w.take();
    EXPECT_EQ(text, "[1,2]");
    parseOk(text);
}

} // namespace
} // namespace dmp::json
