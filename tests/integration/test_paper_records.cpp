/**
 * @file
 * The committed figure records. `dmp paper all` at the default 2000
 * iterations is regenerated in-process, trimmed to what a table reads
 * (host_seconds and distributions dropped; the counters and
 * marking blocks kept whole), and must equal
 * tests/sim/reference/paper_records.jsonl byte for byte. A mismatch
 * names the figures, cells, workload and field of each record that
 * moved. The regenerated file is left as paper_records.jsonl in this
 * test's build directory, so an intended change is committed by
 * copying that file over the reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/batch.hh"
#include "sim/paper.hh"
#include "workloads/workloads.hh"

namespace dmp
{
namespace
{

/** `v` written back with `w`; top-level members in `drop` are left out. */
void
emit(json::Writer &w, const json::Value &v,
     const std::vector<std::string> &drop = {})
{
    switch (v.kind) {
      case json::Value::Kind::Null:
        w.null();
        break;
      case json::Value::Kind::Bool:
        w.value(v.boolean);
        break;
      case json::Value::Kind::Number:
        // simResultJson writes integers exactly and doubles at 12
        // digits; the doubles it writes at 6 print the same at 12.
        if (v.isU64())
            w.value(v.asU64());
        else
            w.value(v.number, 12);
        break;
      case json::Value::Kind::String:
        w.value(v.string);
        break;
      case json::Value::Kind::Array:
        w.beginArray();
        for (const json::Value &e : v.array)
            emit(w, e);
        w.endArray();
        break;
      case json::Value::Kind::Object:
        w.beginObject();
        for (const auto &[k, e] : v.object) {
            if (std::find(drop.begin(), drop.end(), k) == drop.end())
                emit(w.key(k), e);
        }
        w.endObject();
        break;
    }
}

/** Record `line` without the fields no figure reads. */
std::string
trimmed(const std::string &line)
{
    json::Value doc;
    std::string err;
    EXPECT_TRUE(json::parse(line, doc, err)) << err;
    json::Writer w;
    emit(w, doc, {"host_seconds", "distributions"});
    return w.take();
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

std::string
show(const json::Value &v)
{
    if (v.isNumber()) {
        std::ostringstream os;
        os.precision(12);
        os << v.number;
        return os.str();
    }
    if (v.isString())
        return '"' + v.string.substr(0, 40) + '"';
    return v.isObject() ? "an object" : v.isArray() ? "an array" : "null";
}

/**
 * The first field at or under `path` where `want` and `got` differ,
 * with both values; empty when they are equal.
 */
std::string
firstDifference(const json::Value &want, const json::Value &got,
                const std::string &path)
{
    if (want.isObject() && got.isObject()) {
        for (const auto &[k, w] : want.object) {
            const json::Value *g = got.get(k);
            if (!g)
                return path + k + " is gone";
            if (std::string d = firstDifference(w, *g, path + k + ".");
                !d.empty())
                return d;
        }
        for (const auto &[k, g] : got.object)
            if (!want.get(k))
                return path + k + " is new";
        return "";
    }
    if (want.isArray() && got.isArray()) {
        for (std::size_t i = 0; i < want.array.size() && i < got.array.size();
             ++i)
            if (std::string d = firstDifference(
                    want.array[i], got.array[i],
                    path + "[" + std::to_string(i) + "].");
                !d.empty())
                return d;
        if (want.array.size() != got.array.size())
            return path + " length " + std::to_string(want.array.size()) +
                   " -> " + std::to_string(got.array.size());
        return "";
    }
    if (show(want) == show(got) && want.kind == got.kind)
        return "";
    return path.substr(0, path.size() - 1) + ": committed " + show(want) +
           ", regenerated " + show(got);
}

TEST(PaperRecords, MatchCommittedReference)
{
    sim::PaperOptions opts; // the default iterations, no accounting
    for (const auto &info : workloads::workloadList())
        opts.workloads.push_back(info.name);
    std::vector<const sim::Figure *> figs;
    for (const sim::Figure &f : sim::figures())
        figs.push_back(&f);
    sim::BatchRunner runner;
    std::string regenerated;
    for (const std::string &line : sim::runPaper(figs, opts, runner))
        regenerated += trimmed(line) + "\n";

    const std::string out_path =
        std::string(DMP_TEST_OUTPUT_DIR) + "/paper_records.jsonl";
    std::ofstream(out_path, std::ios::binary) << regenerated;
    const std::string ref_path =
        std::string(DMP_TEST_REFERENCE_DIR) + "/paper_records.jsonl";
    std::ifstream ref(ref_path, std::ios::binary);
    const std::string committed{std::istreambuf_iterator<char>(ref),
                                std::istreambuf_iterator<char>()};
    ASSERT_FALSE(committed.empty()) << ref_path << " is missing";
    if (committed == regenerated)
        return;

    // Name every figure and cell behind each record that moved.
    std::map<std::string, std::string> cellsOf;
    for (const sim::Figure *f : figs)
        for (const std::string &wl : opts.workloads)
            for (const sim::Cell &c : f->cells) {
                std::string &names = cellsOf[sim::configFingerprint(
                    sim::cellConfig(c, wl, opts))];
                names += (names.empty() ? "" : ", ") + std::string(f->name) +
                         " cell " + c.label;
            }
    std::map<std::string, json::Value> want;
    std::string err;
    for (const std::string &line : lines(committed)) {
        json::Value v;
        ASSERT_TRUE(json::parse(line, v, err)) << err;
        const json::Value *fp = v.get("fingerprint");
        want.emplace(fp && fp->isString() ? fp->string : "", std::move(v));
    }
    std::ostringstream report;
    std::size_t moved = 0;
    for (const std::string &line : lines(regenerated)) {
        json::Value got;
        ASSERT_TRUE(json::parse(line, got, err)) << err;
        const std::string fp = got.get("fingerprint")->string;
        const std::string where =
            cellsOf[fp] + " on " + got.get("workload")->string;
        auto it = want.find(fp);
        std::string diff = it == want.end()
                               ? "not in the committed records"
                               : firstDifference(it->second, got, "");
        if (it != want.end())
            want.erase(it);
        if (diff.empty())
            continue;
        if (++moved <= 10)
            report << "  " << where << ": " << diff << "\n";
    }
    for (const auto &[fp, v] : want)
        if (++moved <= 10)
            report << "  " << cellsOf[fp] << ": committed record of "
                   << v.get("label")->string << " on "
                   << v.get("workload")->string << " is no longer made\n";
    ADD_FAILURE() << moved << " record(s) differ from " << ref_path
                  << " (first 10 below; a record order or formatting "
                     "change shows none). If the change is intended, copy "
                  << out_path << " over it.\n"
                  << report.str();
}

} // namespace
} // namespace dmp
