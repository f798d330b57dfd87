#include "common/stats.hh"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace dmp
{

// ---------------------------------------------------------------------
// Distribution
// ---------------------------------------------------------------------

void
Distribution::init(std::uint64_t min_v, std::uint64_t max_v,
                   std::uint64_t bucket_size)
{
    dmp_assert(bucket_size > 0, "distribution bucket size must be > 0");
    dmp_assert(max_v >= min_v, "distribution range inverted");
    dmp_assert(snap.samples == 0, "distribution re-initialized after use");
    snap.min = min_v;
    snap.max = max_v;
    snap.bucketSize = bucket_size;
    bucketShift = std::has_single_bit(bucket_size)
        ? std::countr_zero(bucket_size) : -1;
    snap.buckets.assign(
        std::size_t((max_v - min_v) / bucket_size + 1), 0);
}

// ---------------------------------------------------------------------
// Formula
// ---------------------------------------------------------------------

double
Formula::value() const
{
    if (!fn)
        return 0.0;
    double v = fn();
    if (!std::isfinite(v)) {
        dmp_warn_once("formula produced a non-finite value (zero or "
                      "absent denominator?); emitting 0 instead");
        return 0.0;
    }
    return v;
}

// ---------------------------------------------------------------------
// StatGroup
// ---------------------------------------------------------------------

void
StatGroup::claimName(const std::string &name)
{
    dmp_assert(index.find(name) == index.end() &&
                   distIndex.find(name) == distIndex.end() &&
                   formulaIndex.find(name) == formulaIndex.end(),
               "duplicate stat name: ", groupName, ".", name);
}

void
StatGroup::addStat(const std::string &name, Counter *c, std::string desc)
{
    dmp_assert(c != nullptr, "null counter registered: ", name);
    claimName(name);
    index[name] = entries.size();
    entries.push_back(Entry{name, c, std::move(desc)});
}

void
StatGroup::addDistribution(const std::string &name, Distribution *d,
                           std::string desc)
{
    dmp_assert(d != nullptr, "null distribution registered: ", name);
    claimName(name);
    distIndex[name] = distEntries.size();
    distEntries.push_back(DistEntry{name, d, std::move(desc)});
}

void
StatGroup::addFormula(const std::string &name, std::function<double()> fn,
                      std::string desc)
{
    dmp_assert(bool(fn), "null formula registered: ", name);
    claimName(name);
    formulaIndex[name] = formulaEntries.size();
    formulaEntries.push_back(
        FormulaEntry{name, Formula(std::move(fn)), std::move(desc)});
}

std::uint64_t
StatGroup::get(const std::string &name) const
{
    auto it = index.find(name);
    if (it == index.end())
        dmp_fatal("unknown stat: ", groupName, ".", name);
    return entries[it->second].counter->value();
}

const Distribution &
StatGroup::distribution(const std::string &name) const
{
    auto it = distIndex.find(name);
    if (it == distIndex.end())
        dmp_fatal("unknown distribution: ", groupName, ".", name);
    return *distEntries[it->second].dist;
}

double
StatGroup::formula(const std::string &name) const
{
    auto it = formulaIndex.find(name);
    if (it == formulaIndex.end())
        dmp_fatal("unknown formula: ", groupName, ".", name);
    return formulaEntries[it->second].formula.value();
}

bool
StatGroup::has(const std::string &name) const
{
    return index.find(name) != index.end();
}

std::vector<std::string>
StatGroup::names() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &e : entries)
        out.push_back(e.name);
    return out;
}

std::vector<std::string>
StatGroup::distributionNames() const
{
    std::vector<std::string> out;
    out.reserve(distEntries.size());
    for (const auto &e : distEntries)
        out.push_back(e.name);
    return out;
}

std::vector<std::string>
StatGroup::formulaNames() const
{
    std::vector<std::string> out;
    out.reserve(formulaEntries.size());
    for (const auto &e : formulaEntries)
        out.push_back(e.name);
    return out;
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    for (const auto &e : entries) {
        os << groupName << '.' << e.name << ' ' << e.counter->value();
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << '\n';
    }
    for (const auto &e : distEntries) {
        const DistSnapshot &s = e.dist->snapshot();
        os << groupName << '.' << e.name << " samples=" << s.samples
           << " mean=" << s.mean() << " min=" << s.minVal
           << " max=" << s.maxVal << " underflow=" << s.underflow
           << " overflow=" << s.overflow;
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << '\n';
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
            if (s.buckets[i] == 0)
                continue; // sparse histograms stay readable
            std::uint64_t lo = s.min + i * s.bucketSize;
            os << groupName << '.' << e.name << "::" << lo << '-'
               << (lo + s.bucketSize - 1) << ' ' << s.buckets[i] << '\n';
        }
    }
    for (const auto &e : formulaEntries) {
        os << groupName << '.' << e.name << ' ' << e.formula.value();
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << '\n';
    }
    return os.str();
}

void
distSnapshotJson(json::Writer &w, const DistSnapshot &s)
{
    w.beginObject().field("min", s.min).field("max", s.max);
    w.field("bucket_size", s.bucketSize).field("samples", s.samples);
    w.field("sum", s.sum).key("mean").value(s.mean(), 6);
    w.field("min_val", s.minVal).field("max_val", s.maxVal);
    w.field("underflow", s.underflow).field("overflow", s.overflow);
    w.key("buckets").beginArray();
    for (std::uint64_t b : s.buckets)
        w.value(b);
    w.endArray().endObject();
}

} // namespace dmp
