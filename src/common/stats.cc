#include "common/stats.hh"

#include <bit>
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
// Text dump
// ---------------------------------------------------------------------

namespace
{

/** End a dump line with its "  # desc" comment, if any, and append it. */
void
endLine(std::string &out, std::ostringstream &os, std::string_view desc)
{
    if (!desc.empty())
        os << "  # " << desc;
    os << '\n';
    out += os.str();
}

} // namespace

void
dumpStat(std::string &out, std::string_view group, std::string_view name,
         const Counter &c, std::string_view desc)
{
    std::ostringstream os;
    os << group << '.' << name << ' ' << c.value();
    endLine(out, os, desc);
}

void
dumpStat(std::string &out, std::string_view group, std::string_view name,
         const Distribution &d, std::string_view desc)
{
    const DistSnapshot &s = d.snapshot();
    std::ostringstream os;
    os << group << '.' << name << " samples=" << s.samples
       << " mean=" << s.mean() << " min=" << s.minVal
       << " max=" << s.maxVal << " underflow=" << s.underflow
       << " overflow=" << s.overflow;
    endLine(out, os, desc);
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
        if (s.buckets[i] == 0)
            continue; // sparse histograms stay readable
        std::uint64_t lo = s.min + i * s.bucketSize;
        std::ostringstream bucket;
        bucket << group << '.' << name << "::" << lo << '-'
               << (lo + s.bucketSize - 1) << ' ' << s.buckets[i];
        endLine(out, bucket, "");
    }
}

void
dumpStat(std::string &out, std::string_view group, std::string_view name,
         double value, std::string_view desc)
{
    std::ostringstream os;
    os << group << '.' << name << ' ' << value;
    endLine(out, os, desc);
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
