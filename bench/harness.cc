#include "harness.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "bench_util.hh"

#ifndef HAMS_BUILD_TYPE
#define HAMS_BUILD_TYPE "unknown"
#endif

namespace hams::bench {

namespace {

/** What a sweep's numbers depend on besides the source revision. */
#define HAMS_BENCH_CONTEXT_FIELDS(X)                                       \
    X(keep, std::string, compiler)                                         \
    X(keep, std::string, buildType)                                        \
    X(keep, std::uint32_t, hostCpus)                                       \
    X(keep, std::uint64_t, hamsBenchScale)                                 \
    X(keep, std::uint64_t, hamsBenchThreads)

struct BenchContext
{
    HAMS_FIELDS(BenchContext, HAMS_BENCH_CONTEXT_FIELDS)
};

} // namespace

std::string
snakeCase(const std::string& name)
{
    std::string out;
    for (char ch : name) {
        auto c = static_cast<unsigned char>(ch);
        if (std::isupper(c) && !out.empty())
            out += '_';
        out += static_cast<char>(std::tolower(c));
    }
    return out;
}

namespace detail {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char ch : s) {
        auto c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += {'\\', ch};
        } else if (c < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x", c);
            out += esc;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ull;
    return h ^ (h >> 31);
}

void
JsonMembers::raw(const std::string& key, const std::string& json)
{
    if (!keys.insert(key).second)
        throw std::logic_error("duplicate JSON key '" + key + "'");
    members.push_back(jsonString(key) + ": " + json);
}

std::string
JsonMembers::join(const std::string& sep) const
{
    std::string out;
    for (const std::string& m : members)
        out += (out.empty() ? "" : sep) + m;
    return out;
}

} // namespace detail

BenchReport::BenchReport()
{
    BenchContext c;
#if defined(__clang__)
    c.compiler = "clang " __clang_version__;
#else
    c.compiler = "gcc " __VERSION__;
#endif
    c.buildType = HAMS_BUILD_TYPE;
    c.hostCpus = std::thread::hardware_concurrency();
    c.hamsBenchScale = scale();
    c.hamsBenchThreads = benchThreads();
    top.value("context", c);
}

bool
BenchReport::check(bool ok, const std::string& cell,
                   const std::string& what)
{
    if (!ok)
        failed.push_back("[" + cell + "] " + what);
    return ok;
}

int
BenchReport::finish(const std::string& path) const
{
    std::string list;
    for (const std::string& r : rows)
        list += (list.empty() ? "\n    " : ",\n    ") + r;
    detail::JsonMembers doc = top;
    doc.raw("benchmarks", "[" + list + "\n  ]");

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  %s\n}\n", doc.join(",\n  ").c_str());
    std::fclose(f);
    std::printf("Results written to %s\n", path.c_str());
    for (const std::string& msg : failed)
        std::fprintf(stderr, "gate failed: %s\n", msg.c_str());
    return failed.empty() ? 0 : 1;
}

} // namespace hams::bench
