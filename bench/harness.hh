/**
 * @file
 * The harness the sweep binaries share: BENCH_*.json rows and
 * fingerprints generated from field lists, and acceptance gates
 * checked in the binary itself.
 *
 * A sweep declares its row struct's columns once with HAMS_FIELDS
 * (sim/fields.hh). Each field is written under its name converted to
 * snake_case (gcStallTicks -> "gc_stall_ticks"), a nested listed
 * struct as a nested object. BenchReport collects a sweep's rows and
 * gate outcomes and writes
 *
 *     {
 *       "context": {compiler, build type, host CPUs,
 *                   HAMS_BENCH_SCALE, HAMS_BENCH_THREADS},
 *       <summary fields>,
 *       "benchmarks": [
 *         {"name": "<cell>", <row fields>},
 *         ...
 *       ]
 *     }
 *
 * The commit holding the file names the source revision. Gates always
 * run; a failing gate still writes the file, and finish() then prints
 * each failure with its cell on stderr and returns 1.
 */

#ifndef HAMS_BENCH_HARNESS_HH_
#define HAMS_BENCH_HARNESS_HH_

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/fields.hh"

namespace hams::bench {

/** "gcStallTicks" -> "gc_stall_ticks". */
std::string snakeCase(const std::string& name);

namespace detail {

/** Shortest text that parses back to exactly @p v (null if not
 *  finite, which JSON cannot express). */
std::string jsonNumber(double v);
/** @p s as a quoted, escaped JSON string. */
std::string jsonString(const std::string& s);
std::uint64_t mix(std::uint64_t h, std::uint64_t v);

/** The members of one JSON object. A repeated key throws
 *  std::logic_error, so two fields that map to the same snake_case
 *  key cannot shadow each other. */
class JsonMembers
{
  public:
    void raw(const std::string& key, const std::string& json);

    /** @p v is a bool, integer, double, string or listed struct. */
    template <typename V>
    void
    value(const std::string& key, const V& v)
    {
        if constexpr (fields::listed<V>)
            raw(key, "{" + JsonMembers::of(v).join(", ") + "}");
        else if constexpr (std::is_same_v<V, bool>)
            raw(key, v ? "true" : "false");
        else if constexpr (std::is_integral_v<V>)
            raw(key, std::to_string(v));
        else if constexpr (std::is_floating_point_v<V>)
            raw(key, jsonNumber(v));
        else
            raw(key, jsonString(v));
    }

    template <typename T>
    void
    fields(const T& x)
    {
        T::forEachField(x, x, [this](auto, const char* name,
                                     const auto& v, const auto&) {
            value(snakeCase(name), v);
        });
    }

    template <typename T>
    static JsonMembers
    of(const T& x)
    {
        JsonMembers m;
        m.fields(x);
        return m;
    }

    std::string join(const std::string& sep) const;

  private:
    std::set<std::string> keys;
    std::vector<std::string> members;
};

} // namespace detail

/** One-line JSON object of the fields of listed struct @p x. */
template <typename T>
std::string
toJson(const T& x)
{
    return "{" + detail::JsonMembers::of(x).join(", ") + "}";
}

/** Hash of every field of listed struct @p x in list order: doubles
 *  by bit pattern, strings by their bytes, nested structs by their
 *  own fingerprint. */
template <typename T>
std::uint64_t
fingerprint(const T& x)
{
    std::uint64_t h = 0;
    T::forEachField(x, x, [&h](auto, const char*, const auto& v,
                               const auto&) {
        using V = std::decay_t<decltype(v)>;
        std::uint64_t bits = 0;
        if constexpr (fields::listed<V>)
            bits = fingerprint(v);
        else if constexpr (std::is_floating_point_v<V>)
            std::memcpy(&bits, &v, sizeof(v));
        else if constexpr (std::is_integral_v<V>)
            bits = static_cast<std::uint64_t>(v);
        else
            for (unsigned char c : v)
                bits = detail::mix(bits, c);
        h = detail::mix(h, bits);
    });
    return h;
}

/** One sweep's BENCH_*.json document and gate outcomes. */
class BenchReport
{
  public:
    BenchReport();

    /** Write the fields of listed @p s at the top level. */
    template <typename T>
    void
    summary(const T& s)
    {
        top.fields(s);
    }

    /** Append row @p name with the fields of listed @p r. */
    template <typename T>
    void
    row(const std::string& name, const T& r)
    {
        detail::JsonMembers m;
        m.value("name", name);
        m.fields(r);
        rows.push_back("{" + m.join(", ") + "}");
    }

    /** Gate: record that @p what failed in @p cell unless @p ok. */
    bool check(bool ok, const std::string& cell, const std::string& what);

    /** Identity gate on listed @p a and @p b; a failure names the
     *  first differing field. */
    template <typename T>
    bool
    same(const T& a, const T& b, const std::string& cell,
         const std::string& what)
    {
        std::string diff = firstDifference(a, b);
        return check(diff.empty(), cell,
                     what + " (first difference: " + diff + ")");
    }

    /** "[cell] what" of each failed gate, in check order. */
    const std::vector<std::string>& failures() const { return failed; }

    /** Write the document to @p path, then print the failed gates.
     *  @return 1 if a gate failed or the write did, else 0. */
    int finish(const std::string& path) const;

  private:
    detail::JsonMembers top;
    std::vector<std::string> rows;
    std::vector<std::string> failed;
};

} // namespace hams::bench

#endif // HAMS_BENCH_HARNESS_HH_
