/**
 * @file
 * Stats structs whose fields are declared once.
 *
 * Each stats struct (LatencyBreakdown, HamsStats, NvmeEngineStats,
 * FtlStats, RunResult, ShardedStats) lists its fields in one X-macro,
 * each entry tagged with its merge rule:
 *
 *     #define HAMS_FOO_FIELDS(X)              \
 *         X(sum, std::uint64_t, events)       \
 *         X(max, std::uint64_t, peakDepth)    \
 *         X(keep, std::string, label)
 *     struct Foo
 *     {
 *         HAMS_FIELDS(Foo, HAMS_FOO_FIELDS)
 *     };
 *
 * HAMS_FIELDS declares the members (value-initialised, in list order,
 * so aggregate initialisation is unchanged) and generates mergeFields,
 * operator== and a field visitor that firstDifference() below is
 * built on. All of them expand the same list, so merge, equality and
 * test diagnostics can never disagree on which fields exist. Comments
 * inside a list must be block comments: a line comment would swallow
 * the continuation backslash and, with it, the next entry.
 *
 * The merge rules. A stats struct is merged when one view covers
 * several parallel entities — the cores of an SMP run, the shards of
 * a ShardedPlatform — and the rule says how a field aggregates:
 *  - sum:  event counters and accumulated times. A LatencyBreakdown
 *          field adds with its operator+=, which merges by its list.
 *  - max:  peaks and instantaneous levels (wait-list and gate-queue
 *          depth peaks, pacer levels) and the wall time of parallel
 *          entities (RunResult::simTime). Each shard's wait lists and
 *          gate queue are separate structures, so the platform-wide
 *          peak is the deepest any one of them got; summing would
 *          report contention no single structure ever saw. Parallel
 *          entities overlap in time, so summing simTime would
 *          double-count the wall.
 *  - keep: labels and derived rates. The merge target keeps its own
 *          value; finalizeRunResult (cpu/core_model.hh) rebuilds the
 *          rates from the merged counters.
 *  - nested: a field that is itself a listed struct with no `+=` (a
 *          DeviceActivity section), merged by its own list.
 */

#ifndef HAMS_SIM_FIELDS_HH_
#define HAMS_SIM_FIELDS_HH_

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

namespace hams {
namespace fields {

/** @name Merge-rule tags named by field-list entries. */
///@{
struct sum {};
struct max {};
struct keep {};
struct nested {};
///@}

/** True when @p T declares its fields with HAMS_FIELDS (which makes
 *  mergeFields findable for it). */
template <typename T, typename = void>
constexpr bool listed = false;

template <typename T>
constexpr bool listed<T, std::void_t<decltype(mergeFields(
                             std::declval<T&>(), std::declval<const T&>()))>> =
    true;

} // namespace fields

#define HAMS_FIELD_DECLARE(rule, type, name) type name{};
#define HAMS_FIELD_VISIT(rule, type, name)                                 \
    f(::hams::fields::rule{}, #name, a.name, b.name);
/* The merge statement is picked by pasting the rule onto a macro name,
 * so the generated merge is exactly the hand-written one (per access,
 * LatencyBreakdown::operator+= compiles to the same instructions). */
#define HAMS_FIELD_MERGE(rule, type, name) HAMS_FIELD_MERGE_##rule(name)
#define HAMS_FIELD_MERGE_sum(name) into.name += from.name;
#define HAMS_FIELD_MERGE_max(name) into.name = std::max(into.name, from.name);
#define HAMS_FIELD_MERGE_keep(name)
#define HAMS_FIELD_MERGE_nested(name) mergeFields(into.name, from.name);
#define HAMS_FIELD_EQUAL(rule, type, name) a.name == b.name &&

/**
 * Declare the fields of @p LIST as members of @p Type, plus
 * mergeFields(into, from), which merges @p from into @p into field by
 * field under each field's rule; operator==; and forEachField(a, b,
 * f), which calls f(rule, name, a.field, b.field) for each field in
 * list order.
 */
#define HAMS_FIELDS(Type, LIST)                                            \
    LIST(HAMS_FIELD_DECLARE)                                               \
    template <typename A, typename B, typename F>                          \
    static void forEachField(A& a, B& b, F&& f)                            \
    {                                                                      \
        LIST(HAMS_FIELD_VISIT)                                             \
    }                                                                      \
    friend void mergeFields([[maybe_unused]] Type& into,                   \
                            [[maybe_unused]] const Type& from)             \
    {                                                                      \
        LIST(HAMS_FIELD_MERGE)                                             \
    }                                                                      \
    friend bool operator==(const Type& a, const Type& b)                   \
    {                                                                      \
        return LIST(HAMS_FIELD_EQUAL) true;                                \
    }

/**
 * Dotted name of the first field, in list order, where @p a and @p b
 * differ (e.g. "memoryDelay.ssd"); empty when they are equal.
 */
template <typename T>
std::string
firstDifference(const T& a, const T& b)
{
    std::string diff;
    T::forEachField(a, b, [&diff](auto, const char* name, const auto& x,
                                  const auto& y) {
        if (!diff.empty() || x == y)
            return;
        if constexpr (fields::listed<std::decay_t<decltype(x)>>)
            diff = std::string(name) + "." + firstDifference(x, y);
        else
            diff = name;
    });
    return diff;
}

} // namespace hams

#endif // HAMS_SIM_FIELDS_HH_
