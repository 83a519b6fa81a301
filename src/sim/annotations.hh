/**
 * @file
 * Hot-path contract annotations, consumed by `tools/hamslint`.
 *
 * The per-access discipline in ROADMAP.md ("Standing discipline") — no
 * heap allocation per simulated access, no hash-map probes, event
 * callbacks inside the 48-byte InlineFunction budget, bit-determinism —
 * used to be enforced only by runtime spot checks (sim/alloc_hook.hh
 * counters in a handful of tests). These macros turn it into a
 * machine-checked contract: `hamslint` walks the call graph
 * transitively from every HAMS_HOT_PATH function and reports contract
 * violations anywhere in the reachable set. The macros expand to
 * nothing in normal builds — they exist purely as markers for the
 * checker (and as documentation for the reader).
 *
 * ## Macros
 *
 * - `HAMS_HOT_PATH` — placed on a function definition (before the
 *   return type), marks it as a root of the per-access path. Every
 *   function reachable from a hot root through the static call graph
 *   is checked against the contract rules:
 *     [alloc]            reachable `new`/`delete`/`malloc`/
 *                        `make_unique` or growth of a std container
 *                        (`push_back`/`emplace`/`resize`/`insert`/
 *                        `assign`; `reserve` is the sanctioned
 *                        pre-sizing idiom and is never flagged)
 *     [hash-probe]       any probe of / iteration over an
 *                        `unordered_map`/`unordered_set`
 *     [callback-capture] `std::function` construction, and lambda
 *                        captures at event-callback sites
 *                        (`schedule`/`scheduleAt`/`scheduleCompletion`)
 *                        exceeding the 48-byte InlineFunction budget
 *                        or with indeterminate size (`[=]`, `[&]`,
 *                        `*this`, by-value object captures)
 *     [determinism]      wall-clock / PRNG calls (`time`, `rand`,
 *                        `std::random_device`, `std::chrono::*_clock`),
 *                        pointer-keyed ordered containers
 *                        (`std::map<T*, ...>`), and range-for
 *                        iteration over unordered containers
 *
 *   An annotation must sit in the function's own declaration: one
 *   written before an access specifier (`HAMS_HOT_PATH private:`) or a
 *   data member marks nothing and is itself reported as [annotation].
 *
 * - `HAMS_COLD_PATH` — marks a function as deliberately off the
 *   per-access path (recovery, power-fail, setup, error reporting).
 *   The checker's transitive walk stops at a cold function: a hot
 *   function may *call* it (the call is the audited boundary), but
 *   nothing inside it is checked. Use this for whole functions that
 *   are architecturally cold; use a suppression (below) for a single
 *   tolerated construct inside otherwise-hot code.
 *
 * - `HAMS_LINT_SUPPRESS("reason")` — suppresses findings in the
 *   statement that follows it (or, when placed with the annotations
 *   before a function definition, in that whole function). The reason
 *   string is mandatory and must be non-empty — an empty reason is
 *   itself reported — because every suppression is an entry in the
 *   audit trail: it should say *why* the construct is within the
 *   discipline (e.g. "first-touch pool growth, steady state reuses
 *   the free list") rather than restate what is being suppressed.
 *
 * ## Suppression policy
 *
 * 1. Amortized/first-touch growth (pools, arenas, free lists, tables
 *    growing to a high-water mark) is within the discipline — suppress
 *    at the growth site and say which structure amortizes it.
 * 2. Functional-data staging that timing-only runs never execute may
 *    be suppressed with a reason naming the gate.
 * 3. Never suppress a per-op allocation, probe, or oversized capture
 *    to make CI green: fix it (pool it, table it, shrink the capture)
 *    or move it behind a HAMS_COLD_PATH boundary.
 * 4. Type-erased primitives the checker cannot see through
 *    (InlineFunction's own storage management) are audited manually
 *    and pinned by tests/fixtures instead of annotations.
 *
 * Run the checker locally with `scripts/lint_hotpaths.sh`; CI runs the
 * same gate and fails on any unsuppressed finding.
 */

#ifndef HAMS_SIM_ANNOTATIONS_HH_
#define HAMS_SIM_ANNOTATIONS_HH_

/** Root of the allocation-free/deterministic per-access path. */
#define HAMS_HOT_PATH

/** Deliberately off the per-access path; the lint walk stops here. */
#define HAMS_COLD_PATH

/** Suppress findings in the next statement (or annotated function). */
#define HAMS_LINT_SUPPRESS(reason)

#endif // HAMS_SIM_ANNOTATIONS_HH_
